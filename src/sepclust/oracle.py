"""Exponential-time exact baselines for desk-scale certification.

These certify the approximation and impossibility claims on small inputs:
the exact minimum radius of a ball covering alpha points, the exact best
separated pair over all two-cluster assignments, and the arithmetic facts
that make the three-color line hopeless for strong separation.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algorithms import ColoredInstance
from .geometry import REL_TOL, PointSet, _sq_blocks, pairwise_distances
from .separation import SeparationKind, check_sigma


class OracleBudgetExceeded(RuntimeError):
    """Instance is larger than the oracle's combinatorial budget."""


def _check_budget(max_n: int) -> None:
    if max_n < 1:
        raise ValueError("budgets must be positive")


def _circumcenters(subsets: np.ndarray):
    """Batched circumcenter of m affinely independent points in R^d.

    ``subsets`` has shape (C, m, d). Returns (centers, radii, valid); entries
    with a numerically singular Gram system are flagged invalid (their
    minimum enclosing ball is determined by a smaller subset anyway).
    """
    p0 = subsets[:, 0, :]
    u = subsets[:, 1:, :] - p0[:, None, :]
    gram = 2.0 * np.einsum("cmd,cnd->cmn", u, u)
    rhs = np.einsum("cmd,cmd->cm", u, u)
    det = np.linalg.det(gram)
    diag = np.einsum("cmm->cm", gram)
    scale = np.prod(diag, axis=1)
    valid = (scale > 0.0) & (np.abs(det) > 1e-12 * scale)
    centers = np.zeros_like(p0)
    radii = np.zeros(subsets.shape[0])
    if valid.any():
        lam = np.linalg.solve(gram[valid], rhs[valid][..., None])[..., 0]
        offs = np.einsum("cm,cmd->cd", lam, u[valid])
        centers[valid] = p0[valid] + offs
        radii[valid] = np.sqrt(np.einsum("cd,cd->c", offs, offs))
    return centers, radii, valid


def _candidate_balls(coords: np.ndarray):
    """Centers/radii of every minimum enclosing ball of <= d+1 points.

    Any optimal covering ball shrinks to the minimum enclosing ball of its
    covered subset, which is determined by at most d+1 boundary points, so
    this candidate family contains an optimal ball for every alpha.
    """
    n, d = coords.shape
    centers = [coords]
    radii = [np.zeros(n)]
    ii, jj = np.triu_indices(n, 1)
    if ii.size:
        centers.append(0.5 * (coords[ii] + coords[jj]))
        radii.append(0.5 * np.linalg.norm(coords[ii] - coords[jj], axis=1))
    for m in range(3, d + 2):
        combos = np.array(list(itertools.combinations(range(n), m)))
        if combos.size == 0:
            continue
        ctr, rad, valid = _circumcenters(coords[combos])
        centers.append(ctr[valid])
        radii.append(rad[valid])
    return np.vstack(centers), np.concatenate(radii)


def exact_min_ball_all(ps: PointSet, max_n: int = 40) -> np.ndarray:
    """Exact optimal radii for every alpha in 1..n at once, for n <= max_n."""
    _check_budget(max_n)
    if not isinstance(ps, PointSet):
        ps = PointSet(ps)
    n, d = ps.n, ps.dim
    if n > max_n:
        raise OracleBudgetExceeded(f"n={n} exceeds ball budget {max_n}")
    if d > 3:
        raise OracleBudgetExceeded(f"d={d} exceeds ball oracle dimension limit 3")
    if d == 1:
        xs = np.sort(ps.coords[:, 0])
        # The widest window, in Python floats, which overflow to inf quietly.
        if not np.isfinite(xs[-1].item() - xs[0].item()):
            raise ValueError("coordinates must be finite")
        out = np.empty(n)
        for alpha in range(1, n + 1):
            out[alpha - 1] = 0.5 * (xs[alpha - 1 :] - xs[: n - alpha + 1]).min()
        return out
    with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates
        centers, radii = _candidate_balls(ps.coords)
    if not (np.isfinite(centers).all() and np.isfinite(radii).all()):  # an overflow
        raise ValueError("coordinates must be finite")
    lim = radii * (1.0 + REL_TOL)
    counts = np.zeros(centers.shape[0], dtype=int)
    for blk in _sq_blocks(ps.coords, centers):
        np.sqrt(blk, out=blk)
        counts += (blk <= lim).sum(axis=0)
    by_radius = np.argsort(radii, kind="stable")
    run_max = np.maximum.accumulate(counts[by_radius])
    pos = np.searchsorted(run_max, np.arange(1, n + 1), side="left")
    return radii[by_radius][pos]


def exact_min_ball_alpha(ps: PointSet, alpha: int, max_n: int = 40) -> float:
    """Exact minimum radius of any ball covering alpha points of the set."""
    _check_budget(max_n)
    if not isinstance(ps, PointSet):
        ps = PointSet(ps)
    alpha = int(alpha)
    if alpha < 1 or alpha > ps.n:
        raise ValueError(f"alpha must be in [1, {ps.n}], got {alpha}")
    return float(exact_min_ball_all(ps, max_n)[alpha - 1])


def best_separated_pair(
    ps: PointSet,
    sigma: float,
    kind: SeparationKind,
    max_n: int = 12,
):
    """Exact maximum of min(|C1|, |C2|) over all separated two-cluster
    assignments, with a maximizing witness.

    Enumerates assignments of every point to {C1, C2, neither} in ascending
    base-3 order (earlier indices more significant), deduplicated by forcing
    the lowest assigned index into C1. Branches already violating the
    separation inequality are pruned (diameters only grow and the cross
    distance only shrinks as points are added, so violation is permanent),
    as are branches that cannot beat the incumbent; the first maximizer in
    enumeration order is returned. At most ``max_n`` points; a sigma that
    fails ``check_sigma`` raises ValueError.
    """
    _check_budget(max_n)
    s = check_sigma(sigma)
    if not isinstance(ps, PointSet):
        ps = PointSet(ps)
    n = ps.n
    if n > max_n:
        raise OracleBudgetExceeded(f"n={n} exceeds assignment budget {max_n}")
    if n < 2:
        raise ValueError("need at least two points")
    if not isinstance(kind, SeparationKind):
        kind = SeparationKind.parse(kind)
    semi = kind is SeparationKind.SEMI
    slack = 1.0 - REL_TOL
    rows = pairwise_distances(ps.coords).tolist()
    best_q = 0
    best_wit = ([], [])
    a_set: list = []
    b_set: list = []

    def violated(diam_a: float, diam_b: float, cross: float) -> bool:
        term = min(diam_a, diam_b) if semi else max(diam_a, diam_b)
        return cross < s * term * slack

    def rec(i: int, diam_a: float, diam_b: float, cross: float):
        nonlocal best_q, best_wit
        la, lb = len(a_set), len(b_set)
        if la and lb and violated(diam_a, diam_b, cross):
            return
        if i == n:
            if la and lb and min(la, lb) > best_q:
                best_q = min(la, lb)
                best_wit = (a_set.copy(), b_set.copy())
            return
        rem = n - i
        if min(la + rem, lb + rem, (la + lb + rem) // 2) <= best_q:
            return
        row = rows[i]
        rec(i + 1, diam_a, diam_b, cross)
        nd = diam_a
        for a in a_set:
            if row[a] > nd:
                nd = row[a]
        nc = cross
        for b in b_set:
            if row[b] < nc:
                nc = row[b]
        a_set.append(i)
        rec(i + 1, nd, diam_b, nc)
        a_set.pop()
        if la:
            nd = diam_b
            for b in b_set:
                if row[b] > nd:
                    nd = row[b]
            nc = cross
            for a in a_set:
                if row[a] < nc:
                    nc = row[a]
            b_set.append(i)
            rec(i + 1, diam_a, nd, nc)
            b_set.pop()

    rec(0, 0.0, 0.0, float("inf"))
    return best_q, (
        np.array(best_wit[0], dtype=int),
        np.array(best_wit[1], dtype=int),
    )


def check_three_color_hopeless(inst: ColoredInstance, sigma: float) -> bool:
    """Verify the two facts that force quality one for strongly separated
    colorful triples on the three-color line: the minimum gap inside class 2
    is at least n, and the diameter of classes 0 and 1 together is at most
    2n. Requires a sigma that passes ``check_sigma`` and is >= 3 (below 3 the
    facts do not force anything).
    """
    if check_sigma(sigma) < 3.0:
        raise ValueError("the hopelessness argument needs sigma >= 3")
    if inst.k != 3 or inst.points.dim != 1:
        raise ValueError("expected a three-color instance on the line")
    sizes = inst.sizes
    if len(set(sizes)) != 1:
        raise ValueError("expected equal color class sizes")
    n = sizes[0]
    third = np.sort(inst.points.coords[inst.color_indices(2), 0])
    min_gap = float(np.diff(third).min(initial=np.inf))
    first_two = inst.points.coords[np.isin(inst.colors, (0, 1)), 0]
    diam = float(first_two.max() - first_two.min())
    return min_gap >= n and diam <= 2 * n
