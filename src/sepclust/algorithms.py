"""Extraction of k large sigma-separated clusters from a point set.

Four algorithms, built from one primitive and one rule. The primitive is
the dense-ball engine ``geometry.DenseBalls``: the smallest alpha-ball among
the surviving points, its alpha nearest points, and removal. The rule is
``_select_separated``: a greedy pick of sigma-separated balls.

* ``semi_separated_k`` and ``semi_separated_k_colored``: one rule, the
  smallest ball over the groups' engines, then removal of a scaled
  exclusion ball; semi separation, cluster size exactly alpha. On colored
  input a color retires with its pick, so cluster i comes from set i.
* ``strong_separated_k``: quorum clustering (the engine removing each
  ball's members), densest epoch, then the selector; strong separation.
* ``well_separated_k_colored``: per-color quorum clusterings merged by the
  selector; well separation.

All four share one contract, ``_verified``. It checks the input and builds
its groups (each color class, or all points): global indices, coordinates,
distance matrix and, in auto mode, order-statistic table (below). Each
algorithm supplies only a pick rule ``(groups, cfg, alpha)``, the two semi
ones the same, which returns picks (group, center, radius, members) indexed
within a group and rejects a radius beyond the double range. ``_verified``
alone builds the clustering from the returned alpha's picks: global
indices, clusters ordered by group, one ``Ball`` per pick.

Alpha (the per-cluster size target) is either explicit, derived from a
caller-supplied constant c, or found automatically by doubling then binary
search, under one policy for all four (``_verified``). With m = n, or the
smallest color size on colored input, c gives alpha = max(1, ceil(c m /
(k sigma^d))) for semi and max(1, floor(c m / (k sigma^d max(1, log2 Phi))))
for strong and well, Phi the spread of all points (sigma^d beyond a double:
alpha = 1; the quotient is capped at the infeasible n + 1, and sigma^d = 0
counts as an infinite quotient). Auto mode returns a feasible alpha whose
alpha + 1 was probed and failed, or one equal to the cap (n // k, or m on
colored input).
Feasibility is not downward closed, so a larger alpha may still succeed;
auto mode does not promise the largest feasible alpha. Every returned
clustering is re-verified with ``check_separation`` before it leaves this
module.

Each auto-mode probe at alpha >= 2 builds its engines afresh, seeded with
every row's alpha-th smallest distance. In auto mode each group carries
``geometry._sorted_prefix`` of its matrix (when the cap is at least 2): the
first cap order statistics of every row, sorted, built with the matrix and
read by every probe at alpha >= 2, at the cost of 8 n cap bytes beside the
matrix for the rest of the call; a call whose alpha = 1 probe fails never
reads it. An explicit or ``c_override`` alpha makes one probe and builds no
table: its semi engines start from triangle-inequality bounds and partition
only the rows that a bound cannot rule out, and its quorum clusterings seed
from one partition of every row.

Exclusion rules are stated on balls. Two balls are treated as sigma-separated
when the gap between them (center distance minus both radii) is at least
``sigma * 2 * r``, with r the larger of the pair's radii for well separation
and the largest candidate radius of the chosen epoch for strong separation.
Since every cluster sits inside its ball, a kept pair of balls certifies the
corresponding cluster-level separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    REL_TOL, Ball, DenseBalls, PointSet, _check_int, _distances_to, _sorted_prefix,
    closest_pair, pairwise_distances, spread,
)
from .quorum import _quorum_steps, epochs
from .separation import Clustering, SeparationKind, _int_labels, check_separation, check_sigma


class InsufficientPoints(RuntimeError):
    """Extraction ran out of surviving points at the given iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"not enough surviving points at iteration {iteration}")
        self.iteration = int(iteration)


class ColorExhausted(RuntimeError):
    """A color's ball set emptied before that color received a cluster."""

    def __init__(self, color: int):
        super().__init__(f"ball set of color {color} exhausted")
        self.color = int(color)


class VerificationFailed(RuntimeError):
    """Post-extraction separation re-check failed (internal invariant)."""


@dataclass(frozen=True, eq=False)
class ColoredInstance:
    """k nonempty color classes over one point set.

    Points keep their original input order; ``colors[i]`` is the class of
    point i and classes form the contiguous range 0..k-1. Cluster output for
    colored algorithms uses these global indices.
    """

    points: PointSet
    colors: np.ndarray

    def __post_init__(self):
        if not isinstance(self.points, PointSet):
            object.__setattr__(self, "points", PointSet(self.points))
        colors = _int_labels(self.colors, "colors")
        if colors.shape[0] != self.points.n:
            raise ValueError("colors must label every point")
        if colors.size == 0:
            raise ValueError("colored instance must be nonempty")
        uniq = np.unique(colors)
        if uniq[0] != 0 or uniq[-1] != uniq.size - 1:
            raise ValueError("colors must form a contiguous range 0..k-1")
        object.__setattr__(self, "colors", colors)

    @property
    def k(self) -> int:
        return int(self.colors.max()) + 1

    @property
    def sizes(self) -> list:
        return [int((self.colors == c).sum()) for c in range(self.k)]

    def color_indices(self, color: int) -> np.ndarray:
        return np.flatnonzero(self.colors == color)

    @classmethod
    def from_sets(cls, sets) -> "ColoredInstance":
        pss = [s if isinstance(s, PointSet) else PointSet(s) for s in sets]
        if not pss:
            raise ValueError("need at least one color class")
        coords = np.vstack([p.coords for p in pss])
        colors = np.concatenate(
            [np.full(p.n, c, dtype=int) for c, p in enumerate(pss)]
        )
        return cls(PointSet(coords), colors)


@dataclass(frozen=True)
class ExtractionConfig:
    """Separation sigma, cluster count k, and the alpha policy.

    ``alpha=None`` selects auto mode (a feasible alpha whose successor is
    infeasible, or the cap; see ``_search_max_alpha``). ``c_override``
    instead derives alpha from the classical formula with the given constant;
    it is mutually exclusive with an explicit alpha. ``k`` and an explicit
    ``alpha`` are integers >= 1, not ``bool``, and ``c_override`` is finite
    and > 0 (else a ValueError, as for a sigma that fails ``check_sigma``).
    """

    sigma: float
    k: int
    alpha: Optional[int] = None
    c_override: Optional[float] = None

    def __post_init__(self):
        check_sigma(self.sigma)
        if _check_int(self.k, "k") < 1:
            raise ValueError("k must be at least 1")
        if self.alpha is not None and _check_int(self.alpha, "alpha") < 1:
            raise ValueError("explicit alpha must be at least 1")
        c = self.c_override
        if c is not None and not (float(c) > 0.0 and math.isfinite(float(c))):
            raise ValueError(f"c_override must be finite and positive, got {c!r}")
        if self.alpha is not None and self.c_override is not None:
            raise ValueError("alpha and c_override are mutually exclusive")


_INFEASIBLE = (InsufficientPoints, ColorExhausted)


def _search_max_alpha(run: Callable, cap: int):
    """A locally maximal feasible alpha by doubling then binary search.

    ``run(alpha)`` returns extraction output or raises an infeasibility
    error; each alpha is run at most once. The returned alpha is feasible,
    and either alpha + 1 was probed infeasible or alpha equals ``cap``.
    Feasibility is not downward closed, so this need not be the largest
    feasible alpha. Alpha = 1 is probed first; if it fails, its error
    propagates. That probe reads no row of a distance matrix to find its
    balls: at alpha = 1 every ball is one point of radius 0, which
    ``DenseBalls`` seeds and ``_quorum_steps`` returns in O(n).
    """
    cap = max(1, int(cap))
    # An infeasible probe is kept as None, not as its error, whose traceback
    # would tie this dict and the call's matrices into a reference cycle.
    results = {1: run(1)}

    def feasible(a: int) -> bool:
        if a not in results:
            try:
                results[a] = run(a)
            except _INFEASIBLE:
                results[a] = None
        return results[a] is not None

    lo, probe = 1, 2
    while probe <= cap and feasible(probe):
        lo, probe = probe, probe * 2
    hi = probe if probe <= cap else cap + 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, results[lo]


def _resolve_alpha(cfg: ExtractionConfig, run: Callable, cap: int, formula: Callable):
    if cfg.alpha is not None:
        return int(cfg.alpha), run(int(cfg.alpha))
    if cfg.c_override is not None:
        a = max(1, formula(float(cfg.c_override)))
        return a, run(a)
    return _search_max_alpha(run, cap)


# Nonzero coordinates below this magnitude may square to 0.0 in the kernel.
_TINY = 2.0**-484


def _has_duplicates(coords: np.ndarray) -> bool:
    """Exactly ``closest_pair(coords) == 0.0``, in O(n log n) by sorting.

    A sum of non-negative squares is 0.0 only if every square is, and the
    square of a double is 0.0 only when its magnitude is at most 2^-537.5.
    Two unequal doubles that are each 0 or at least 2^-484 in magnitude
    differ by at least 2^-536, so on such coordinates a zero distance means
    equal rows. Any other nonzero coordinate sends the check to
    ``closest_pair``.
    """
    if coords.shape[0] < 2:
        return False
    mag = np.abs(coords)
    if np.any((mag < _TINY) & (mag > 0.0)):
        return closest_pair(coords) == 0.0
    rows = coords + 0.0  # -0.0 + 0.0 is 0.0
    rows = rows[np.lexsort(rows.T[::-1])]
    return bool((rows[1:] == rows[:-1]).all(axis=1).any())


def _finite(r: float) -> float:
    if not math.isfinite(r):  # no ball certifies a radius beyond the double range
        raise ValueError("ball radius must be finite and nonnegative")
    return r


def _verified(obj, cfg: ExtractionConfig, kind: SeparationKind, colored: bool, picks) -> Clustering:
    """Check the input, resolve alpha under the one policy, pick, and return
    the self-checked clustering.

    Every input check, the duplicate check of strong and well included, runs
    first; an input of the other type (``colored`` says which is expected)
    is a TypeError. The groups are (global indices, coordinates, distance
    matrix, order-statistic table) of each color class, or of all points on
    plain input. With m the smallest group's size, alpha's cap is m on
    colored input, else m // k; the table is ``_sorted_prefix(dist, cap)``
    in auto mode with a cap of at least 2, else None. ``picks(groups, cfg,
    alpha)`` returns an alpha's picks; only the returned alpha's become
    clusters (ordered by group, then by pick).
    """
    if isinstance(obj, ColoredInstance) != colored:
        want = "a ColoredInstance" if colored else "a PointSet or (n, d) coordinates"
        raise TypeError(f"expected {want}, got {type(obj).__name__}")
    k, sigma = cfg.k, float(cfg.sigma)
    if colored:
        if obj.k != k:
            raise ValueError(f"config k={k} but instance has {obj.k} colors")
        if kind is SeparationKind.WELL and len(set(obj.sizes)) != 1:
            raise ValueError("well-separated colored extraction needs equal color sizes")
        points, g_idx = obj.points, [obj.color_indices(c) for c in range(k)]
    else:
        points = obj if isinstance(obj, PointSet) else PointSet(obj)
        if points.n < k:
            raise ValueError(f"need at least k={k} points, got {points.n}")
        g_idx = [np.arange(points.n)]
    if kind is not SeparationKind.SEMI and _has_duplicates(points.coords):
        dup = "union contains duplicate points" if colored else "point set contains duplicates"
        raise ValueError(f"spread undefined: {dup}")
    m = min(g.size for g in g_idx)
    cap = m if colored else m // k
    auto = cfg.alpha is None and cfg.c_override is None and cap > 1
    groups = []
    for g in g_idx:
        cc = points.coords[g]
        dist = pairwise_distances(cc)
        groups.append((g, cc, dist, _sorted_prefix(dist, cap) if auto else None))

    def formula(c: float) -> int:
        try:
            sd = sigma ** points.dim
        except OverflowError:  # sigma^d beyond a double: the formula is below one
            return 1
        log_phi = 1.0
        if kind is not SeparationKind.SEMI:
            phi = spread(points) if points.n >= 2 else 1.0
            log_phi = max(1.0, math.log2(phi))
        denom = k * sd * log_phi
        q = c * m / denom if denom else math.inf
        if math.isnan(q):  # c * m and denom both overflow: divide the mantissas
            (fc, ec), (fs, es) = math.frexp(c), math.frexp(sd)
            q = math.ldexp(fc * m / (k * fs * log_phi), ec - es)
        q = min(q, points.n + 1)
        return math.ceil(q) if kind is SeparationKind.SEMI else math.floor(q)

    alpha, chosen = _resolve_alpha(cfg, lambda a: picks(groups, cfg, a), cap=cap, formula=formula)
    chosen = sorted(chosen, key=lambda pick: pick[0])
    clustering = Clustering(
        points=points, clusters=tuple(groups[g][0][mem] for g, _, _, mem in chosen),
        sigma=cfg.sigma, kind=kind, colors=obj.colors if colored else None,
        balls=tuple(Ball(groups[g][1][c].copy(), r) for g, c, r, _ in chosen), alpha=alpha,
    )
    if not check_separation(clustering):
        raise VerificationFailed(f"{kind.value} separation re-check failed (internal error)")
    return clustering


def semi_separated_k(points: PointSet, cfg: ExtractionConfig) -> Clustering:
    """k semi sigma-separated clusters of size exactly alpha.

    Iteration i extracts a 2-approximate smallest alpha-ball of the
    survivors, keeps the alpha covered points nearest its center, and
    discards every survivor inside the same ball scaled by (2 sigma + 2).
    Later clusters therefore sit at distance >= 2 sigma r_i from cluster i,
    which is at least sigma times its diameter.
    """
    return _verified(points, cfg, SeparationKind.SEMI, False, _semi_picks)


def semi_separated_k_colored(inst: ColoredInstance, cfg: ExtractionConfig) -> Clustering:
    """Colored semi separation: cluster i is a subset of color class i.

    The rule of ``semi_separated_k``, with one color per pick: each
    iteration takes the smallest alpha-ball among the still-active colors
    (ties by color index), retires that color with the alpha covered points
    nearest the center, and removes the points of the remaining active
    colors inside the (2 sigma + 2)-scaled ball.
    """
    return _verified(inst, cfg, SeparationKind.SEMI, True, _semi_picks)


def _semi_picks(groups, cfg: ExtractionConfig, alpha: int) -> list:
    """One group serves every pick of plain input; on colored input a group
    retires with its pick. The exclusion reads the picked group's survivors
    from its matrix row and measures the other groups' to the center."""
    scale = 2.0 * float(cfg.sigma) + 2.0
    engines = [DenseBalls(d, alpha, None if t is None else t[:, alpha - 1]) for *_, d, t in groups]
    active = list(range(len(groups)))
    picks = []
    for it in range(cfg.k):
        best = None
        for g in active:
            if engines[g].alive.size < alpha:
                raise InsufficientPoints(it)
            ctr, r = engines[g].smallest()
            if best is None or r < best[0]:  # ties to the first group
                best = (r, g, ctr)
        r, g0, ctr = best
        picks.append((g0, ctr, _finite(r), engines[g0].nearest(ctr, r)))
        if len(groups) > 1:
            active.remove(g0)
        cut = scale * r * (1.0 + REL_TOL)
        for g in active:
            alive = engines[g].alive
            if g == g0:
                d = groups[g][2][ctr][alive]
            else:
                d = _distances_to(groups[g][1][alive], groups[g0][1][ctr])
            engines[g].remove(alive[d <= cut])
    return picks


def _select_separated(
    pts, radii, colors, k: int, sigma: float, r_floor: float
) -> list:
    """Greedy sigma-separated ball selection; returns picked candidate positions.

    Candidates (centers ``pts``, ``radii``, optional ``colors``) are taken in
    ascending (radius, color, position) order. A pick drops every remaining
    candidate whose gap to it (center distance minus both radii) is below
    ``2 sigma max(r_i, r_j, r_floor)`` and, on colored input, every candidate
    of its own color. Colored input raises ``ColorExhausted`` for the lowest
    unserved color left without candidates; plain input raises
    ``InsufficientPoints`` with the number of balls picked.
    """
    pool = np.lexsort((radii,) if colors is None else (colors, radii))
    picked = []
    # A huge sigma may overflow 2 sigma r to inf, and a distance beyond the
    # double range makes a radius inf and a gap inf - inf = nan. Either way
    # the comparison is False, which correctly drops the pair.
    with np.errstate(over="ignore", invalid="ignore"):
        while len(picked) < k:
            if colors is not None:
                left = np.zeros(k, dtype=bool)
                left[colors[pool]] = True
                left[colors[picked]] = True
                if not left.all():
                    raise ColorExhausted(int(np.argmin(left)))
            if pool.size == 0:
                raise InsufficientPoints(len(picked))
            t0, rest = int(pool[0]), pool[1:]
            picked.append(t0)
            gaps = _distances_to(pts[rest], pts[t0]) - radii[t0] - radii[rest]
            keep = gaps >= 2.0 * sigma * np.maximum(radii[rest], max(radii[t0], r_floor))
            if colors is not None:
                keep &= colors[rest] != colors[t0]
            pool = rest[keep]
    return picked


def strong_separated_k(points: PointSet, cfg: ExtractionConfig) -> Clustering:
    """k strongly sigma-separated clusters via quorum clustering.

    Quorum-cluster the set with quota alpha (full steps only), take the
    longest epoch (ties toward the earliest), then greedily pick balls in
    ascending step order (the radii never decrease, so this is the
    selector's radius order), dropping every ball whose gap to a picked ball
    is below ``2 sigma r_hat`` (r_hat = largest candidate radius of the epoch).
    All cluster diameters are at most ``2 r_hat``, so the kept gaps certify
    strong separation, and every cluster holds exactly alpha points.
    """
    return _verified(points, cfg, SeparationKind.STRONG, False, _strong_picks)


def _strong_picks(groups, cfg: ExtractionConfig, alpha: int) -> list:
    (_, coords, dist, table), = groups
    qc = _quorum_steps(dist, alpha, table)
    if len(qc) == 0:
        raise InsufficientPoints(0)
    cand = np.arange(*max(epochs(qc.radii), key=lambda se: se[1] - se[0]))
    centers, rads = qc.centers[cand], qc.radii[cand]
    picked = _select_separated(
        coords[centers], rads, None, cfg.k, float(cfg.sigma), r_floor=float(rads.max())
    )
    return [(0, centers[t], rads[t], qc.members[cand[t]]) for t in picked]


def well_separated_k_colored(inst: ColoredInstance, cfg: ExtractionConfig) -> Clustering:
    """Colored well separation from per-color quorum clusterings.

    Every color is quorum-clustered with quota alpha. The greedy repeatedly
    picks the smallest remaining full ball (ties by color then step), assigns
    that color all of its points covered by the ball, drops the color's other
    balls, and drops every ball not well separated from the pick (gap below
    ``2 sigma max(r_i, r_j)``). Erroring out as soon as an unserved color has
    no balls left keeps failures deterministic.
    """
    return _verified(inst, cfg, SeparationKind.WELL, True, _well_picks)


def _well_picks(groups, cfg: ExtractionConfig, alpha: int) -> list:
    qcs = [_quorum_steps(dist, alpha, table) for _, _, dist, table in groups]
    colors = np.repeat(np.arange(cfg.k), [len(qc) for qc in qcs])
    ctrs = np.concatenate([qc.centers for qc in qcs])
    rads = np.concatenate([qc.radii for qc in qcs])
    pts = np.concatenate([g[1][qc.centers] for g, qc in zip(groups, qcs)])
    picks = []
    for t in _select_separated(pts, rads, colors, cfg.k, float(cfg.sigma), r_floor=0.0):
        c = colors[t]
        covered = np.flatnonzero(groups[c][2][ctrs[t]] <= rads[t])
        picks.append((c, ctrs[t], _finite(rads[t]), covered))
    return picks
