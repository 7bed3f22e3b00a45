"""Extraction of k large sigma-separated clusters from a point set.

Four algorithms, built from one primitive and one rule. The primitive is
the dense-ball engine ``geometry.DenseBalls``: the smallest alpha-ball among
the surviving points, its alpha nearest points, and removal. The rule is
``_select_separated``: a greedy pick of sigma-separated balls.

* ``semi_separated_k``: the engine, removing a scaled exclusion ball after
  each pick; semi separation, cluster size exactly alpha.
* ``semi_separated_k_colored``: one engine per color; cluster i comes from
  set i.
* ``strong_separated_k``: quorum clustering (the engine removing each
  ball's members), densest epoch, then the selector; strong separation.
* ``well_separated_k_colored``: per-color quorum clusterings merged by the
  selector; well separation.

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

Exclusion rules are stated on balls. Two balls are treated as sigma-separated
when the gap between them (center distance minus both radii) is at least
``sigma * 2 * r``, with r the larger of the pair's radii for well separation
and the largest candidate radius of the chosen epoch for strong separation.
Since every cluster sits inside its ball, a kept pair of balls certifies the
corresponding cluster-level separation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    REL_TOL, Ball, DenseBalls, PointSet, _distances_to,
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
    ``alpha`` are integers >= 1 and ``c_override`` is finite and > 0 (else a
    ValueError, as for a sigma that fails ``check_sigma``).
    """

    sigma: float
    k: int
    alpha: Optional[int] = None
    c_override: Optional[float] = None

    def __post_init__(self):
        check_sigma(self.sigma)
        for name, value in (("k", self.k), ("alpha", self.alpha)):
            if value is not None and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.alpha is not None and self.alpha < 1:
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
    feasible alpha. Alpha = 1 is probed first; if it fails, its error is
    re-raised. That probe reads no row of a distance matrix to find its
    balls: at alpha = 1 every ball is one point of radius 0, which
    ``DenseBalls`` seeds and ``_quorum_steps`` returns in O(n).
    """
    cap = max(1, int(cap))
    results = {}

    def feasible(a: int) -> bool:
        if a not in results:
            try:
                results[a] = run(a)
            except _INFEASIBLE as exc:
                results[a] = exc
        return not isinstance(results[a], _INFEASIBLE)

    if not feasible(1):
        raise results[1]
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


def _plain_front(points, cfg: ExtractionConfig, kind: SeparationKind):
    """The input as a PointSet with at least k points, and its distance matrix.

    Strong separation's duplicate check runs before the matrix is built.
    """
    if not isinstance(points, PointSet):
        points = PointSet(points)
    if points.n < cfg.k:
        raise ValueError(f"need at least k={cfg.k} points, got {points.n}")
    if kind is SeparationKind.STRONG and _has_duplicates(points.coords):
        raise ValueError("spread undefined: point set contains duplicates")
    return points, pairwise_distances(points.coords)


def _color_front(inst: ColoredInstance, cfg: ExtractionConfig, kind: SeparationKind):
    """Per-color global indices, coordinates and distance matrices.

    Every input check, well separation's included, runs before the first
    distance matrix is built.
    """
    k = cfg.k
    if inst.k != k:
        raise ValueError(f"config k={k} but instance has {inst.k} colors")
    well = kind is SeparationKind.WELL
    if well and len(set(inst.sizes)) != 1:
        raise ValueError("well-separated colored extraction needs equal color sizes")
    if well and _has_duplicates(inst.points.coords):
        raise ValueError("spread undefined: union contains duplicate points")
    g_idx = [inst.color_indices(c) for c in range(k)]
    coords_c = [inst.points.coords[g] for g in g_idx]
    return g_idx, coords_c, [pairwise_distances(cc) for cc in coords_c]


def _verified(obj, cfg: ExtractionConfig, kind: SeparationKind, run: Callable) -> Clustering:
    """Resolve alpha under the one policy, run, and self-check the clustering.

    ``obj`` is a PointSet (m = n, cap n // k) or a ColoredInstance (m = the
    smallest color size, cap m); ``run(alpha)`` returns (clusters, balls).
    """
    colored = isinstance(obj, ColoredInstance)
    points = obj.points if colored else obj
    k, sigma = cfg.k, float(cfg.sigma)
    m = min(obj.sizes) if colored else points.n

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

    alpha, (clusters, balls) = _resolve_alpha(
        cfg, run, cap=m if colored else m // k, formula=formula
    )
    clustering = Clustering(
        points=points, clusters=tuple(clusters), sigma=cfg.sigma, kind=kind,
        colors=obj.colors if colored else None, balls=tuple(balls), alpha=alpha,
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
    points, dist = _plain_front(points, cfg, SeparationKind.SEMI)
    coords, k = points.coords, cfg.k
    scale = 2.0 * float(cfg.sigma) + 2.0

    def run(alpha: int):
        engine = DenseBalls(dist, alpha)
        clusters, balls = [], []
        for it in range(k):
            if engine.alive.size < alpha:
                raise InsufficientPoints(it)
            center, r = engine.smallest()
            clusters.append(engine.nearest(center, r))
            balls.append(Ball(coords[center].copy(), r))
            engine.remove(engine.within(center, scale * r * (1.0 + REL_TOL)))
        return clusters, balls

    return _verified(points, cfg, SeparationKind.SEMI, run)


def semi_separated_k_colored(
    inst: ColoredInstance, cfg: ExtractionConfig
) -> Clustering:
    """Colored semi separation: cluster i is a subset of color class i.

    Each iteration extracts, for every still-active color, its best
    alpha-ball, picks the smallest (ties by color index), retires that color
    with the alpha covered points nearest the center, and removes points of
    the remaining active colors inside the (2 sigma + 2)-scaled ball.
    """
    g_idx, coords_c, dist_c = _color_front(inst, cfg, SeparationKind.SEMI)
    k = cfg.k
    scale = 2.0 * float(cfg.sigma) + 2.0

    def run(alpha: int):
        engines = [DenseBalls(dc, alpha) for dc in dist_c]
        active = list(range(k))
        out_clusters = [None] * k
        out_balls = [None] * k
        for it in range(k):
            best = None
            for c in active:
                if engines[c].alive.size < alpha:
                    raise InsufficientPoints(it)
                ctr, r = engines[c].smallest()
                if best is None or (r, c) < best[:2]:
                    best = (r, c, ctr)
            r, c0, ctr = best
            out_clusters[c0] = g_idx[c0][engines[c0].nearest(ctr, r)]
            out_balls[c0] = Ball(coords_c[c0][ctr].copy(), r)
            active.remove(c0)
            cut = scale * r * (1.0 + REL_TOL)
            center_pt = coords_c[c0][ctr]
            for c2 in active:
                idx2 = engines[c2].alive
                d2 = _distances_to(coords_c[c2][idx2], center_pt)
                engines[c2].remove(idx2[d2 <= cut])
        return out_clusters, out_balls

    return _verified(inst, cfg, SeparationKind.SEMI, run)


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
    points, dist = _plain_front(points, cfg, SeparationKind.STRONG)
    coords, k, sigma = points.coords, cfg.k, float(cfg.sigma)

    def run(alpha: int):
        qc = _quorum_steps(dist, alpha)
        if len(qc) == 0:
            raise InsufficientPoints(0)
        cand = np.arange(*max(epochs(qc.radii), key=lambda se: se[1] - se[0]))
        centers, rads = qc.centers[cand], qc.radii[cand]
        picked = _select_separated(
            coords[centers], rads, None, k, sigma, r_floor=float(rads.max())
        )
        clusters = [qc.members[cand[t]] for t in picked]
        balls = [Ball(coords[centers[t]].copy(), rads[t]) for t in picked]
        return clusters, balls

    return _verified(points, cfg, SeparationKind.STRONG, run)


def well_separated_k_colored(
    inst: ColoredInstance, cfg: ExtractionConfig
) -> Clustering:
    """Colored well separation from per-color quorum clusterings.

    Every color is quorum-clustered with quota alpha. The greedy repeatedly
    picks the smallest remaining full ball (ties by color then step), assigns
    that color all of its points covered by the ball, drops the color's other
    balls, and drops every ball not well separated from the pick (gap below
    ``2 sigma max(r_i, r_j)``). Erroring out as soon as an unserved color has
    no balls left keeps failures deterministic.
    """
    g_idx, coords_c, dist_c = _color_front(inst, cfg, SeparationKind.WELL)
    k, sigma = cfg.k, float(cfg.sigma)

    def run(alpha: int):
        qcs = [_quorum_steps(dc, alpha) for dc in dist_c]
        colors = np.repeat(np.arange(k), [len(qc) for qc in qcs])
        ctrs = np.concatenate([qc.centers for qc in qcs])
        rads = np.concatenate([qc.radii for qc in qcs])
        pts = np.concatenate([cc[qc.centers] for cc, qc in zip(coords_c, qcs)])
        out_clusters = [None] * k
        out_balls = [None] * k
        for t in _select_separated(pts, rads, colors, k, sigma, r_floor=0.0):
            c0 = colors[t]
            covered = np.flatnonzero(dist_c[c0][ctrs[t]] <= rads[t])
            out_clusters[c0] = g_idx[c0][covered]
            out_balls[c0] = Ball(pts[t].copy(), rads[t])
        return out_clusters, out_balls

    return _verified(inst, cfg, SeparationKind.WELL, run)
