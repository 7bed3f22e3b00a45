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
caller-supplied constant, or found automatically as the largest value for
which extraction completes (doubling then binary search; feasibility is
downward closed in practice). Every returned clustering is re-verified with
``check_separation`` before it leaves this module.

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
    REL_TOL, Ball, DenseBalls, PointSet, closest_pair, pairwise_distances, spread,
)
from .quorum import _quorum_steps, epochs
from .separation import Clustering, SeparationKind, check_separation


class InsufficientPoints(RuntimeError):
    """Extraction ran out of surviving points at the given iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"not enough surviving points at iteration {iteration}")
        self.iteration = int(iteration)


class InstanceTooSeparationHostile(RuntimeError):
    """Fewer than k mutually separated balls obtainable even at alpha = 1."""


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
        colors = np.asarray(self.colors, dtype=int).ravel()
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

    def subset(self, color: int) -> PointSet:
        return PointSet(self.points.coords[self.color_indices(color)])

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

    ``alpha=None`` selects auto mode (maximize feasible alpha). ``c_override``
    instead derives alpha from the classical formula with the given constant;
    it is mutually exclusive with an explicit alpha.
    """

    sigma: float
    k: int
    alpha: Optional[int] = None
    c_override: Optional[float] = None

    def __post_init__(self):
        if not float(self.sigma) > 0.0:
            raise ValueError("sigma must be positive")
        if int(self.k) < 1:
            raise ValueError("k must be at least 1")
        if self.alpha is not None and int(self.alpha) < 1:
            raise ValueError("explicit alpha must be at least 1")
        if self.alpha is not None and self.c_override is not None:
            raise ValueError("alpha and c_override are mutually exclusive")


def k_semi(dim: int, sigma: float) -> int:
    """Covering constant for the semi algorithm's feasibility bound.

    A ball of radius (2 sigma + 2) r is coverable by this many cells of
    diameter at most r/2, each holding fewer than alpha points. Documented
    bound only; never used in control flow (auto mode supersedes it).
    """
    return int(math.ceil(4.0 * math.sqrt(dim) * (2.0 * sigma + 2.0))) ** int(dim)


# Quality-bound constant for the strong algorithm at d=2, calibrated
# empirically on the benchmark families (the covering-times-packing constant
# from first principles is orders of magnitude too pessimistic at desk scale
# and would make the bound vacuous). Documented bound only.
K_STRONG_2 = 8


_INFEASIBLE = (InsufficientPoints, ColorExhausted)


def _search_max_alpha(run: Callable, cap: int):
    """Largest feasible alpha by doubling then binary search.

    ``run(alpha)`` returns extraction output or raises an infeasibility
    error; each alpha is run at most once. Assumes downward-closed
    feasibility; alpha = 1 is probed first, and its error is re-raised for
    the caller to map.
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


def _resolve_alpha(cfg: ExtractionConfig, run: Callable, cap: int, formula=None):
    if cfg.alpha is not None:
        return int(cfg.alpha), run(int(cfg.alpha))
    if cfg.c_override is not None:
        if formula is None:
            raise ValueError("c_override is not supported for this algorithm")
        a = max(1, formula(float(cfg.c_override)))
        return a, run(a)
    return _search_max_alpha(run, cap)


def _verified(points, clusters, balls, cfg, kind, colors=None, alpha=None) -> Clustering:
    clustering = Clustering(
        points=points,
        clusters=tuple(clusters),
        sigma=cfg.sigma,
        kind=kind,
        colors=colors,
        balls=tuple(balls),
        alpha=alpha,
    )
    if not check_separation(clustering):
        raise VerificationFailed(
            f"{kind.value} separation re-check failed (internal error)"
        )
    return clustering


def semi_separated_k(points: PointSet, cfg: ExtractionConfig) -> Clustering:
    """k semi sigma-separated clusters of size exactly alpha.

    Iteration i extracts a 2-approximate smallest alpha-ball of the
    survivors, keeps the alpha covered points nearest its center, and
    discards every survivor inside the same ball scaled by (2 sigma + 2).
    Later clusters therefore sit at distance >= 2 sigma r_i from cluster i,
    which is at least sigma times its diameter.
    """
    if not isinstance(points, PointSet):
        points = PointSet(points)
    n, k = points.n, cfg.k
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    coords = points.coords
    dist = pairwise_distances(coords)
    sigma = float(cfg.sigma)
    scale = 2.0 * sigma + 2.0

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

    def formula(c: float) -> int:
        return math.ceil(c * n / (k * sigma ** points.dim))

    alpha, out = _resolve_alpha(cfg, run, cap=n // k, formula=formula)
    clusters, balls = out
    return _verified(points, clusters, balls, cfg, SeparationKind.SEMI, alpha=alpha)


def semi_separated_k_colored(
    inst: ColoredInstance, cfg: ExtractionConfig
) -> Clustering:
    """Colored semi separation: cluster i is a subset of color class i.

    Each iteration extracts, for every still-active color, its best
    alpha-ball, picks the smallest (ties by color index), retires that color
    with the alpha covered points nearest the center, and removes points of
    the remaining active colors inside the (2 sigma + 2)-scaled ball.
    """
    k = cfg.k
    if inst.k != k:
        raise ValueError(f"config k={k} but instance has {inst.k} colors")
    sigma = float(cfg.sigma)
    scale = 2.0 * sigma + 2.0
    g_idx = [inst.color_indices(c) for c in range(k)]
    coords_c = [inst.points.coords[g] for g in g_idx]
    dist_c = [pairwise_distances(cc) for cc in coords_c]

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
                diff = coords_c[c2][idx2] - center_pt
                d2 = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                engines[c2].remove(idx2[d2 <= cut])
        return out_clusters, out_balls

    def formula(c: float) -> int:
        n = min(inst.sizes)
        return math.ceil(c * n / (k * sigma ** inst.points.dim))

    alpha, out = _resolve_alpha(cfg, run, cap=min(inst.sizes), formula=formula)
    clusters, balls = out
    return _verified(
        inst.points, clusters, balls, cfg, SeparationKind.SEMI,
        colors=inst.colors, alpha=alpha,
    )


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
        diff = pts[rest] - pts[t0]
        gaps = np.sqrt(np.einsum("ij,ij->i", diff, diff)) - radii[t0] - radii[rest]
        keep = gaps >= 2.0 * sigma * np.maximum(radii[rest], max(radii[t0], r_floor))
        if colors is not None:
            keep &= colors[rest] != colors[t0]
        pool = rest[keep]
    return picked


def _log_spread(value: float) -> float:
    return max(1.0, math.log2(value))


def strong_separated_k(points: PointSet, cfg: ExtractionConfig) -> Clustering:
    """k strongly sigma-separated clusters via quorum clustering.

    Quorum-cluster the set with quota alpha, take the epoch holding the most
    full steps (ties toward the earliest epoch), then greedily pick balls in
    ascending step order (full-step radii never decrease, so this is the
    selector's radius order), dropping every ball whose gap to a picked ball
    is below ``2 sigma r_hat`` (r_hat = largest candidate radius of the epoch).
    All cluster diameters are at most ``2 r_hat``, so the kept gaps certify
    strong separation. The trailing partial step is never picked, keeping
    every cluster at exactly alpha points.
    """
    if not isinstance(points, PointSet):
        points = PointSet(points)
    n, k = points.n, cfg.k
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    coords = points.coords
    dist = pairwise_distances(coords)
    # The diagonal is exactly zero, so any further zero is a duplicate.
    if np.count_nonzero(dist == 0.0) > n:
        raise ValueError("spread undefined: point set contains duplicates")
    sigma = float(cfg.sigma)

    def run(alpha: int):
        raw = _quorum_steps(dist, alpha)
        radii = np.array([r for _, r, _ in raw])
        full = np.array([m.size == alpha for _, _, m in raw])
        best_range, best_count = None, 0
        for s, e in epochs(radii):
            cnt = int(full[s:e].sum())
            if cnt > best_count:
                best_range, best_count = (s, e), cnt
        if best_range is None:
            raise InsufficientPoints(0)
        s, e = best_range
        cand = [t for t in range(s, e) if full[t]]
        centers = np.array([raw[t][0] for t in cand])
        rads = np.array([raw[t][1] for t in cand])
        picked = _select_separated(
            coords[centers], rads, None, k, sigma, r_floor=float(rads.max())
        )
        clusters = [raw[cand[t]][2] for t in picked]
        balls = [Ball(coords[centers[t]].copy(), float(rads[t])) for t in picked]
        return clusters, balls

    def formula(c: float) -> int:
        phi = spread(points) if n >= 2 else 1.0
        return math.floor(c * n / (k * sigma ** points.dim * _log_spread(phi)))

    try:
        alpha, out = _resolve_alpha(cfg, run, cap=n // k, formula=formula)
    except InsufficientPoints:
        if cfg.alpha is None and cfg.c_override is None:
            raise InstanceTooSeparationHostile(
                f"cannot extract {k} separated balls even at alpha=1"
            ) from None
        raise
    clusters, balls = out
    return _verified(points, clusters, balls, cfg, SeparationKind.STRONG, alpha=alpha)


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
    k = cfg.k
    if inst.k != k:
        raise ValueError(f"config k={k} but instance has {inst.k} colors")
    sizes = inst.sizes
    if len(set(sizes)) != 1:
        raise ValueError("well-separated colored extraction needs equal color sizes")
    if inst.points.n >= 2 and closest_pair(inst.points) == 0.0:
        raise ValueError("spread undefined: union contains duplicate points")
    sigma = float(cfg.sigma)
    g_idx = [inst.color_indices(c) for c in range(k)]
    coords_c = [inst.points.coords[g] for g in g_idx]
    dist_c = [pairwise_distances(cc) for cc in coords_c]

    def run(alpha: int):
        cand = [
            (c, ctr, r)
            for c in range(k)
            for ctr, r, m in _quorum_steps(dist_c[c], alpha)
            if m.size == alpha
        ]
        colors = np.array([c for c, _, _ in cand], dtype=int)
        rads = np.array([r for _, _, r in cand], dtype=float)
        pts = inst.points.coords[[g_idx[c][ctr] for c, ctr, _ in cand]]
        out_clusters = [None] * k
        out_balls = [None] * k
        for t in _select_separated(pts, rads, colors, k, sigma, r_floor=0.0):
            c0, ctr, r0 = cand[t]
            covered = np.flatnonzero(dist_c[c0][ctr] <= r0)
            out_clusters[c0] = g_idx[c0][covered]
            out_balls[c0] = Ball(pts[t].copy(), r0)
        return out_clusters, out_balls

    def formula(c: float) -> int:
        phi = spread(inst.points) if inst.points.n >= 2 else 1.0
        n = sizes[0]
        return math.floor(c * n / (k * sigma ** inst.points.dim * _log_spread(phi)))

    alpha, out = _resolve_alpha(cfg, run, cap=min(sizes), formula=formula)
    clusters, balls = out
    return _verified(
        inst.points, clusters, balls, cfg, SeparationKind.WELL,
        colors=inst.colors, alpha=alpha,
    )
