"""Quorum clustering, epoch partition of the radius sequence, ball depth.

Quorum clustering repeatedly extracts a 2-approximate smallest ball holding a
fixed quota of the surviving points, removes exactly that quota, and repeats
until the set is exhausted; the final step may hold fewer points. The balls
come from the dense-ball engine ``geometry.DenseBalls``, which reads only the
distance matrix. The radius sequence splits greedily into epochs: maximal
runs whose radii stay within 4x the run's first radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import REL_TOL, Ball, DenseBalls, PointSet, pairwise_distances


@dataclass(frozen=True, eq=False)
class QuorumStep:
    """One extraction step: the ball and the removed member indices."""

    ball: Ball
    members: np.ndarray  # sorted ascending original indices


@dataclass(frozen=True, eq=False)
class QuorumClustering:
    gamma: int
    steps: tuple
    radii: np.ndarray

    def __post_init__(self):
        if len(self.steps) != self.radii.shape[0]:
            raise ValueError("radii must align with steps")

    def __len__(self) -> int:
        return len(self.steps)

    def epoch_partition(self) -> "EpochPartition":
        return epochs(self.radii)


@dataclass(frozen=True)
class EpochPartition:
    """Half-open step-index ranges partitioning the radius sequence."""

    ranges: tuple

    def __len__(self) -> int:
        return len(self.ranges)

    def __iter__(self):
        return iter(self.ranges)


def _quorum_steps(dist: np.ndarray, gamma: int) -> list:
    """Quorum clustering on a precomputed distance matrix.

    Returns [(center_index, radius, sorted_member_indices), ...]. Every full
    step is the :class:`DenseBalls` engine's smallest gamma-ball among the
    survivors and removes its gamma members, the covered points nearest the
    center (ties by index). The last step swallows the at most gamma points
    left, centered where the largest distance to them is smallest.
    """
    balls = DenseBalls(dist, gamma)
    out = []
    while balls.alive.size > gamma:
        center, radius = balls.smallest()
        members = balls.nearest(center, radius)
        balls.remove(members)
        out.append((center, radius, members))
    idx = balls.alive
    far = dist[np.ix_(idx, idx)].max(axis=1)
    j = int(np.argmin(far))
    out.append((int(idx[j]), float(far[j]), idx))
    return out


def quorum_clustering(ps: PointSet, gamma: int) -> QuorumClustering:
    """Partition all indices into quota-sized balls (last one may be smaller).

    Each step runs the 2-approximate dense-ball extraction on the survivors
    with quota ``min(gamma, survivors)``; the quota members removed are the
    covered points nearest the ball center, ties by index.
    """
    if not isinstance(ps, PointSet):
        ps = PointSet(ps)
    gamma = int(gamma)
    if gamma < 1 or gamma > ps.n:
        raise ValueError(f"gamma must be in [1, {ps.n}], got {gamma}")
    raw = _quorum_steps(pairwise_distances(ps.coords), gamma)
    steps = tuple(
        QuorumStep(Ball(ps.coords[c].copy(), r), np.asarray(m, dtype=int))
        for c, r, m in raw
    )
    radii = np.array([r for _, r, _ in raw])
    return QuorumClustering(gamma=gamma, steps=steps, radii=radii)


def epochs(radii) -> EpochPartition:
    """Greedy left-to-right partition into maximal runs with max <= 4x first."""
    r = np.asarray(radii, dtype=float).ravel()
    if r.size == 0:
        raise ValueError("radius sequence must be nonempty")
    if not np.isfinite(r).all() or (r < 0).any():
        raise ValueError("radii must be finite and nonnegative")
    ranges = []
    s = 0
    m = r.size
    while s < m:
        lim = 4.0 * r[s]
        e = s + 1
        while e < m and r[e] <= lim:
            e += 1
        ranges.append((s, e))
        s = e
    return EpochPartition(tuple(ranges))


def cover_depth(balls, point, rel_tol: float = REL_TOL) -> int:
    """Number of balls containing the point (with radius tolerance)."""
    pt = np.asarray(point, dtype=float).ravel()
    count = 0
    for b in balls:
        if b.contains(pt, rel_tol=rel_tol):
            count += 1
    return count


def max_epoch_depth(
    qc: QuorumClustering, ps: PointSet, rel_tol: float = REL_TOL
) -> int:
    """Max over epochs and input points of the point's depth in that epoch."""
    coords = ps.coords
    worst = 0
    for s, e in qc.epoch_partition():
        centers = np.stack([qc.steps[t].ball.center for t in range(s, e)])
        radii = qc.radii[s:e] * (1.0 + rel_tol)
        for blk in range(0, coords.shape[0], 512):
            d = pairwise_distances(coords[blk : blk + 512], centers)
            depth = int((d <= radii[None, :]).sum(axis=1).max())
            if depth > worst:
                worst = depth
    return worst
