"""Quorum clustering, epoch partition of the radius sequence, ball depth.

Quorum clustering repeatedly extracts a 2-approximate smallest ball holding a
fixed quota of the surviving points, removes exactly that quota, and repeats
until the set is exhausted; the final step may hold fewer points. The balls
come from the dense-ball engine ``geometry.DenseBalls``, which reads only the
distance matrix. A :class:`QuorumClustering` keeps the steps as aligned
arrays: step t is centered at point ``qc.centers[t]`` with radius
``qc.radii[t]`` and removed the sorted indices ``qc.members[t]``. The radius
sequence splits greedily into epochs: maximal runs whose radii stay within
4x the run's first radius, returned by ``epochs`` as a tuple of half-open
``(start, end)`` step ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import REL_TOL, DenseBalls, PointSet, pairwise_distances


@dataclass(frozen=True, eq=False)
class QuorumClustering:
    """Steps of one quorum clustering with quota ``gamma``, as aligned arrays.

    ``centers`` holds the center point indices, ``radii`` the ball radii and
    ``members`` the sorted member index arrays. Every step but possibly the
    last holds exactly ``gamma`` members, so the full steps form a prefix.
    """

    gamma: int
    centers: np.ndarray
    radii: np.ndarray
    members: tuple

    def __post_init__(self):
        if not len(self.centers) == len(self.radii) == len(self.members):
            raise ValueError("centers, radii and members must align")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def full_steps(self) -> int:
        """Number of steps holding exactly ``gamma`` members (a prefix)."""
        return len(self.members) - (self.members[-1].size < self.gamma)


def _quorum_steps(dist: np.ndarray, gamma: int) -> QuorumClustering:
    """Quorum clustering on a precomputed distance matrix.

    Every full step is the :class:`DenseBalls` engine's smallest gamma-ball
    among the survivors and removes its gamma members, the covered points
    nearest the center (ties by index). The last step swallows the at most
    gamma points left, centered where the largest distance to them is
    smallest.
    """
    balls = DenseBalls(dist, gamma)
    centers, radii, members = [], [], []
    while balls.alive.size > gamma:
        center, radius = balls.smallest()
        taken = balls.nearest(center, radius)
        balls.remove(taken)
        centers.append(center)
        radii.append(radius)
        members.append(taken)
    idx = balls.alive
    far = dist[np.ix_(idx, idx)].max(axis=1)
    j = int(np.argmin(far))
    centers.append(int(idx[j]))
    radii.append(float(far[j]))
    members.append(idx)
    return QuorumClustering(
        gamma, np.array(centers, dtype=int), np.array(radii), tuple(members)
    )


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
    return _quorum_steps(pairwise_distances(ps.coords), gamma)


def epochs(radii) -> tuple:
    """Greedy left-to-right partition into maximal runs with max <= 4x first.

    Returns the runs as a tuple of half-open ``(start, end)`` index ranges.
    """
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
    return tuple(ranges)


def cover_depth(balls, point) -> int:
    """Number of balls containing the point (with radius tolerance)."""
    pt = np.asarray(point, dtype=float).ravel()
    count = 0
    for b in balls:
        if b.contains(pt):
            count += 1
    return count


def max_epoch_depth(qc: QuorumClustering, ps: PointSet) -> int:
    """Max over epochs and input points of the point's depth in that epoch."""
    coords = ps.coords
    worst = 0
    for s, e in epochs(qc.radii):
        centers = coords[qc.centers[s:e]]
        radii = qc.radii[s:e] * (1.0 + REL_TOL)
        for blk in range(0, coords.shape[0], 512):
            d = pairwise_distances(coords[blk : blk + 512], centers)
            depth = int((d <= radii[None, :]).sum(axis=1).max())
            if depth > worst:
                worst = depth
    return worst
