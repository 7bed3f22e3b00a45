"""Quorum clustering, epoch partition of the radius sequence, ball depth.

Quorum clustering repeatedly extracts a 2-approximate smallest ball holding a
fixed quota of the surviving points, removes exactly that quota, and repeats
while at least a quota survives (the full steps, ``_quorum_steps``);
``quorum_clustering`` then adds one smaller remainder step so that every point
is covered. The balls come from the dense-ball engine ``geometry.DenseBalls``,
which reads only the distance matrix, seeded with exact radii: in auto mode
from a sorted prefix of its rows (``geometry._sorted_prefix``), else from one
partition of every row, since a quorum clustering reads nearly every row. A
:class:`QuorumClustering` keeps the steps as aligned arrays: step t is
centered at point ``qc.centers[t]`` with radius ``qc.radii[t]`` and removed
the sorted indices ``qc.members[t]``. The radius sequence splits greedily
into epochs: maximal runs whose radii stay within 4x the run's first radius,
returned by ``epochs`` as a tuple of half-open ``(start, end)`` step ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    REL_TOL, DenseBalls, PointSet, _check_int, _kth_smallest, _sq_blocks, pairwise_distances,
)


@dataclass(frozen=True, eq=False)
class QuorumClustering:
    """Steps of one quorum clustering with quota ``gamma``, as aligned arrays.

    ``centers`` holds the center point indices, ``radii`` the ball radii and
    ``members`` the sorted member index arrays. Every step holds exactly
    ``gamma`` members, except the remainder step that ``quorum_clustering``
    appends last.
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


def _quorum_steps(
    dist: np.ndarray, gamma: int, table: Optional[np.ndarray] = None
) -> QuorumClustering:
    """The full steps of a quorum clustering on a precomputed distance matrix.

    Every step is the :class:`DenseBalls` engine's smallest gamma-ball among
    the survivors and removes its gamma members, the covered points nearest
    the center (ties by index). Steps run while at least gamma points
    survive, so every step holds exactly gamma members, fewer than gamma
    points are left, and there are no steps when n < gamma. The engine's
    exact seed radii are column gamma - 1 of ``table`` when given, else
    ``_kth_smallest`` (see ``DenseBalls``).

    At gamma = 1 the steps are known in advance and built in O(n): step t is
    point t alone, at radius 0.
    """
    if gamma == 1:
        # Every candidate radius is the self distance, 0.0, so ``smallest``
        # returns the smallest alive index. That index comes first among its
        # zero-distance ties (duplicates of it have larger indices), so
        # ``nearest(center, 0)`` takes the center alone. Hence step t takes
        # point t, for any input, duplicates included.
        idx = np.arange(dist.shape[0])
        return QuorumClustering(gamma, idx, np.zeros(idx.size), tuple(idx[:, None]))
    top = min(gamma, dist.shape[0]) - 1  # with n < gamma no step reads a seed
    balls = DenseBalls(dist, gamma, _kth_smallest(dist, top) if table is None else table[:, top])
    centers, radii, members = [], [], []
    while balls.alive.size >= gamma:
        center, radius = balls.smallest()
        taken = balls.nearest(center, radius)
        balls.remove(taken)
        centers.append(center)
        radii.append(radius)
        members.append(taken)
    return QuorumClustering(
        gamma, np.array(centers, dtype=int), np.array(radii), tuple(members)
    )


def quorum_clustering(ps: PointSet, gamma: int) -> QuorumClustering:
    """Partition all indices into quota-sized balls (last one may be smaller).

    The full steps of ``_quorum_steps``, then, when n % gamma != 0, one
    remainder step over the fewer than gamma indices left, centered where the
    largest distance to them is smallest (ties to the smallest index).
    """
    if not isinstance(ps, PointSet):
        ps = PointSet(ps)
    gamma = _check_int(gamma, "gamma")
    if gamma < 1 or gamma > ps.n:
        raise ValueError(f"gamma must be in [1, {ps.n}], got {gamma}")
    dist = pairwise_distances(ps.coords)
    qc = _quorum_steps(dist, gamma)
    if ps.n % gamma == 0:
        return qc
    idx = np.setdiff1d(np.arange(ps.n), np.concatenate(qc.members))
    far = dist[np.ix_(idx, idx)].max(axis=1)
    j = int(np.argmin(far))
    centers, radii = np.append(qc.centers, idx[j]), np.append(qc.radii, far[j])
    return QuorumClustering(gamma, centers, radii, qc.members + (idx,))


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


def max_epoch_depth(qc: QuorumClustering, ps: PointSet) -> int:
    """Max over epochs and input points of the point's depth in that epoch."""
    coords = ps.coords
    worst = 0
    for s, e in epochs(qc.radii):
        lim = qc.radii[s:e] * (1.0 + REL_TOL)
        for blk in _sq_blocks(coords, coords[qc.centers[s:e]]):
            np.sqrt(blk, out=blk)
            worst = max(worst, int((blk <= lim).sum(axis=1).max()))
    return worst
