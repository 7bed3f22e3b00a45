"""Metric primitives over finite point sets in R^d.

A point is a 1-D float array; a point set is an ordered (n, d) array wrapped
in :class:`PointSet`, whose row indices are the stable point identifiers used
by all clustering output. Distances are Euclidean throughout.

Distances between point sets are computed from exact coordinate differences
(no expanded ``|a|^2 - 2ab + |b|^2`` trick), so that huge coordinates such as
the exponential line keep full precision. One kernel, ``_sq_into``, serves
them all: the n^2 scans in row blocks, and the distances from one point to a
set. It sums the squared differences in coordinate order,
``((x_0^2 + x_1^2) + x_2^2) + ...``, on every host. For d <= 2 a sum has only
one rounding order, so these distances equal bit for bit those of the
difference-tensor reduction this kernel replaced, whose order for d >= 3
followed the host's SIMD lanes; there the two may differ in the last bits.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance on a ball radius for point-in-ball tests. Absorbs
# floating-point drift so constructions sitting exactly on a boundary verify.
REL_TOL = 1e-9

# Float64 elements per block buffer of an n^2 scan (512 KB), so that the
# kernel's passes over a block stay in a core's L2 cache.
_BLOCK = 1 << 16


def _block_rows(m: int) -> int:
    """Rows per block for a scan against ``m`` columns under the budget."""
    return max(1, _BLOCK // max(m, 1))


def _coerce_coords(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected (n, d) coordinates, got shape {arr.shape}")
    if arr.shape[1] < 1:
        raise ValueError("dimension must be at least 1")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("coordinates must be finite")
    return np.ascontiguousarray(arr)


def _coords_of(obj) -> np.ndarray:
    if isinstance(obj, PointSet):
        return obj.coords
    return _coerce_coords(obj)


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered set of points in R^d. Row index identifies a point."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _coerce_coords(self.coords))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed ball given by center point and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).ravel()
        if c.size < 1 or not np.isfinite(c).all():
            raise ValueError("ball center must be a finite point")
        r = float(self.radius)
        if not np.isfinite(r) or r < 0.0:
            raise ValueError("ball radius must be finite and nonnegative")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, points, rel_tol: float = REL_TOL):
        """Membership test with relative tolerance on the radius.

        Accepts a single point or an (m, d) array; returns a bool or a bool
        array accordingly.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        inside = _distances_to(pts, self.center) <= self.radius * (1.0 + rel_tol)
        return bool(inside[0]) if single else inside


def distance(p, q) -> float:
    """Euclidean distance between two points of equal dimension."""
    a = np.asarray(p, dtype=float).ravel()
    b = np.asarray(q, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("coordinates must be finite")
    return float(_distances_to(a.reshape(1, -1), b)[0])


def _sq_into(a: np.ndarray, bt: np.ndarray, out: np.ndarray, tmp: np.ndarray):
    """Write into ``out`` the squared distances from the rows of ``a`` to the
    columns of ``bt`` (a second point set, transposed), summed in coordinate
    order. ``tmp`` is a temporary of ``out``'s shape; no ``(rows, m, d)``
    difference tensor is built. A square beyond the double range is inf,
    without a warning: every caller reads inf as too far."""
    with np.errstate(over="ignore"):
        np.subtract(a[:, 0:1], bt[0], out=out)
        np.multiply(out, out, out=out)
        for k in range(1, bt.shape[0]):
            np.subtract(a[:, k : k + 1], bt[k], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            out += tmp
    return out


def _sq_blocks(a: np.ndarray, b, out=None):
    """Squared distances between the rows of ``a`` and of ``b``, by row block.

    Yields, for each row range ``s:e``, the block with ``block[i, j]`` the
    squared distance from ``a[s + i]`` to ``b[j]``. Blocks are written into
    the rows of ``out`` when given, else into one reused buffer. With ``b``
    None the scan is of ``a`` against itself and reaches each pair once: the
    block of rows ``s:e`` holds the columns ``s:`` only, so ``block[i, j]``
    is the squared distance from ``a[s + i]`` to ``a[s + j]``. It equals that
    from ``a[s + j]`` to ``a[s + i]`` bit for bit, as negation is exact.
    """
    upper = b is None
    b = a if upper else b
    n, m = a.shape[0], b.shape[0]
    bt = np.ascontiguousarray(b.T)
    step = _block_rows(m)
    # Both buffers in one allocation: glibc's malloc keeps it between scans,
    # where two separate buffers went back to the system and their pages
    # were faulted in again on every call. Each block takes contiguous
    # views of it, whatever its width: strided views of a (2, step, m)
    # buffer made the self-scans up to twice as slow.
    size = min(step, n) * m
    work = np.empty(size if out is not None else 2 * size)
    for s in range(0, n, step):
        e = min(s + step, n)
        c = s if upper else 0
        shape = (e - s, m - c)
        used = shape[0] * shape[1]
        tmp = work[:used].reshape(shape)
        block = work[used : 2 * used].reshape(shape) if out is None else out[s:e]
        yield _sq_into(a[s:e], bt[:, c:], block, tmp)


def pairwise_distances(a, b=None) -> np.ndarray:
    """Full distance matrix between rows of ``a`` and rows of ``b`` (or ``a``)."""
    aa = _coords_of(a)
    bb = aa if b is None else _coords_of(b)
    if aa.shape[1] != bb.shape[1]:
        raise ValueError("dimension mismatch")
    out = np.empty((aa.shape[0], bb.shape[0]))
    for block in _sq_blocks(aa, bb, out):
        np.sqrt(block, out=block)
    return out


def _distances_to(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Distances from each row of ``points`` to ``center``, by the same kernel."""
    out = np.empty((1, points.shape[0]))
    _sq_into(center.reshape(1, -1), points.T, out, np.empty_like(out))
    return np.sqrt(out[0])


def _blocked_sq(a, b, reduce, skip_self: bool = False) -> float:
    """Square root of ``reduce`` (``np.minimum`` or ``np.maximum``) over the
    squared distances between rows of ``a`` and ``b``, computed in row blocks.
    With ``b`` None each pair of rows of ``a`` is scanned once, and
    ``skip_self`` leaves out the pairs (i, i)."""
    best = None
    for d2 in _sq_blocks(a, b):
        if skip_self:
            rows = np.arange(d2.shape[0])
            d2[rows, rows] = np.inf
        part = reduce.reduce(d2, axis=None)
        best = part if best is None else reduce(best, part)
    return math.sqrt(best)


def set_distance(x, y) -> float:
    """Minimum distance over all cross pairs of two nonempty point sets."""
    xa, ya = _coords_of(x), _coords_of(y)
    if xa.shape[0] == 0 or ya.shape[0] == 0:
        raise ValueError("set_distance requires nonempty sets")
    if xa.shape[1] != ya.shape[1]:
        raise ValueError("dimension mismatch")
    return _blocked_sq(xa, ya, np.minimum)


def diameter(ps) -> float:
    """Maximum pairwise distance; zero for a singleton."""
    c = _coords_of(ps)
    n = c.shape[0]
    if n == 0:
        raise ValueError("diameter of an empty set is undefined")
    if n == 1:
        return 0.0
    return _blocked_sq(c, None, np.maximum)


def closest_pair(ps) -> float:
    """Minimum distance over distinct index pairs (zero if points repeat)."""
    c = _coords_of(ps)
    if c.shape[0] < 2:
        raise ValueError("closest_pair requires at least two points")
    return _blocked_sq(c, None, np.minimum, skip_self=True)


def spread(ps) -> float:
    """Diameter over closest-pair distance. Errors on duplicate points."""
    cp = closest_pair(ps)
    if cp == 0.0:
        raise ValueError("infinite spread: point set contains duplicates")
    return diameter(ps) / cp


class DenseBalls:
    """Smallest alpha-balls among the alive points of one distance matrix.

    The candidate radius of an alive center is its alpha-th smallest distance
    to the alive points (self included); the smallest candidate is a
    2-approximate smallest ball covering alpha alive points. A lazy min-heap
    holds each center's last computed radius, stamped with the removal count
    at that time. Removals only grow radii, so the first popped entry with a
    current stamp is exact and minimal (ties to the smallest index), whatever
    a caller removes. A stale entry is recomputed by partitioning the
    center's alive row; no row is ever sorted.

    At alpha = 1 every candidate radius is the self distance, 0. The heap is
    then seeded with zeros in O(n), without partitioning the matrix, and no
    entry is ever recomputed: an alive center keeps radius 0 whatever is
    removed.
    """

    def __init__(self, dist: np.ndarray, alpha: int):
        n = dist.shape[0]
        self.dist = dist
        self.alpha = int(alpha)
        self.alive = np.arange(n)  # ascending indices of the alive points
        self._live = np.ones(n, dtype=bool)
        self._stamp = 0
        self._heap = []
        if self.alpha == 1:
            # Equal radii and ascending indices: already in heap order.
            self._heap = [(0.0, i, 0) for i in range(n)]
        elif n >= self.alpha:
            a = self.alpha - 1
            start = np.empty(n)
            step = _block_rows(n)
            for s in range(0, n, step):
                start[s : s + step] = np.partition(dist[s : s + step], a, axis=1)[:, a]
            self._heap = list(zip(start.tolist(), range(n), [0] * n))
            heapq.heapify(self._heap)

    def smallest(self) -> tuple:
        """(center, radius) of the smallest alpha-ball; needs alpha alive points."""
        heap, live, stamp, a = self._heap, self._live, self._stamp, self.alpha - 1
        while True:
            r, i, s = heap[0]
            if not live[i]:
                heapq.heappop(heap)
            elif s == stamp or not a:
                return i, r
            else:
                row = self.dist[i][self.alive]
                row.partition(a)
                heapq.heapreplace(heap, (float(row[a]), i, stamp))

    def within(self, center: int, radius: float) -> np.ndarray:
        """Alive points at distance at most ``radius`` from ``center``, ascending."""
        return self.alive[self.dist[center][self.alive] <= radius]

    def nearest(self, center: int, radius: float) -> np.ndarray:
        """The alpha alive points nearest ``center`` (ties by index), ascending;
        ``radius`` is the center's radius from :meth:`smallest`."""
        d = self.dist[center][self.alive]
        take = d <= radius
        if np.count_nonzero(take) > self.alpha:
            take = d < radius
            ties = np.flatnonzero(d == radius)
            take[ties[: self.alpha - np.count_nonzero(take)]] = True
        return self.alive[take]

    def remove(self, points: np.ndarray) -> None:
        if points.size:
            self._live[points] = False
            self.alive = self._live.nonzero()[0]
            self._stamp += 1


def approx_min_ball_alpha(ps, alpha: int) -> Ball:
    """2-approximate smallest ball covering at least ``alpha`` points.

    The first pick of :class:`DenseBalls` on the whole set: recentering an
    optimal ball at one of its covered points at most doubles the radius, so
    the radius lies in [r_opt, 2 r_opt]. Ties go to the smallest index.
    """
    if not isinstance(ps, PointSet):
        ps = PointSet(ps)
    n = ps.n
    alpha = int(alpha)
    if alpha < 1 or alpha > n:
        raise ValueError(f"alpha must be in [1, {n}], got {alpha}")
    i, r = DenseBalls(pairwise_distances(ps.coords), alpha).smallest()
    return Ball(ps.coords[i].copy(), r)
