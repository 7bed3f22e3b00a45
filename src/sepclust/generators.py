"""Benchmark and adversarial instance generators.

Each construction carries machine-checkable structure: the integer grid, the
exponentially spaced line, the three-color line, the exponential ring grid,
axis-aligned copies of a set, a near-uniform high-dimensional cloud from a
seeded random projection, and plain seeded uniform noise. All randomized
kinds are deterministic given their seed.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .algorithms import ColoredInstance
from .geometry import PointSet, closest_pair, diameter


class EmbeddingFailed(RuntimeError):
    """Random projection failed to land in the distance band within budget."""


MAX_GRID_POINTS = 4_194_304  # 2**22; guards accidental N^d blowups
_EMBED_ATTEMPTS = 100
_CELL_CANDIDATES = 2_000_000


def gen_grid(side: int, dim: int) -> PointSet:
    """All points of {1..side}^dim in lexicographic order."""
    side, dim = int(side), int(dim)
    if side < 1 or dim < 1:
        raise ValueError("side and dim must be positive")
    if side**dim > MAX_GRID_POINTS:
        raise ValueError(f"grid of {side}^{dim} points exceeds the memory budget")
    axes = [np.arange(1, side + 1, dtype=float)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return PointSet(np.stack([m.ravel() for m in mesh], axis=1))


def gen_exponential_line(n: int) -> PointSet:
    """The 1-D set {2^(i+1) - 1 : i = 1..n}; consecutive gaps double."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    if n > 50:
        raise ValueError("n > 50 would leave exact integer doubles")
    coords = np.array([2.0 ** (i + 1) - 1.0 for i in range(1, n + 1)])
    return PointSet(coords)


def gen_three_color_line(n: int) -> ColoredInstance:
    """Three 1-D color classes of n points each on which strong separation
    at sigma >= 3 forces a singleton cluster.

    Class 0 is {1..n}, class 1 is {n+1..2n}, class 2 is {1+(1+i)n : i=1..n}.
    """
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    i = np.arange(1, n + 1, dtype=float)
    return ColoredInstance.from_sets(
        [PointSet(i), PointSet(n + i), PointSet(1.0 + (1.0 + i) * n)]
    )


def _ring_count(i: int, dim: int) -> int:
    """Lattice points in the ring [-3,3]^d minus the open cube (-2,2)^d at
    cell size 3/i: the cube spans -i..i per axis, the hole -h..h with
    h = ceil(2i/3) - 1."""
    return (2 * i + 1) ** dim - (2 * ((2 * i - 1) // 3) + 1) ** dim


def _find_ring_cell(n: int, dim: int) -> tuple:
    """(i, h): the largest cell size 3/i whose ring holds >= n lattice
    points, and the hole's half-width h at it.

    As the cell shrinks the ring's count rises only at the values 3/i and
    falls only below the values 2/j, and _ring_count never falls as i grows
    (the cube's side grows by 2, the hole's by 0 or 2, and x^d is convex):
    so i is the smallest with _ring_count(i) >= n, found by doubling and
    bisection. Merging the values 3/t and 2/t in descending order, 3/i comes
    i + ceil(h/2)-th; past the first _CELL_CANDIDATES of them the search
    gives up.
    """
    top = 1
    while _ring_count(top, dim) < n:
        top *= 2
    i = bisect.bisect_left(range(top + 1), n, lo=1, key=lambda t: _ring_count(t, dim))
    h = (2 * i - 1) // 3
    if i + (h + 1) // 2 > _CELL_CANDIDATES:
        raise ValueError(f"no cell size among the largest {_CELL_CANDIDATES} holds n={n}")
    return i, h


def gen_exponential_ring_grid(n: int, spread_target: float, dim: int) -> PointSet:
    """Nested scaled copies of a ring grid with near-uniform geometry per level.

    Level 1 holds the n lexicographically smallest lattice points of the ring
    [-3,3]^dim minus (-2,2)^dim at the largest cell size admitting n of them;
    level i+1 is level i divided by 3 (exactly, by construction). The number
    of levels is ceil(log2(spread_target)), so the total spread grows about
    as spread_target**log2(3). A target whose deepest cell size squared
    would fall below the smallest normal double raises ValueError (from
    about 1e97 on): such squared gaps lose precision, and from about 1e102
    on they underflow, so points would be at zero kernel distance.
    """
    n, dim = int(n), int(dim)
    spread_target = float(spread_target)
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be positive")
    if not math.isfinite(spread_target):
        raise ValueError(f"spread target must be finite, got {spread_target}")
    if spread_target < n or spread_target <= 1.0:
        raise ValueError("spread target must be > 1 and at least n")
    levels = math.ceil(math.log2(spread_target))
    i, h = _find_ring_cell(n, dim)
    cube = (2 * i + 1) ** dim
    if cube > 6 * n:
        raise ValueError(
            "construction needs a denser ring: lattice fills the cube with "
            f"{cube} > 6n = {6 * n} points; increase n"
        )
    # Distinct points differ by at least one deepest-level cell in some
    # coordinate. Its square must stay a normal double (>= 2^-1022): below,
    # the squared gaps lose precision and then underflow to zero distance.
    if 2 * (math.log2(3 / i) - (levels - 1) * math.log2(3)) < -1022:
        raise ValueError(
            f"spread target {spread_target:g} needs {levels} levels, whose "
            "squared gaps underflow a double"
        )
    axes = [np.arange(-i, i + 1)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    ints = np.stack([m.ravel() for m in mesh], axis=1)
    ring = ints[np.abs(ints).max(axis=1) > h]
    base = ring[:n].astype(float) * (3 / i)
    blocks = [base]
    for _ in range(levels - 1):
        blocks.append(blocks[-1] / 3.0)
    return PointSet(np.vstack(blocks))


def gen_k_copies(ps: PointSet, k: int) -> PointSet:
    """floor(k/2) copies of the set along the first axis, consecutive
    bounding intervals separated by exactly the set's diameter."""
    if not isinstance(ps, PointSet):
        ps = PointSet(ps)
    k = int(k)
    if k < 2:
        raise ValueError("k must be at least 2")
    copies = k // 2
    delta = diameter(ps)
    width = float(ps.coords[:, 0].max() - ps.coords[:, 0].min())
    blocks = []
    for c in range(copies):
        blk = ps.coords.copy()
        blk[:, 0] += c * (width + delta)
        blocks.append(blk)
    return PointSet(np.vstack(blocks))


def gen_near_uniform_highdim(n: int, eps: float, seed: int) -> PointSet:
    """n points with all pairwise distances in [1-eps, 1+eps].

    The scaled standard basis e_i / sqrt(2) of R^n (all pairwise distances
    exactly 1) is pushed through a seeded Gaussian projection into
    8 * ceil(ln(n) / eps^2) dimensions; generation retries with a derived
    seed until the distance band holds. Deterministic given (n, eps, seed).
    """
    n = int(n)
    eps = float(eps)
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    dim = 8 * math.ceil(math.log(n) / eps**2)
    for attempt in range(_EMBED_ATTEMPTS):
        rng = np.random.default_rng([int(seed), attempt])
        pts = rng.standard_normal((n, dim)) / math.sqrt(2.0 * dim)
        if closest_pair(pts) >= 1.0 - eps and diameter(pts) <= 1.0 + eps:
            return PointSet(pts)
    raise EmbeddingFailed(
        f"no embedding within the distance band after {_EMBED_ATTEMPTS} attempts"
    )


def gen_random_uniform(n: int, dim: int, seed: int) -> PointSet:
    """n seeded uniform points in the unit cube [0, 1)^dim."""
    n, dim = int(n), int(dim)
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be positive")
    rng = np.random.default_rng(int(seed))
    return PointSet(rng.random((n, dim)))


# Every generator kind: its builder and the `sepclust generate` fields passed
# to it, in argument order. "base" is the plain points file read from --input.
GENERATORS = {
    "grid": (gen_grid, ("side", "dim")),
    "expline": (gen_exponential_line, ("n",)),
    "threecolor": (gen_three_color_line, ("n",)),
    "expgrid": (gen_exponential_ring_grid, ("n", "spread", "dim")),
    "kcopies": (gen_k_copies, ("base", "k")),
    "nearuniform": (gen_near_uniform_highdim, ("n", "eps", "seed")),
    "random": (gen_random_uniform, ("n", "dim", "seed")),
}
