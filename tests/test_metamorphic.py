"""Exact metamorphic relations of the four algorithms at desk scale.

Three transforms leave every distance comparison in the package unchanged
bit for bit:
- negating one coordinate, because (-a) - (-b) = -(a - b) exactly;
- scaling by 2^j away from overflow and subnormals, because every
  difference, square, sum, root and ``REL_TOL`` product scales exactly;
- swapping the two coordinates at d = 2, because addition commutes (at
  d >= 3 the kernel's coordinate order matters).
So alpha and the clusters must be identical, every ball center must
transform exactly, and every radius must scale exactly.
"""

import numpy as np
import pytest

from sepclust.algorithms import (
    ColoredInstance,
    ExtractionConfig,
    semi_separated_k,
    semi_separated_k_colored,
    strong_separated_k,
    well_separated_k_colored,
)
from sepclust.generators import (
    gen_exponential_line,
    gen_exponential_ring_grid,
    gen_grid,
    gen_three_color_line,
)
from sepclust.geometry import PointSet


def _negate(c):
    c = c.copy()
    c[:, 0] = -c[:, 0]
    return c


# (name, map on an (n, d) coordinate array, factor on radii)
TRANSFORMS = [
    ("negate", _negate, 1.0),
    ("scale 2^5", lambda c: c * 2.0**5, 2.0**5),
    ("scale 2^-3", lambda c: c * 2.0**-3, 2.0**-3),
    ("swap", lambda c: np.ascontiguousarray(c[:, ::-1]), 1.0),
]


def _plain_instances(k):
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        yield PointSet(rng.random((60, d)))
    yield gen_grid(8, 2)
    yield gen_exponential_line(24)
    yield gen_exponential_ring_grid(16, 16.0, 2)


def _colored_instances(k):
    rng = np.random.default_rng(19)
    yield ColoredInstance(PointSet(rng.random((60, 2))), np.arange(60) % k)
    if k == 3:
        yield gen_three_color_line(10)


def _apply(obj, fn):
    if isinstance(obj, ColoredInstance):
        return ColoredInstance(PointSet(fn(obj.points.coords)), obj.colors)
    return PointSet(fn(obj.coords))


@pytest.mark.parametrize("k, sigma", [(2, 1.0), (3, 2.0)])
@pytest.mark.parametrize(
    "algo, instances",
    [
        (semi_separated_k, _plain_instances),
        (strong_separated_k, _plain_instances),
        (semi_separated_k_colored, _colored_instances),
        (well_separated_k_colored, _colored_instances),
    ],
    ids=["semi", "strong", "semi-colored", "well-colored"],
)
def test_transforms_preserve_the_clustering_exactly(algo, instances, k, sigma):
    cfg = ExtractionConfig(sigma=sigma, k=k)
    for obj in instances(k):
        dim = (obj.points if isinstance(obj, ColoredInstance) else obj).dim
        base = algo(obj, cfg)
        for name, fn, factor in TRANSFORMS:
            if name == "swap" and dim != 2:
                continue
            got = algo(_apply(obj, fn), cfg)
            assert got.alpha == base.alpha, name
            assert len(got.clusters) == len(base.clusters), name
            for g, b in zip(got.clusters, base.clusters):
                assert np.array_equal(g, b), name
            for g, b in zip(got.balls, base.balls):
                assert np.array_equal(g.center, fn(b.center[None, :])[0]), name
                assert g.radius == factor * b.radius, name
