import numpy as np
import pytest

from sepclust.generators import gen_exponential_line
from sepclust.geometry import PointSet
from sepclust.oracle import best_separated_pair
from sepclust.separation import (
    Clustering,
    SeparationKind,
    check_separation,
    pair_margins,
    quality,
)


def make(points, clusters, sigma, kind):
    return Clustering(
        points=PointSet(points),
        clusters=tuple(np.array(c) for c in clusters),
        sigma=sigma,
        kind=kind,
    )


def test_strong_pair_true_then_false():
    pts = [0.0, 1.0, 10.0, 11.0]
    assert check_separation(make(pts, [[0, 1], [2, 3]], 3.0, SeparationKind.STRONG))
    assert not check_separation(
        make(pts, [[0, 1], [2, 3]], 10.0, SeparationKind.STRONG)
    )


def test_semi_true_well_false():
    pts = [0.0, 100.0, 50.0, 51.0]
    clusters = [[0, 1], [2, 3]]
    assert check_separation(make(pts, clusters, 5.0, SeparationKind.SEMI))
    assert not check_separation(make(pts, clusters, 5.0, SeparationKind.WELL))


def test_quality_and_useless():
    pts = list(map(float, range(10)))
    c = make(pts, [[0, 1, 2], [3, 4, 5, 6, 7], [8, 9]], 1.0, SeparationKind.SEMI)
    assert quality(c) == 2
    single = make(pts, [[0]], 1.0, SeparationKind.SEMI)
    assert quality(single) == 1
    assert quality(make(pts, [list(range(7))], 1.0, SeparationKind.SEMI)) == 7


def test_exhaustive_best_pair_on_exponential_line_is_useless():
    ps = gen_exponential_line(8)
    q, (c1, c2) = best_separated_pair(ps, 1.0, SeparationKind.STRONG)
    assert q == 1
    witness = Clustering(
        points=ps, clusters=(c1, c2), sigma=1.0, kind=SeparationKind.STRONG
    )
    assert check_separation(witness) and quality(witness) == 1


def test_monotonicity_in_sigma():
    rng = np.random.default_rng(13)
    pts = rng.random((20, 2))
    clusters = [list(range(0, 6)), list(range(10, 15))]
    for kind in SeparationKind:
        for sigma in (0.25, 0.5, 1.0, 2.0):
            if check_separation(make(pts, clusters, sigma, kind)):
                for smaller in (sigma / 2, sigma / 4):
                    assert check_separation(make(pts, clusters, smaller, kind))


def test_implication_chain_strong_well_semi():
    rng = np.random.default_rng(17)
    for _ in range(30):
        pts = rng.random((12, 2)) * 3
        clusters = [[0, 1, 2], [5, 6], [9, 10, 11]]
        sigma = float(rng.uniform(0.1, 3.0))
        strong = check_separation(make(pts, clusters, sigma, SeparationKind.STRONG))
        well = check_separation(make(pts, clusters, sigma, SeparationKind.WELL))
        semi = check_separation(make(pts, clusters, sigma, SeparationKind.SEMI))
        if strong:
            assert well
        if well:
            assert semi


def test_strong_equals_well_for_two_clusters():
    rng = np.random.default_rng(19)
    for _ in range(40):
        pts = rng.random((10, 2)) * 2
        clusters = [[0, 1, 2], [6, 7]]
        sigma = float(rng.uniform(0.1, 4.0))
        strong = check_separation(make(pts, clusters, sigma, SeparationKind.STRONG))
        well = check_separation(make(pts, clusters, sigma, SeparationKind.WELL))
        assert strong == well


def test_singleton_pair_semi_separated_for_any_sigma():
    pts = [0.0, 0.5, 100.0]
    c = make(pts, [[0, 1], [2]], 1e9, SeparationKind.SEMI)
    assert check_separation(c)  # singleton diameter is 0


def test_boundary_tolerance():
    # distance exactly sigma * diameter must verify
    pts = [0.0, 1.0, 4.0, 5.0]
    c = make(pts, [[0, 1], [2, 3]], 3.0, SeparationKind.STRONG)
    assert check_separation(c)


def test_pair_margins_report():
    pts = [0.0, 1.0, 10.0, 11.0]
    rows = pair_margins(make(pts, [[0, 1], [2, 3]], 3.0, SeparationKind.STRONG))
    assert len(rows) == 1
    row = rows[0]
    assert row["distance"] == 9.0 and row["required"] == 3.0
    assert row["ok"] and row["ratio"] == pytest.approx(3.0)


def test_clustering_validation():
    pts = PointSet([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        Clustering(points=pts, clusters=(), sigma=1.0, kind=SeparationKind.SEMI)
    with pytest.raises(ValueError):
        Clustering(
            points=pts,
            clusters=(np.array([0, 1]), np.array([1, 2])),
            sigma=1.0,
            kind=SeparationKind.SEMI,
        )
    with pytest.raises(ValueError):
        Clustering(
            points=pts, clusters=(np.array([3]),), sigma=1.0, kind=SeparationKind.SEMI
        )
    for sigma in (0.0, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError, match="sigma"):
            Clustering(
                points=pts, clusters=(np.array([0]),), sigma=sigma, kind=SeparationKind.SEMI
            )
    big = Clustering(
        points=pts, clusters=(np.array([0]),), sigma=8.98e307, kind=SeparationKind.SEMI
    )
    assert big.sigma == 8.98e307
