import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepclust.geometry import Ball, PointSet, spread
from sepclust.oracle import exact_min_ball_alpha
from sepclust.quorum import (
    cover_depth,
    epochs,
    max_epoch_depth,
    quorum_clustering,
)
from sepclust.generators import gen_grid, gen_random_uniform


def test_two_tight_pairs():
    qc = quorum_clustering(PointSet([0.0, 1.0, 10.0, 11.0]), 2)
    assert len(qc) == 2
    assert [m.tolist() for m in qc.members] == [[0, 1], [2, 3]]
    assert (qc.radii <= 1.0).all()  # optimal per step is 0.5, 2-approx allows 1


def test_gamma_equals_n_single_step():
    ps = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    qc = quorum_clustering(ps, 3)
    assert len(qc) == 1
    assert qc.members[0].tolist() == [0, 1, 2]


def test_gamma_one_all_zero_radii():
    ps = PointSet([5.0, 1.0, 3.0])
    qc = quorum_clustering(ps, 1)
    assert len(qc) == 3
    assert (qc.radii == 0.0).all()
    assert [m.tolist() for m in qc.members] == [[0], [1], [2]]


def test_gamma_validation():
    ps = PointSet([0.0, 1.0])
    with pytest.raises(ValueError):
        quorum_clustering(ps, 0)
    with pytest.raises(ValueError):
        quorum_clustering(ps, 3)


def test_members_partition_and_in_ball():
    rng = np.random.default_rng(2)
    ps = PointSet(rng.random((37, 2)))
    for gamma in (1, 2, 5, 7, 37):
        qc = quorum_clustering(ps, gamma)
        seen = np.concatenate(qc.members)
        assert sorted(seen.tolist()) == list(range(37))
        for m in qc.members[:-1]:
            assert m.size == gamma
        assert qc.members[-1].size == 37 - gamma * (len(qc) - 1)
        for c, r, m in zip(qc.centers, qc.radii, qc.members):
            assert Ball(ps.coords[c], r).contains(ps.coords[m]).all()


def test_epochs_examples():
    assert epochs([1, 2, 3, 5, 21]) == ((0, 3), (3, 4), (4, 5))
    assert epochs([1, 1, 1]) == ((0, 3),)
    assert epochs([1, 5, 25]) == ((0, 1), (1, 2), (2, 3))
    assert epochs([0, 0, 0]) == ((0, 3),)
    with pytest.raises(ValueError):
        epochs([])


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=40))
def test_epochs_partition_properties(radii):
    part = epochs(radii)
    r = np.asarray(radii)
    # ranges tile [0, m)
    flat = [i for s, e in part for i in range(s, e)]
    assert flat == list(range(len(radii)))
    for s, e in part:
        assert r[s:e].max() <= 4 * r[s]
    starts = [s for s, _ in part]
    for prev, cur in zip(starts, starts[1:]):
        assert r[cur] > 4 * r[prev]


def test_cover_depth_examples():
    b1 = Ball(np.array([0.0, 0.0]), 1.0)
    b2 = Ball(np.array([10.0, 0.0]), 1.0)
    assert cover_depth([b1, b2], [0.5, 0.0]) == 1
    assert cover_depth([b1, b2], [5.0, 0.0]) == 0
    nested = [Ball(np.zeros(2), r) for r in (1.0, 2.0, 3.0)]
    assert cover_depth(nested, [0.0, 0.0]) == 3


def test_epoch_radius_band_and_factor_64_on_full_steps():
    rng = np.random.default_rng(9)
    ps = PointSet(rng.random((120, 2)))
    for gamma in (2, 5, 11):
        qc = quorum_clustering(ps, gamma)
        for s, e in epochs(qc.radii):
            rr = qc.radii[s:e]
            assert rr.max() <= 4 * rr[0] * (1 + 1e-12)
            full = [
                qc.radii[t]
                for t in range(s, e)
                if qc.members[t].size == gamma
            ]
            if full and max(full) > 0:
                assert min(full) > 0
                assert max(full) / min(full) <= 64.0


def test_epoch_count_bounded_by_spread():
    for seed in (1, 2, 3):
        ps = gen_random_uniform(150, 2, seed)
        phi = spread(ps)
        bound = math.ceil(math.log(phi, 4)) + 2
        for gamma in (2, 4, 9):
            qc = quorum_clustering(ps, gamma)
            assert len(epochs(qc.radii)) <= bound


def test_two_approximation_per_step_against_oracle():
    rng = np.random.default_rng(31)
    ps = PointSet(rng.random((24, 2)) * 3)
    gamma = 5
    qc = quorum_clustering(ps, gamma)
    survivors = np.arange(ps.n)
    for t in range(len(qc)):
        g_eff = min(gamma, survivors.size)
        rho = exact_min_ball_alpha(ps.subset(survivors), g_eff)
        assert rho <= qc.radii[t] * (1 + 1e-9)
        assert qc.radii[t] <= 2 * rho * (1 + 1e-9)
        survivors = np.setdiff1d(survivors, qc.members[t])


def test_optimal_radii_monotone_over_steps():
    # exact optimal radius of the survivors never decreases while full
    # quota steps remain
    rng = np.random.default_rng(33)
    ps = PointSet(rng.random((20, 2)))
    gamma = 4
    qc = quorum_clustering(ps, gamma)
    survivors = np.arange(ps.n)
    rhos = []
    for members in qc.members:
        if survivors.size < gamma:
            break
        rhos.append(exact_min_ball_alpha(ps.subset(survivors), gamma))
        survivors = np.setdiff1d(survivors, members)
    assert all(a <= b * (1 + 1e-12) for a, b in zip(rhos, rhos[1:]))


def test_packing_depth_constant_small_grids():
    # depth at n and 4n stays within the dimension-only bound
    bound = (2 + math.ceil(64 * math.sqrt(2))) ** 2
    depths = {}
    for side in (16, 32):
        g = gen_grid(side, 2)
        qc = quorum_clustering(g, 8)
        depths[side] = max_epoch_depth(qc, g)
        assert depths[side] <= bound
    assert abs(depths[32] - depths[16]) <= 2  # small fluctuation, no growth with n


def test_duplicates_form_zero_radius_steps():
    ps = PointSet([1.0, 1.0, 1.0, 50.0])
    qc = quorum_clustering(ps, 2)
    assert qc.radii[0] == 0.0
    assert qc.members[0].tolist() == [0, 1]


def _naive_quorum(coords, gamma):
    # literal restatement: per step, rerun the dense-ball primitive on the
    # survivors and remove the gamma covered points nearest the center
    from sepclust.geometry import pairwise_distances

    n = len(coords)
    alive = np.ones(n, bool)
    steps = []
    while alive.any():
        idx = np.flatnonzero(alive)
        g = min(gamma, idx.size)
        sub = pairwise_distances(coords[idx])
        cand = np.partition(sub, g - 1, axis=1)[:, g - 1]
        j = int(np.argmin(cand))
        take = np.lexsort((idx, sub[j]))[:g]
        steps.append((int(idx[j]), float(cand[j]), np.sort(idx[take])))
        alive[steps[-1][2]] = False
    return steps


def test_heap_engine_matches_naive_recomputation():
    rng = np.random.default_rng(2024)
    for trial in range(15):
        n = int(rng.integers(2, 50))
        d = int(rng.integers(1, 4))
        coords = rng.random((n, d)) * 10
        if trial % 5 == 0:
            coords[: n // 3] = coords[0]  # duplicate block
        ps = PointSet(coords)
        for gamma in {1, 2, max(1, n // 2), n}:
            qc = quorum_clustering(ps, gamma)
            ref = _naive_quorum(coords, gamma)
            assert len(qc) == len(ref)
            for t, (_, r, members) in enumerate(ref):
                assert qc.radii[t] == r
                assert np.array_equal(qc.members[t], members)
