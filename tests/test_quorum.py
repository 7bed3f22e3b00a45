import heapq
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepclust.geometry import REL_TOL, Ball, PointSet, pairwise_distances, spread
from sepclust.oracle import exact_min_ball_alpha
from sepclust.quorum import (
    _quorum_steps,
    epochs,
    max_epoch_depth,
    quorum_clustering,
)
from sepclust.generators import (
    gen_exponential_line,
    gen_exponential_ring_grid,
    gen_grid,
    gen_random_uniform,
)


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


def test_quorum_steps_are_full_and_quorum_clustering_adds_the_remainder():
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 12, 30):
        ps = PointSet(rng.random((n, 2)))
        dist = pairwise_distances(ps.coords)
        for gamma in range(1, n + 3):
            steps = _quorum_steps(dist, gamma)
            assert len(steps) == n // gamma
            assert all(m.size == gamma for m in steps.members)
            if gamma > n:
                continue
            qc = quorum_clustering(ps, gamma)
            assert len(qc) == len(steps) + (n % gamma != 0)
            assert np.array_equal(qc.centers[: len(steps)], steps.centers)
            assert np.array_equal(qc.radii[: len(steps)], steps.radii)
            if n % gamma:
                left = np.setdiff1d(np.arange(n), np.concatenate(steps.members))
                assert np.array_equal(qc.members[-1], left)
                far = dist[np.ix_(left, left)].max(axis=1)
                assert qc.centers[-1] == left[np.argmin(far)]
                assert qc.radii[-1] == far.min()


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
    # the partition of a prefix is the partition, clipped to the prefix
    for f in range(1, len(radii) + 1):
        clipped = tuple((s, min(e, f)) for s, e in part if s < f)
        assert epochs(r[:f]) == clipped


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
        rho = exact_min_ball_alpha(PointSet(ps.coords[survivors]), g_eff)
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
        rhos.append(exact_min_ball_alpha(PointSet(ps.coords[survivors]), gamma))
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


def _depth_inputs():
    yield gen_grid(8, 2)
    yield gen_exponential_line(24)
    yield gen_exponential_ring_grid(16, 16.0, 2)
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for n in (30, 90):
            # Quarter-grid coordinates put points exactly on ball boundaries.
            yield PointSet(np.round(rng.random((n, d)) * 16) / 4)


@pytest.mark.parametrize("gamma", [1, 2, 3, 8])
def test_max_epoch_depth_matches_one_full_matrix(gamma):
    # Reference: one full point-by-center distance matrix, read per epoch.
    for ps in _depth_inputs():
        qc = quorum_clustering(ps, gamma)
        lim = qc.radii * (1.0 + REL_TOL)
        within = pairwise_distances(ps.coords, ps.coords[qc.centers]) <= lim
        want = max(int(within[:, s:e].sum(axis=1).max()) for s, e in epochs(qc.radii))
        assert max_epoch_depth(qc, ps) == want


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


def _engine_loop_steps(dist, gamma):
    # inline copy of the lazy-heap engine loop, partition seed and stale
    # recomputes included, as _quorum_steps ran it for every gamma
    n = dist.shape[0]
    live = np.ones(n, bool)
    alive = np.arange(n)
    stamp = 0
    a = gamma - 1
    start = np.partition(dist, a, axis=1)[:, a] if n >= gamma else np.empty(0)
    heap = list(zip(start.tolist(), range(start.size), [0] * start.size))
    heapq.heapify(heap)
    centers, radii, members = [], [], []
    while alive.size >= gamma:
        while True:
            r, i, s = heap[0]
            if not live[i]:
                heapq.heappop(heap)
            elif s == stamp:
                break
            else:
                row = dist[i][alive]
                row.partition(a)
                heapq.heapreplace(heap, (float(row[a]), i, stamp))
        d = dist[i][alive]
        take = d <= r
        if np.count_nonzero(take) > gamma:
            take = d < r
            ties = np.flatnonzero(d == r)
            take[ties[: gamma - np.count_nonzero(take)]] = True
        taken = alive[take]
        live[taken] = False
        alive = live.nonzero()[0]
        stamp += 1
        centers.append(i)
        radii.append(r)
        members.append(taken)
    return np.array(centers, dtype=int), np.array(radii), tuple(members)


def _closed_form_inputs():
    rng = np.random.default_rng(77)
    for trial in range(12):
        n = int(rng.integers(1, 40))
        coords = rng.random((n, 1 + trial % 3)) * 10
        if trial % 2 == 0:
            coords[n // 2 :] = coords[0]  # duplicate block
        yield coords
    yield gen_grid(6, 2).coords
    yield gen_exponential_line(24).coords


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_quorum_steps_match_the_engine_loop(gamma):
    # gamma = 1 is answered in closed form; gamma >= 2 runs DenseBalls
    for coords in _closed_form_inputs():
        dist = pairwise_distances(coords)
        qc = _quorum_steps(dist, gamma)
        centers, radii, members = _engine_loop_steps(dist, gamma)
        assert qc.gamma == gamma
        assert qc.centers.dtype == centers.dtype and np.array_equal(qc.centers, centers)
        assert qc.radii.dtype == radii.dtype and np.array_equal(qc.radii, radii)
        assert len(qc.members) == len(members)
        for got, want in zip(qc.members, members):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_quorum_steps_gamma_one_on_empty_matrix():
    qc = _quorum_steps(np.empty((0, 0)), 1)
    assert len(qc) == 0 and qc.centers.dtype == int and qc.radii.dtype == float
