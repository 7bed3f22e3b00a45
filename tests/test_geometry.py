import heapq
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sepclust
from sepclust import geometry
from sepclust.geometry import (
    Ball,
    DenseBalls,
    PointSet,
    approx_min_ball_alpha,
    closest_pair,
    diameter,
    distance,
    pairwise_distances,
    set_distance,
    spread,
)
from sepclust.generators import gen_exponential_line, gen_grid
from sepclust.oracle import exact_min_ball_all
from sepclust.quorum import max_epoch_depth, quorum_clustering

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)
point3 = st.tuples(finite, finite, finite)


def test_distance_345_triangle():
    assert distance([0, 0], [3, 4]) == 5.0


def test_distance_identity():
    p = [1.5, -2.0, 7.25]
    assert distance(p, p) == 0.0


def test_distance_matches_manual_recompute():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q = rng.normal(size=3), rng.normal(size=3)
        manual = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))
        assert distance(p, q) == pytest.approx(manual, rel=1e-12)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance([0, 0], [1, 2, 3])


@given(point3, point3)
def test_distance_symmetry(p, q):
    assert distance(p, q) == pytest.approx(distance(q, p), rel=1e-9, abs=1e-12)


@given(point3, point3, point3)
def test_distance_triangle_inequality(p, q, r):
    lhs = distance(p, r)
    rhs = distance(p, q) + distance(q, r)
    assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_set_distance_basic():
    assert set_distance(PointSet([0.0, 1.0]), PointSet([5.0, 7.0])) == 4.0


def test_set_distance_shared_point_is_zero():
    x = PointSet([[0.0, 0.0], [1.0, 1.0]])
    assert set_distance(x, x) == 0.0


def test_set_distance_matches_double_loop():
    rng = np.random.default_rng(11)
    a, b = rng.random((8, 2)), rng.random((8, 2))
    brute = min(
        distance(p, q) for p in a for q in b
    )
    assert set_distance(PointSet(a), PointSet(b)) == pytest.approx(brute, rel=1e-12)


def test_set_distance_empty_errors():
    with pytest.raises(ValueError):
        set_distance(PointSet(np.empty((0, 2))), PointSet([[0.0, 0.0]]))


def test_diameter_and_singleton():
    assert diameter(PointSet([[0.0, 0.0], [3.0, 4.0]])) == 5.0
    assert diameter(PointSet([[2.0, 2.0]])) == 0.0
    with pytest.raises(ValueError):
        diameter(PointSet(np.empty((0, 1))))


def test_diameter_matches_brute_force():
    rng = np.random.default_rng(3)
    pts = rng.random((20, 3))
    brute = max(distance(p, q) for p in pts for q in pts)
    assert diameter(PointSet(pts)) == pytest.approx(brute, rel=1e-12)


def test_closest_pair_examples():
    assert closest_pair(PointSet([0.0, 1.0, 4.0])) == 1.0
    assert closest_pair(PointSet([0.0, 1.0, 1.0])) == 0.0
    with pytest.raises(ValueError):
        closest_pair(PointSet([0.0]))


def test_closest_pair_matches_brute_force():
    rng = np.random.default_rng(4)
    pts = rng.random((20, 2))
    brute = min(
        distance(pts[i], pts[j]) for i in range(20) for j in range(i + 1, 20)
    )
    assert closest_pair(PointSet(pts)) == pytest.approx(brute, rel=1e-12)


def test_diameter_at_least_closest_pair():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = PointSet(rng.random((10, 2)))
        assert diameter(pts) >= closest_pair(pts)


def test_spread_examples():
    assert spread(PointSet([0.0, 1.0, 4.0])) == 4.0
    # p_i = 2^(i+1) - 1 for i = 1..5: diameter 63-3, closest pair 7-3
    assert spread(gen_exponential_line(5)) == 15.0
    assert spread(gen_grid(4, 2)) == pytest.approx(3 * math.sqrt(2), rel=1e-12)


def test_spread_duplicates_error():
    with pytest.raises(ValueError, match="infinite spread"):
        spread(PointSet([1.0, 1.0, 3.0]))


def test_approx_min_ball_sliding_window_case():
    ps = PointSet([0.0, 1.0, 2.0, 10.0])
    ball = approx_min_ball_alpha(ps, 3)
    assert 1.0 <= ball.radius <= 2.0  # oracle optimum is 1
    assert ball.contains(ps.coords).sum() >= 3
    assert not ball.contains(np.array([10.0]))


def test_approx_min_ball_alpha_one_is_input_point():
    ps = PointSet([[0.0, 0.0], [2.0, 1.0], [5.0, 5.0]])
    ball = approx_min_ball_alpha(ps, 1)
    assert ball.radius == 0.0
    assert any(np.array_equal(ball.center, p) for p in ps.coords)


def test_approx_min_ball_pair():
    ball = approx_min_ball_alpha(PointSet([[0.0, 0.0], [2.0, 0.0]]), 2)
    assert 1.0 <= ball.radius <= 2.0


def test_approx_min_ball_alpha_out_of_range():
    ps = PointSet([0.0, 1.0])
    with pytest.raises(ValueError):
        approx_min_ball_alpha(ps, 0)
    with pytest.raises(ValueError):
        approx_min_ball_alpha(ps, 3)


def test_approx_min_ball_two_approximation_sweep():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 19))
        d = int(rng.integers(1, 3))
        ps = PointSet(rng.random((n, d)) * 5)
        exact = exact_min_ball_all(ps)
        for alpha in range(1, n + 1):
            ball = approx_min_ball_alpha(ps, alpha)
            assert ball.contains(ps.coords).sum() >= alpha
            assert exact[alpha - 1] <= ball.radius <= 2 * exact[alpha - 1] * (1 + 1e-9)


def test_dense_balls_seed_holds_one_row_block():
    # The seed radii are partitioned block by block into one vector, and a
    # block's partitioned copy holds at most _BLOCK floats whatever n is; the
    # seed heap of 2048 entries fits in a second such budget.
    dist = pairwise_distances(np.random.default_rng(4).random((2048, 2)))
    tracemalloc.start()
    try:
        DenseBalls(dist, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * geometry._BLOCK


def _alpha_one_inputs():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        coords = rng.random((30, d))
        coords[20:] = coords[3]  # duplicate block
        yield coords
    yield gen_grid(6, 2).coords
    yield gen_exponential_line(24).coords


def test_dense_balls_alpha_one_heap_is_the_rank_zero_seed(monkeypatch):
    for coords in _alpha_one_inputs():
        dist = pairwise_distances(coords)
        seed = np.partition(dist, 0, axis=1)[:, 0]
        expected = list(zip(seed.tolist(), range(len(coords)), [0] * len(coords)))
        heapq.heapify(expected)
        with monkeypatch.context() as m:
            m.setattr(np, "partition", None)  # the alpha = 1 seed reads no row
            balls = DenseBalls(dist, 1)
        assert balls._heap == expected
        # removals never lift a radius above 0: the pick is the smallest alive index
        rng = np.random.default_rng(len(coords))
        while balls.alive.size:
            assert balls.smallest() == (int(balls.alive[0]), 0.0)
            assert balls.nearest(int(balls.alive[0]), 0.0).tolist() == [balls.alive[0]]
            balls.remove(rng.choice(balls.alive, size=min(3, balls.alive.size), replace=False))


def test_approx_min_ball_alpha_one_unchanged():
    # the rank-0 partition seed's argmin, as the engine computed it before
    for coords in _alpha_one_inputs():
        seed = np.partition(pairwise_distances(coords), 0, axis=1)[:, 0]
        i = int(np.argmin(seed))
        ball = approx_min_ball_alpha(PointSet(coords), 1)
        assert np.array_equal(ball.center, coords[i]) and ball.radius == seed[i] == 0.0


def test_ball_tolerance():
    b = Ball(np.array([1.0, 1.0]), 2.0)
    edge = np.array([1.0, 3.0 + 2.0 * 5e-10])  # within relative tolerance
    assert b.contains(edge)
    with pytest.raises(ValueError):
        Ball(np.array([0.0]), -1.0)


def test_pairwise_distances_blocked_matches_direct():
    rng = np.random.default_rng(8)
    a, b = rng.random((300, 2)), rng.random((17, 2))
    full = pairwise_distances(a, b)
    direct = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    assert np.allclose(full, direct, rtol=1e-12, atol=0)


def _tensor_reference(a, b):
    """The difference-tensor reduction that the distance kernel replaced."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _coordinate_order_reference(a, b):
    d2 = (a[:, None, 0] - b[None, :, 0]) ** 2
    for k in range(1, a.shape[1]):
        d2 = d2 + (a[:, None, k] - b[None, :, k]) ** 2
    return np.sqrt(d2)


def _wide_points(rng, n, d):
    """Points whose coordinates span binary exponents -150..150."""
    return rng.standard_normal((n, d)) * 2.0 ** rng.integers(-150, 151, (n, d))


# Point counts on both sides of the largest square scan that fits in one
# block: an n x n scan is one block exactly when n * n <= _BLOCK.
_SIDE = math.isqrt(geometry._BLOCK)
_ROWS = (1, _SIDE - 1, _SIDE, _SIDE + 1, 2 * _SIDE + 1)


@pytest.mark.parametrize("n", _ROWS)
@pytest.mark.parametrize("d", [1, 2])
def test_kernel_low_dim_bit_equal_to_tensor_reduction(d, n):
    rng = np.random.default_rng(100 * d + n)
    a, b = _wide_points(rng, n, d), _wide_points(rng, 37, d)
    assert np.array_equal(pairwise_distances(a), _tensor_reference(a, a))
    assert np.array_equal(pairwise_distances(a, b), _tensor_reference(a, b))
    assert np.array_equal(pairwise_distances(b, a), _tensor_reference(b, a))


def test_kernel_exponential_line_bit_equal_to_tensor_reduction():
    c = gen_exponential_line(40).coords
    assert np.array_equal(pairwise_distances(c), _tensor_reference(c, c))
    assert np.array_equal(pairwise_distances(c[:7], c), _tensor_reference(c[:7], c))


@pytest.mark.parametrize("n", _ROWS)
@pytest.mark.parametrize("d", [3, 5])
def test_kernel_sums_in_coordinate_order(d, n):
    rng = np.random.default_rng(100 * d + n)
    a, b = _wide_points(rng, n, d), _wide_points(rng, 37, d)
    assert np.array_equal(pairwise_distances(a), _coordinate_order_reference(a, a))
    assert np.array_equal(pairwise_distances(a, b), _coordinate_order_reference(a, b))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_reductions_and_membership_agree_with_matrix(d):
    rng = np.random.default_rng(d)
    a, b = _wide_points(rng, 300, d), _wide_points(rng, 41, d)
    full = pairwise_distances(a)
    assert diameter(a) == full.max()
    assert closest_pair(a) == (full + np.diag(np.full(300, np.inf))).min()
    assert set_distance(a, b) == pairwise_distances(a, b).min()
    assert set_distance(b, a) == pairwise_distances(b, a).min()
    cross = pairwise_distances(a, b)
    assert all(
        distance(a[i], b[j]) == cross[i, j] for i in range(0, 300, 7) for j in range(41)
    )
    for i, j in [(0, 1), (17, 255), (299, 256)]:
        ball = Ball(a[i], full[i, j])
        assert np.array_equal(ball.contains(a, rel_tol=0.0), full[i] <= full[i, j])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_budget_carries_no_meaning(monkeypatch, d):
    # At the default budget a 60-point scan is one block; budgets of 1, 3
    # and 7 rows per block split every scan and change no bit of any result.
    rng = np.random.default_rng(d)
    a, b = _wide_points(rng, 60, d), _wide_points(rng, 23, d)
    ps, few = PointSet(rng.random((60, d))), PointSet(rng.random((12, d)))
    # The self-scans of closest_pair and diameter reach each pair once, from
    # the block of its lower row: a duplicate or a far pair planted at (i, j)
    # within a block or across a boundary must be found from either side.
    pairs = [(0, 59), (59, 0), (6, 7), (7, 6), (57, 58), (21, 22), (22, 21)]

    def planted(i, j, pi, pj):
        c = a.copy()
        c[i], c[j] = pi, pj
        return c

    def results():
        dist = pairwise_distances(a)
        qc = quorum_clustering(ps, 4)
        return [
            dist, pairwise_distances(a, b), pairwise_distances(b, a),
            closest_pair(a), diameter(a), set_distance(a, b), set_distance(b, a),
            DenseBalls(dist, 5)._heap, qc.centers, qc.radii, max_epoch_depth(qc, ps),
            exact_min_ball_all(few),
            [closest_pair(planted(i, j, a[i], a[i])) for i, j in pairs],
            [diameter(planted(i, j, 2.0**200, -(2.0**200))) for i, j in pairs],
        ]

    want = results()
    full = want[0] + np.diag(np.full(60, np.inf))
    assert want[3] == full.min() and want[4] == want[0].max()
    assert want[-2] == [0.0] * len(pairs)
    assert want[-1] == [2.0**201 * math.sqrt(d)] * len(pairs)
    for rows in (1, 3, 7):
        monkeypatch.setattr(geometry, "_BLOCK", rows * 60)
        assert geometry._block_rows(60) == rows
        got = results()
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), rows


def test_every_distance_goes_through_the_kernel():
    # einsum and linalg.norm sum in an order of their own. Only the oracle may
    # use them, for its Gram systems and its own exact baselines.
    src = Path(sepclust.__file__).parent
    hits = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "oracle.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "einsum" in line or "linalg.norm" in line
    ]
    assert hits == []
