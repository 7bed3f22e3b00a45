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
from sepclust.oracle import exact_min_ball_all, exact_min_ball_alpha
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


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize(
    "fn,name",
    [(approx_min_ball_alpha, "alpha"), (quorum_clustering, "gamma"), (exact_min_ball_alpha, "alpha")],
)
def test_ball_counts_must_be_integers(fn, name, value):
    # int() would truncate 2.5 to 2 and read True as 1; ExtractionConfig's
    # rule applies instead.
    ps = PointSet([0.0, 1.0, 2.0, 10.0])
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        fn(ps, value)
    fn(ps, np.int64(2))  # a numpy integer is an integer


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
    # The exact seed radii (as _quorum_steps builds them) are partitioned
    # block by block into one vector, and a block's partitioned copy holds at
    # most _BLOCK floats whatever n is; the engine's arrays of 2048 entries
    # fit in a second such budget. A bound-seeded engine's first pick
    # partitions single rows and stays within the same bound.
    dist = pairwise_distances(np.random.default_rng(4).random((2048, 2)))
    for build in (lambda: DenseBalls(dist, 7, geometry._kth_smallest(dist, 6)),
                  lambda: DenseBalls(dist, 7).smallest()):
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * geometry._BLOCK


def _seed_inputs():
    """Coordinates with random, tied, duplicate and infinite distances, at
    n = 60 (one row block) and 300 (two)."""
    rng = np.random.default_rng(31)
    for n in (60, 300):
        for d in (1, 2, 3):
            yield rng.random((n, d))
        twice = rng.random((n // 2, 2))
        yield np.vstack([twice, twice])
        huge = rng.random((n, 2))
        huge[::7] *= 1e300  # distances from these beyond the double range: inf
        yield huge
    yield gen_grid(8, 2).coords
    yield gen_grid(17, 2).coords
    yield gen_grid(60, 1).coords


def _seed_groups(coords):
    """(distance matrix, cap) of the plain group and of the per-color groups."""
    n = coords.shape[0]
    yield pairwise_distances(coords), n // 2
    for colors in (np.arange(n) % 3, (np.arange(n) % 4 == 0).astype(int)):
        sets = [coords[colors == c] for c in range(colors.max() + 1)]
        cap = min(len(c) for c in sets)  # up to the whole row of the smallest
        for c in sets:
            yield pairwise_distances(c), cap


def _pick_sequence(balls):
    """Every (center, radius, members) the engine picks, removing each
    pick's members, as one flat array."""
    out = []
    while balls.alive.size >= balls.alpha:
        center, radius = balls.smallest()
        taken = balls.nearest(center, radius)
        out += [center, radius, *taken]
        balls.remove(taken)
    return np.array(out)


def test_order_statistics_equal_the_partition_seed():
    # Column alpha - 1 of the table is the exact seed that _kth_smallest
    # partitions for at alpha, bit for bit, at every alpha the table holds,
    # and an engine seeded from it picks what an unseeded engine picks.
    zero = inf = False
    for coords in _seed_inputs():
        for dist, cap in _seed_groups(coords):
            table = geometry._sorted_prefix(dist, cap)
            for alpha in range(2, cap + 1):
                got = table[:, alpha - 1]
                want = geometry._kth_smallest(dist, alpha - 1)
                assert got.tobytes() == want.tobytes(), (dist.shape, cap, alpha)
                zero, inf = zero or not got.all(), inf or np.isinf(got).any()
            for alpha in {2, cap // 2 + 1, cap} - {0, 1}:
                seeded = _pick_sequence(DenseBalls(dist, alpha, table[:, alpha - 1]))
                assert seeded.tobytes() == _pick_sequence(DenseBalls(dist, alpha)).tobytes()
    assert zero and inf  # duplicate points and distances beyond the double range


def _bound_inputs():
    """The seed inputs, then points about 1e-170 apart (squares below the
    subnormals), points on a line over 13 decades (rounded differences),
    rows that mix the 1e-160 and 1e150 scales, and three points on a line
    whose first and last radii at alpha = 3 are inf."""
    yield from _seed_inputs()
    rng = np.random.default_rng(37)
    yield rng.random((40, 2)) * 1e-170
    for _ in range(4):
        yield np.exp(rng.random((90, 1)) * 30)
    mixed = rng.random((90, 1))
    mixed[::3] *= 1e-160
    mixed[1::3] *= 1e150
    yield mixed
    yield np.array([[0.0], [2e153], [1.5e154]])


@pytest.mark.parametrize("order", ["ball", "random"])
def test_bound_seeded_engine_picks_as_the_exact_seeded_one(order):
    # From bound 0 and triangle-inequality lifts, the engine makes the same
    # picks as one seeded with every exact radius, pick for pick, whatever
    # is removed: each pick's ball, or random subsets of the alive points.
    rng = np.random.default_rng(8)
    inf_radius = False
    for coords in _bound_inputs():
        dist = pairwise_distances(coords)
        n = dist.shape[0]
        for alpha in sorted(a for a in {3, 4, n // 4 + 1, n // 2, n - 1} if 3 <= a <= n):
            bound = DenseBalls(dist, alpha)
            exact = DenseBalls(dist, alpha, geometry._kth_smallest(dist, alpha - 1))
            first = True
            while bound.alive.size >= alpha:
                got, want = bound.smallest(), exact.smallest()
                assert got == want and type(got[1]) is float, (n, alpha)
                if first and math.isfinite(want[1]):
                    ball = approx_min_ball_alpha(PointSet(coords), alpha)
                    assert ball.radius == want[1]
                    assert np.array_equal(ball.center, coords[want[0]])
                first, inf_radius = False, inf_radius or np.isinf(exact._r).any()
                taken = bound.nearest(*got)
                assert np.array_equal(taken, exact.nearest(*want))
                if order == "random":
                    size = int(rng.integers(1, max(2, bound.alive.size // 3)))
                    taken = rng.choice(bound.alive, size=size, replace=False)
                bound.remove(taken)
                exact.remove(taken)
    assert inf_radius


def test_one_block_d1_kernel_allocates_no_temporary():
    # At d = 1 the kernel reads no temporary, so a one-block matrix and the
    # distances to a point allocate no second buffer of the result's size.
    c = np.random.default_rng(6).random((1 << 16, 1))
    for call, size in ((lambda: pairwise_distances(c[:256]), 256 * 256 * 8),
                       (lambda: geometry._distances_to(c, c[0]), c.size * 8)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size <= peak < 1.5 * size


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
        with monkeypatch.context() as m:
            m.setattr(np, "partition", None)  # the alpha = 1 seed reads no row
            balls = DenseBalls(dist, 1)
        assert balls._r.tobytes() == seed.tobytes()
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
            geometry._kth_smallest(dist, 4), _pick_sequence(DenseBalls(dist, 5)),
            qc.centers, qc.radii, max_epoch_depth(qc, ps),
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


# Scan widths on both sides of the one-block square scan (256 x 256 at the
# default budget), of the kernel's ufunc buffer, geometry._BUFSIZE = 256
# elements, over three operands (85) and of numpy's default 8,192-element
# buffer (2,730).
_WIDTHS = (1, 60, 85, 86, 256, 257, 1024, 2730, 2731, 3072, 4097)


@pytest.mark.parametrize("m", _WIDTHS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_identity_at_every_width(d, m):
    rng = np.random.default_rng(10 * m + d)
    b = _wide_points(rng, m, d)
    a = _wide_points(rng, 2 * geometry._block_rows(m) + 1, d)  # three blocks against b
    cross = _coordinate_order_reference(a, b)
    assert np.array_equal(pairwise_distances(a, b), cross)
    assert set_distance(a, b) == set_distance(b, a) == cross.min()
    full = pairwise_distances(b)
    far, near = 0.0, np.inf
    for s in range(0, m, 256):
        ref = _coordinate_order_reference(b[s : s + 256], b)
        assert np.array_equal(full[s : s + 256], ref)
        far = max(far, ref.max())
        ref[np.arange(ref.shape[0]), np.arange(s, s + ref.shape[0])] = np.inf
        near = min(near, ref.min())
    assert diameter(b) == far
    if m > 1:
        assert closest_pair(b) == near


def _bufsize_spy(monkeypatch):
    """Record the ufunc buffer size in force at each kernel call."""
    seen, kernel = [], geometry._sq_into

    def spy(*args):
        seen.append(np.getbufsize())
        return kernel(*args)

    monkeypatch.setattr(geometry, "_sq_into", spy)
    return seen


@pytest.fixture
def caller_bufsize():
    """A caller's own ufunc buffer size, set for the test and then undone."""
    prev = np.setbufsize(4096)
    try:
        yield 4096
    finally:
        np.setbufsize(prev)


def test_public_calls_keep_the_callers_buffer_size(monkeypatch, caller_bufsize):
    rng = np.random.default_rng(9)
    c, x = rng.random((300, 2)), rng.random((40, 2))  # 300 x 300 is two blocks
    calls = [
        lambda: pairwise_distances(c), lambda: pairwise_distances(c, x),
        lambda: diameter(c), lambda: closest_pair(c), lambda: spread(c),
        lambda: set_distance(c, x), lambda: approx_min_ball_alpha(c, 5),
        lambda: distance(c[0], c[1]), lambda: Ball(c[0], 0.5).contains(c),
        lambda: max_epoch_depth(quorum_clustering(PointSet(c), 4), PointSet(c)),
        lambda: exact_min_ball_all(PointSet(x)),
    ]
    seen = _bufsize_spy(monkeypatch)
    for call in calls:
        call()
        assert np.getbufsize() == caller_bufsize
    # multi-block scans ran their blocks under the scan's own size
    assert geometry._BUFSIZE in seen and caller_bufsize in seen


def test_one_block_scans_leave_the_buffer_size_alone(monkeypatch):
    c = np.random.default_rng(2).random((120, 3))
    monkeypatch.setattr(np, "setbufsize", None)  # every scan here is one block
    for call in (pairwise_distances, diameter, closest_pair, spread):
        call(c)
    set_distance(c[:60], c[60:])


def test_a_closed_or_failed_scan_keeps_the_callers_buffer_size(monkeypatch, caller_bufsize):
    c = np.random.default_rng(3).random((700, 2))
    scan = geometry._sq_blocks(c, None)
    next(scan)
    assert np.getbufsize() == caller_bufsize
    scan.close()
    assert np.getbufsize() == caller_bufsize

    kernel, calls = geometry._sq_into, []

    def fails_second(*args):
        calls.append(np.getbufsize())
        if len(calls) == 2:
            raise RuntimeError("mid-scan")
        return kernel(*args)

    monkeypatch.setattr(geometry, "_sq_into", fails_second)
    with pytest.raises(RuntimeError, match="mid-scan"):
        pairwise_distances(c)
    assert calls == [geometry._BUFSIZE] * 2 and np.getbufsize() == caller_bufsize


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


def test_the_block_rule_lives_in_geometry():
    # Every n^2 pass takes its row blocks, and the ufunc buffer size they are
    # computed under, from geometry's scans; no other module sets either.
    src = Path(sepclust.__file__).parent
    hits = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "geometry.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "_block_rows" in line or "setbufsize" in line
    ]
    assert hits == []
