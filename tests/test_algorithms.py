import gc
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepclust import algorithms, geometry
from sepclust.algorithms import (
    ColorExhausted,
    ColoredInstance,
    ExtractionConfig,
    InsufficientPoints,
    semi_separated_k,
    semi_separated_k_colored,
    strong_separated_k,
    well_separated_k_colored,
)
from sepclust.generators import (
    gen_exponential_line,
    gen_grid,
    gen_random_uniform,
    gen_three_color_line,
)
from sepclust.geometry import PointSet, diameter, set_distance, spread
from sepclust.oracle import best_separated_pair
from sepclust.separation import (
    Clustering,
    SeparationKind,
    check_separation,
    quality,
)


def two_groups_1d(seed=0):
    rng = np.random.default_rng(seed)
    return PointSet(np.concatenate([rng.random(6), 100.0 + rng.random(6)]))


def three_groups_1d():
    # unit-spaced groups of 10 points at mutual distance 1000
    return PointSet(
        np.concatenate([np.arange(10.0), 1000.0 + np.arange(10.0), 2000.0 + np.arange(10.0)])
    )


def colored_groups(seed=1):
    rng = np.random.default_rng(seed)
    a = rng.random((8, 1))
    b = 500.0 + rng.random((8, 1))
    return ColoredInstance.from_sets([PointSet(a), PointSet(b)])


# ---------------------------------------------------------------- semi


def test_semi_two_groups_auto():
    ps = two_groups_1d()
    cl = semi_separated_k(ps, ExtractionConfig(sigma=1.0, k=2))
    assert check_separation(cl)
    assert quality(cl) >= 3
    for c in cl.clusters:  # one cluster per group
        side = ps.coords[c, 0] < 50
        assert side.all() or (~side).all()


def test_semi_k1_trivial():
    ps = PointSet(np.arange(5.0))
    cl = semi_separated_k(ps, ExtractionConfig(sigma=2.0, k=1, alpha=3))
    assert cl.k == 1 and quality(cl) == 3
    assert check_separation(cl)


def test_semi_grid_vs_oracle_subsample():
    ps = gen_grid(8, 2)
    cl = semi_separated_k(ps, ExtractionConfig(sigma=2.0, k=2))
    assert quality(cl) >= 1
    assert quality(cl) <= 4 * 64 / (2 * 2**2)  # documented upper-bound constant 4
    # the exhaustive oracle dominates the algorithm on a small subsample
    rng = np.random.default_rng(0)
    sub = PointSet(ps.coords[np.sort(rng.choice(ps.n, size=8, replace=False))])
    q_opt, _ = best_separated_pair(sub, 2.0, SeparationKind.SEMI)
    cl_sub = semi_separated_k(sub, ExtractionConfig(sigma=2.0, k=2))
    assert quality(cl_sub) <= q_opt


def test_semi_cluster_sizes_exactly_alpha():
    ps = gen_random_uniform(60, 2, 5)
    cl = semi_separated_k(ps, ExtractionConfig(sigma=1.0, k=3))
    assert all(c.size == cl.alpha for c in cl.clusters)


def test_semi_explicit_alpha_infeasible():
    ps = PointSet(np.arange(6.0))
    with pytest.raises(InsufficientPoints) as err:
        semi_separated_k(ps, ExtractionConfig(sigma=1.0, k=2, alpha=6))
    assert err.value.iteration >= 0


def test_semi_separation_certificate():
    # dist(C_i, C_j) >= 2 sigma r_i >= sigma diam(C_i) for i < j
    ps = gen_random_uniform(120, 2, 8)
    sigma = 1.5
    cl = semi_separated_k(ps, ExtractionConfig(sigma=sigma, k=3))
    for i in range(cl.k):
        r_i = cl.balls[i].radius
        d_i = diameter(PointSet(ps.coords[cl.clusters[i]]))
        assert 2 * sigma * r_i >= sigma * d_i * (1 - 1e-9)
        for j in range(i + 1, cl.k):
            dij = set_distance(
                PointSet(ps.coords[cl.clusters[i]]), PointSet(ps.coords[cl.clusters[j]])
            )
            assert dij >= 2 * sigma * r_i * (1 - 1e-9)


def test_auto_alpha_downward_closed_spot_checks():
    ps = gen_random_uniform(200, 2, 99)
    cfg = ExtractionConfig(sigma=2.0, k=3)
    best = semi_separated_k(ps, cfg).alpha
    for alpha in {best - 1, best // 2, 1} - {0}:
        cl = semi_separated_k(ps, ExtractionConfig(sigma=2.0, k=3, alpha=alpha))
        assert quality(cl) == alpha


def test_auto_alpha_is_local_maximum():
    # Auto mode promises a feasible alpha whose alpha + 1 fails, or the cap;
    # not the largest feasible alpha, since feasibility is not downward closed.
    algos = [
        (semi_separated_k, False),
        (semi_separated_k_colored, True),
        (strong_separated_k, False),
        (well_separated_k_colored, True),
    ]
    checked = 0
    for fn, colored in algos:
        grid = itertools.product((1, 2), (2, 3), (1.0, 2.0, 4.0), range(4))
        for d, k, sigma, seed in grid:
            ps = gen_random_uniform(60, d, seed)
            obj = ColoredInstance(ps, np.arange(ps.n) % k) if colored else ps
            cap = min(obj.sizes) if colored else ps.n // k
            alpha = fn(obj, ExtractionConfig(sigma=sigma, k=k)).alpha
            if alpha == cap:
                continue
            with pytest.raises((InsufficientPoints, ColorExhausted)):
                fn(obj, ExtractionConfig(sigma=sigma, k=k, alpha=alpha + 1))
            checked += 1
    assert checked > 0


def k_semi(dim: int, sigma: float) -> int:
    """Covering constant for the semi algorithm's feasibility bound.

    A ball of radius (2 sigma + 2) r is coverable by this many cells of
    diameter at most r/2, each holding fewer than alpha points. Documented
    bound only; never used in control flow (auto mode supersedes it).
    """
    return int(math.ceil(4.0 * math.sqrt(dim) * (2.0 * sigma + 2.0))) ** int(dim)


def test_semi_quality_meets_documented_bound():
    # uniform-random inputs above the covering threshold; the bound constant
    # k_semi is documentation-only, auto mode clears it with a wide margin
    for n, d, k, sigma in [(400, 1, 2, 1.0), (2400, 2, 2, 1.0)]:
        ps = gen_random_uniform(n, d, seed=55)
        cl = semi_separated_k(ps, ExtractionConfig(sigma=sigma, k=k))
        bound = math.floor(n / (k * k_semi(d, sigma) * sigma**d))
        assert bound >= 1  # instance is above the threshold
        assert quality(cl) >= bound


def test_c_override_formula():
    ps = gen_random_uniform(100, 2, 3)
    cl = semi_separated_k(ps, ExtractionConfig(sigma=1.0, k=2, c_override=0.1))
    assert cl.alpha == 5  # ceil(0.1 * 100 / (2 * 1))


def test_c_override_formula_colored_and_strong():
    ps = gen_random_uniform(100, 2, 3)
    log_phi = math.log2(spread(ps))
    cl = strong_separated_k(ps, ExtractionConfig(sigma=1.0, k=2, c_override=1.0))
    assert cl.alpha == math.floor(1.0 * 100 / (2 * 1.0**2 * log_phi)) == 5
    rng = np.random.default_rng(4)
    inst = ColoredInstance.from_sets([PointSet(rng.random((30, 2)) + 10 * c) for c in range(3)])
    cl = semi_separated_k_colored(inst, ExtractionConfig(sigma=2.0, k=3, c_override=1.0))
    assert cl.alpha == math.ceil(1.0 * 30 / (3 * 2.0**2)) == 3
    log_phi = math.log2(spread(inst.points))
    cl = well_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=3, c_override=8.0))
    assert cl.alpha == math.floor(8.0 * 30 / (3 * 1.0**2 * log_phi)) == 7
    # a formula below one still probes alpha = 1
    cl = well_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=3, c_override=0.01))
    assert cl.alpha == 1
    # colored m is the smallest color size: 3 here gives a feasible alpha,
    # the first color's 5 would not
    inst = ColoredInstance.from_sets(
        [PointSet(np.linspace(0.0, 1.0, 5)), PointSet(100.0 + np.linspace(0.0, 1.0, 3))]
    )
    cl = semi_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=2, c_override=2.0))
    assert cl.alpha == math.ceil(2.0 * 3 / (2 * 1.0**1)) == 3
    with pytest.raises(InsufficientPoints):
        semi_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=2, alpha=5))


def test_c_override_with_sigma_power_beyond_a_double():
    # sigma^d = 1e400 overflows a double; the formula is then below one.
    ps = gen_random_uniform(40, 2, 8)
    inst = ColoredInstance(ps, np.arange(ps.n) % 2)
    cfg = ExtractionConfig(sigma=1e200, k=2, c_override=1.0)
    for fn, obj in [
        (semi_separated_k, ps),
        (strong_separated_k, ps),
        (semi_separated_k_colored, inst),
        (well_separated_k_colored, inst),
    ]:
        assert fn(obj, cfg).alpha == 1, fn.__name__


def test_c_override_float_edges_fail_like_a_huge_c():
    # sigma^d = 0 (1e-300 squared) and c * m beyond a double both cap the
    # formula at n + 1, which fails at iteration (or color) 0 like c = 1e300.
    ps = gen_random_uniform(40, 2, 8)
    inst = ColoredInstance(ps, np.arange(ps.n) % 2)
    cases = [
        (semi_separated_k, ps, InsufficientPoints),
        (strong_separated_k, ps, InsufficientPoints),
        (semi_separated_k_colored, inst, InsufficientPoints),
        (well_separated_k_colored, inst, ColorExhausted),
    ]
    for sigma, c in [(1e-300, 1.0), (1.0, 1e308), (1.0, 1e300)]:
        cfg = ExtractionConfig(sigma=sigma, k=2, c_override=c)
        for fn, obj, exc in cases:
            with pytest.raises(exc) as err:
                fn(obj, cfg)
            assert str(err.value) == str(exc(0)), fn.__name__


@pytest.mark.parametrize("fn", [semi_separated_k, strong_separated_k])
def test_c_override_quotient_exact_when_both_sides_overflow(monkeypatch, fn):
    # c * m = 4e309 and k * sigma = 2.4e308 both overflow a double, whose
    # quotient inf / inf was NaN; alpha is the exact quotient's ceiling
    # (semi) or floor (strong). At sigma = 8e307 no second ball is
    # separated from the first, so both then raise InsufficientPoints.
    ps = PointSet(np.arange(40.0))
    cfg = ExtractionConfig(sigma=8e307, k=3, c_override=1e308)
    seen = []
    resolve = algorithms._resolve_alpha

    def spy(cfg, run, cap, formula):
        seen.append(formula(cfg.c_override))
        return resolve(cfg, run, cap, formula)

    monkeypatch.setattr(algorithms, "_resolve_alpha", spy)
    with pytest.raises(InsufficientPoints):
        fn(ps, cfg)
    q = Fraction(1e308) * 40 / (3 * Fraction(8e307))
    if fn is semi_separated_k:
        assert seen == [math.ceil(q)] == [17]
    else:
        assert seen == [math.floor(q / Fraction(math.log2(spread(ps))))] == [3]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "fn", [semi_separated_k, strong_separated_k, semi_separated_k_colored, well_separated_k_colored]
)
def test_wrong_input_type_is_a_type_error(fn, k):
    ps = gen_random_uniform(12, 2, 5)
    inst = ColoredInstance(ps, np.arange(ps.n) % k)
    colored = fn in (semi_separated_k_colored, well_separated_k_colored)
    want = "a ColoredInstance" if colored else "a PointSet or \\(n, d\\) coordinates"
    for wrong in [ps, ps.coords] if colored else [inst]:
        with pytest.raises(TypeError, match=f"^expected {want}, got {type(wrong).__name__}$"):
            fn(wrong, ExtractionConfig(sigma=1.0, k=k))


# ------------------------------------------------------- semi colored


def test_semi_colored_two_tight_groups():
    inst = colored_groups()
    cl = semi_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=2))
    assert check_separation(cl)
    for c, cluster in enumerate(cl.clusters):
        assert (inst.colors[cluster] == c).all()


def test_semi_colored_k1():
    inst = ColoredInstance.from_sets([PointSet(np.arange(5.0))])
    cl = semi_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=1, alpha=2))
    assert cl.k == 1 and quality(cl) == 2


def test_semi_colored_three_color_line():
    inst = gen_three_color_line(20)
    cl = semi_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=3))
    assert check_separation(cl)
    assert quality(cl) >= 2  # semi separation achievable where strong is not
    for c, cluster in enumerate(cl.clusters):
        assert (inst.colors[cluster] == c).all()


def test_semi_colored_k_mismatch():
    inst = colored_groups()
    with pytest.raises(ValueError):
        semi_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=3))


# ------------------------------------------------------------- strong


def test_strong_three_groups():
    ps = three_groups_1d()
    cl = strong_separated_k(ps, ExtractionConfig(sigma=2.0, k=3))
    assert check_separation(cl)
    assert quality(cl) >= 2
    for c in cl.clusters:  # one cluster per group
        group = ps.coords[c, 0] // 1000
        assert (group == group[0]).all()


def test_strong_k1():
    ps = gen_random_uniform(40, 2, 2)
    cl = strong_separated_k(ps, ExtractionConfig(sigma=1.0, k=1))
    assert cl.k == 1
    assert check_separation(cl)


def test_strong_exponential_line_useless():
    cl = strong_separated_k(gen_exponential_line(10), ExtractionConfig(sigma=1.0, k=2))
    assert quality(cl) == 1
    q_opt, _ = best_separated_pair(
        gen_exponential_line(10), 1.0, SeparationKind.STRONG, max_n=10
    )
    assert q_opt == 1


def test_strong_chosen_radii_single_epoch_band():
    for seed in (4, 5):
        ps = gen_random_uniform(300, 2, seed)
        cl = strong_separated_k(ps, ExtractionConfig(sigma=1.0, k=3))
        radii = np.array([b.radius for b in cl.balls])
        if radii.max() > 0:
            assert radii.min() > 0
            assert radii.max() / radii.min() <= 64.0


def test_strong_cluster_sizes_at_least_alpha():
    ps = gen_random_uniform(200, 2, 6)
    cl = strong_separated_k(ps, ExtractionConfig(sigma=1.0, k=2))
    assert all(c.size >= cl.alpha for c in cl.clusters)


@pytest.mark.parametrize("sigma", [1e-300, 1.0, 8.98e307])
@pytest.mark.parametrize(
    "ps",
    [gen_random_uniform(40, 2, 5), gen_exponential_line(12), gen_grid(4, 2)],
    ids=["random", "expline", "grid"],
)
def test_strong_alpha_one_always_feasible(ps, sigma):
    # Every alpha = 1 ball has radius 0, so the selector's threshold 2 sigma 0
    # keeps every pair and auto mode can never fail at its first probe.
    cl = strong_separated_k(ps, ExtractionConfig(sigma=sigma, k=3, alpha=1))
    assert cl.sizes == [1, 1, 1]
    assert strong_separated_k(ps, ExtractionConfig(sigma=sigma, k=3)).alpha >= 1


def test_strong_alpha_above_n_infeasible():
    with pytest.raises(InsufficientPoints) as err:
        strong_separated_k(three_groups_1d(), ExtractionConfig(sigma=1.0, k=2, alpha=31))
    assert err.value.iteration == 0


def test_strong_duplicates_rejected():
    with pytest.raises(ValueError, match="spread"):
        strong_separated_k(
            PointSet([1.0, 1.0, 2.0]), ExtractionConfig(sigma=1.0, k=2)
        )


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_strong_duplicate_check_counts_zeros_per_row_block(monkeypatch, rows):
    # Points 0 and 4 repeat, and sit in different row blocks at every budget;
    # the check sorts rows and reads no block at all.
    monkeypatch.setattr(geometry, "_BLOCK", rows * 5)
    cfg = ExtractionConfig(sigma=1.0, k=2, alpha=1)
    with pytest.raises(ValueError, match="point set contains duplicates"):
        strong_separated_k(PointSet([1.0, 2.0, 4.0, 8.0, 1.0]), cfg)
    assert strong_separated_k(PointSet([1.0, 2.0, 4.0, 8.0, 16.0]), cfg).alpha == 1


@pytest.mark.parametrize(
    "algo, dup, distinct",
    [
        (strong_separated_k, PointSet([1.0, 2.0, 1.0]), PointSet([1.0, 2.0, 4.0])),
        (
            well_separated_k_colored,
            ColoredInstance.from_sets([PointSet([0.0, 1.0]), PointSet([1.0, 5.0])]),
            ColoredInstance.from_sets([PointSet([0.0, 1.0]), PointSet([3.0, 5.0])]),
        ),
    ],
)
def test_duplicate_input_fails_before_any_matrix(monkeypatch, algo, dup, distinct):
    calls = []
    monkeypatch.setattr(
        algorithms, "pairwise_distances",
        lambda c: calls.append(len(c)) or geometry.pairwise_distances(c),
    )
    cfg = ExtractionConfig(sigma=1.0, k=2, alpha=1)
    with pytest.raises(ValueError, match="spread undefined: .* duplicate"):
        algo(dup, cfg)
    assert calls == []
    algo(distinct, cfg)
    assert calls


# Each value is 0, a magnitude of at least 2^-484 (where the check sorts) or
# one below it whose square may round to 0 (where it calls closest_pair):
# 2^-537 squares to 0, 1.49e-162 squares to a subnormal and 1.5e-162 just
# above, 3 and 3.0000000000000004 are one ulp apart.
_EDGE_VALUES = [
    0.0, 5e-324, 2.0**-537, 1.49e-162, 1.5e-162, 1e-170, 2.0**-485, 2.0**-484,
    1.0, 3.0, 3.0000000000000004, 1e300,
]


@st.composite
def _edge_coords(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    value = st.builds(
        lambda v, neg: -v if neg else v, st.sampled_from(_EDGE_VALUES), st.booleans()
    )
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=2, max_size=8))
    return np.array(rows)


@settings(max_examples=400)
@given(coords=_edge_coords())
def test_duplicate_check_is_exactly_closest_pair_zero(coords):
    assert algorithms._has_duplicates(coords) == (geometry.closest_pair(coords) == 0.0)


def test_duplicate_check_on_random_sets():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        coords = rng.random((500, d))
        assert not algorithms._has_duplicates(coords)
        coords[400] = coords[17]
        assert algorithms._has_duplicates(coords)
        coords[400, d - 1] = np.nextafter(coords[17, d - 1], 2.0)
        assert not algorithms._has_duplicates(coords)
        coords[400, d - 1] = coords[17, d - 1]
        coords[[17, 400]] *= 0.0  # -0.0 and 0.0 are equal coordinates
        coords[400] = -coords[400]
        assert algorithms._has_duplicates(coords)


# ------------------------------------------------------- well colored


def test_well_colored_two_groups_per_color():
    rng = np.random.default_rng(12)
    a = np.concatenate([rng.random(6), 400.0 + rng.random(6)])
    b = np.concatenate([200.0 + rng.random(6), 600.0 + rng.random(6)])
    inst = ColoredInstance.from_sets([PointSet(a), PointSet(b)])
    cl = well_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=2))
    assert check_separation(cl)
    for c, cluster in enumerate(cl.clusters):
        assert (inst.colors[cluster] == c).all()


def test_well_colored_k1_smallest_ball():
    inst = ColoredInstance.from_sets([PointSet([0.0, 1.0, 10.0, 11.0])])
    cl = well_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=1, alpha=2))
    assert cl.k == 1
    assert cl.balls[0].radius <= 1.0


def test_well_colored_three_color_line_contrast_with_strong():
    inst = gen_three_color_line(20)
    cl = well_separated_k_colored(inst, ExtractionConfig(sigma=3.0, k=3))
    assert check_separation(cl)
    assert quality(cl) >= 1
    strong_view = Clustering(
        points=cl.points,
        clusters=cl.clusters,
        sigma=3.0,
        kind=SeparationKind.STRONG,
        colors=cl.colors,
    )
    assert (not check_separation(strong_view)) or quality(cl) == 1


def test_well_colored_requires_equal_sizes():
    inst = ColoredInstance.from_sets([PointSet([0.0, 1.0]), PointSet([5.0])])
    with pytest.raises(ValueError, match="equal"):
        well_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=2))


def test_well_colored_duplicates_rejected():
    inst = ColoredInstance.from_sets([PointSet([0.0, 1.0]), PointSet([1.0, 5.0])])
    with pytest.raises(ValueError, match="duplicate"):
        well_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=2))


def test_well_colored_quality_at_least_alpha():
    rng = np.random.default_rng(14)
    sets = [PointSet(rng.random((50, 2)) + 10 * c) for c in range(3)]
    inst = ColoredInstance.from_sets(sets)
    cl = well_separated_k_colored(inst, ExtractionConfig(sigma=1.0, k=3))
    assert quality(cl) >= cl.alpha


# ------------------------------------------------------------ shared


def test_all_outputs_reverify():
    ps = gen_random_uniform(90, 2, 7)
    inst = ColoredInstance(ps, np.arange(90) % 3)
    cfg = ExtractionConfig(sigma=1.0, k=3)
    for cl in (
        semi_separated_k(ps, cfg),
        strong_separated_k(ps, cfg),
        semi_separated_k_colored(inst, cfg),
        well_separated_k_colored(inst, cfg),
    ):
        assert check_separation(cl)
        assert quality(cl) == min(c.size for c in cl.clusters)


def test_determinism_same_input_same_output():
    ps = gen_random_uniform(80, 2, 77)
    cfg = ExtractionConfig(sigma=2.0, k=2)
    a = strong_separated_k(ps, cfg)
    b = strong_separated_k(ps, cfg)
    assert a.alpha == b.alpha
    assert all(np.array_equal(x, y) for x, y in zip(a.clusters, b.clusters))


def test_config_validation():
    for sigma in (0.0, -1.0, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError, match="sigma"):
            ExtractionConfig(sigma=sigma, k=1)
    assert ExtractionConfig(sigma=8.98e307, k=1).sigma == 8.98e307
    with pytest.raises(ValueError):
        ExtractionConfig(sigma=1.0, k=0)
    with pytest.raises(ValueError):
        ExtractionConfig(sigma=1.0, k=1, alpha=0)
    with pytest.raises(ValueError):
        ExtractionConfig(sigma=1.0, k=1, alpha=2, c_override=1.0)
    for c in (float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="c_override"):
            ExtractionConfig(sigma=1.0, k=1, c_override=c)
    with pytest.raises(ValueError, match="k must be an integer"):
        ExtractionConfig(sigma=1.0, k=2.5)
    with pytest.raises(ValueError, match="alpha must be an integer"):
        ExtractionConfig(sigma=1.0, k=1, alpha=2.5)
    # bool is a numbers.Integral, but True is no count of clusters or points
    with pytest.raises(ValueError, match="k must be an integer"):
        ExtractionConfig(sigma=1.0, k=True)
    with pytest.raises(ValueError, match="alpha must be an integer"):
        ExtractionConfig(sigma=1.0, k=1, alpha=True)
    # numpy integers are integers
    cfg = ExtractionConfig(sigma=1.0, k=np.int64(2), alpha=np.int32(3))
    assert semi_separated_k(three_groups_1d(), cfg).alpha == 3


def test_colored_instance_validation():
    with pytest.raises(ValueError):
        ColoredInstance(PointSet([0.0, 1.0]), np.array([0, 2]))  # gap in colors
    inst = ColoredInstance(PointSet([0.0, 1.0, 2.0]), np.array([1, 0, 1]))
    assert inst.k == 2 and inst.sizes == [1, 2]
    assert inst.color_indices(1).tolist() == [0, 2]


@pytest.mark.parametrize("colors", [[0.7, 1.2, 1.9], [False, True, True]])
def test_colored_instance_rejects_non_integer_colors(colors):
    # [0.7, 1.2, 1.9] was truncated to the colors [0, 1, 1].
    with pytest.raises(ValueError, match="colors must be integers"):
        ColoredInstance(PointSet([0.0, 1.0, 2.0]), colors)


def _naive_semi(coords, k, sigma, alpha):
    # literal restatement: per iteration, re-partition the survivor
    # submatrix, keep the alpha nearest (lexsort by distance then index)
    # and discard the (2 sigma + 2)-scaled ball
    from sepclust.geometry import REL_TOL, pairwise_distances

    n = len(coords)
    dist = pairwise_distances(coords)
    scale = 2.0 * sigma + 2.0
    alive = np.ones(n, dtype=bool)
    clusters, balls = [], []
    for it in range(k):
        idx = np.flatnonzero(alive)
        if idx.size < alpha:
            raise InsufficientPoints(it)
        sub = dist[np.ix_(idx, idx)]
        cand = np.partition(sub, alpha - 1, axis=1)[:, alpha - 1]
        j = int(np.argmin(cand))
        center, r = int(idx[j]), float(cand[j])
        drow = dist[center, idx]
        take = np.lexsort((idx, drow))[:alpha]
        clusters.append(np.sort(idx[take]))
        balls.append((coords[center].copy(), r))
        alive[idx[drow <= scale * r * (1.0 + REL_TOL)]] = False
    return clusters, balls


def _naive_semi_colored(inst, k, sigma, alpha):
    # colored counterpart of _naive_semi, one survivor mask per color
    from sepclust.geometry import REL_TOL, pairwise_distances

    scale = 2.0 * sigma + 2.0
    g_idx = [inst.color_indices(c) for c in range(k)]
    coords_c = [inst.points.coords[g] for g in g_idx]
    dist_c = [pairwise_distances(cc) for cc in coords_c]
    alive = [np.ones(cc.shape[0], dtype=bool) for cc in coords_c]
    active = list(range(k))
    out_clusters = [None] * k
    out_balls = [None] * k
    for it in range(k):
        best = None
        for c in active:
            idx = np.flatnonzero(alive[c])
            if idx.size < alpha:
                raise InsufficientPoints(it)
            sub = dist_c[c][np.ix_(idx, idx)]
            cand = np.partition(sub, alpha - 1, axis=1)[:, alpha - 1]
            j = int(np.argmin(cand))
            key = (float(cand[j]), c)
            if best is None or key < best[:2]:
                best = (key[0], c, int(idx[j]))
        r, c0, ctr = best
        idx0 = np.flatnonzero(alive[c0])
        drow = dist_c[c0][ctr, idx0]
        take = np.lexsort((idx0, drow))[:alpha]
        out_clusters[c0] = np.sort(g_idx[c0][idx0[take]])
        out_balls[c0] = (coords_c[c0][ctr].copy(), r)
        active.remove(c0)
        cut = scale * r * (1.0 + REL_TOL)
        center_pt = coords_c[c0][ctr]
        for c2 in active:
            idx2 = np.flatnonzero(alive[c2])
            diff = coords_c[c2][idx2] - center_pt
            d2 = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            alive[c2][idx2[d2 <= cut]] = False
    return out_clusters, out_balls


def _assert_same_as_naive(run, naive, alpha):
    try:
        want = naive(alpha)
    except InsufficientPoints as exc:
        with pytest.raises(InsufficientPoints) as got:
            run(alpha)
        assert got.value.iteration == exc.iteration
        return
    got = run(alpha)
    assert got.alpha == alpha
    assert len(got.clusters) == len(want[0])
    for cl, ref in zip(got.clusters, want[0]):
        assert np.array_equal(cl, ref)
    for ball, (center, radius) in zip(got.balls, want[1]):
        assert np.array_equal(ball.center, center)
        assert ball.radius == radius


def _semi_differential_inputs():
    rng = np.random.default_rng(77)
    dup = rng.random((36, 2)) * 4
    dup[:12] = dup[0]  # duplicate block
    return [
        rng.random((40, 1)) * 10,
        rng.random((42, 2)),
        rng.random((30, 3)) * 3,
        dup,
        gen_grid(6, 2).coords,
    ]


@pytest.mark.parametrize("k,sigma", [(2, 1.0), (3, 2.0)])
def test_semi_engine_matches_naive_reference(k, sigma):
    for coords in _semi_differential_inputs():
        ps = PointSet(coords)
        for alpha in range(1, ps.n // k + 1):
            _assert_same_as_naive(
                lambda a: semi_separated_k(
                    ps, ExtractionConfig(sigma=sigma, k=k, alpha=a)
                ),
                lambda a: _naive_semi(ps.coords, k, sigma, a),
                alpha,
            )


@pytest.mark.parametrize("k,sigma", [(2, 1.0), (3, 2.0)])
def test_semi_colored_engine_matches_naive_reference(k, sigma):
    for coords in _semi_differential_inputs():
        ps = PointSet(coords)
        inst = ColoredInstance(ps, np.arange(ps.n) % k)
        for alpha in range(1, min(inst.sizes) + 1):
            _assert_same_as_naive(
                lambda a: semi_separated_k_colored(
                    inst, ExtractionConfig(sigma=sigma, k=k, alpha=a)
                ),
                lambda a: _naive_semi_colored(inst, k, sigma, a),
                alpha,
            )


def test_semi_one_color_matches_plain_semi_at_k1():
    # One pick rule serves both: at k = 1 a lone color gives plain semi's
    # clusters, balls and alpha, explicit or auto.
    for coords in _semi_differential_inputs():
        ps = PointSet(coords)
        inst = ColoredInstance(ps, np.zeros(ps.n, dtype=int))
        for alpha in [*range(1, ps.n + 1), None]:
            cfg = ExtractionConfig(sigma=1.0, k=1, alpha=alpha)
            plain, colored = semi_separated_k(ps, cfg), semi_separated_k_colored(inst, cfg)
            assert colored.alpha == plain.alpha
            assert len(colored.clusters) == len(plain.clusters) == 1
            assert np.array_equal(colored.clusters[0], plain.clusters[0])
            assert np.array_equal(colored.balls[0].center, plain.balls[0].center)
            assert colored.balls[0].radius == plain.balls[0].radius


@pytest.mark.parametrize(
    "fn", [semi_separated_k, semi_separated_k_colored, well_separated_k_colored]
)
def test_infinite_pick_radius_ends_the_alpha_search(monkeypatch, fn):
    # Distinct points 1e300 apart are at distance inf, so every ball of two
    # points has an infinite radius. The probe that picks one raises, so auto
    # mode stops at alpha = 2 instead of climbing to the cap.
    probes = []
    resolve = algorithms._resolve_alpha

    def spy(cfg, run, cap, formula):
        return resolve(cfg, lambda a: probes.append(a) or run(a), cap, formula)

    monkeypatch.setattr(algorithms, "_resolve_alpha", spy)
    ps = PointSet([[1e300, 0.0], [-1e300, 0.0], [0.0, 1e300], [0.0, -1e300]])
    obj = ps if fn is semi_separated_k else ColoredInstance(ps, np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="^ball radius must be finite and nonnegative$"):
        fn(obj, ExtractionConfig(sigma=2.0, k=1))
    assert probes == [1, 2]


@pytest.mark.parametrize("fn", [semi_separated_k, semi_separated_k_colored])
def test_auto_mode_raises_the_failed_alpha_one_probe_error(monkeypatch, fn):
    # At alpha = 1 the first pick's exclusion ball of radius 0 removes every
    # copy of its point, so the second iteration finds no survivor. Auto
    # mode probes nothing else and raises that probe's error, though it has
    # built its tables already (semi-colored; plain semi's cap is 1).
    probes = []
    resolve = algorithms._resolve_alpha

    def spy(cfg, run, cap, formula):
        return resolve(cfg, lambda a: probes.append(a) or run(a), cap, formula)

    monkeypatch.setattr(algorithms, "_resolve_alpha", spy)
    if fn is semi_separated_k:
        obj = PointSet(np.zeros((3, 2)))
    else:
        obj = ColoredInstance(PointSet(np.zeros((4, 2))), np.array([0, 0, 1, 1]))
    with pytest.raises(InsufficientPoints) as err:
        fn(obj, ExtractionConfig(sigma=1.0, k=2))
    assert err.value.iteration == 1
    assert probes == [1]


def test_matrices_and_balls_are_built_in_one_place():
    # The one extraction call builds every distance matrix, order-statistic
    # table and ball, so no pick rule builds one once per probe.
    where, calls = None, set()
    names = ("pairwise_distances(", "_sorted_prefix(", "Ball(")
    for line in Path(algorithms.__file__).read_text().splitlines():
        if line.startswith(("def ", "class ")):
            where = line.split()[1].split("(")[0].rstrip(":")
        calls |= {(name, where) for name in names if name in line}
    assert calls == {
        ("pairwise_distances(", "_verified"), ("_sorted_prefix(", "_verified"), ("Ball(", "_verified"),
    }


_ALGOS = (
    (semi_separated_k, False),
    (semi_separated_k_colored, True),
    (strong_separated_k, False),
    (well_separated_k_colored, True),
)


def test_auto_mode_equals_the_explicit_run_at_its_alpha():
    # Auto mode seeds its probes from one order-statistic table, an explicit
    # alpha by partitioning the rows: the clusterings must not differ.
    for d, k, sigma, seed in itertools.product((1, 2), (2, 3), (1.0, 2.0, 4.0), range(3)):
        ps = gen_random_uniform(60, d, seed)
        for fn, colored in _ALGOS:
            obj = ColoredInstance(ps, np.arange(ps.n) % k) if colored else ps
            auto = fn(obj, ExtractionConfig(sigma=sigma, k=k))
            one = fn(obj, ExtractionConfig(sigma=sigma, k=k, alpha=auto.alpha))
            assert auto.alpha == one.alpha
            assert len(auto.clusters) == len(one.clusters) == k
            for a, b in zip(auto.clusters, one.clusters):
                assert np.array_equal(a, b)
            for a, b in zip(auto.balls, one.balls):
                assert np.array_equal(a.center, b.center) and a.radius == b.radius


def test_auto_mode_leaves_no_reference_cycle():
    # The search keeps no infeasible probe's error, whose traceback would
    # hold the call's matrices and tables in a cycle until a collection.
    ps = gen_random_uniform(60, 2, 3)
    gc.collect()
    gc.disable()
    try:
        for fn, colored in _ALGOS:
            obj = ColoredInstance(ps, np.arange(ps.n) % 3) if colored else ps
            fn(obj, ExtractionConfig(sigma=1.0, k=3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_only_auto_mode_builds_tables_and_one_per_group(monkeypatch):
    built, prefix = [], algorithms._sorted_prefix

    def counted(dist, cap):
        built.append((id(dist), cap))
        return prefix(dist, cap)

    monkeypatch.setattr(algorithms, "_sorted_prefix", counted)
    ps = gen_random_uniform(60, 2, 3)
    for fn, colored in _ALGOS:
        obj = ColoredInstance(ps, np.arange(ps.n) % 3) if colored else ps
        for one_probe in (dict(alpha=4), dict(c_override=1.0)):
            built.clear()
            try:
                fn(obj, ExtractionConfig(sigma=1.0, k=3, **one_probe))
            except algorithms._INFEASIBLE:
                pass
            assert built == [], (fn.__name__, one_probe)
        built.clear()
        assert fn(obj, ExtractionConfig(sigma=1.0, k=3)).alpha >= 2
        assert 1 <= len(built) == len(set(built)) <= (3 if colored else 1), fn.__name__
        assert {cap for _, cap in built} == {20}  # the cap: m on colored input, n // k


def _largest_feasible_alpha(fn, ps, cfg):
    for alpha in range(ps.n // cfg.k, 0, -1):
        try:
            fn(ps, ExtractionConfig(sigma=cfg.sigma, k=cfg.k, alpha=alpha))
            return alpha
        except algorithms._INFEASIBLE:
            pass
    return 0


def test_auto_alpha_gap_on_the_desk_grid():
    # Feasibility is not downward closed, so auto mode may stop below the
    # largest feasible alpha. On this fixed grid of 720 configs it falls short
    # of an exhaustive scan down from n // k in 93 strong and 11 semi
    # configs; a change that widens either gap fails here.
    short = {"strong": 0, "semi": 0}
    grid = itertools.product((1, 2), (2, 3), (1.0, 2.0, 4.0), range(60))
    for dim, k, sigma, seed in grid:
        ps = gen_random_uniform(60, dim, seed)
        cfg = ExtractionConfig(sigma=sigma, k=k)
        for name, fn in (("strong", strong_separated_k), ("semi", semi_separated_k)):
            auto, best = fn(ps, cfg).alpha, _largest_feasible_alpha(fn, ps, cfg)
            assert 1 <= auto <= best, (name, dim, k, sigma, seed)
            short[name] += auto < best
    assert short["strong"] <= 93 and short["semi"] <= 11, short
