import math

import numpy as np
import pytest

from sepclust.algorithms import (
    ColoredInstance,
    ExtractionConfig,
    InsufficientPoints,
    k_semi,
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
from sepclust.geometry import PointSet, diameter, set_distance
from sepclust.oracle import OracleBudget, best_separated_pair
from sepclust.separation import (
    Clustering,
    SeparationKind,
    check_separation,
    is_useless,
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
    sub = ps.subset(np.sort(rng.choice(ps.n, size=8, replace=False)))
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
        d_i = diameter(ps.subset(cl.clusters[i]))
        assert 2 * sigma * r_i >= sigma * d_i * (1 - 1e-9)
        for j in range(i + 1, cl.k):
            dij = set_distance(ps.subset(cl.clusters[i]), ps.subset(cl.clusters[j]))
            assert dij >= 2 * sigma * r_i * (1 - 1e-9)


def test_auto_alpha_downward_closed_spot_checks():
    ps = gen_random_uniform(200, 2, 99)
    cfg = ExtractionConfig(sigma=2.0, k=3)
    best = semi_separated_k(ps, cfg).alpha
    for alpha in {best - 1, best // 2, 1} - {0}:
        cl = semi_separated_k(ps, ExtractionConfig(sigma=2.0, k=3, alpha=alpha))
        assert quality(cl) == alpha


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
    assert quality(cl) == 1 and is_useless(cl)
    q_opt, _ = best_separated_pair(
        gen_exponential_line(10), 1.0, SeparationKind.STRONG, OracleBudget(max_n_assignment=10)
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


def test_strong_duplicates_rejected():
    with pytest.raises(ValueError, match="spread"):
        strong_separated_k(
            PointSet([1.0, 1.0, 2.0]), ExtractionConfig(sigma=1.0, k=2)
        )


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
    with pytest.raises(ValueError):
        ExtractionConfig(sigma=0.0, k=1)
    with pytest.raises(ValueError):
        ExtractionConfig(sigma=1.0, k=0)
    with pytest.raises(ValueError):
        ExtractionConfig(sigma=1.0, k=1, alpha=0)
    with pytest.raises(ValueError):
        ExtractionConfig(sigma=1.0, k=1, alpha=2, c_override=1.0)


def test_colored_instance_validation():
    with pytest.raises(ValueError):
        ColoredInstance(PointSet([0.0, 1.0]), np.array([0, 2]))  # gap in colors
    inst = ColoredInstance(PointSet([0.0, 1.0, 2.0]), np.array([1, 0, 1]))
    assert inst.k == 2 and inst.sizes == [1, 2]
    assert inst.color_indices(1).tolist() == [0, 2]


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
