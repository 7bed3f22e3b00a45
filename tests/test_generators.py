import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import sepclust.generators as gens
from sepclust.generators import (
    EmbeddingFailed,
    gen_exponential_line,
    gen_exponential_ring_grid,
    gen_grid,
    gen_k_copies,
    gen_near_uniform_highdim,
    gen_random_uniform,
    gen_three_color_line,
)
from sepclust.geometry import PointSet, closest_pair, diameter, spread
from sepclust.oracle import best_separated_pair
from sepclust.separation import SeparationKind


# ------------------------------------------------------------- grid


def test_grid_1d():
    assert gen_grid(2, 1).coords.ravel().tolist() == [1.0, 2.0]


def test_grid_3x3():
    g = gen_grid(3, 2)
    assert g.n == 9
    assert spread(g) == pytest.approx(2 * math.sqrt(2))
    assert g.coords[0].tolist() == [1.0, 1.0]
    assert g.coords[1].tolist() == [1.0, 2.0]  # lexicographic order


def test_grid_diameter():
    assert diameter(gen_grid(4, 2)) == pytest.approx(3 * math.sqrt(2))


def test_grid_invariants():
    g = gen_grid(5, 2)
    assert g.n == 25
    assert closest_pair(g) == 1.0
    assert diameter(g) == pytest.approx(4 * math.sqrt(2))


def test_grid_overflow_guard():
    with pytest.raises(ValueError):
        gen_grid(5000, 3)


# -------------------------------------------------- exponential line


def test_exponential_line_values():
    assert gen_exponential_line(3).coords.ravel().tolist() == [3.0, 7.0, 15.0]
    assert gen_exponential_line(1).coords.ravel().tolist() == [3.0]


def test_exponential_line_spread():
    assert spread(gen_exponential_line(5)) == 15.0


def test_exponential_line_gaps_double():
    pts = gen_exponential_line(12).coords.ravel()
    gaps = np.diff(pts)
    assert np.array_equal(gaps[1:], 2 * gaps[:-1])


def test_exponential_line_limit():
    with pytest.raises(ValueError):
        gen_exponential_line(51)


# -------------------------------------------------- three-color line


def _color_coords(inst, color):
    return inst.points.coords[inst.color_indices(color)].ravel()


def test_three_color_line_n3():
    inst = gen_three_color_line(3)
    assert _color_coords(inst, 0).tolist() == [1.0, 2.0, 3.0]
    assert _color_coords(inst, 1).tolist() == [4.0, 5.0, 6.0]
    assert _color_coords(inst, 2).tolist() == [7.0, 10.0, 13.0]


def test_three_color_line_n2():
    assert _color_coords(gen_three_color_line(2), 2).tolist() == [5.0, 7.0]


def test_three_color_line_structural_facts():
    n = 20
    inst = gen_three_color_line(n)
    third = np.sort(_color_coords(inst, 2))
    assert np.diff(third).min() == n
    union12 = np.concatenate(
        [_color_coords(inst, 0), _color_coords(inst, 1)]
    )
    assert union12.max() - union12.min() == 2 * n - 1


@pytest.mark.parametrize("n", [2, 5, 17, 40])
def test_three_color_line_spread_bound(n):
    inst = gen_three_color_line(n)
    assert spread(inst.points) <= 2 * n * n


# -------------------------------------------- exponential ring grid


def test_ring_grid_level_scaling():
    ps = gen_exponential_ring_grid(4, 16.0, 1)
    assert ps.n == 16  # 4 levels of 4 points
    level1, level2 = ps.coords[:4], ps.coords[4:8]
    assert np.array_equal(level2, level1 / 3.0)


def test_ring_grid_ring_membership():
    n, phi, d = 32, 64.0, 2
    ps = gen_exponential_ring_grid(n, phi, d)
    h = math.ceil(math.log2(phi))
    assert ps.n == n * h
    for i in range(h):
        level = ps.coords[i * n : (i + 1) * n]
        norms = np.abs(level).max(axis=1)
        assert (norms >= 2 / 3**i * (1 - 1e-12)).all()
        assert (norms <= 3 / 3**i * (1 + 1e-12)).all()


def test_ring_grid_spread_polynomial_in_target():
    for n, phi, d in [(32, 64.0, 2), (100, 100.0, 2), (20, 40.0, 3)]:
        ps = gen_exponential_ring_grid(n, phi, d)
        assert spread(ps) <= phi**3


def test_ring_grid_subsample_oracle_small_quality():
    # brute-force best well 12d-separated pair on an 18-point subsample
    ps = gen_exponential_ring_grid(100, 100.0, 2)
    rng = np.random.default_rng(7)
    sub = PointSet(ps.coords[np.sort(rng.choice(ps.n, size=18, replace=False))])
    q, _ = best_separated_pair(
        sub, 24.0, SeparationKind.WELL, max_n=18
    )
    assert q <= 2


def test_ring_grid_validation():
    with pytest.raises(ValueError):
        gen_exponential_ring_grid(10, 5.0, 2)  # target below n


def test_ring_grid_rejects_targets_whose_levels_underflow():
    # At 1e96 every squared gap is still a normal double. At 1e100 the
    # deepest ones would be subnormal, and from about 1e102 on they underflow
    # to zero, which made strong reject the output as holding duplicates.
    ps = gen_exponential_ring_grid(4, 1e96, 2)
    assert closest_pair(ps) ** 2 >= sys.float_info.min
    for target in (1e100, 1e160, 1e308):
        with pytest.raises(ValueError, match="squared gaps underflow"):
            gen_exponential_ring_grid(4, target, 2)


def test_ring_grid_denser_ring_rejection():
    # At d = 3 one point needs cell 3: the 27-point cube exceeds 6n.
    with pytest.raises(ValueError, match=r"27 > 6n = 6 points"):
        gen_exponential_ring_grid(1, 4, 3)
    with pytest.raises(ValueError, match=r"27 > 6n = 12 points"):
        gen_exponential_ring_grid(2, 4, 3)
    assert gen_exponential_ring_grid(4, 4, 2).n == 8


def _walk_ring_cells(dim, limit):
    """The cell search by definition: the largest `limit` values among 3/t
    and 2/t, each once and in descending order, with the ring's lattice
    count at each by exact rationals."""
    cells = {Fraction(num, t) for num in (2, 3) for t in range(1, limit + 1)}
    for cell in sorted(cells, reverse=True)[:limit]:
        half = math.floor(3 / cell)  # |m| * cell <= 3
        hole = math.ceil(2 / cell) - 1  # |m| * cell < 2
        yield cell, half, hole, (2 * half + 1) ** dim - (2 * hole + 1) ** dim


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ring_cell_matches_the_candidate_walk(monkeypatch, dim):
    # The first cell holding n points moves only where n passes a count, so
    # n runs over every count c and c + 1 in ascending order; past the
    # limit's reach both sides raise.
    for limit in [*range(1, 201), 997]:
        monkeypatch.setattr(gens, "_CELL_CANDIDATES", limit)
        walk = list(_walk_ring_cells(dim, limit))
        counts = {count for *_, count in walk}
        k = 0
        for n in sorted({1} | counts | {c + 1 for c in counts}):
            while k < len(walk) and walk[k][3] < n:
                k += 1
            if k == len(walk):
                expected = f"no cell size among the largest {limit} holds n={n}"
            else:
                cell, half, hole, _ = walk[k]
                assert cell == Fraction(3, half)  # a hit is always a 3/i
                expected = (half, hole)
            assert _outcome(gens._find_ring_cell, n, dim) == expected, (limit, n)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_ring_count_matches_lattice_enumeration(dim):
    for i in range(1, 13 if dim < 4 else 6):
        # m lies outside the open hole exactly when |m| * (3/i) >= 2
        ring = sum(
            3 * max(map(abs, m)) >= 2 * i
            for m in itertools.product(range(-i, i + 1), repeat=dim)
        )
        assert gens._ring_count(i, dim) == ring


def test_ring_cell_limit_boundary():
    # The last cell the 2,000,000-candidate limit admits, found by the walk.
    assert gens._find_ring_cell(1_000_002, 1) == (1_500_000, 999_999)
    assert gens._find_ring_cell(5_000_010_000_000, 2) == (1_500_000, 999_999)
    for n, dim in ((1_000_003, 1), (5_000_010_000_001, 2)):
        with pytest.raises(ValueError, match=f"among the largest 2000000 holds n={n}$"):
            gens._find_ring_cell(n, dim)


# ------------------------------------------------------------ copies


def test_k_copies_identity_for_small_k():
    ps = PointSet([[0.0, 1.0], [2.0, 3.0]])
    for k in (2, 3):
        out = gen_k_copies(ps, k)
        assert np.array_equal(out.coords, ps.coords)


def test_k_copies_unit_pair():
    out = gen_k_copies(PointSet([0.0, 1.0]), 4)
    assert out.coords.ravel().tolist() == [0.0, 1.0, 2.0, 3.0]


def test_k_copies_three_copies():
    out = gen_k_copies(PointSet([0.0, 1.0]), 6)
    assert out.n == 6
    assert out.coords.ravel().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_k_copies_gap_is_diameter():
    rng = np.random.default_rng(3)
    ps = PointSet(rng.random((10, 2)) * 2)
    out = gen_k_copies(ps, 5)
    delta = diameter(ps)
    width = ps.coords[:, 0].max() - ps.coords[:, 0].min()
    first = out.coords[:10, 0]
    second = out.coords[10:, 0]
    assert second.min() - first.max() == pytest.approx(delta, rel=1e-12)
    assert np.array_equal(second, first + (width + delta))


# ---------------------------------------------- near-uniform highdim


def test_ring_cell_search_limit_is_a_value_error():
    # At d = 1 the ring holds about 2 / cell points, so three million of them
    # need a cell size past the search's candidate limit.
    with pytest.raises(ValueError, match="among the largest 2000000 holds n=3000000"):
        gen_exponential_ring_grid(3_000_000, 4e6, 1)


def test_near_uniform_distance_band():
    ps = gen_near_uniform_highdim(12, 0.3, seed=1)
    from sepclust.geometry import pairwise_distances

    d = pairwise_distances(ps.coords)
    off = d[~np.eye(ps.n, dtype=bool)]
    assert off.min() >= 0.7 and off.max() <= 1.3


def test_near_uniform_dimension_formula():
    ps = gen_near_uniform_highdim(16, 0.5, seed=0)
    assert ps.dim == 8 * math.ceil(math.log(16) / 0.5**2)  # = 96


def test_near_uniform_deterministic():
    a = gen_near_uniform_highdim(10, 0.4, seed=9)
    b = gen_near_uniform_highdim(10, 0.4, seed=9)
    assert np.array_equal(a.coords, b.coords)
    c = gen_near_uniform_highdim(10, 0.4, seed=10)
    assert not np.array_equal(a.coords, c.coords)


def test_near_uniform_oracle_useless():
    ps = gen_near_uniform_highdim(10, 0.4, seed=2)
    q, _ = best_separated_pair(ps, 2.0, SeparationKind.WELL)
    assert q == 1


def _near_uniform_tensor_reference(n, eps, seed):
    """The generator as it was: the band checked on the (n(n-1)/2, dim) array
    of pair differences."""
    dim = 8 * math.ceil(math.log(n) / eps**2)
    iu = np.triu_indices(n, 1)
    for attempt in range(gens._EMBED_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        pts = rng.standard_normal((n, dim)) / math.sqrt(2.0 * dim)
        diff = pts[iu[0]] - pts[iu[1]]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if d.min() >= 1.0 - eps and d.max() <= 1.0 + eps:
            return pts
    raise AssertionError("reference found no embedding")


@pytest.mark.parametrize("n", [2, 12, 40, 100])
@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
def test_near_uniform_matches_difference_array_check(n, eps):
    for seed in range(3):
        got = gen_near_uniform_highdim(n, eps, seed).coords
        assert np.array_equal(got, _near_uniform_tensor_reference(n, eps, seed))


def test_near_uniform_validation():
    with pytest.raises(ValueError):
        gen_near_uniform_highdim(1, 0.4, seed=0)
    with pytest.raises(ValueError):
        gen_near_uniform_highdim(8, 1.5, seed=0)


def test_embedding_failure_is_typed(monkeypatch):
    import sepclust.generators as gens

    monkeypatch.setattr(gens, "_EMBED_ATTEMPTS", 0)
    with pytest.raises(EmbeddingFailed):
        gen_near_uniform_highdim(8, 0.4, seed=0)


# ----------------------------------------------------------- random


def test_random_uniform_seeded():
    a = gen_random_uniform(20, 3, 5)
    b = gen_random_uniform(20, 3, 5)
    assert np.array_equal(a.coords, b.coords)
    assert a.coords.min() >= 0.0 and a.coords.max() < 1.0
