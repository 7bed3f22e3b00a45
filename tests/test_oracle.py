import itertools
import math

import numpy as np
import pytest

from sepclust.algorithms import ExtractionConfig, semi_separated_k
from sepclust.generators import gen_exponential_line, gen_three_color_line
from sepclust.geometry import REL_TOL, PointSet, pairwise_distances
from sepclust.oracle import (
    OracleBudgetExceeded,
    _candidate_balls,
    best_separated_pair,
    check_three_color_hopeless,
    exact_min_ball_all,
    exact_min_ball_alpha,
)
from sepclust.separation import SeparationKind, quality


# ------------------------------------------------- exact minimum ball


def test_min_ball_sliding_window():
    assert exact_min_ball_alpha(PointSet([0.0, 1.0, 2.0, 10.0]), 3) == 1.0


def test_min_ball_alpha_one():
    assert exact_min_ball_alpha(PointSet([[1.0, 2.0], [3.0, 4.0]]), 1) == 0.0


def test_min_ball_full_set_circumcircle():
    ps = PointSet([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert exact_min_ball_alpha(ps, 3) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_min_ball_budget():
    rng = np.random.default_rng(0)
    with pytest.raises(OracleBudgetExceeded):
        exact_min_ball_alpha(PointSet(rng.random((41, 2))), 3)
    with pytest.raises(OracleBudgetExceeded):
        exact_min_ball_alpha(PointSet(rng.random((5, 4))), 3)
    assert exact_min_ball_alpha(
        PointSet(rng.random((41, 2))), 3, max_n=50
    ) >= 0.0


def test_min_ball_1d_matches_candidate_method():
    # embed the line in the plane so the subset-candidate search runs
    rng = np.random.default_rng(42)
    for _ in range(10):
        xs = rng.random(12) * 9
        line = PointSet(xs)
        plane = PointSet(np.column_stack([xs, np.zeros(12)]))
        a = exact_min_ball_all(line)
        b = exact_min_ball_all(plane)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_min_ball_brute_force_cross_check_2d():
    # optimum over all center candidates from boundary subsets, recomputed
    # naively per alpha
    rng = np.random.default_rng(1)
    pts = rng.random((9, 2)) * 4
    ps = PointSet(pts)
    dist = pairwise_distances(pts)

    def brute(alpha):
        best = math.inf
        # centers: points, midpoints, circumcenters of all triples
        centers = [p for p in pts]
        for i, j in itertools.combinations(range(9), 2):
            centers.append(0.5 * (pts[i] + pts[j]))
        for i, j, k in itertools.combinations(range(9), 3):
            ax, ay = pts[i]
            bx, by = pts[j]
            cx, cy = pts[k]
            d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
            if abs(d) < 1e-12:
                continue
            ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
                  + (cx**2 + cy**2) * (ay - by)) / d
            uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
                  + (cx**2 + cy**2) * (bx - ax)) / d
            centers.append(np.array([ux, uy]))
        for c in centers:
            dd = np.sort(np.linalg.norm(pts - c, axis=1))
            if dd[alpha - 1] < best:
                best = dd[alpha - 1]
        return best

    exact = exact_min_ball_all(ps)
    for alpha in range(1, 10):
        assert exact[alpha - 1] == pytest.approx(brute(alpha), rel=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_min_ball_counts_match_one_full_matrix(d):
    # Quarter-grid coordinates put points exactly on candidate spheres and
    # repeat some points. The counts over the kernel's blocks must give the
    # radii read off one full center-by-point distance matrix, bit for bit.
    rng = np.random.default_rng(d)
    for n in (1, 2, 7, 16, 40):
        coords = np.round(rng.random((n, d)) * 12) / 4
        centers, radii = _candidate_balls(coords)
        within = pairwise_distances(centers, coords) <= radii[:, None] * (1.0 + REL_TOL)
        counts = within.sum(axis=1)
        want = [radii[counts >= alpha].min() for alpha in range(1, n + 1)]
        assert exact_min_ball_all(PointSet(coords)).tolist() == want


@pytest.mark.parametrize("d", [2, 3])
def test_min_ball_overflowing_center_is_rejected(d):
    # The midpoint of two points near 1e308 overflows to inf. The counts
    # must not read it: the true radius at alpha = 2 here is 0.5.
    coords = np.zeros((4, d))
    coords[:2, 0] = 1e308
    coords[1, 1] = coords[2, 1] = 1.0
    coords[3, :2] = 5.0
    with pytest.raises(ValueError, match="coordinates must be finite"):
        exact_min_ball_all(PointSet(coords))


def test_oracle_budgets_are_checked_first():
    # A budget below one is refused before sigma or alpha is looked at.
    ps = PointSet([0.0, 1.0, 5.0])
    for call in (
        lambda: best_separated_pair(ps, math.nan, SeparationKind.SEMI, max_n=0),
        lambda: exact_min_ball_alpha(ps, 99, max_n=0),
        lambda: exact_min_ball_all(ps, max_n=-1),
    ):
        with pytest.raises(ValueError, match="budgets must be positive"):
            call()


def test_min_ball_monotone_in_alpha():
    rng = np.random.default_rng(2)
    ps = PointSet(rng.random((15, 2)))
    r = exact_min_ball_all(ps)
    assert (np.diff(r) >= -1e-15).all()


# ------------------------------------------------- best separated pair


def test_best_pair_exponential_line():
    q, _ = best_separated_pair(gen_exponential_line(8), 1.0, SeparationKind.STRONG)
    assert q == 1


def test_best_pair_two_far_pairs():
    ps = PointSet([0.0, 1.0, 100.0, 101.0])
    q, (c1, c2) = best_separated_pair(ps, 1.0, SeparationKind.STRONG)
    assert q == 2
    assert sorted(c1.tolist() + c2.tolist()) == [0, 1, 2, 3]


def test_best_pair_huge_sigma_forces_singletons():
    q, _ = best_separated_pair(
        PointSet([0.0, 1.0, 2.0, 3.0]), 100.0, SeparationKind.STRONG
    )
    assert q == 1


def test_best_pair_budget():
    rng = np.random.default_rng(3)
    with pytest.raises(OracleBudgetExceeded):
        best_separated_pair(PointSet(rng.random(13)), 1.0, SeparationKind.SEMI)


def _reference_best_pair(ps, sigma, kind):
    """Plain base-3 counter over all assignments; the slow twin of the
    pruned search. Index 0 is the most significant digit; the lowest
    assigned index must land in C1."""
    n = ps.n
    dist = pairwise_distances(ps.coords)
    semi = kind is SeparationKind.SEMI
    best_q, best_w = 0, ([], [])
    for code in range(3**n):
        digits = np.base_repr(code, base=3).zfill(n)
        a = [i for i, ch in enumerate(digits) if ch == "1"]
        b = [i for i, ch in enumerate(digits) if ch == "2"]
        if not a or not b:
            continue
        if min(a + b) not in a:
            continue
        da = max((dist[i, j] for i, j in itertools.combinations(a, 2)), default=0.0)
        db = max((dist[i, j] for i, j in itertools.combinations(b, 2)), default=0.0)
        cross = min(dist[i, j] for i in a for j in b)
        term = min(da, db) if semi else max(da, db)
        if cross >= sigma * term * (1 - REL_TOL) and min(len(a), len(b)) > best_q:
            best_q, best_w = min(len(a), len(b)), (a, b)
    return best_q, best_w


@pytest.mark.parametrize("kind", list(SeparationKind))
def test_best_pair_matches_plain_enumeration(kind):
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(3, 8))
        ps = PointSet(rng.random((n, 2)) * 3)
        for sigma in (0.5, 1.0, 3.0):
            q, (c1, c2) = best_separated_pair(ps, sigma, kind)
            q_ref, (a, b) = _reference_best_pair(ps, sigma, kind)
            assert q == q_ref
            assert c1.tolist() == a and c2.tolist() == b


def test_algorithm_never_beats_oracle():
    rng = np.random.default_rng(23)
    for _ in range(5):
        ps = PointSet(rng.random((11, 2)))
        for sigma in (0.5, 1.0):
            cl = semi_separated_k(ps, ExtractionConfig(sigma=sigma, k=2))
            q_opt, _ = best_separated_pair(ps, sigma, SeparationKind.SEMI)
            assert quality(cl) <= q_opt


# --------------------------------------------------- three-color facts


def test_three_color_hopeless_true():
    assert check_three_color_hopeless(gen_three_color_line(3), 3.0)
    assert check_three_color_hopeless(gen_three_color_line(20), 3.0)


def test_three_color_hopeless_perturbed_false():
    inst = gen_three_color_line(5)
    coords = inst.points.coords.copy()
    third = inst.color_indices(2)
    coords[third[1], 0] = coords[third[0], 0] + 1.0  # shrink one gap below n
    from sepclust.algorithms import ColoredInstance

    broken = ColoredInstance(PointSet(coords), inst.colors)
    assert not check_three_color_hopeless(broken, 3.0)


def test_three_color_hopeless_needs_sigma_three():
    with pytest.raises(ValueError):
        check_three_color_hopeless(gen_three_color_line(4), 2.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0, 0.0, 1e308])
def test_oracles_reject_sigma_out_of_range(sigma):
    with pytest.raises(ValueError, match="sigma must be positive"):
        best_separated_pair(PointSet([0.0, 1.0, 5.0, 6.0]), sigma, SeparationKind.STRONG)
    with pytest.raises(ValueError, match="sigma must be positive"):
        check_three_color_hopeless(gen_three_color_line(4), sigma)
