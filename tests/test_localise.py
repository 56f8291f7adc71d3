import itertools
import random
from fractions import Fraction

import pytest

from quotdeg import localise
from quotdeg.errors import CrossCheckError, DomainError
from quotdeg.exactpoly import binomial, compositions, poly_interpolate
from quotdeg.localise import (
    FixedPointDatum,
    NonGenericWeightsError,
    WeightAssignment,
    degree_polynomial_localised,
    enumerate_fixed_points,
    plucker_degree_localised,
    tangent_weights,
    taut_weight_sum,
)


def test_enumerate_counts():
    assert len(enumerate_fixed_points(1, 1)) == 2
    assert len(enumerate_fixed_points(2, 2)) == 10
    assert len(enumerate_fixed_points(1, 0)) == 1
    for r, l in [(2, 3), (3, 2)]:
        assert len(enumerate_fixed_points(r, l)) == binomial(l + 2 * r - 1, 2 * r - 1)


def test_tangent_weights_rank1():
    wt = WeightAssignment((0,), 1)
    assert tangent_weights(FixedPointDatum((1,), (0,)), (0,), wt) == [-1]
    assert tangent_weights(FixedPointDatum((0,), (1,)), (0,), wt) == [1]


def test_tangent_weights_rank2():
    wt = WeightAssignment((5, 3), 1)
    pt = FixedPointDatum((1, 0), (0, 0))
    assert sorted(tangent_weights(pt, (0, 0), wt)) == [-1, 2]


def test_tangent_weights_detects_degenerate():
    wt = WeightAssignment((0, 0), 1)
    pt = FixedPointDatum((1, 0), (0, 0))
    with pytest.raises(NonGenericWeightsError):
        tangent_weights(pt, (0, 0), wt)


def test_tangent_weights_count():
    wt = WeightAssignment((11, 4, -7), 2)
    for pt in enumerate_fixed_points(3, 2):
        assert len(tangent_weights(pt, (1, 0, -1), wt)) == 2 * 3


def test_taut_weight_sum():
    wt = WeightAssignment((9,), 4)
    assert taut_weight_sum(FixedPointDatum((1,), (0,)), (0,), 5, wt) == 9
    assert taut_weight_sum(FixedPointDatum((0,), (1,)), (0,), 5, wt) == 9 + 5 * 4
    assert taut_weight_sum(FixedPointDatum((0,), (0,)), (0,), 5, wt) == 0


def test_degree_rank1_is_n():
    for n in range(5):
        assert plucker_degree_localised(1, (0,), 1, n) == n


def test_degree_rank2_is_2n():
    for n in range(4):
        assert plucker_degree_localised(2, (0, 0), 1, n) == 2 * n


def test_degree_matches_quot2():
    assert plucker_degree_localised(2, (0, 0), 2, 2) == 22


def test_polynomial_hilb_square():
    assert list(degree_polynomial_localised(1, (0,), 2)) == [1, -2, 1]


def test_polynomial_rank2():
    assert list(degree_polynomial_localised(2, (0, 0), 2)) == [6, -16, 12]


def test_polynomial_matches_quot2_matrix():
    from quotdeg.quot2 import degree2_polynomial
    from quotdeg.varieties import ProjProduct, SplitBundle, hyperplane

    P1 = ProjProduct((1,))
    h = hyperplane(P1, 0)
    for r in (1, 2, 3):
        for roots in itertools.combinations_with_replacement((-1, 0, 1), r):
            E = SplitBundle(tuple(c * h for c in roots))
            expected = degree2_polynomial(P1, E)
            assert degree_polynomial_localised(r, roots, 2) == expected


def test_twist_invariance():
    for m in (1, 2):
        for roots, n in [((0, 0), 3), ((1, -1), 3), ((0,), 4)]:
            r = len(roots)
            shifted = tuple(x + m for x in roots)
            assert plucker_degree_localised(r, roots, 2, n) == plucker_degree_localised(
                r, shifted, 2, n - m
            )


def test_seed_independence():
    # different seeds pass the consensus check and give the same value
    a = plucker_degree_localised(2, (1, 0), 2, 3, seed=0)
    b = plucker_degree_localised(2, (1, 0), 2, 3, seed=99)
    assert a == b


def test_domain_guards():
    with pytest.raises(DomainError):
        plucker_degree_localised(2, (0,), 1, 1)
    for l in (0, 1):
        with pytest.raises(DomainError):
            plucker_degree_localised(0, (), l, 0)
    with pytest.raises(DomainError):
        enumerate_fixed_points(0, 1)
    with pytest.raises(DomainError):
        WeightAssignment((1, 2), 0)


def test_coefficient_extraction_leading():
    # a_0 recovered from the localised polynomial equals (l(r-1))!/(r-1)!^l
    from math import factorial

    from quotdeg.symquot import mu_p1_coeffs

    for r in (1, 2, 3):
        for l in (1, 2, 3, 4):
            poly = degree_polynomial_localised(r, (0,) * r, l)
            a = mu_p1_coeffs(r, l, poly)
            assert a[0] == Fraction(factorial(l * (r - 1)), factorial(r - 1) ** l)


def test_leading_coefficient_matches_closed_form():
    # top coefficient in n is (lr)!/(l! r!^l) r^l, independent of the roots
    from math import factorial

    for roots, l in [((0,), 2), ((1, 0), 2), ((0, 0), 3), ((2, -1), 2)]:
        r = len(roots)
        poly = degree_polynomial_localised(r, roots, l)
        expected = Fraction(factorial(l * r), factorial(l) * factorial(r) ** l) * r**l
        assert poly.coefficients[l] == expected


def test_three_points_on_line_is_cube():
    # the length-3 scheme of the line is P^3 and the twisted tautological
    # determinant has class (n - 2)H, so the degree is (n - 2)^3
    assert list(degree_polynomial_localised(1, (0,), 3)) == [-8, 12, -6, 1]
    for n in (0, 1, 5):
        assert plucker_degree_localised(1, (0,), 3, n) == (n - 2) ** 3


def test_four_points_on_line_is_fourth_power():
    assert list(degree_polynomial_localised(1, (0,), 4)) == [81, -108, 54, -12, 1]


def _recipe_sum(a, l, n, wt):
    """The fixed-point sum point by point, straight from the public recipe."""
    r = len(a)
    total = Fraction(0)
    for pt in enumerate_fixed_points(r, l):
        denominator = 1
        for x in tangent_weights(pt, a, wt):
            denominator *= x
        total += Fraction(taut_weight_sum(pt, a, n, wt) ** (l * r), denominator)
    return total


def _assert_kernel_matches_recipe(a, l, n, wt):
    try:
        expected = _recipe_sum(a, l, n, wt)
    except NonGenericWeightsError:
        with pytest.raises(NonGenericWeightsError):
            localise._fixed_point_sum(a, l, n, wt)
        return False
    assert localise._fixed_point_sum(a, l, n, wt) == expected
    return True


def test_kernel_matches_pointwise_recipe():
    rng = random.Random(20261018)
    outcomes = []
    for r in (1, 2, 3):
        for l in range(5):
            # small weights make many draws degenerate; large ones are the real draws
            for bound in (4,) * 12 + (10**6,) * 2:
                a = tuple(rng.randint(-2, 2) for _ in range(r))
                n = rng.randint(0, 4)
                e = tuple(rng.randint(-bound, bound) for _ in range(r))
                w = rng.choice((-1, 1)) * rng.randint(1, min(bound, 10**3) - 1)
                outcomes.append((w < 0, _assert_kernel_matches_recipe(a, l, n, WeightAssignment(e, w))))
    assert {(True, True), (False, True), (True, False), (False, False)} <= set(outcomes)


def test_kernel_rejects_a_draw_degenerate_only_at_infinity():
    a, l, n = (2, -2), 2, 1
    wt = WeightAssignment((0, 4), 1)
    zeros = (0, 0)
    for k in range(l + 1):
        for b in compositions(k, 2):
            tangent_weights(FixedPointDatum(b, zeros), a, wt)  # the side at 0 is generic
    with pytest.raises(NonGenericWeightsError):
        tangent_weights(FixedPointDatum(zeros, (1, 0)), a, wt)
    assert not _assert_kernel_matches_recipe(a, l, n, wt)


def test_degenerate_first_attempts_are_redrawn(monkeypatch):
    expected = plucker_degree_localised(2, (1, 0), 3, 2)
    real_draw = localise._draw
    attempts = []

    def draw(seed, index, r):
        attempts.append(index)
        if index % 7919 == 0:
            return WeightAssignment((0,) * r, 1)
        return real_draw(seed, index, r)

    monkeypatch.setattr(localise, "_draw", draw)
    assert plucker_degree_localised(2, (1, 0), 3, 2) == expected
    assert attempts == [0, 1, 7919, 7920, 2 * 7919, 2 * 7919 + 1]


def test_exhausted_redraws_raise(monkeypatch):
    attempts = []

    def draw(seed, index, r):
        attempts.append(index)
        return WeightAssignment((0,) * r, 1)

    monkeypatch.setattr(localise, "_draw", draw)
    with pytest.raises(CrossCheckError):
        plucker_degree_localised(2, (1, 0), 3, 2)
    assert attempts == list(range(200))


def test_polynomial_matches_per_twist_degrees(monkeypatch):
    # the side tables are built once per draw and serve every n; the
    # coefficients and the redrawn attempts must match per-n evaluation
    rng = random.Random(7)
    real_draw = localise._draw
    attempts = []
    skips = []

    def draw(seed, index, r):
        attempts.append(index)
        if index % 7919 < skips[index // 7919]:
            return WeightAssignment((0,) * r, 1)  # degenerate for r >= 2 and l >= 1
        return real_draw(seed, index, r)

    monkeypatch.setattr(localise, "_draw", draw)
    redraws = 0
    for r in (1, 2, 3):
        for l in range(5):
            a = tuple(rng.randint(-2, 2) for _ in range(r))
            seed = rng.randrange(100)
            skips[:] = [rng.randrange(3) for _ in range(3)]
            attempts.clear()
            poly = degree_polynomial_localised(r, a, l, seed=seed)
            together = list(attempts)
            redraws += len(together) - 3
            attempts.clear()
            values = [(n, plucker_degree_localised(r, a, l, n, seed=seed)) for n in range(l + 2)]
            assert attempts == together * (l + 2)
            assert poly == poly_interpolate(values[: l + 1])
            assert poly.evaluate(l + 1) == values[l + 1][1]
    assert redraws > 10
