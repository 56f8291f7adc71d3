import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

import pytest

from quotdeg import localise
from quotdeg.errors import CrossCheckError, DomainError
from quotdeg.exactpoly import binomial, compositions, poly_interpolate
from quotdeg.localise import (
    NonGenericWeightsError,
    WeightAssignment,
    degree_polynomial_localised,
    plucker_degree_localised,
)

# -- the pointwise recipe: the module docstring's weights, one fixed point at
# a time; the oracle the side-table kernel is checked against


@dataclass(frozen=True)
class FixedPointDatum:
    """Quotient lengths at 0 (b) and at infinity (c), one entry per summand."""

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "c", tuple(self.c))
        if len(self.b) != len(self.c):
            raise DomainError("b and c must have one entry per summand")
        if any(x < 0 for x in self.b + self.c):
            raise DomainError("lengths must be nonnegative")


def enumerate_fixed_points(r: int, l: int) -> list[FixedPointDatum]:
    """All pairs of compositions with total length l; there are
    binom(l + 2r - 1, 2r - 1) of them."""
    if r < 1 or l < 0:
        raise DomainError("need r >= 1 and l >= 0")
    return [
        FixedPointDatum(parts[:r], parts[r:]) for parts in compositions(l, 2 * r)
    ]


def tangent_weights(pt: FixedPointDatum, a: Sequence[int], wt: WeightAssignment) -> list[int]:
    """Tangent characters at a fixed point; raises if any vanishes."""
    r = len(pt.b)
    if len(a) != r or len(wt.e) != r:
        raise DomainError("summand data of mismatched lengths")
    weights = []
    for j in range(r):
        for k in range(pt.b[j]):
            for i in range(r):
                weights.append(wt.e[j] - wt.e[i] + (k - pt.b[i]) * wt.w)
        for k in range(pt.c[j]):
            for i in range(r):
                weights.append(wt.e[j] - wt.e[i] + (a[j] - a[i] + pt.c[i] - k) * wt.w)
    if any(x == 0 for x in weights):
        raise NonGenericWeightsError("zero tangent weight")
    return weights


def taut_weight_sum(pt: FixedPointDatum, a: Sequence[int], n: int, wt: WeightAssignment) -> int:
    """Sum of the fibre characters of the twisted tautological sheaf."""
    total = 0
    for j in range(len(pt.b)):
        for k in range(pt.b[j]):
            total += wt.e[j] + k * wt.w
        for k in range(pt.c[j]):
            total += wt.e[j] + (a[j] + n - k) * wt.w
    return total


def _fixed_point_sums(a, l, ns, wt):
    """The kernel's sums for one draw at each twist in `ns`."""
    tables = localise._side_tables(a, l, wt, _by_length(len(a), l))
    return [localise._table_sum(tables, len(a), l, n, wt.w) for n in ns]


def _by_length(r, l):
    return [list(compositions(k, r)) for k in range(l + 1)]


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


def _recipe_sums(a, l, ns, wt):
    """The fixed-point sum point by point, straight from the public recipe,
    at each twist in `ns`."""
    r = len(a)
    totals = [Fraction(0)] * len(ns)
    for pt in enumerate_fixed_points(r, l):
        denominator = prod(tangent_weights(pt, a, wt))
        for index, n in enumerate(ns):
            totals[index] += Fraction(taut_weight_sum(pt, a, n, wt) ** (l * r), denominator)
    return totals


def _assert_kernel_matches_recipe(a, l, ns, wt):
    try:
        expected = _recipe_sums(a, l, ns, wt)
    except NonGenericWeightsError:
        with pytest.raises(NonGenericWeightsError):
            _fixed_point_sums(a, l, ns, wt)
        return False
    assert _fixed_point_sums(a, l, ns, wt) == expected, (a, l, wt)
    return True


def test_kernel_matches_pointwise_recipe():
    rng = random.Random(20261018)
    outcomes = []
    for r in (1, 2, 3, 4):
        for l in range(6):
            # small weights make many draws degenerate; large ones are the real draws
            for bound in (4,) * 12 + (10**6,) * 2:
                a = tuple(rng.randint(-2, 2) for _ in range(r))
                e = tuple(rng.randint(-bound, bound) for _ in range(r))
                w = rng.choice((-1, 1)) * rng.randint(1, min(bound, 10**3) - 1)
                wt = WeightAssignment(e, w)
                outcomes.append((w < 0, _assert_kernel_matches_recipe(a, l, range(5), wt)))
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
    assert not _assert_kernel_matches_recipe(a, l, [n], wt)


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


def test_corrupted_row_weight_fails_the_cross_check(monkeypatch):
    real_side_tables = localise._side_tables

    def side_tables(a, l, wt, by_length):
        zero, infinity, scales, denominator = real_side_tables(a, l, wt, by_length)
        (u, s), *rest = zero[1]
        zero[1] = [(u + 1, s)] + rest
        return zero, infinity, scales, denominator

    monkeypatch.setattr(localise, "_side_tables", side_tables)
    with pytest.raises(CrossCheckError):
        plucker_degree_localised(2, (1, 0), 3, 2)


def _side_products(pt, a, wt):
    """The product of the tangent weights at a fixed point, zero allowed."""
    try:
        return prod(tangent_weights(pt, a, wt))
    except NonGenericWeightsError:
        return 0


def test_row_multiples_are_multiples_of_their_rows():
    # every D of row k divides M_k, and M_k = 0 exactly when some D of row k is 0
    rng = random.Random(20261020)
    zeros = set()
    for r in (1, 2, 3, 4):
        for l in range(6):
            for bound in (3,) * 6 + (10**6,) * 2:
                a = tuple(rng.randint(-2, 2) for _ in range(r))
                e = tuple(rng.randint(-bound, bound) for _ in range(r))
                w = rng.choice((-1, 1)) * rng.randint(1, min(bound, 10**3) - 1)
                wt = WeightAssignment(e, w)
                e_inf = [ej + aj * w for ej, aj in zip(e, a)]
                for chars, at_zero in ((e, True), (e_inf, False)):
                    multiples = localise._row_multiples(chars, w, l)
                    for k in range(l + 1):
                        empty = (0,) * r
                        points = [(b, empty) if at_zero else (empty, b) for b in compositions(k, r)]
                        products = [_side_products(FixedPointDatum(*pt), a, wt) for pt in points]
                        assert (multiples[k] == 0) == (0 in products), (a, wt, k)
                        zeros.add(multiples[k] == 0)
                        if multiples[k]:
                            assert all(multiples[k] % d == 0 for d in products), (a, wt, k)
    assert zeros == {True, False}


def test_row_multiple_missing_a_factor_fails_the_cross_check(monkeypatch):
    # dropping the weight e_1 - e_0 + (k - 1) w from M_k leaves a D of row k,
    # that of b = (0, k), that no longer divides it
    real_row_multiples = localise._row_multiples
    for r, l in ((2, 3), (3, 4), (4, 2)):
        for k in range(1, l + 1):

            def row_multiples(chars, w, l, k=k):
                multiples = real_row_multiples(chars, w, l)
                multiples[k] //= chars[1] - chars[0] + (k - 1) * w
                return multiples

            monkeypatch.setattr(localise, "_row_multiples", row_multiples)
            with pytest.raises(CrossCheckError, match="does not divide"):
                plucker_degree_localised(r, (1,) + (0,) * (r - 1), l, 2)


def test_compositions_built_once_per_call(monkeypatch):
    # every draw and redraw reads the same lists of compositions
    calls = []
    real = localise.compositions

    def counted(k, r):
        calls.append((k, r))
        return real(k, r)

    monkeypatch.setattr(localise, "compositions", counted)
    degree_polynomial_localised(3, (1, 0, -1), 4)
    assert sorted(calls) == [(k, 3) for k in range(5)]
