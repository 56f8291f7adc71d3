from fractions import Fraction
from math import comb

import pytest

from quotdeg import jacobi
from quotdeg.errors import CrossCheckError, DomainError
from quotdeg.exactpoly import binomial
from quotdeg.jacobi import JacobiParams, a_coeff, jacobi_finite_sum, jacobi_hyp, pochhammer


def P(alpha, beta, n, z):
    return JacobiParams(Fraction(alpha), Fraction(beta), n, Fraction(z))


def test_pochhammer():
    assert pochhammer(Fraction(3), 0) == 1
    assert pochhammer(Fraction(2), 3) == 24
    assert pochhammer(Fraction(-1, 2), 2) == Fraction(-1, 4)


def test_hyp_degree_zero():
    assert jacobi_hyp(P(7, -3, 0, 5)) == 1
    assert jacobi_hyp(P(Fraction(1, 2), Fraction(2, 3), 0, 0)) == 1


def test_hyp_two_term():
    assert jacobi_hyp(P(1, -2, 1, 0)) == Fraction(3, 2)


def test_hyp_at_one():
    for alpha, beta, n in [(1, -2, 3), (4, 0, 2), (2, -1, 5)]:
        assert jacobi_hyp(P(alpha, beta, n, 1)) == binomial(n + alpha, n)


def test_hyp_pole():
    with pytest.raises(DomainError):
        jacobi_hyp(P(-2, 0, 3, 0))


def test_finite_sum_examples():
    assert jacobi_finite_sum(P(3, -2, 1, 0)) == Fraction(5, 2)
    assert jacobi_finite_sum(P(2, -3, 2, 0)) == Fraction(11, 4)
    assert jacobi_finite_sum(P(3, -3, 1, 0)) == 3


def test_finite_sum_domain():
    with pytest.raises(DomainError):
        jacobi_finite_sum(P(0, 0, 1, 0))
    with pytest.raises(DomainError):
        jacobi_finite_sum(P(2, -10, 1, 0))
    with pytest.raises(DomainError):
        jacobi_finite_sum(P(Fraction(1, 2), 0, 1, 0))


def test_a_coeff_examples():
    assert a_coeff(1, 1, 1, 0) == Fraction(1, 2)
    assert a_coeff(1, 1, 0, 1) == Fraction(-3, 2)
    assert a_coeff(2, 1, 0, 0) == Fraction(-5, 4)


def test_a_coeff_domain():
    with pytest.raises(DomainError):
        a_coeff(1, 1, 2, 0)
    with pytest.raises(DomainError):
        a_coeff(1, 1, 0, 2)


# -- Fraction references: the loops the integer kernels replaced, and the
# a_coeff that built a Fraction per route, kept as they were


def reference_jacobi_finite_sum(p: JacobiParams) -> Fraction:
    a, b, n, z = p.alpha, p.beta, p.n, p.z
    if a.denominator != 1 or a <= 0:
        raise DomainError("finite sum requires integer alpha > 0")
    if not b > -n - a - 1:
        raise DomainError("finite sum requires beta > -n - alpha - 1")
    alpha = int(a)
    total = Fraction(0)
    v = (z - 1) / 2
    for m in range(n + 1):
        total += v**m * binomial(n + alpha, m + alpha) * binomial(n + a + b + m, m)
    return total


def fraction_loop_a_coeff(r: int, d: int, k: int, j: int) -> Fraction:
    if r < 1 or d < 1 or not 0 <= k <= d or not 0 <= j <= d - k:
        raise DomainError("a_coeff arguments out of range")
    p = r - 1 + d
    direct = Fraction(0)
    for m in range(d - j, p + 1):
        direct += (
            Fraction(-1, 2) ** m
            * binomial(2 * p, p + m)
            * binomial(r - 1 + m - k, m - d + j)
        )
    direct *= Fraction(-1) ** (k + j)
    params = JacobiParams(Fraction(p + d - j), Fraction(-p - k - j), r - 1 + j, Fraction(0))
    via_jacobi = (
        Fraction(-1) ** (d - k) / Fraction(2) ** (d - j) * reference_jacobi_finite_sum(params)
    )
    if direct != via_jacobi:
        raise CrossCheckError(
            f"a_coeff routes disagree for r={r} d={d} k={k} j={j}: {direct} vs {via_jacobi}"
        )
    return direct


def a_coeff_grid():
    return [
        (r, d, k, j)
        for r in range(1, 7)
        for d in range(1, 7)
        for k in range(d + 1)
        for j in range(d - k + 1)
    ]


def reference_a_coeff(r: int, d: int, k: int, j: int) -> Fraction:
    """Coefficient a_j of the Segre-class pairing in the rank-r degree formula.

    Evaluated twice: as the direct alternating binomial sum, and as a scaled
    Jacobi polynomial value at zero.  A mismatch means a convention has been
    corrupted somewhere, so it aborts instead of returning either value.
    """
    if r < 1 or d < 1 or not 0 <= k <= d or not 0 <= j <= d - k:
        raise DomainError("a_coeff arguments out of range")
    p = r - 1 + d
    # sum_m (-1/2)^m C(2p, p+m) C(r-1+m-k, m-d+j); no comb argument is negative
    direct = sum(
        (-1) ** m * 2 ** (p - m) * comb(2 * p, p + m) * comb(r - 1 + m - k, m - d + j)
        for m in range(d - j, p + 1)
    )
    direct = Fraction((-1) ** (k + j) * direct, 2**p)
    value = jacobi_finite_sum(JacobiParams(p + d - j, -p - k - j, r - 1 + j, 0))
    via_jacobi = Fraction((-1) ** (d - k) * value.numerator, value.denominator * 2 ** (d - j))
    if direct != via_jacobi:
        raise CrossCheckError(
            f"a_coeff routes disagree for r={r} d={d} k={k} j={j}: {direct} vs {via_jacobi}"
        )
    return direct


def test_a_coeff_matches_fraction_reference_on_grid():
    for args in a_coeff_grid():
        assert a_coeff(*args) == reference_a_coeff(*args) == fraction_loop_a_coeff(*args), args


def test_finite_sum_matches_fraction_reference():
    zs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(1, 3), Fraction(-5, 7)]
    betas = [Fraction(b) for b in range(-8, 4)] + [
        Fraction(-7, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(5, 3)
    ]
    checked = 0
    for alpha in range(1, 5):
        for n in range(6):
            for beta in betas:
                if not beta > -n - alpha - 1:
                    continue
                for z in zs:
                    params = P(alpha, beta, n, z)
                    assert jacobi_finite_sum(params) == reference_jacobi_finite_sum(params)
                    checked += 1
    assert checked > 1000


def test_finite_sum_integer_route_keeps_the_domain_checks():
    for params in (P(0, 0, 1, 0), P(2, -4, 1, 0), P(Fraction(1, 2), 0, 1, 0)):
        with pytest.raises(DomainError):
            reference_jacobi_finite_sum(params)
        with pytest.raises(DomainError):
            jacobi_finite_sum(params)
    # beta = -n - alpha is the first integral value inside the domain
    assert jacobi_finite_sum(P(2, -3, 1, 0)) == reference_jacobi_finite_sum(P(2, -3, 1, 0))


def corrupt_finite_sum_numerator(monkeypatch):
    original = jacobi.jacobi_finite_sum_numerator
    monkeypatch.setattr(jacobi, "jacobi_finite_sum_numerator", lambda *args: original(*args) + 1)


def test_a_coeff_route_check_fires_on_a_corrupted_jacobi_route(monkeypatch):
    corrupt_finite_sum_numerator(monkeypatch)
    for args in [(1, 1, 1, 0), (2, 2, 0, 1), (6, 6, 3, 3)]:
        with pytest.raises(CrossCheckError, match="a_coeff routes disagree"):
            a_coeff(*args)


def test_corrupted_finite_sum_numerator_breaks_the_wrapper_too(monkeypatch):
    grid = [P(3, -2, 1, 0), P(2, -3, 2, 0), P(4, 1, 3, 5)]
    assert all(jacobi_finite_sum(p) == jacobi_hyp(p) for p in grid)
    corrupt_finite_sum_numerator(monkeypatch)
    assert all(jacobi_finite_sum(p) != jacobi_hyp(p) for p in grid)


# -- the hypergeometric series with every Pochhammer symbol recomputed per
# term, as it was before the running term; kept as the reference


def reference_jacobi_hyp(p: JacobiParams) -> Fraction:
    a, b, n, z = p.alpha, p.beta, p.n, p.z
    u = (1 - z) / 2
    total = Fraction(0)
    for m in range(n + 1):
        denom = pochhammer(a + 1, m)
        if denom == 0:
            raise DomainError("pole in Pochhammer denominator")
        term = pochhammer(-n, m) * pochhammer(n + a + b + 1, m) / denom
        total += term * u**m / pochhammer(1, m)
    return pochhammer(a + 1, n) / pochhammer(1, n) * total


def test_hyp_matches_per_term_pochhammer_reference():
    params = [Fraction(x) for x in range(-4, 4)] + [Fraction(-7, 2), Fraction(-1, 3), Fraction(5, 3)]
    zs = [Fraction(0), Fraction(1), Fraction(3), Fraction(-5, 7)]
    checked = poles = 0
    for alpha in params:
        for beta in params:
            for n in range(6):
                for z in zs:
                    p = P(alpha, beta, n, z)
                    try:
                        expected = reference_jacobi_hyp(p)
                    except DomainError:
                        with pytest.raises(DomainError, match="pole in Pochhammer denominator"):
                            jacobi_hyp(p)
                        poles += 1
                        continue
                    assert jacobi_hyp(p) == expected, p
                    checked += 1
    assert checked > 2000 and poles > 500
