from fractions import Fraction

import pytest

from quotdeg.errors import DomainError
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
