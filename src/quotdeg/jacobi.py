"""Exact evaluation of Jacobi polynomials and the degree-formula coefficient sums.

Integer-parameter sums accumulate integer numerators and return one exact
`fractions.Fraction` per value; the rest runs over `Fraction`, with plain
Pochhammer products and no gamma functions.  The coefficient sums a_j feed
the rank-2 degree formula along two independent routes (a direct binomial
sum and a Jacobi polynomial value at zero) that must agree exactly.  Both
routes are integers over 2^p: `a_coeff` compares the two integers and builds
one `Fraction` per value, and it reaches the Jacobi value through the integer
core `jacobi_finite_sum_numerator`, the one implementation of the
integral-beta finite sum, which `jacobi_finite_sum` also wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError, confirm
from .exactpoly import binomial

__all__ = [
    "JacobiParams",
    "pochhammer",
    "jacobi_hyp",
    "jacobi_finite_sum",
    "jacobi_finite_sum_numerator",
    "a_coeff",
]


def pochhammer(x, m: int) -> Fraction:
    """Rising factorial (x)_m = x (x+1) ... (x+m-1)."""
    result = Fraction(1)
    for i in range(m):
        result *= x + i
    return result


@dataclass(frozen=True)
class JacobiParams:
    """Parameters (alpha, beta, degree n, evaluation point z)."""

    alpha: Fraction
    beta: Fraction
    n: int
    z: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "z", Fraction(self.z))
        if self.n < 0:
            raise DomainError("degree must be nonnegative")


def jacobi_hyp(p: JacobiParams) -> Fraction:
    """Jacobi polynomial value via the terminating hypergeometric series.

    P_n^(a,b)(z) = ((a+1)_n / n!) * sum_m ((-n)_m (n+a+b+1)_m / (a+1)_m) u^m / m!
    with u = (1-z)/2.  Requires (a+1)_m nonzero for m <= n.  Each term is
    the previous one times (m-1-n)(n+a+b+m) u / ((a+m) m).
    """
    a, b, n, z = p.alpha, p.beta, p.n, p.z
    u = (1 - z) / 2
    term = total = Fraction(1)
    for m in range(1, n + 1):
        if a + m == 0:
            raise DomainError("pole in Pochhammer denominator")
        term = term * ((m - 1 - n) * (n + a + b + m) * u) / ((a + m) * m)
        total += term
    return pochhammer(a + 1, n) / pochhammer(1, n) * total


def jacobi_finite_sum(p: JacobiParams) -> Fraction:
    """Jacobi polynomial value via the finite double-binomial sum.

    Valid for integer alpha > 0 and beta > -n - alpha - 1; outside that
    domain a DomainError is raised and callers may fall back to jacobi_hyp.
    Integral beta goes through `jacobi_finite_sum_numerator`.
    """
    a, b, n, z = p.alpha, p.beta, p.n, p.z
    if a.denominator != 1 or a <= 0:
        raise DomainError("finite sum requires integer alpha > 0")
    alpha = int(a)
    if not b > -n - alpha - 1:
        raise DomainError("finite sum requires beta > -n - alpha - 1")
    if b.denominator != 1:
        total = Fraction(0)
        v = (z - 1) / 2
        for m in range(n + 1):
            total += v**m * binomial(n + alpha, m + alpha) * binomial(n + a + b + m, m)
        return total
    P, Q = z.numerator - z.denominator, 2 * z.denominator
    return Fraction(jacobi_finite_sum_numerator(alpha, int(b), n, P, Q), Q**n)


def jacobi_finite_sum_numerator(alpha: int, beta: int, n: int, P: int, Q: int) -> int:
    """Q^n P_n^(alpha,beta)(z) for integers alpha > 0 and beta >= -n - alpha,
    where v = (z-1)/2 = P/Q: the integer
    sum_m P^m Q^(n-m) C(n+alpha, m+alpha) C(n+alpha+beta+m, m)."""
    top = n + alpha + beta
    return sum(
        P**m * Q ** (n - m) * comb(n + alpha, m + alpha) * comb(top + m, m) for m in range(n + 1)
    )


def a_coeff(r: int, d: int, k: int, j: int) -> Fraction:
    """Coefficient a_j of the Segre-class pairing in the rank-r degree formula.

    Evaluated twice: as the direct alternating binomial sum, and as a scaled
    Jacobi polynomial value at zero.  Both are integers over 2^p, p = r-1+d,
    and are compared as integers before the one returned `Fraction` is
    built.  A mismatch means a convention has been corrupted somewhere, so
    it aborts instead of returning either value.
    """
    if r < 1 or d < 1 or not 0 <= k <= d or not 0 <= j <= d - k:
        raise DomainError("a_coeff arguments out of range")
    p = r - 1 + d
    # 2^p a_j = (-1)^(k+j) sum_m (-1)^m 2^(p-m) C(2p, p+m) C(r-1+m-k, m-d+j);
    # no comb argument is negative
    direct = (-1) ** (k + j) * sum(
        (-1) ** m * 2 ** (p - m) * comb(2 * p, p + m) * comb(r - 1 + m - k, m - d + j)
        for m in range(d - j, p + 1)
    )
    # a_j = (-1)^(d-k) P_n^(alpha,beta)(0) / 2^(d-j) with n = r-1+j; at z = 0,
    # v = -1/2, so the numerator over Q^n = 2^n makes the denominator 2^p too
    value = jacobi_finite_sum_numerator(p + d - j, -p - k - j, r - 1 + j, -1, 2)
    routes = "a_coeff routes disagree: 2^p a_j by direct sum vs by Jacobi value"
    confirm(direct, (-1) ** (d - k) * value, routes, r=r, d=d, k=k, j=j)
    return Fraction(direct, 2**p)
