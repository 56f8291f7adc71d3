"""Exact evaluation of Jacobi polynomials and the degree-formula coefficient sums.

Integer-parameter sums accumulate integer numerators and return one exact
`fractions.Fraction` per value; the rest runs over `Fraction`, with plain
Pochhammer products and no gamma functions.  The coefficient sums a_j feed
the rank-2 degree formula along two independent routes (a direct binomial
sum and a Jacobi polynomial value at zero) that must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import CrossCheckError, DomainError
from .exactpoly import binomial

__all__ = ["JacobiParams", "pochhammer", "jacobi_hyp", "jacobi_finite_sum", "a_coeff"]


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
    For integral beta (so n+alpha+beta >= 0) and v = (z-1)/2 = P/Q, it is
    sum_m P^m Q^(n-m) C(n+alpha, m+alpha) C(n+alpha+beta+m, m) over Q^n.
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
    top, P, Q = n + alpha + int(b), z.numerator - z.denominator, 2 * z.denominator
    total = sum(
        P**m * Q ** (n - m) * comb(n + alpha, m + alpha) * comb(top + m, m) for m in range(n + 1)
    )
    return Fraction(total, Q**n)


def a_coeff(r: int, d: int, k: int, j: int) -> Fraction:
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
