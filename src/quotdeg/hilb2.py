"""Integrals over the Hilbert scheme of two points of a supported space X.

The length-2 Hilbert scheme is never modelled directly.  All computations
run on the blow-up of X x X along the diagonal, which double-covers X^[2]:
powers of the tautological divisor push down to X x X as explicit diagonal
classes, and every X^[2]-integral is half of the corresponding blow-up
integral.  The degree evaluator also carries a closed form in the Segre
classes of X and cross-checks it against the blow-up route on every call.

The box powers (M boxplus M)^i on X x X are never built by products in the
square ring.  The two blocks commute, so
(M boxplus M)^i = sum_j binom(i, j) M^j (x) M^{i-j}: the powers of M are
taken on X and placed once in each block of the square (`map_blocks`),
and each term is one block product (`block_products`) of two classes on
disjoint generators, whose keys just add to a normal form.  The terms for
different j have different degrees in the first block, so they never
collide.  The blow-up route computes these powers of M itself and shares
none of them with the closed route.  The exceptional pushforwards vanish
for 0 < m < dim X and are the unit class for m = 0, so each pushed power
starts from its box power and adds the products with the pushforwards for
m >= dim X, which are still products in the square ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import CrossCheckError, DomainError
from .exactpoly import TruncPoly, binomial, block_products, map_blocks
from .varieties import (
    SpaceDescriptor,
    diagonal_pushforward,
    integrate,
    integrate_product,
    power_ring,
    ring_of,
    segre_scheme,
)

__all__ = [
    "blowup_power_pushforward",
    "pair_power_pushforward_table",
    "hilb2_degree",
]


def _check_request(space: SpaceDescriptor, divisor: TruncPoly, power: int) -> None:
    """Reject a divisor off the space, one not homogeneous of degree 1, or
    a power above twice the dimension, the most any caller needs."""
    if divisor.ring != ring_of(space):
        raise DomainError("divisor must live on the space")
    if not divisor.is_zero() and (not divisor.is_homogeneous() or divisor.total_degree() != 1):
        raise DomainError("divisor must be homogeneous of degree 1")
    if not 0 <= power <= 2 * space.dimension:
        raise DomainError("power out of supported range")


@lru_cache(maxsize=None)
def blowup_power_pushforward(space: SpaceDescriptor, m: int) -> TruncPoly:
    """Pushforward of the m-th power of the exceptional O(1) class along the
    blow-up of X x X in the diagonal: 1 for m = 0, and minus the diagonal
    pushforward of s_{m - dim X}(X) for m >= 1 (zero below the dimension)."""
    if m < 0:
        raise DomainError("power must be nonnegative")
    square = power_ring(space, 2)
    if m == 0:
        return TruncPoly.one(square)
    s = segre_scheme(space).graded_part(m - space.dimension)
    if s.is_zero():
        return TruncPoly.zero(square)
    return -diagonal_pushforward(space, s)


def pair_power_pushforward_table(
    space: SpaceDescriptor, divisor: TruncPoly, max_power: int
) -> list[TruncPoly]:
    """Push c_1(pulled-back tautological sheaf)^N from the blow-up to X x X,
    for N = 0..max_power, sharing one table of box powers.

    Expanding the divisor as (M boxplus M) + exceptional class gives
    sum_m binom(N, m) (M boxplus M)^{N-m} * blowup_power_pushforward(m).
    """
    _check_request(space, divisor, max_power)
    box_powers = _box_powers(space, divisor, max_power)
    exc = _exceptional(space, max_power)
    out = []
    for n in range(max_power + 1):
        total = box_powers[n]  # the m = 0 term
        for m, e in exc.items():
            if m <= n:
                total = total + binomial(n, m) * box_powers[n - m] * e
        out.append(total)
    return out


def _box_powers(space: SpaceDescriptor, divisor: TruncPoly, top: int) -> list[TruncPoly]:
    """The powers (M boxplus M)^i = sum_j binom(i, j) M^j (x) M^{i-j} for
    i = 0..top, each term one block product of powers of M taken on X."""
    square = power_ring(space, 2)
    powers = [TruncPoly.one(divisor.ring)]
    for _ in range(top):
        powers.append(powers[-1] * divisor)
    first = [map_blocks(p, square, (0,)) for p in powers]
    second = [map_blocks(p, square, (1,)) for p in powers]
    return [
        block_products(square, [(comb(i, j), [first[j], second[i - j]]) for j in range(i + 1)])
        for i in range(top + 1)
    ]


def _exceptional(space: SpaceDescriptor, top: int) -> dict[int, TruncPoly]:
    """The nonzero blow-up pushforwards of the exceptional powers m <= top
    other than m = 0, whose pushforward is the unit class."""
    exc = {}
    for m in range(space.dimension, top + 1):
        e = blowup_power_pushforward(space, m)
        if not e.is_zero():
            exc[m] = e
    return exc


def _closed_powers(divisor: TruncPoly, top: int) -> list[TruncPoly]:
    """The powers M^i for i = 0..top that the closed route integrates; the
    blow-up route takes its own (`_box_powers`)."""
    powers = [TruncPoly.one(divisor.ring)]
    for _ in range(top):
        powers.append(powers[-1] * divisor)
    return powers


def hilb2_degree(space: SpaceDescriptor, divisor: TruncPoly) -> Fraction:
    """Top self-intersection number on X^[2] of the tautological divisor
    attached to a line bundle with first Chern class `divisor`.

    Two routes are evaluated and must agree exactly:
    (a) the closed form
        (1/2) binom(2d, d) (int M^d)^2
        - 2^{d-1} sum_m binom(2d, d+m) 2^{-m} int M^{d-m} s_m(X),
    (b) half the X x X integral of the pair pushforward in power 2d,
        (1/2) sum_m binom(2d, m) int (M boxplus M)^{2d-m} * (blow-up
        pushforward of the m-th exceptional power), each term integrated
        as a product without forming it.  The exceptional pushforwards
        vanish for 0 < m < d, so the box powers are needed only up to d.
    """
    d = space.dimension
    if d < 1:
        raise DomainError("the space must be positive-dimensional")
    _check_request(space, divisor, 2 * d)
    powers = _closed_powers(divisor, d)
    md = integrate(space, powers[d])
    closed = Fraction(1, 2) * binomial(2 * d, d) * md**2
    segre = segre_scheme(space)
    correction = Fraction(0)
    for m in range(d + 1):
        correction += (
            binomial(2 * d, d + m)
            * Fraction(1, 2**m)
            * integrate_product(space, powers[d - m], segre.graded_part(m))
        )
    closed -= Fraction(2) ** (d - 1) * correction
    box_powers = _box_powers(space, divisor, d)
    blowup = integrate_product(space, box_powers[d], box_powers[d])
    for m, e in _exceptional(space, 2 * d).items():
        blowup += binomial(2 * d, m) * integrate_product(space, box_powers[2 * d - m], e)
    blowup_route = Fraction(1, 2) * blowup
    if closed != blowup_route:
        raise CrossCheckError(
            f"hilb2 degree routes disagree: closed form {closed}, blow-up route {blowup_route}"
        )
    return closed
