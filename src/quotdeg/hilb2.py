"""Integrals over the Hilbert scheme of two points of a supported space X.

The length-2 Hilbert scheme is never modelled directly.  All computations
run on the blow-up of X x X along the diagonal, which double-covers X^[2]:
powers of the tautological divisor push down to X x X as explicit diagonal
classes, and every X^[2]-integral is half of the corresponding blow-up
integral.  The degree evaluator also carries a closed form in the Segre
classes of X and cross-checks it against the blow-up route on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CrossCheckError, DomainError
from .exactpoly import TruncPoly, binomial
from .varieties import (
    SpaceDescriptor,
    boxsum,
    diagonal_pushforward,
    integrate,
    integrate_power,
    power_ring,
    ring_of,
    segre_scheme,
)

__all__ = [
    "PairPushforwardRequest",
    "blowup_power_pushforward",
    "pair_power_pushforward",
    "pair_power_pushforward_table",
    "hilb2_degree",
]

# guard against runaway exponents in requests; everything in scope stays
# at or below twice the dimension
_POWER_SLACK = 64


@dataclass(frozen=True)
class PairPushforwardRequest:
    """A power of a tautological divisor class to push down to X x X."""

    space: SpaceDescriptor
    divisor: TruncPoly
    power: int

    def __post_init__(self):
        if self.divisor.ring != ring_of(self.space):
            raise DomainError("divisor must live on the space")
        if not self.divisor.is_zero() and (
            not self.divisor.is_homogeneous() or self.divisor.total_degree() != 1
        ):
            raise DomainError("divisor must be homogeneous of degree 1")
        if not 0 <= self.power <= 2 * self.space.dimension + _POWER_SLACK:
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


def pair_power_pushforward(req_or_space, divisor=None, power=None) -> TruncPoly:
    """Push c_1(pulled-back tautological sheaf)^N from the blow-up to X x X.

    Expanding the divisor as (M boxplus M) + exceptional class gives
    sum_m binom(N, m) (M boxplus M)^{N-m} * blowup_power_pushforward(m).
    Accepts either a PairPushforwardRequest or (space, divisor, power).
    """
    if isinstance(req_or_space, PairPushforwardRequest):
        req = req_or_space
    else:
        req = PairPushforwardRequest(req_or_space, divisor, power)
    box_powers, exc = _pushforward_parts(req)
    return _power_sum(box_powers, exc, req.power)


def pair_power_pushforward_table(
    space: SpaceDescriptor, divisor: TruncPoly, max_power: int
) -> list[TruncPoly]:
    """All pair pushforwards for powers 0..max_power, sharing the power table."""
    box_powers, exc = _pushforward_parts(PairPushforwardRequest(space, divisor, max_power))
    return [_power_sum(box_powers, exc, n) for n in range(max_power + 1)]


def _pushforward_parts(
    req: PairPushforwardRequest,
) -> tuple[list[TruncPoly], dict[int, TruncPoly]]:
    """The powers (M boxplus M)^i for i <= req.power, and the nonzero
    blow-up pushforwards of the exceptional powers m <= req.power."""
    box = boxsum(req.space, 2, req.divisor)
    box_powers = [TruncPoly.one(power_ring(req.space, 2))]
    for _ in range(req.power):
        box_powers.append(box_powers[-1] * box)
    exc = {0: blowup_power_pushforward(req.space, 0)}
    for m in range(req.space.dimension, req.power + 1):
        e = blowup_power_pushforward(req.space, m)
        if not e.is_zero():
            exc[m] = e
    return box_powers, exc


def _power_sum(box_powers: list[TruncPoly], exc: dict[int, TruncPoly], n: int) -> TruncPoly:
    """The pair pushforward in power n from the parts of `_pushforward_parts`."""
    total = TruncPoly.zero(box_powers[0].ring)
    for m, e in exc.items():
        if m <= n:
            total = total + binomial(n, m) * box_powers[n - m] * e
    return total


def hilb2_degree(space: SpaceDescriptor, divisor: TruncPoly) -> Fraction:
    """Top self-intersection number on X^[2] of the tautological divisor
    attached to a line bundle with first Chern class `divisor`.

    Two routes are evaluated and must agree exactly:
    (a) the closed form
        (1/2) binom(2d, d) (int M^d)^2
        - 2^{d-1} sum_m binom(2d, d+m) 2^{-m} int M^{d-m} s_m(X),
    (b) half the X x X integral of the pair pushforward in power 2d.
    """
    d = space.dimension
    if d < 1:
        raise DomainError("the space must be positive-dimensional")
    if divisor.ring != ring_of(space):
        raise DomainError("divisor must live on the space")
    md = integrate(space, divisor**d)
    closed = Fraction(1, 2) * binomial(2 * d, d) * md**2
    segre = segre_scheme(space)
    correction = Fraction(0)
    for m in range(d + 1):
        correction += (
            binomial(2 * d, d + m)
            * Fraction(1, 2**m)
            * integrate(space, divisor ** (d - m) * segre.graded_part(m))
        )
    closed -= Fraction(2) ** (d - 1) * correction
    pushed = pair_power_pushforward(space, divisor, 2 * d)
    blowup_route = Fraction(1, 2) * integrate_power(space, 2, pushed)
    if closed != blowup_route:
        raise CrossCheckError(
            f"hilb2 degree routes disagree: closed form {closed}, blow-up route {blowup_route}"
        )
    return closed
