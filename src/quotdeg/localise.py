"""Torus fixed-point evaluation of Pluecker integrals over the projective line.

Quot schemes of split bundles on P^1 are smooth, so integrals of powers of
the tautological divisor reduce to an Atiyah-Bott sum over the torus fixed
points.  Fixed points are pairs of compositions recording quotient lengths
at 0 and at infinity of each summand O(a_i).

Linearisation conventions used throughout (the module's normative recipe,
certified by closed-form and cross-module checks rather than assumed):
a frame of O(a_i) carries character e_i at 0 and e_i + a_i w at infinity,
the twisting sheaf O(n) carries 0 at 0 and n w at infinity, and w is the
character of the coordinate of P^1.  The tangent space at a fixed point is
Hom(kernel, quotient), giving

  at 0:        e_j - e_i + (k - b_i) w          for 0 <= k < b_j, all i
  at infinity: e_j - e_i + (a_j - a_i + c_i - k) w   for 0 <= k < c_j, all i

and the fibre of the twisted tautological sheaf has characters

  at 0:        e_j + k w                        for 0 <= k < b_j
  at infinity: e_j + (a_j + n - k) w            for 0 <= k < c_j.

Instead of symbolic rational functions, each sum is evaluated at several
concrete generic integer weight draws; all draws must agree exactly and the
common value must be an integer.

`enumerate_fixed_points`, `tangent_weights` and `taut_weight_sum` state the
recipe point by point.  The sum itself is evaluated side by side: the
weights at 0 depend only on b and those at infinity only on c (and a), so
each draw builds, for every length k <= l, one table of (D0(b), s0(b)) and
one of (Dinf(c), sinf(c)) over the compositions of k into r parts, where D
is the product of that side's tangent weights (taken over integer ranges)
and s its share of the fibre-character sum:

  s0(b)   = sum_j b_j e_j + w b_j (b_j - 1)/2
  sinf(c) = sum_j c_j e_j + w (c_j (a_j + n) - c_j (c_j - 1)/2).

Only sinf depends on n, and linearly: it grows by n w k for c of length k.
So the tables hold sinf at n = 0, and `degree_polynomial_localised` builds
them once per draw and evaluates every n, the verification point included,
from them.  A point (b, c) contributes the integer pair
((s0 + sinf)^{lr}, D0 Dinf); the pairs are summed pairwise, in a balanced
order that holds only O(log #points) partial sums, over common
denominators (one gcd of the two denominators per merge) and reduced to a
Fraction once per draw and twist.  A zero entry in either table is a zero
tangent weight at some fixed point, since every b and c of length at most
l occurs in one, so it rejects exactly the draws the pointwise recipe
rejects; the redraws, the consensus of the draws and the integrality check
are unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, prod
from typing import Sequence

from .errors import CrossCheckError, DomainError
from .exactpoly import DegreePolynomial, compositions, poly_interpolate

__all__ = [
    "FixedPointDatum",
    "WeightAssignment",
    "NonGenericWeightsError",
    "enumerate_fixed_points",
    "tangent_weights",
    "taut_weight_sum",
    "plucker_degree_localised",
    "degree_polynomial_localised",
]


# generic weight draws per evaluation; they must all agree exactly
_DRAWS = 3


class NonGenericWeightsError(RuntimeError):
    """A tangent weight vanished; the caller should redraw."""


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

    @property
    def length(self) -> int:
        return sum(self.b) + sum(self.c)


@dataclass(frozen=True)
class WeightAssignment:
    """Torus characters on the bundle summands (e) and the coordinate (w)."""

    e: tuple[int, ...]
    w: int

    def __post_init__(self):
        object.__setattr__(self, "e", tuple(self.e))
        if self.w == 0:
            raise DomainError("the coordinate character must be nonzero")


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


def _draw(seed: int, index: int, r: int) -> WeightAssignment:
    rng = random.Random(1000003 * seed + index)
    e = tuple(rng.randrange(-(10**6), 10**6) for _ in range(r))
    w = rng.randrange(1, 10**3)
    return WeightAssignment(e, w)


def _side_tables(
    a: Sequence[int], l: int, wt: WeightAssignment
) -> tuple[list[list[tuple[int, int]]], list[list[tuple[int, int]]]]:
    """(D0, s0) and (Dinf, sinf at n = 0) for every composition of every
    k <= l, indexed by k; raises if a tangent weight vanishes.  Each
    composition is read once as b (at 0) and once as c (at infinity).  No
    entry depends on n except sinf, which grows by n w k in row k."""
    e, w = wt.e, wt.w
    zero, infinity = [], []
    for k in range(l + 1):
        zero_row, infinity_row = [], []
        for b in compositions(k, len(a)):
            d0 = dinf = 1
            s0 = sinf = 0
            for j, bj in enumerate(b):
                s0 += bj * e[j] + w * (bj * (bj - 1) // 2)
                sinf += bj * e[j] + w * (bj * a[j] - bj * (bj - 1) // 2)
                if bj:
                    for i, bi in enumerate(b):
                        at_zero = e[j] - e[i] - bi * w
                        d0 *= prod(range(at_zero, at_zero + bj * w, w))
                        at_infinity = e[j] - e[i] + (a[j] - a[i] + bi) * w
                        dinf *= prod(range(at_infinity, at_infinity - bj * w, -w))
            if d0 == 0 or dinf == 0:
                raise NonGenericWeightsError("zero tangent weight")
            zero_row.append((d0, s0))
            infinity_row.append((dinf, sinf))
        zero.append(zero_row)
        infinity.append(infinity_row)
    return zero, infinity


def _add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Sum of two (numerator, denominator) pairs over the lcm of the
    denominators; the numerator is left unreduced."""
    (p, q), (p2, q2) = x, y
    g = gcd(q, q2)
    return p * (q2 // g) + p2 * (q // g), q // g * q2


def _table_sum(tables, r: int, l: int, n: int, w: int) -> Fraction:
    """The fixed-point sum at twist n from the side tables of one draw."""
    zero, infinity = tables
    exponent = l * r
    # pairwise summation: each stack entry sums `size` consecutive points,
    # and two entries of one size merge, so operands stay balanced
    stack = []
    for k in range(l + 1):
        shift = n * w * (l - k)
        for d0, s0 in zero[k]:
            for dinf, sinf in infinity[l - k]:
                term, size = ((s0 + sinf + shift) ** exponent, d0 * dinf), 1
                while stack and stack[-1][1] == size:
                    term, size = _add(stack.pop()[0], term), 2 * size
                stack.append((term, size))
    return Fraction(*reduce(_add, (term for term, _ in reversed(stack))))


def _fixed_point_sum(a: Sequence[int], l: int, n: int, wt: WeightAssignment) -> Fraction:
    return _table_sum(_side_tables(a, l, wt), len(a), l, n, wt.w)


def _localised_values(
    r: int, a: Sequence[int], l: int, ns: Sequence[int], seed: int
) -> list[Fraction]:
    """The localised degree at each twist in `ns`.  Each draw builds its side
    tables once and evaluates every n from them; a draw is redrawn when a
    tangent weight vanishes, which does not depend on n.  For each n the
    draws must agree exactly and give an integer."""
    if len(a) != r:
        raise DomainError("need one summand degree per summand")
    if l < 0:
        raise DomainError("length must be nonnegative")
    if r < 1:
        raise DomainError("need r >= 1 and l >= 0")
    per_draw = []
    for index in range(_DRAWS):
        for attempt in range(200):
            wt = _draw(seed, 7919 * index + attempt, r)
            try:
                tables = _side_tables(a, l, wt)
                break
            except NonGenericWeightsError:
                continue
        else:
            raise CrossCheckError("could not find generic weights")
        per_draw.append([_table_sum(tables, r, l, n, wt.w) for n in ns])
    out = []
    for values in zip(*per_draw):
        values = list(values)
        if any(v != values[0] for v in values[1:]):
            raise CrossCheckError(f"weight draws disagree: {values}")
        if values[0].denominator != 1:
            raise CrossCheckError(f"localised degree is not an integer: {values[0]}")
        out.append(values[0])
    return out


def plucker_degree_localised(r: int, a: Sequence[int], l: int, n: int, seed: int = 0) -> Fraction:
    """Degree of the Pluecker embedding of the length-l Quot scheme of
    O(a_1) + ... + O(a_r) on P^1, twisted by O(n).

    Evaluates the fixed-point sum at `_DRAWS` generic weight draws derived
    deterministically from the seed; all values must agree exactly and be
    integers, otherwise the weight recipe itself is at fault and the run
    aborts.
    """
    return _localised_values(r, a, l, [n], seed)[0]


def degree_polynomial_localised(
    r: int, a: Sequence[int], l: int, seed: int = 0
) -> DegreePolynomial:
    """Localised degree as an exact polynomial in the twist parameter.

    Interpolated at n = 0..l (the degree is at most l on the line) and
    verified at n = l + 1."""
    values = list(enumerate(_localised_values(r, a, l, range(l + 2), seed)))
    poly = poly_interpolate(values[: l + 1])
    if poly.evaluate(l + 1) != values[l + 1][1]:
        raise CrossCheckError("localised degree polynomial fails at the verification point")
    return poly
