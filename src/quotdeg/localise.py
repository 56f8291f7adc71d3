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
common value must be an integer.  Any draw on which no tangent weight
vanishes gives the exact value, so the draws are as small as that allows,
which keeps every integer of the sum short.  A draw takes w from 1..9, the
accepted draws of one call pairwise distinct (an error that depends only on
w then cannot agree across them), and each e_i uniformly from [-R, R) with

  R = max(2 r (r - 1) (2l - 1), 16).

A tangent weight of the pair {i, j} vanishes only when e_j - e_i lies in
w X, where X is [1 - l, l - 1] (at 0) together with its shift by a_i - a_j
(at infinity), so |X| <= 2 (2l - 1); the pairs i = j give nonzero
multiples of w.  Given e_i, e_j - e_i takes each value with probability
at most 1 / (2R), so by the union bound over the r (r - 1) / 2 pairs a
draw is rejected with probability at most r (r - 1) (2l - 1) / (2R) <= 1/4,
for every w and every a.

The sum is evaluated side by side: the weights at 0 depend only on b and
those at infinity only on c (and a), so each draw builds, for every length
k <= l, one table of (D0(b), s0(b)) and one of (Dinf(c), sinf(c)) over the
compositions of k into r parts, where D is the product of that side's
tangent weights (taken over integer ranges) and s its share of the
fibre-character sum:

  s0(b)   = sum_j b_j e_j + w b_j (b_j - 1)/2
  sinf(c) = sum_j c_j e_j + w (c_j (a_j + n) - c_j (c_j - 1)/2).

What does not depend on the composition is built once per draw: each
summand's share of s0 and sinf by part size, and for each ordered pair
(j, i) the running-product tables, for x + y <= l, of its factors of D,

  F0_ji(x, y)   = prod_{k<y} (e_j - e_i + (k - x) w)            at 0,
  Finf_ji(x, y) = prod_{k<y} (e_j - e_i + (a_j - a_i + x - k) w)  at infinity,

read at (b_i, b_j) and (c_i, c_j) ((-w)^y y! and w^y y! when i = j).  Row k
is stored as [(M_k / D, s)], where M_k = w^k k! prod_{i<j} prod_{x=1-k}^{k-1}
(e_j - e_i + x w) at 0 and the same with e_j - e_i + (a_j - a_i + x) w at
infinity.  In a D of length k each pair {i, j} gives distinct weights of
that range, up to sign, and prod_j b_j! divides k!, so D divides M_k (a
nonzero remainder aborts the run); each weight of the range occurs in some
D of row k and M_k divides M_l, so M0_l Minf_l = 0 exactly when the
pointwise recipe (kept in the tests as the oracle for this kernel) rejects
the draw.  Only sinf depends on n, and linearly: it grows by n w k for c of
length k.  So the tables hold sinf at n = 0, and
`degree_polynomial_localised` builds them once per draw and evaluates every
n, the verification point included, from them.  Each length split's integer
sum_b (M0_k / D0) sum_c (Minf_{l-k} / Dinf) (s0 + sinf)^{lr} is scaled by
(M0_l / M0_k)(Minf_l / Minf_{l-k}), and the draw's value is one Fraction
over M0_l Minf_l.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import mul
from typing import Sequence

from .errors import CrossCheckError, DomainError, confirm
from .exactpoly import DegreePolynomial, compositions, poly_interpolate

__all__ = [
    "WeightAssignment",
    "NonGenericWeightsError",
    "plucker_degree_localised",
    "degree_polynomial_localised",
]


# generic weight draws per evaluation; they must all agree exactly
_DRAWS = 3
# the coordinate characters a draw takes w from
_W_RANGE = range(1, 10)


class NonGenericWeightsError(RuntimeError):
    """A tangent weight vanished; the caller should redraw."""


@dataclass(frozen=True)
class WeightAssignment:
    """Torus characters on the bundle summands (e) and the coordinate (w)."""

    e: tuple[int, ...]
    w: int

    def __post_init__(self):
        object.__setattr__(self, "e", tuple(self.e))
        if self.w == 0:
            raise DomainError("the coordinate character must be nonzero")


def _draw(seed: int, index: int, r: int, bound: int, taken: Sequence[int]) -> WeightAssignment:
    """Each e_i uniform in [-bound, bound), and w in `_W_RANGE` but not in
    `taken`, the w of the draws already accepted."""
    rng = random.Random(1000003 * seed + index)
    e = tuple(rng.randrange(-bound, bound) for _ in range(r))
    w = rng.choice([w for w in _W_RANGE if w not in taken])
    return WeightAssignment(e, w)


def _pair_table(delta: int, w: int, l: int) -> list[list[int]]:
    """T[x][y] = prod_{k<y} (delta + (k - x) w) for x + y <= l, by running
    products: T[0] along y, then T[x][y] = (delta - x w) T[x - 1][y - 1]."""
    table = [list(accumulate(range(delta, delta + l * w, w), mul, initial=1))]
    for x in range(1, l + 1):
        factor = delta - x * w
        table.append([1] + [factor * t for t in table[-1][: l - x]])
    return table


def _row_multiples(chars: Sequence[int], w: int, l: int) -> list[int]:
    """M_k = w^k k! prod_{i<j} prod_{x=1-k}^{k-1} (chars_j - chars_i + x w)
    for k <= l: a common multiple of the D of row k."""
    deltas = [cj - ci for j, cj in enumerate(chars) for ci in chars[:j]]
    multiples = [1, w * prod(deltas)]  # x = 0 at k = 1
    for k in range(2, l + 1):  # then the ends x = 1 - k and x = k - 1
        end = (k - 1) * w
        multiples.append(multiples[-1] * k * w * prod(d * d - end * end for d in deltas))
    return multiples[: l + 1]


def _side_tables(
    a: Sequence[int], l: int, wt: WeightAssignment, by_length: list[list[tuple[int, ...]]]
) -> tuple[list, list, list[int], int]:
    """Row k of each side, for k <= l, is [(M_k // D, s)] over `by_length[k]`,
    each composition read as b at 0 and as c at infinity (sinf at n = 0); then
    the split scales and M0_l Minf_l.  Raises if a tangent weight vanishes."""
    e, w, r = wt.e, wt.w, len(a)
    e_inf = [ej + aj * w for ej, aj in zip(e, a)]  # frame j's character at infinity
    multiples0, multiples_inf = _row_multiples(e, w, l), _row_multiples(e_inf, w, l)
    if multiples0[l] == 0 or multiples_inf[l] == 0:
        raise NonGenericWeightsError("zero tangent weight")
    # each summand's share of s0 and of sinf, by part size
    triangle = [m * (m - 1) // 2 for m in range(l + 1)]
    share0 = [[m * ej + w * t for m, t in enumerate(triangle)] for ej in e]
    share_inf = [[m * ej - w * t for m, t in enumerate(triangle)] for ej in e_inf]
    # the pair (j, j) gives (-w)^m m! at 0 and w^m m! at infinity
    diagonal0 = list(accumulate(range(-w, -(l + 1) * w, -w), mul, initial=1))
    diagonal_inf = list(accumulate(range(w, (l + 1) * w, w), mul, initial=1))
    # the pair (j, i != j): F0_ji at 0 and Finf_ji at infinity, read at [b_i][b_j]
    pairs = [
        [
            (i, _pair_table(e[j] - e[i], w, l), _pair_table(e_inf[j] - e_inf[i], -w, l))
            for i in range(r)
            if i != j
        ]
        for j in range(r)
    ]
    zero, infinity = [], []
    for row, m0, minf in zip(by_length, multiples0, multiples_inf):
        zero_row, infinity_row = [], []
        for b in row:
            d0 = dinf = 1
            s0 = sinf = 0
            for j, bj in enumerate(b):
                if bj:
                    s0 += share0[j][bj]
                    sinf += share_inf[j][bj]
                    d0 *= diagonal0[bj]
                    dinf *= diagonal_inf[bj]
                    for i, table0, table_inf in pairs[j]:
                        d0 *= table0[b[i]][bj]
                        dinf *= table_inf[b[i]][bj]
            u, remainder0 = divmod(m0, d0)
            v, remainder_inf = divmod(minf, dinf)
            if remainder0 or remainder_inf:
                raise CrossCheckError("a tangent-weight product does not divide its row multiple")
            zero_row.append((u, s0))
            infinity_row.append((v, sinf))
        zero.append(zero_row)
        infinity.append(infinity_row)
    top0, top_inf = multiples0[l], multiples_inf[l]
    scales = [top0 // m0 * (top_inf // minf) for m0, minf in zip(multiples0, multiples_inf[::-1])]
    return zero, infinity, scales, top0 * top_inf


def _table_sum(tables, r: int, l: int, n: int, w: int) -> Fraction:
    """The fixed-point sum at twist n from the side tables of one draw: each
    length split's integer numerator, scaled, over M0_l Minf_l."""
    zero, infinity, scales, denominator = tables
    exponent = l * r
    total = 0
    for k, scale in enumerate(scales):
        shift = n * w * (l - k)
        numerator = 0
        for u, s0 in zero[k]:
            s0 += shift
            inner = 0
            for v, sinf in infinity[l - k]:
                inner += v * (s0 + sinf) ** exponent
            numerator += u * inner
        total += scale * numerator
    return Fraction(total, denominator)


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
    # the compositions of each length k <= l into r parts, shared by the draws
    by_length = [list(compositions(k, r)) for k in range(l + 1)]
    bound = max(2 * r * (r - 1) * (2 * l - 1), 16)  # R: a draw fails with probability <= 1/4
    per_draw, taken = [], []
    for index in range(_DRAWS):
        for attempt in range(200):
            wt = _draw(seed, 7919 * index + attempt, r, bound, taken)
            try:
                tables = _side_tables(a, l, wt, by_length)
                break
            except NonGenericWeightsError:
                continue
        else:
            raise CrossCheckError("could not find generic weights")
        taken.append(wt.w)
        per_draw.append([_table_sum(tables, r, l, n, wt.w) for n in ns])
    out = []
    for n, (first, *others) in zip(ns, zip(*per_draw)):
        for i, value in enumerate(others, 1):
            confirm(first, value, "weight draws disagree: draw 0 vs draw i", n=n, i=i)
        if first.denominator != 1:
            raise CrossCheckError(f"localised degree is not an integer: {first}")
        out.append(first)
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
    routes = "localised degree polynomial fails at the verification point: interpolant vs sum"
    confirm(poly.evaluate(l + 1), values[l + 1][1], routes, r=r, a=a, l=l, n=l + 1)
    return poly
