"""Integrals over a product of projective spaces and over a projective
bundle on it by Bott's residue formula, in integers and with no Chow ring.

S = prod_f P^{d_f}, with the torus acting on factor f by the weights
0, 1, ..., d_f.  Its fixed points are q = (q_f), 0 <= q_f <= d_f.  At q the
hyperplane class h_f restricts to -q_f, so a divisor with coefficients v
restricts to -sum_f v_f q_f, and the tangent weights are j - q_f for
j != q_f.  A class alpha of top degree integrates to sum_q alpha|_q / e_q,
e_q the product of the tangent weights at q.

X = P(E), E = O(D_0) + ... + O(D_{r-1}) with integer roots, is linearised by
giving summand a the extra character a K, K = 1 + max |D_a|_q - D_b|_q| over
the fixed points q of S and the summands a, b.  Its fixed points are the
pairs (q, a).  There the relative hyperplane class z restricts to
chi_a(q) = a K + D_a|_q, as the relation prod_b (z - D_b) = 0 requires; the
tangent weights are those of S at q and the fibre weights chi_a - chi_b for
b != a, which the choice of K keeps nonzero.  No weight is drawn: any
linearisation with isolated fixed points gives the same exact sums.

Segre classes are s = 1 / c, so s_k restricts to h_k(-w), the complete
homogeneous symmetric polynomial in the negated weights w at the point: the
tangent weights for s_k of a space, the restricted roots for s_k of a bundle.

Each restricted class is one list of integers over the fixed points (a
column), and a product of classes is a product entry by entry.  A space keeps
N, the lcm of its e_p (prod_f d_f! on S), and its Segre columns weighted by
N / e_p, so an integral is one sum(map(mul, ...)) over the points.  The
integral of an integral class is an integer, so every such sum must be
divisible by N, and a class below top degree integrates to 0, so each
weighted Segre column of degree m < dim must sum to 0.  The second check is
made once per cached space and checks the Euler weights where N is too small
for the first to see much (N = 2 on P^1 x P^2).  A failure of either raises
`CrossCheckError`.  Rational inputs come
as integer vectors over one denominator t, and a sum of degree k in them is
divided back by t^k after that check.

The columns of a base (`_base`) and of a bundle on it (`_bundle`) are cached.
Each restricts the hyperplane classes itself, so a sign slip in one shows as
a mismatch against the other where `quot2` compares the Segre-pair table on S
with the fibre integrals over P(E).  This module imports neither `exactpoly`
nor `varieties`: its values check the Chow-ring kernel from outside.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product, repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import NamedTuple

from .errors import CrossCheckError

__all__ = ["localised_segre_pairs", "localised_fibre_integrals"]

Vector = tuple[int, ...]


class _Space(NamedTuple):
    """The fixed-point columns of one space."""

    generators: list[list[int]]  # the restriction of each ring generator
    den: int  # N, the lcm of the Euler weights e_p
    segre: list[list[int]]  # (N / e_p) s_m|_p for m = 0..dim, one column each


@lru_cache(maxsize=None)
def _fixed_points(dims: Vector) -> tuple[list[Vector], list[list[int]]]:
    """The fixed points q of prod_f P^{d_f} and its tangent weights as
    columns: for each factor f and i = 1..d_f, the weight j - q_f with
    j = q_f + i mod d_f + 1."""
    points = list(product(*(range(d + 1) for d in dims)))
    tangent = [
        [(q[f] + i) % (d + 1) - q[f] for q in points]
        for f, d in enumerate(dims)
        for i in range(1, d + 1)
    ]
    return points, tangent


def _complete(columns: list[list[int]], weights: list[list[int]]) -> list[list[int]]:
    """The columns h_k(-w), k < len(columns), continued from `columns`, the
    h_k of earlier weights, through the weight columns given, by
    h_k(w_1..w_i) = h_k(w_1..w_{i-1}) + w_i h_{k-1}(w_1..w_i)."""
    columns = list(columns)
    for w in weights:
        negated = [-x for x in w]
        for k in range(1, len(columns)):
            columns[k] = list(map(add, columns[k], map(mul, negated, columns[k - 1])))
    return columns


def _start(n: int, dim: int) -> list[list[int]]:
    """The columns h_k of no weights at n points, k = 0..dim."""
    return [[1] * n] + [[0] * n for _ in range(dim)]


def _space(
    generators: list[list[int]], tangent: list[list[int]], segre: list[list[int]]
) -> _Space:
    """The space with these tangent weight and Segre columns: the Euler
    weights e_p, their lcm N, and the Segre columns weighted by N / e_p.
    A class below top degree integrates to 0, so each weighted column but
    the last must sum to 0; a nonzero sum raises `CrossCheckError`."""
    euler = [1] * len(segre[0])
    for weights in tangent:
        euler = list(map(mul, euler, weights))
    den = lcm(*euler)
    weight = [den // e for e in euler]
    weighted = [list(map(mul, weight, column)) for column in segre]
    for m, column in enumerate(weighted[:-1]):
        total = sum(column)
        if total:
            raise CrossCheckError(
                f"Bott sum {total} of s_{m} is not 0, though s_{m} is below top degree"
            )
    return _Space(generators, den, weighted)


def _restrict(generators: list[list[int]], vector: Vector) -> list[int]:
    """The column of the divisor sum_i vector[i] g_i."""
    column = None
    for c, g in zip(vector, generators):
        if c:
            term = map(mul, repeat(c), g)
            column = list(term if column is None else map(add, column, term))
    return [0] * len(generators[0]) if column is None else column


@lru_cache(maxsize=None)
def _base(dims: Vector) -> _Space:
    """The columns of S = prod_f P^{d_f}."""
    points, tangent = _fixed_points(dims)
    hyperplanes = [[-q[f] for q in points] for f in range(len(dims))]  # h_f -> -q_f
    segre = _complete(_start(len(points), sum(dims)), tangent)
    return _space(hyperplanes, tangent, segre)


@lru_cache(maxsize=None)
def _bundle(dims: Vector, roots: tuple[Vector, ...]) -> _Space:
    """The columns of P(E) over prod_f P^{d_f}, E with the integer roots
    given; its points (q, a) run over q for a = 0, then for a = 1, and so on,
    and its generators are h_1, ..., h_k, then z."""
    points, tangent = _fixed_points(dims)
    hyperplanes = [[-q[f] for q in points] for f in range(len(dims))]  # h_f -> -q_f
    restricted = [_restrict(hyperplanes, v) for v in roots]
    K = 1 + max(max(at) - min(at) for at in zip(*restricted))
    chi = [[a * K + x for x in column] for a, column in enumerate(restricted)]
    r = len(roots)
    fibre = [
        list(chain.from_iterable(map(sub, chi[a], chi[(a + i) % r]) for a in range(r)))
        for i in range(1, r)
    ]
    generators = [h * r for h in hyperplanes] + [list(chain.from_iterable(chi))]
    # the base weights are the same at (q, a) for every a: their part of
    # the Segre columns is taken once over S and repeated
    base = _complete(_start(len(points), sum(dims) + r - 1), tangent)
    segre = _complete([column * r for column in base], fibre)
    return _space(generators, [w * r for w in tangent] + fibre, segre)


def _exact(total: int, den: int) -> int:
    """total / den, which must be an integer."""
    quotient, remainder = divmod(total, den)
    if remainder:
        raise CrossCheckError(
            f"Bott sum {total} is not divisible by {den}, the lcm of the Euler weights"
        )
    return quotient


def localised_segre_pairs(
    dims: Vector, roots: tuple[Vector, ...], twist: Vector, t: int
) -> tuple[list[list[int]], int, Fraction]:
    """The Segre-pair table P[k][j] = int_S s_k(S) s_{d-k-j}(EL) s_j(EL),
    S = prod_f P^{d_f} and EL the bundle with roots (root + twist) / t, as
    integer numerators over one denominator, and int_S s_d(EL).

    P[k][j] = P[k][d-k-j], so each unordered pair is summed once.  The sum
    of P[k][j] has degree d - k in the roots, so its numerator over t^d is
    the exact quotient times t^k."""
    base = _base(dims)
    d = sum(dims)
    restricted = [_restrict(base.generators, tuple(map(add, root, twist))) for root in roots]
    segre = _complete(_start(len(base.segre[0]), d), restricted)
    P = []
    for k, weighted in enumerate(base.segre):
        row = [0] * (d - k + 1)
        for j in range((d - k) // 2 + 1):
            i = d - k - j
            total = sum(map(mul, weighted, map(mul, segre[i], segre[j])))
            row[j] = row[i] = _exact(total, base.den) * t**k
        P.append(row)
    top = _exact(sum(map(mul, base.segre[0], segre[d])), base.den)
    den = t**d
    g = gcd(den, *(x for row in P for x in row))
    return [[x // g for x in row] for row in P], den // g, Fraction(top, den)


def localised_fibre_integrals(
    dims: Vector, roots: tuple[Vector, ...], divisor: Vector, t: int
) -> list[Fraction]:
    """I_m = int_X M^{D-m} s_m(X) for m = 0..D, D = dim X, with X = P(E) over
    prod_f P^{d_f} for E with the integer roots given, or X = prod_f P^{d_f}
    itself when there are none, and M the divisor with coefficients
    `divisor` / t over the generators of X (h_1, ..., h_k, then z)."""
    space = _bundle(dims, roots) if roots else _base(dims)
    D = len(space.segre) - 1
    M = _restrict(space.generators, divisor)
    power = [1] * len(M)
    out = [Fraction(0)] * (D + 1)
    for m in range(D, -1, -1):
        total = _exact(sum(map(mul, space.segre[m], power)), space.den)
        out[m] = Fraction(total, t ** (D - m))
        if m:
            power = list(map(mul, power, M))
    return out
