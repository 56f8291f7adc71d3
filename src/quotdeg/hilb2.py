"""Integrals over the Hilbert scheme of two points of a supported space X.

The length-2 Hilbert scheme is never modelled directly.  All computations
run on the blow-up of X x X along the diagonal, which double-covers X^[2]:
powers of the tautological divisor push down to X x X as explicit diagonal
classes, and every X^[2]-integral is half of the corresponding blow-up
integral.  The degree evaluator also carries a closed form in the Segre
classes of X and cross-checks it against the blow-up route on every call:
`closed_form` of the fibre integrals I_m = int_X M^{D-m} s_m(X)
(`fibre_integrals`).  Those are sums over the torus-fixed points of X by
Bott's formula (`bott.localised_fibre_integrals`), which read the divisor
and the bundle's roots as integer vectors and no class of the Chow-ring
kernel, so the closed route shares no ring code with the blow-up route and
checks it from outside.  `quot2`'s projective-bundle pipeline checks its own
closed I_m against `fibre_integrals` and takes `closed_form` of them.

The box powers (M boxplus M)^i on X x X are never built by products in the
square ring.  The two blocks commute, so
(M boxplus M)^i = sum_j binom(i, j) M^j (x) M^{i-j}.  The pair pushforward
table forms them as classes: the powers of M are taken on X and placed once
in each block of the square (`map_blocks`), and each term is one block
product (`block_products`) of two classes on disjoint generators, whose keys
just add to a normal form; the terms for different j have different degrees
in the first block, so they never collide.  The degree evaluator forms no
class on the square for them: every relation of the square ring acts within
one block, so int (alpha (x) beta) * c is read one block at a time on X (the
Kuenneth property, as in the `exactpoly` module docstring), and in
int (M boxplus M)^d (M boxplus M)^d only the pairs with j + j' = d have top
degree in each block, each a product of two integrals on X.  The blow-up
route takes its powers of M in the kernel; the closed route's are columns
at the fixed points.  The exceptional pushforwards vanish for 0 < m < dim X
and are the unit class for m = 0, so each pushed power is its box power
plus the products with the pushforwards e_m for m >= dim X.  The degree
evaluator sums all of those in one integer pass: the e_m are split once per
space into rows (k1, k2, numerator) over one table of the monomials of X,
grouped by m and the degree of k1 (`exactpoly.block_split`); per call each
monomial x^k of X is paired once with the complementary power of M, and each
row contributes its numerator times the two pairings.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .bott import localised_fibre_integrals
from .errors import DomainError, confirm
from .exactpoly import (
    BlockSplit,
    TruncPoly,
    binomial,
    block_products,
    block_split,
    map_blocks,
    top_pairing,
    top_pairings,
)
from .varieties import (
    ProjProduct,
    SpaceDescriptor,
    diagonal_pushforward,
    power_ring,
    ring_of,
    segre_scheme,
)

__all__ = [
    "blowup_power_pushforward",
    "pair_power_pushforward_table",
    "fibre_integrals",
    "closed_form",
    "hilb2_degree",
    "degree_from_integrals",
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


@lru_cache(maxsize=None)
def _exceptional_split(space: SpaceDescriptor) -> tuple[tuple[int, ...], BlockSplit]:
    """The powers m of the nonzero e_m = `blowup_power_pushforward`(space, m),
    m <= 2 dim X, and those classes split into their two blocks over one
    table of the monomials of X (`block_split`)."""
    exc = _exceptional(space, 2 * space.dimension)
    return tuple(exc), block_split(list(exc.values()), ring_of(space))


def fibre_integrals(space: SpaceDescriptor, divisor: TruncPoly) -> list[Fraction]:
    """I_m = int_X M^{D-m} s_m(X) for m = 0..D, D = dim X and M = `divisor`,
    by Bott's formula at the fixed points of X (`localised_fibre_integrals`),
    so no Chow-ring code: the divisor and the bundle's roots are read once,
    as integer vectors over their denominators."""
    _check_request(space, divisor, space.dimension)
    vector, t = divisor.linear_coefficients()
    if isinstance(space, ProjProduct):
        return localised_fibre_integrals(space.dims, (), vector, t)
    roots = []
    for root in space.bundle.roots:
        coefficients, den = root.linear_coefficients()
        if den != 1:
            raise DomainError("the roots of the bundle must be integral")
        roots.append(coefficients)
    return localised_fibre_integrals(space.base.dims, tuple(roots), vector, t)


def closed_form(dimension: int, integrals: list[Fraction]) -> Fraction:
    """(1/2) binom(2D, D) I_0^2 - 2^{D-1} sum_m binom(2D, D+m) 2^{-m} I_m,
    D = `dimension`, from the fibre integrals I_m, m = 0..D; with
    I_m = a_m / b over one denominator that is
    (binom(2D, D) 2^D a_0^2 - b sum_m binom(2D, D+m) 2^{2D-m} a_m) / (2^{D+1} b^2)."""
    D = dimension
    den = lcm(*(x.denominator for x in integrals))
    a = [x.numerator * (den // x.denominator) for x in integrals]
    series = sum(comb(2 * D, D + m) * 2 ** (2 * D - m) * a[m] for m in range(D + 1))
    return Fraction(comb(2 * D, D) * 2**D * a[0] ** 2 - den * series, 2 ** (D + 1) * den**2)


def hilb2_degree(space: SpaceDescriptor, divisor: TruncPoly) -> Fraction:
    """Top self-intersection number on X^[2] of the tautological divisor
    attached to a line bundle with first Chern class `divisor`.

    Two routes are evaluated and must agree exactly (`degree_from_integrals`):
    (a) the closed form
        (1/2) binom(2d, d) (int M^d)^2
        - 2^{d-1} sum_m binom(2d, d+m) 2^{-m} int M^{d-m} s_m(X),
        `closed_form` of the direct `fibre_integrals`, localised at the
        fixed points of X,
    (b) half the X x X integral of the pair pushforward in power 2d,
        (1/2) sum_m binom(2d, m) int (M boxplus M)^{2d-m} * e_m, e_m the
        blow-up pushforward of the m-th exceptional power, from this
        route's own powers of M (`_blowup_route`).
    """
    if space.dimension < 1:
        raise DomainError("the space must be positive-dimensional")
    return degree_from_integrals(space, divisor, fibre_integrals(space, divisor))


def degree_from_integrals(
    space: SpaceDescriptor, divisor: TruncPoly, integrals: list[Fraction]
) -> Fraction:
    """`hilb2_degree` on `fibre_integrals(space, divisor)` already taken:
    their `closed_form` vs the blow-up route, which reads none of them."""
    closed = closed_form(space.dimension, integrals)
    routes = "hilb2 degree routes disagree: closed form vs blow-up route"
    return confirm(closed, _blowup_route(space, divisor), routes, space=space, divisor=divisor)


def _blowup_route(space: SpaceDescriptor, divisor: TruncPoly) -> Fraction:
    """Route (b) of `hilb2_degree`,
    (1/2) sum_m binom(2d, m) int (M boxplus M)^{2d-m} * e_m, from its own
    powers of M, with (M boxplus M)^n = sum_j binom(n, j) M^j (x) M^{n-j}.

    The m = 0 term, e_0 = 1, is sum_j binom(d, j)^2 <M^j, M^{d-j}>^2 on X.
    For m >= d, e_m is homogeneous of degree m, and its term at
    x^k1 (x) x^k2 pairs only with j = d - deg k1 (the Kuenneth property of
    `block_split`), to phi(k1) phi(k2) with phi(k) = <M^{d - deg k}, x^k>;
    so the term of m is
        binom(2d, m) sum_{k1, k2} binom(2d - m, d - deg k1) e_m[k1, k2] phi(k1) phi(k2).
    The e_m are split into their blocks once per space (`_exceptional_split`),
    phi is computed once per monomial of X, and each term is summed in
    integers, one `Fraction` per m.  The e_m vanish for 0 < m < d, so the
    powers of M are needed only up to d.
    """
    d = space.dimension
    own = [TruncPoly.one(divisor.ring)]  # this route's own powers of M
    for _ in range(d):
        own.append(own[-1] * divisor)
    # int (M boxplus M)^d (M boxplus M)^d keeps the pairs with j + j' = d,
    # summed in integers over the pairings' one denominator q
    pairs = [top_pairing(own[j], own[d - j]) for j in range(d + 1)]
    q = lcm(*(x.denominator for x in pairs))
    n = [x.numerator * (q // x.denominator) for x in pairs]
    blowup = Fraction(sum(comb(d, j) ** 2 * n[j] * n[d - j] for j in range(d + 1)), q * q)
    ms, split = _exceptional_split(space)
    # phi(k) for each monomial x^k of the split, over one denominator
    pairings = [top_pairings(own[d - i], keys) for i, keys in enumerate(split.keys)]
    den = lcm(*(kd for kd, _ in pairings))
    phi = [v * (den // kd) for kd, nums in pairings for v in nums]
    for m, (e_den, groups) in zip(ms, split.classes):
        total = 0
        for i, rows in groups:
            group = 0
            it = iter(rows)
            for a, b, num in zip(it, it, it):
                group += num * phi[a] * phi[b]
            total += comb(2 * d - m, d - i) * group
        blowup += Fraction(comb(2 * d, m) * total, e_den * den * den)
    return Fraction(1, 2) * blowup
