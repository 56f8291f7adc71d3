"""Chow rings of the supported spaces and their characteristic-class calculus.

Supported spaces are finite products of projective spaces and projective
bundles P(E) over such a product, where E is split (a direct sum of line
bundles given by their Chern roots).  A class on a space is a `TruncPoly`
in the space's ring; the ring of a product of projective spaces has one
degree-1 generator h_i per factor with h_i^{d_i+1} = 0, and the ring of
P(E) adds the relative hyperplane class z subject to prod_i(z - D_i) = 0.

Sign conventions, fixed once and validated by the test suite:

* Segre classes satisfy s(V) c(V) = 1, so s_1 = -c_1.  s_k of a space
  means the Segre class of its tangent bundle.
* The bundle relation above encodes rank-1 quotients (Proj of Sym), so the
  fibre integral obeys f_* z^{r-1+k} = h_k(D_1..D_r) = (-1)^k s_k(E) and
  f_* z^{r-1} = 1.
* The relative tangent bundle of P(E) has total Chern class
  prod_i(1 + z - D_i).

Only split bundles are supported; by the splitting principle that covers
every formula in scope.  A natural extension point, deliberately not built,
is formal bundles described by a total Chern class alone.

Everything is pure and immutable; rings are memoised by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import DomainError
from .exactpoly import (
    Relation,
    RingDescriptor,
    TruncPoly,
    map_blocks,
    move_fields,
    series_inverse,
    top_pairing,
)

__all__ = [
    "ProjProduct",
    "ProjBundle",
    "SpaceDescriptor",
    "SplitBundle",
    "ring_of",
    "power_ring",
    "hyperplane",
    "zeta",
    "divisor_from_vector",
    "block_embed",
    "boxsum",
    "chern_total",
    "segre_total",
    "segre_class",
    "segre_scheme",
    "tangent_chern",
    "twist",
    "integrate",
    "integrate_product",
    "bundle_power_pushforward",
    "pullback_to_bundle",
    "diagonal_class",
    "diagonal_pushforward",
    "euler_number",
]


@dataclass(frozen=True)
class ProjProduct:
    """Product of projective spaces P^{d_1} x ... x P^{d_k}."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if any(d < 1 for d in self.dims):
            raise ValueError("factor dimensions must be positive")

    @property
    def dimension(self) -> int:
        return sum(self.dims)


@dataclass(frozen=True)
class SplitBundle:
    """Direct sum of line bundles, recorded by their Chern roots."""

    roots: tuple[TruncPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(self.roots))
        if not self.roots:
            raise ValueError("a split bundle needs at least one root")
        ring = self.roots[0].ring
        for root in self.roots:
            if root.ring != ring:
                raise ValueError("all roots must live in one ring")
            if not root.is_zero() and (not root.is_homogeneous() or root.total_degree() != 1):
                raise ValueError("each Chern root must be homogeneous of degree 1")

    @property
    def rank(self) -> int:
        return len(self.roots)


@dataclass(frozen=True)
class ProjBundle:
    """P(E) over a product of projective spaces; nesting is not allowed."""

    base: ProjProduct
    bundle: SplitBundle

    def __post_init__(self):
        if not isinstance(self.base, ProjProduct):
            raise DomainError("projective bundles are only supported over products of projective spaces")
        if self.bundle.roots[0].ring != ring_of(self.base):
            raise ValueError("bundle roots must live on the base")

    @property
    def dimension(self) -> int:
        return self.base.dimension + self.bundle.rank - 1


SpaceDescriptor = Union[ProjProduct, ProjBundle]


# -- ring construction ---------------------------------------------------


@lru_cache(maxsize=None)
def power_ring(space: SpaceDescriptor, l: int) -> RingDescriptor:
    """Ring of the l-fold product of a space, one block per factor.

    Hyperplane generators are numbered consecutively across blocks
    (h1..hk, h(k+1)..h(2k), ...); the bundle generator of block m is
    named z (l = 1) or zm.  A product of projective spaces is the case
    without z.
    """
    if l < 1:
        raise ValueError("l must be positive")
    bundle = space.bundle if isinstance(space, ProjBundle) else None
    dims = space.dims if bundle is None else space.base.dims
    k = len(dims)
    width = k + (bundle is not None)
    if bundle is not None:
        # block-local terms of z^r = sum_i (-1)^(i-1) c_i(E) z^(r-i)
        r = bundle.rank
        chern = chern_total(bundle)
        local = [
            (mono + (r - i,), Fraction(-1) ** (i - 1) * coeff)
            for i in range(1, r + 1)
            for mono, coeff in chern.graded_part(i).terms.items()
        ]
    names, truncs, blocks, relations = [], [], [], []
    for m in range(l):
        names.extend(f"h{m * k + j + 1}" for j in range(k))
        truncs.extend(d + 1 for d in dims)
        blocks.append(tuple(range(m * width, (m + 1) * width)))
        if bundle is not None:
            names.append("z" if l == 1 else f"z{m + 1}")
            truncs.append(r)
            before, after = (0,) * (m * width), (0,) * ((l - 1 - m) * width)
            terms = tuple((before + mono + after, coeff) for mono, coeff in local)
            relations.append(Relation(m * width + k, r, terms))
    return RingDescriptor(tuple(names), tuple(truncs), tuple(blocks), tuple(relations))


def ring_of(space: SpaceDescriptor) -> RingDescriptor:
    return power_ring(space, 1)


def hyperplane(space: SpaceDescriptor, i: int) -> TruncPoly:
    """Hyperplane class of the i-th projective factor (0-based)."""
    return TruncPoly.generator(ring_of(space), i)


def zeta(space: ProjBundle) -> TruncPoly:
    """Relative hyperplane class c_1(O(1)) of a projective bundle."""
    if not isinstance(space, ProjBundle):
        raise DomainError("zeta is only defined on projective bundles")
    return TruncPoly.generator(ring_of(space), len(space.base.dims))


def divisor_from_vector(space: SpaceDescriptor, coeffs: Sequence) -> TruncPoly:
    """Degree-1 class from integer coefficients over the ring generators,
    built in its one degree bucket (`TruncPoly.linear`)."""
    ring = ring_of(space)
    if len(coeffs) != ring.ngens:
        raise DomainError(f"divisor vector must have length {ring.ngens}")
    return TruncPoly.linear(ring, coeffs)


def block_embed(space: SpaceDescriptor, l: int, m: int, a: TruncPoly) -> TruncPoly:
    """Insert a class on the space into block m of the l-fold product ring."""
    if a.ring != ring_of(space):
        raise DomainError("class does not live on the given space")
    return map_blocks(a, power_ring(space, l), (m,))


def boxsum(space: SpaceDescriptor, l: int, a: TruncPoly) -> TruncPoly:
    """Sum of the class inserted into every block (pullback of a symmetrised divisor)."""
    placed = (block_embed(space, l, m, a) for m in range(l))
    return sum(placed, TruncPoly.zero(power_ring(space, l)))


def _power_of(space: SpaceDescriptor, a: TruncPoly, where: str) -> int:
    """The block count l of the class's ring, which must be the ring of the
    l-fold product of the space."""
    l = len(a.ring.blocks)
    if not l or a.ring != power_ring(space, l):
        raise DomainError(f"class does not live on the {where}")
    return l


def pullback_to_bundle(space: ProjBundle, a: TruncPoly) -> TruncPoly:
    """Pull a class back from the l-fold base product to the l-fold bundle product."""
    l = _power_of(space.base, a, "base product")
    k = len(space.base.dims)
    moves = [(m * k + j, m * (k + 1) + j) for m in range(l) for j in range(k)]
    return move_fields(a, power_ring(space, l), moves)


# -- characteristic classes ----------------------------------------------


def chern_total(E: SplitBundle) -> TruncPoly:
    """Total Chern class prod (1 + D_i)."""
    total = TruncPoly.one(E.roots[0].ring)
    for root in E.roots:
        total = total * (TruncPoly.one(root.ring) + root)
    return total


def segre_total(E: SplitBundle) -> TruncPoly:
    """Total Segre class, the inverse of the total Chern class."""
    return series_inverse(chern_total(E))


def segre_class(E: SplitBundle, k: int) -> TruncPoly:
    if k < 0:
        return TruncPoly.zero(E.roots[0].ring)
    return segre_total(E).graded_part(k)


@lru_cache(maxsize=None)
def tangent_chern(space: SpaceDescriptor) -> TruncPoly:
    """Total Chern class of the tangent bundle."""
    if isinstance(space, ProjProduct):
        ring = ring_of(space)
        total = TruncPoly.one(ring)
        for i, d in enumerate(space.dims):
            total = total * (TruncPoly.one(ring) + TruncPoly.generator(ring, i)) ** (d + 1)
        return total
    base_part = pullback_to_bundle(space, tangent_chern(space.base))
    z = zeta(space)
    relative = TruncPoly.one(z.ring)
    for root in space.bundle.roots:
        relative = relative * (TruncPoly.one(z.ring) + z - pullback_to_bundle(space, root))
    return base_part * relative


@lru_cache(maxsize=None)
def segre_scheme(space: SpaceDescriptor) -> TruncPoly:
    """Total Segre class of the space (inverse total tangent Chern class)."""
    return series_inverse(tangent_chern(space))


def twist(E: SplitBundle, Lc1: TruncPoly) -> SplitBundle:
    """Tensor by the line bundle with first Chern class Lc1 (roots shift)."""
    if not Lc1.is_zero() and (not Lc1.is_homogeneous() or Lc1.total_degree() != 1):
        raise DomainError("twist divisor must be homogeneous of degree 1")
    return SplitBundle(tuple(root + Lc1 for root in E.roots))


# -- integration and pushforwards ----------------------------------------


def integrate(space: SpaceDescriptor, a: TruncPoly) -> Fraction:
    """Integral over the l-fold product of the space, l being the block
    count of the class's ring.  On every supported ring the integral is the
    coefficient of the one normal-form monomial of top degree: every
    exponent at its truncation minus one, so z^{r-1} and the top base
    monomial in every block."""
    _power_of(space, a, "l-fold product")
    return a.coefficient(tuple(t - 1 for t in a.ring.truncations))


def integrate_product(space: SpaceDescriptor, a: TruncPoly, b: TruncPoly) -> Fraction:
    """Integral of a * b over the l-fold product of the space, without
    forming the product: `top_pairing` reads off the top coefficient that
    `integrate` would read from the product."""
    _power_of(space, a, "l-fold product")
    if b.ring != a.ring:
        raise DomainError("class does not live on the l-fold product")
    return top_pairing(a, b)


def bundle_power_pushforward(space: ProjBundle, a: TruncPoly) -> TruncPoly:
    """Pushforward along (P(E) -> base)^l: the coefficient of z_m^{r-1} in
    every block, as a class on the l-fold base product."""
    l = _power_of(space, a, "l-fold bundle product")
    k = len(space.base.dims)
    r = space.bundle.rank
    width = k + 1
    moves = [(m * width + j, m * k + j) for m in range(l) for j in range(k)]
    fixed = [(m * width + k, r - 1) for m in range(l)]
    return move_fields(a, power_ring(space.base, l), moves, fixed)


# -- diagonals -------------------------------------------------------------


@lru_cache(maxsize=None)
def diagonal_class(space: SpaceDescriptor) -> TruncPoly:
    """Class of the diagonal inside the square of the space.

    For a product of projective spaces this is the Kuenneth expression
    prod_i sum_a h_i^a (x) h_i^{d_i - a}.  For P(E) it is the pullback of the
    base diagonal times the top Chern class of K_1^v (x) O_2(1), where K is
    the kernel of the tautological quotient, c(K) = c(E)/(1 + z).
    """
    square = power_ring(space, 2)
    if isinstance(space, ProjProduct):
        k = len(space.dims)
        total = TruncPoly.one(square)
        for i, d in enumerate(space.dims):
            g1 = TruncPoly.generator(square, i)
            g2 = TruncPoly.generator(square, k + i)
            factor = TruncPoly.zero(square)
            for a in range(d + 1):
                factor = factor + g1**a * g2 ** (d - a)
            total = total * factor
        return total
    r = space.bundle.rank
    k = len(space.base.dims)
    base_diag = pullback_to_bundle(space, diagonal_class(space.base))
    z1 = TruncPoly.generator(square, k)
    z2 = TruncPoly.generator(square, k + 1 + k)
    chern_E1 = pullback_to_bundle(space, block_embed(space.base, 2, 0, chern_total(space.bundle)))
    kernel_chern = chern_E1 * series_inverse(TruncPoly.one(square) + z1)
    fibre = TruncPoly.zero(square)
    for i in range(r):
        fibre = fibre + Fraction(-1) ** i * kernel_chern.graded_part(i) * z2 ** (r - 1 - i)
    return base_diag * fibre


def diagonal_pushforward(space: SpaceDescriptor, a: TruncPoly) -> TruncPoly:
    """Pushforward of a class along the diagonal embedding into the square."""
    return block_embed(space, 2, 0, a) * diagonal_class(space)


def euler_number(space: SpaceDescriptor) -> Fraction:
    """Integral of the top Chern class of the tangent bundle."""
    dim = space.dimension
    return integrate(space, tangent_chern(space).graded_part(dim))

