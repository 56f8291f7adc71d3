"""Classes on symmetric products, represented by invariant classes on S^l.

A class gamma on the l-th symmetric product of S is stored as its pullback
to S^l, which is a block-permutation-invariant element of the l-fold power
ring.  Under this dictionary a pushforward from S^l becomes the sum over
all block permutations, and the symmetric-product integral is 1/l! times
the S^l integral.

The module provides the explicit multinomial classes attached to a split
bundle, the leading term of the degree of the Pluecker embedding, the
twisting identity, multi-divisor integrals, Beauville's K3 evaluation, the
coefficient extraction for the projective line, and a two-point certificate
for membership in the span of diagonal pushforwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Sequence

from .errors import CrossCheckError, DomainError
from .exactpoly import (
    DegreePolynomial,
    TruncPoly,
    binomial,
    block_products,
    compositions,
    map_blocks,
    move_fields,
    permute_blocks,
)
from .varieties import (
    SpaceDescriptor,
    SplitBundle,
    boxsum,
    diagonal_pushforward,
    integrate,
    integrate_product,
    power_ring,
    ring_of,
    segre_class,
    segre_total,
    twist,
)

__all__ = [
    "SymClassRep",
    "nu_class",
    "integrate_sym",
    "leading_term",
    "nu_twist_check",
    "multint",
    "MembershipCertificate",
    "diagonal_membership",
    "beauville_k3",
    "mu_p1_coeffs",
]


@dataclass(frozen=True)
class SymClassRep:
    """Invariant representative on S^l of a class on the symmetric product.

    Each class is checked once, when it is built; arithmetic and integrals
    act on `rep` directly.
    """

    rep: TruncPoly

    @property
    def l(self) -> int:
        """The number of points, the block count of the representative's ring."""
        return len(self.rep.ring.blocks)

    def __post_init__(self):
        if not self.rep.is_homogeneous():
            raise CrossCheckError("symmetric-product representative is not homogeneous")
        for m in range(self.l - 1):
            sigma = list(range(self.l))
            sigma[m], sigma[m + 1] = sigma[m + 1], sigma[m]
            if permute_blocks(self.rep, sigma) != self.rep:
                raise CrossCheckError("representative is not block-permutation invariant")


def nu_class(S: SpaceDescriptor, E: SplitBundle, l: int, k: int) -> SymClassRep:
    """Multinomial Segre-class combination attached to a split bundle.

    Representative on S^l:
        (-1)^k sum over ordered tuples (k_1..k_l) with sum k of
        (l(r-1)+k)! / prod (r-1+k_m)!  times  s_{k_1}(E) x ... x s_{k_l}(E).
    """
    d = S.dimension
    if not 0 <= k <= l * d:
        raise DomainError("k out of range")
    r = E.rank
    target = power_ring(S, l)
    segre_E = segre_total(E)
    segre = [segre_E.graded_part(i) for i in range(min(k, d) + 1)]
    placed: dict[tuple[int, int], TruncPoly] = {}  # s_p(E) in block m, placed once
    weight_num = factorial(l * (r - 1) + k)
    terms = []
    for parts in compositions(k, l):
        if any(p >= len(segre) for p in parts):
            continue
        for m, p in enumerate(parts):
            if p and (m, p) not in placed:
                placed[m, p] = map_blocks(segre[p], target, (m,))
        weight = Fraction(weight_num, prod(factorial(r - 1 + p) for p in parts))
        terms.append(((-1) ** k * weight, [placed[m, p] for m, p in enumerate(parts) if p]))
    return SymClassRep(block_products(target, terms))


def integrate_sym(S: SpaceDescriptor, rep: SymClassRep) -> Fraction:
    """Integral over the symmetric product: 1/l! times the S^l integral."""
    return integrate(S, rep.rep) / factorial(rep.l)


def leading_term(S: SpaceDescriptor, E: SplitBundle, Lc1: TruncPoly, l: int) -> Fraction:
    """Leading part of the Pluecker degree for l points.

    Closed form (-1)^{ld} (lp)!/(l! p!^l) (int_S s_d(E twisted))^l, asserted
    against the symmetric-product integral of the top multinomial class.
    """
    if l < 1:
        raise DomainError("l must be positive")
    d = S.dimension
    r = E.rank
    p = r - 1 + d
    EL = twist(E, Lc1)
    sd = integrate(S, segre_class(EL, d))
    closed = (
        Fraction(-1) ** (l * d)
        * Fraction(factorial(l * p), factorial(l) * factorial(p) ** l)
        * sd**l
    )
    via_nu = integrate_sym(S, nu_class(S, EL, l, l * d))
    if closed != via_nu:
        raise CrossCheckError(f"leading term mismatch: closed {closed}, multinomial {via_nu}")
    return closed


def nu_twist_check(S: SpaceDescriptor, E: SplitBundle, Lc1: TruncPoly, l: int, k: int) -> SymClassRep:
    """Return nu of the twisted bundle and assert the twisting identity

    nu_k(E twisted) = sum_j binom(l(r-1)+k, k-j) c1(L)^{(l), k-j} nu_j(E),
    where the symmetrised divisor acts as the block sum of Lc1.
    """
    r = E.rank
    twisted = nu_class(S, twist(E, Lc1), l, k)
    box = boxsum(S, l, Lc1)
    expected = TruncPoly.zero(power_ring(S, l))
    for j in range(k + 1):
        expected = (
            expected
            + binomial(l * (r - 1) + k, k - j) * box ** (k - j) * nu_class(S, E, l, j).rep
        )
    if twisted.rep != expected:
        raise CrossCheckError("twisting identity failed for nu classes")
    return twisted


def multint(
    S: SpaceDescriptor,
    E: SplitBundle,
    l: int,
    divisors: Sequence[TruncPoly],
    mu: Sequence[SymClassRep],
) -> Fraction:
    """Integral of a product of lp distinct tautological divisor classes.

    Expands through elementary symmetric polynomials of the symmetrised
    divisors against the pushforward classes mu[k], k = 0..ld.
    """
    d = S.dimension
    r = E.rank
    p = r - 1 + d
    if len(divisors) != l * p:
        raise DomainError(f"expected {l * p} divisors, got {len(divisors)}")
    if len(mu) != l * d + 1:
        raise DomainError(f"expected {l * d + 1} pushforward classes, got {len(mu)}")
    target = power_ring(S, l)
    boxes = [boxsum(S, l, D) for D in divisors]
    # elementary symmetric polynomials e_0..e_{ld} of the box sums
    top = l * d
    elementary = [TruncPoly.zero(target) for _ in range(top + 1)]
    elementary[0] = TruncPoly.one(target)
    for x in boxes:
        for j in range(min(top, len(boxes)), 0, -1):
            elementary[j] = elementary[j] + elementary[j - 1] * x
    total = Fraction(0)
    for k in range(top + 1):
        sigma = elementary[top - k]
        if sigma.is_zero():
            continue
        total += integrate_product(S, sigma, mu[k].rep)
    return total / factorial(l)


@dataclass(frozen=True)
class MembershipCertificate:
    """Membership of a two-point class in the diagonal span: the expressing
    coefficients, or a witness functional that kills the span but not it."""

    member: bool
    coefficients: tuple[tuple[str, Fraction], ...] | None
    witness: tuple[tuple[str, Fraction], ...] | None

    def to_json(self) -> dict:
        out: dict = {"member": self.member}
        if self.coefficients is not None:
            out["coefficients"] = {label: str(c) for label, c in self.coefficients}
        if self.witness is not None:
            out["witness"] = {mono: str(c) for mono, c in self.witness}
        return out


def _ring_monomials(ring, degree: int):
    ranges = [range(t) for t in ring.truncations]
    for mono in itertools.product(*ranges):
        if sum(mono) == degree:
            yield mono


def diagonal_membership(S: SpaceDescriptor, rep: SymClassRep) -> MembershipCertificate:
    """Decide whether a class on S x S lies in the span of the symmetrised
    diagonal pushforwards Sym(Delta_*(m)) = 2 Delta_*(m), m a monomial of S.

    pi_1* is a left inverse of Delta_* (projection formula), so rep is a
    member exactly when rep = Delta_*(beta) for beta = pi_1*(rep); the
    coefficient labelled m is then beta_m / 2.  Otherwise let mu be the
    first monomial where rep and Delta_*(beta) differ: the witness is
    x -> coeff_mu(x - Delta_*(pi_1*(x))), weight 1 on mu and
    -coeff_mu(Delta_*(nu)) on nu (x) top for each monomial nu of S of
    degree deg(mu) - dim(S).
    """
    if rep.l != 2:
        raise DomainError("membership is only decided for 2 points")
    square = rep.rep.ring
    if square != power_ring(S, 2):
        raise DomainError("membership needs a class on the square of the space")
    ring = ring_of(S)
    # pi_1*: the terms at the top monomial of block 2, block 1 moved onto S
    top = tuple(square.truncations[g] - 1 for g in square.blocks[1])
    moves = list(zip(square.blocks[0], ring.blocks[0]))
    beta = move_fields(rep.rep, ring, moves, list(zip(square.blocks[1], top)))
    residual = rep.rep - diagonal_pushforward(S, beta)
    if residual.is_zero():
        coefficients = tuple((ring.monomial_str(m), c / 2) for m, c in beta.sorted_terms())
        return MembershipCertificate(True, coefficients, None)
    mu, _ = next(residual.sorted_terms())
    weights = {mu: Fraction(1)}
    for nu in _ring_monomials(ring, sum(mu) - S.dimension):
        w = diagonal_pushforward(S, TruncPoly(ring, [(nu, 1)])).coefficient(mu)
        if w:
            weights[nu + top] = -w
    witness = tuple((square.monomial_str(m), w) for m, w in sorted(weights.items()))
    return MembershipCertificate(False, None, witness)


def beauville_k3(l: int, c1sq: Fraction) -> Fraction:
    """Top self-intersection of the tautological determinant for l points on
    a K3 surface, as a function of the square of the polarising divisor."""
    if l < 1:
        raise DomainError("l must be positive")
    c1sq = Fraction(c1sq)
    return Fraction(factorial(2 * l), factorial(l) * 2**l) * (c1sq + 2 - 2 * l) ** l


def mu_p1_coeffs(r: int, l: int, poly: DegreePolynomial) -> list[Fraction]:
    """Recover the pushforward-class coefficients over the projective line.

    On P^1 every symmetric-product class is a rational multiple a_k of the
    k-th elementary symmetric polynomial, and the degree polynomial in the
    twist parameter n decomposes as
        sum_k n^{l-k} binom(lr, l-k) a_k / k!.
    """
    if r < 1 or l < 0:
        raise DomainError("need r >= 1 and l >= 0")
    if poly.degree > l:
        raise DomainError("degree polynomial has degree larger than l")
    coeffs = list(poly.coefficients) + [Fraction(0)] * (l + 1 - len(poly.coefficients))
    out = []
    for k in range(l + 1):
        out.append(factorial(k) * coeffs[l - k] / binomial(l * r, l - k))
    return out
