"""Pluecker degree of the two-point Quot scheme via three independent
pipelines, plus the class-level pushforward and diagonal-defect classes.

Pipelines, which must agree exactly on every instance:

* a closed formula in Segre classes of S and the twisted bundle, with
  coefficients from the Jacobi-sum module, on the Segre-pair table
  P[k][j] = int s_k(S) s_{d-k-j}(EL) s_j(EL) (`_segre_pairs`), each pair
  weighted by a_j + a_i, read from a table per (r, d) in which every
  a-value is evaluated once per process, so each is cross-checked;
* the projective-bundle route: `hilb2.closed_form` of the fibre integrals
  I_m over P(E twisted), each I_m computed both from the same Segre-pair
  table on S and from its definition over P(E) with O(1) twisted by L,
  which is P(E twisted) (`hilb2.fibre_integrals`); so one P(E) serves
  every twist;
* the geometric route: the degree of the two-point Hilbert scheme of P(E)
  for the divisor (pullback of c1 L) + z, whose closed route reads the
  same direct I_m and whose blow-up route shares nothing with the others.

The Segre-pair table and the direct I_m are sums over torus-fixed points
(`bott`): the table localises on S, with the twist added to the roots
there, and the direct I_m localise on P(E), with L pulled back.  Neither
touches the Chow-ring kernel, which only the blow-up route uses, so every
value of `degree2_all` and of the geometric pipeline is a localised route
confirmed against a kernel route.  `degree2_all` computes the table and the
direct I_m once; no compared pair of values shares either of them.

The class-level computation pushes powers of the tautological divisor of
the two-point Hilbert scheme of P(E) down to S x S; the double-cover factor
of the blow-up model cancels against the symmetrisation doubling, and the
result is asserted to be block-swap invariant rather than trusting that
cancellation silently.  In degree d the diagonal span holds one class, the
symmetrised diagonal 2 Delta labelled "1", so the degree-d membership
certificate carries the defect constant c with delta_d = c * 2 Delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .bott import localised_segre_pairs
from .errors import CrossCheckError, DomainError, confirm
from .exactpoly import (
    DegreePolynomial,
    TruncPoly,
    block_split,
    poly_interpolate,
    top_pairings,
)
from .hilb2 import (
    closed_form,
    degree_from_integrals,
    fibre_integrals,
    hilb2_degree,
    pair_power_pushforward_table,
)
from .jacobi import a_coeff
from .symquot import (
    MembershipCertificate,
    SymClassRep,
    diagonal_membership,
    nu_class,
)
from .varieties import (
    ProjBundle,
    ProjProduct,
    SplitBundle,
    bundle_power_pushforward,
    divisor_from_vector,
    pullback_to_bundle,
    ring_of,
    segre_class,  # unused here; perfbench's tracer test wraps quot2.segre_class
    zeta,
)

__all__ = [
    "Quot2Instance",
    "degree2_formula",
    "degree2_projbundle",
    "degree2_geometric",
    "degree2_all",
    "degree2_polynomial",
    "mu2_classes",
    "delta2_classes",
]


@dataclass(frozen=True)
class Quot2Instance:
    """Input data: base space S, split bundle E on S, twisting divisor c1(L)."""

    S: ProjProduct
    E: SplitBundle
    Lc1: TruncPoly

    def __post_init__(self):
        if not isinstance(self.S, ProjProduct):
            raise DomainError("the base must be a product of projective spaces")
        if self.S.dimension < 1:
            raise DomainError("the base must be positive-dimensional")
        ring = ring_of(self.S)
        if self.E.roots[0].ring != ring or self.Lc1.ring != ring:
            raise DomainError("bundle and divisor must live on the base")
        if not self.Lc1.is_zero() and (
            not self.Lc1.is_homogeneous() or self.Lc1.total_degree() != 1
        ):
            raise DomainError("twist divisor must be homogeneous of degree 1")

    @property
    def d(self) -> int:
        return self.S.dimension

    @property
    def p(self) -> int:
        return self.E.rank - 1 + self.d


# `_segre_pairs`: numerators P[k][j], their denominator, and int s_d(EL)
SegrePairs = tuple[list[list[int]], int, Fraction]


def degree2_formula(inst: Quot2Instance) -> Fraction:
    """Closed formula pipeline.

    (1/2) binom(2p, p) (int s_d(EL))^2
    - 2^{p-1} sum_k int s_k(S) * sum_j a_j(r,d,k) s_{d-k-j}(EL) s_j(EL),
    where EL is the twisted bundle.
    """
    return _formula(inst, _segre_pairs(inst))


def _segre_pairs(inst: Quot2Instance) -> SegrePairs:
    """The pair integrals P[k][j] = int s_k(S) s_{d-k-j}(EL) s_j(EL) of the
    twisted bundle EL, with roots D_i + c1(L), as integer numerators over one
    denominator, and int s_d(EL), by Bott's formula at the fixed points of S
    (`localised_segre_pairs`).  The roots and the twist are read once, as
    integer vectors over their common denominator."""
    read = [c.linear_coefficients() for c in (*inst.E.roots, inst.Lc1)]
    t = lcm(*(den for _, den in read))
    *roots, L = (tuple(x * (t // den) for x in vector) for vector, den in read)
    return localised_segre_pairs(inst.S.dims, tuple(roots), L, t)


def _formula(inst: Quot2Instance, pairs: SegrePairs) -> Fraction:
    """The formula on the Segre-pair table, each unordered pair weighted by
    `_pair_weights`, in integers over the weights' denominator w: with
    int s_d(EL) = a / b it is
    (binom(2p, p) a^2 w den - 2^p correction b^2) / (2 w den b^2)."""
    P, den, sd = pairs
    p = inst.p
    weights = _pair_weights(inst.E.rank, inst.d)
    w = lcm(*(x.denominator for row in weights for x in row))
    correction = sum(
        x.numerator * (w // x.denominator) * P[k][j]
        for k, row in enumerate(weights)
        for j, x in enumerate(row)
    )
    a, b = sd.numerator, sd.denominator
    num = comb(2 * p, p) * a * a * w * den - 2**p * correction * b * b
    return Fraction(num, 2 * w * den * b * b)


@lru_cache(maxsize=None)
def _pair_weights(r: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """The weights of `_formula`: for each k, and each j <= i with
    i = d - k - j, a_j(r, d, k) + a_i(r, d, k), or a_j alone when i = j.
    Every a-value is evaluated once, by `a_coeff`, which compares its two
    routes on each call."""
    table = []
    for k in range(d + 1):
        row = []
        for j in range((d - k) // 2 + 1):
            i = d - k - j
            weight = a_coeff(r, d, k, j)
            if i != j:
                weight += a_coeff(r, d, k, i)
            row.append(weight)
        table.append(tuple(row))
    return tuple(table)


def _fibre_integrals_closed(inst: Quot2Instance, pairs: SegrePairs) -> list[Fraction]:
    """I_m for m = 0..p from the closed double sum in Segre classes: an
    integer combination of the pair integrals P[k][j] for k <= m.  The
    terms with k > m vanish, since each has a negative lower binomial index
    m - d + j <= m - k."""
    P, den, _ = pairs
    out = []
    for row in _fibre_weights(inst.E.rank, inst.d):
        value = 0
        it = iter(row)
        for k, j, weight in zip(it, it, it):
            value += weight * P[k][j]
        out.append(Fraction(value, den))
    return out


@lru_cache(maxsize=None)
def _fibre_weights(r: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The integer weights of `_fibre_integrals_closed`: for m = 0..p, the
    flat rows k, j, (-1)^{m+k+j} binom(r-1+m-k, m-d+j) with k <= min(m, d)
    and max(0, d-m) <= j <= d-k, once per (r, d)."""
    return tuple(
        tuple(
            x
            for k in range(min(m, d) + 1)
            for j in range(max(0, d - m), d - k + 1)
            for x in (k, j, (-1) ** (m + k + j) * comb(r - 1 + m - k, m - d + j))
        )
        for m in range(r + d)
    )


def _bundle_divisor(inst: Quot2Instance) -> tuple[ProjBundle, TruncPoly]:
    """X = P(E), one for every twist, and M = (pullback of c1 L) + z on it,
    the relative hyperplane class of P(E twisted)."""
    X = ProjBundle(inst.S, inst.E)
    return X, pullback_to_bundle(X, inst.Lc1) + zeta(X)


def degree2_projbundle(inst: Quot2Instance) -> Fraction:
    """Projective-bundle pipeline: `closed_form` of the closed I_m.

    Each closed I_m is checked against its definition as an integral over
    P(E twisted), taken as P(E) with O(1) twisted by L: the direct
    `fibre_integrals` of M = (pullback of c1 L) + z, which route (a) of
    `hilb2_degree` also reads.  The closed side twists the roots at the
    fixed points of S and the direct side pulls L back to P(E), so a wrong
    twist shows as a mismatch, which aborts the run.
    """
    X, M = _bundle_divisor(inst)
    return _projbundle(inst, _segre_pairs(inst), fibre_integrals(X, M))


def _projbundle(inst: Quot2Instance, pairs: SegrePairs, direct: list[Fraction]) -> Fraction:
    """Check closed vs direct I_m for m = 0..p, then closed I_0 vs
    (-1)^d int s_d(EL), and take `closed_form` of the closed I_m."""
    closed = _fibre_integrals_closed(inst, pairs)
    where = {"space": inst.S, "bundle": inst.E, "twist": inst.Lc1}
    for m in range(inst.p + 1):
        confirm(closed[m], direct[m], f"fibre integral I_{m} mismatch: closed vs direct", **where)
    routes = "I_0 does not reduce to the top Segre integral: closed I_0 vs (-1)^d int s_d"
    confirm(closed[0], (-1) ** inst.d * pairs[2], routes, **where)
    return closed_form(inst.p, closed)


def degree2_geometric(inst: Quot2Instance) -> Fraction:
    """Geometric pipeline: two-point Hilbert scheme of P(E) with the divisor
    (pullback of the twist) + relative hyperplane class."""
    return hilb2_degree(*_bundle_divisor(inst))


def degree2_all(inst: Quot2Instance) -> Fraction:
    """Run all three pipelines on one Segre-pair table and one set of direct
    I_m, and insist on exact agreement.  The checks fire in this order:
    closed vs direct I_m for m = 0..p, I_0 vs the top Segre integral,
    closed form vs blow-up route (`degree_from_integrals`), formula vs
    projective bundle, formula vs geometric."""
    pairs = _segre_pairs(inst)
    formula = _formula(inst, pairs)
    X, M = _bundle_divisor(inst)
    direct = fibre_integrals(X, M)
    projbundle = _projbundle(inst, pairs, direct)
    geometric = degree_from_integrals(X, M, direct)
    where = {"space": inst.S, "bundle": inst.E, "twist": inst.Lc1}
    confirm(formula, projbundle, "degree pipelines disagree: formula vs projective bundle", **where)
    return confirm(formula, geometric, "degree pipelines disagree: formula vs geometric", **where)


def degree2_polynomial(
    S: ProjProduct, E: SplitBundle, direction: TruncPoly | None = None
) -> DegreePolynomial:
    """Degree as an exact polynomial in the twist parameter n.

    Interpolates the closed-formula pipeline at n = 0..2d, verifies the
    interpolant at n = 2d+1, and checks the coefficients of n^{2d-j} for
    j < d against the multinomial-class prediction.
    """
    if direction is None:
        direction = divisor_all_ones(S)
    d = S.dimension
    p = E.rank - 1 + d
    values = []
    for n in range(2 * d + 2):
        inst = Quot2Instance(S, E, n * direction)
        values.append((n, degree2_formula(inst)))
    poly = poly_interpolate(values[: 2 * d + 1])
    where = {"space": S, "bundle": E, "direction": direction}
    routes = "degree polynomial fails at the verification point: interpolant vs formula"
    confirm(poly.evaluate(2 * d + 1), values[2 * d + 1][1], routes, n=2 * d + 1, **where)
    coeffs = list(poly.coefficients) + [Fraction(0)] * (2 * d + 1 - len(poly.coefficients))
    # nu_j pairs with (H boxplus H)^m = sum_a binom(m, a) H^a (x) H^{m-a}, from
    # the check's own powers of H.  nu_j is homogeneous of degree j, so its term
    # at x^k1 (x) x^k2 meets only a = d - deg k1 (the Kuenneth property), to
    # phi(k1) phi(k2) with phi(k) = <H^{d - deg k}, x^k>, read once per monomial
    H = [TruncPoly.one(direction.ring)]
    for _ in range(d):
        H.append(H[-1] * direction)
    split = block_split([nu_class(S, E, 2, j).rep for j in range(d)], ring_of(S))
    pairings = [top_pairings(H[d - i], keys) for i, keys in enumerate(split.keys)]
    den = lcm(*(kd for kd, _ in pairings))
    phi = [v * (den // kd) for kd, nums in pairings for v in nums]
    for j, (nu_den, groups) in enumerate(split.classes):
        m = 2 * d - j
        total = 0
        for i, rows in groups:
            it = iter(rows)
            total += comb(m, d - i) * sum(num * phi[a] * phi[b] for a, b, num in zip(it, it, it))
        predicted = Fraction(comb(2 * p, m) * total, 2 * nu_den * den * den)
        routes = f"coefficient of n^{m} disagrees with the multinomial prediction: formula vs nu"
        confirm(coeffs[m], predicted, routes, **where)
    return poly


def divisor_all_ones(S: ProjProduct) -> TruncPoly:
    """Sum of the hyperplane classes, the default polarisation direction."""
    return divisor_from_vector(S, [1] * ring_of(S).ngens)


def mu2_classes(S: ProjProduct, E: SplitBundle, k_max: int | None = None) -> list[SymClassRep]:
    """All pushforward classes for k = 0..k_max (default 2d), sharing one
    power table on the square of P(E)."""
    d = S.dimension
    if k_max is None:
        k_max = 2 * d
    if not 0 <= k_max <= 2 * d:
        raise DomainError("k out of range")
    r = E.rank
    X = ProjBundle(S, E)
    table = pair_power_pushforward_table(X, zeta(X), 2 * (r - 1) + k_max)
    out = []
    for k in range(k_max + 1):
        pushed = bundle_power_pushforward(X, table[2 * (r - 1) + k])
        rep = SymClassRep(pushed)  # constructor asserts swap invariance
        if not rep.rep.is_zero() and rep.rep.total_degree() != k:
            raise CrossCheckError("pushforward class has the wrong degree")
        out.append(rep)
    return out


def delta2_classes(
    S: ProjProduct, E: SplitBundle, k_max: int | None = None
) -> list[tuple[SymClassRep, MembershipCertificate]]:
    """Differences between the pushforward and multinomial classes for
    k = 0..k_max (default 2d), from one pushforward table, each with its
    diagonal-membership certificate.

    Each difference vanishes below the dimension of S and in every degree
    must be certified as a combination of diagonal pushforwards; otherwise
    the conventions are corrupted and the computation aborts.  The degree-d
    certificate's one coefficient, labelled "1", is the defect constant.
    """
    d = S.dimension
    out = []
    for k, mu in enumerate(mu2_classes(S, E, k_max)):
        delta = SymClassRep(mu.rep - nu_class(S, E, 2, k).rep)
        if k < d and not delta.rep.is_zero():
            raise CrossCheckError(f"diagonal-defect class at k = {k} fails to vanish below d = {d}")
        certificate = diagonal_membership(S, delta)
        if not certificate.member:
            witness = certificate.to_json()["witness"]
            raise CrossCheckError(
                f"diagonal-defect class at k = {k} escapes the diagonal span: witness {witness}"
            )
        out.append((delta, certificate))
    return out

