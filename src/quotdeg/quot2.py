"""Pluecker degree of the two-point Quot scheme via three independent
pipelines, plus the class-level pushforward and diagonal-defect classes.

Pipelines, which must agree exactly on every instance:

* a closed formula in Segre classes of S and the twisted bundle, with
  coefficients from the Jacobi-sum module;
* the projective-bundle route: the two-point Hilbert scheme degree formula
  evaluated through fibre integrals I_m over P(E twisted), each I_m computed
  both from its closed form and from its definition;
* the geometric route: the degree of the two-point Hilbert scheme of P(E)
  for the divisor (pullback of c1 L) + z.

The class-level computation pushes powers of the tautological divisor of
the two-point Hilbert scheme of P(E) down to S x S; the double-cover factor
of the blow-up model cancels against the symmetrisation doubling, and the
result is asserted to be block-swap invariant rather than trusting that
cancellation silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CrossCheckError, DomainError
from .exactpoly import DegreePolynomial, TruncPoly, binomial, poly_interpolate
from .hilb2 import hilb2_degree, pair_power_pushforward_table
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
    boxsum,
    bundle_power_pushforward,
    diagonal_class,
    divisor_from_vector,
    integrate,
    integrate_product,
    pullback_to_bundle,
    ring_of,
    segre_class,
    segre_scheme,
    segre_total,
    twist,
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
    "diagonal_multiple",
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


def degree2_formula(inst: Quot2Instance) -> Fraction:
    """Closed formula pipeline.

    (1/2) binom(2p, p) (int s_d(EL))^2
    - 2^{p-1} sum_k int s_k(S) * sum_j a_j(r,d,k) s_{d-k-j}(EL) s_j(EL),
    where EL is the twisted bundle.
    """
    S, d, p, r = inst.S, inst.d, inst.p, inst.E.rank
    EL = twist(inst.E, inst.Lc1)
    segre_EL = segre_total(EL)
    sd = integrate(S, segre_EL.graded_part(d))
    total = Fraction(1, 2) * binomial(2 * p, p) * sd**2
    segre_S = segre_scheme(S)
    correction = Fraction(0)
    for k in range(d + 1):
        J = TruncPoly.zero(ring_of(S))
        for j in range(d - k + 1):
            J = J + (
                a_coeff(r, d, k, j) * segre_EL.graded_part(d - k - j) * segre_EL.graded_part(j)
            )
        correction += integrate_product(S, segre_S.graded_part(k), J)
    return total - Fraction(2) ** (p - 1) * correction


def _fibre_integrals_closed(inst: Quot2Instance) -> list[Fraction]:
    """I_m for m = 0..p from the closed double sum in Segre classes."""
    S, d, p, r = inst.S, inst.d, inst.p, inst.E.rank
    EL = twist(inst.E, inst.Lc1)
    segre_EL = segre_total(EL)
    segre_S = segre_scheme(S)
    # s_{d-k-j}(EL) s_j(EL) does not depend on m, so form each once
    pairs = [
        [segre_EL.graded_part(d - k - j) * segre_EL.graded_part(j) for j in range(d - k + 1)]
        for k in range(d + 1)
    ]
    out = []
    for m in range(p + 1):
        value = Fraction(0)
        for k in range(d + 1):
            inner = TruncPoly.zero(ring_of(S))
            for j, pair in enumerate(pairs[k]):
                inner = inner + Fraction(-1) ** j * binomial(r - 1 + m - k, m - d + j) * pair
            if k > m and not inner.is_zero():
                raise CrossCheckError("inner Segre sum failed to vanish above the fibre power")
            value += Fraction(-1) ** (m + k) * integrate_product(S, segre_S.graded_part(k), inner)
        out.append(value)
    return out


def degree2_projbundle(inst: Quot2Instance) -> Fraction:
    """Projective-bundle pipeline through the fibre integrals I_m.

    Each I_m is also recomputed from its definition as an integral over
    P(E twisted); any mismatch aborts the run.
    """
    S, d, p = inst.S, inst.d, inst.p
    EL = twist(inst.E, inst.Lc1)
    closed = _fibre_integrals_closed(inst)
    X = ProjBundle(S, EL)
    z = zeta(X)
    segre_X = segre_scheme(X)
    for m in range(p + 1):
        direct = integrate_product(X, z ** (p - m), segre_X.graded_part(m))
        if direct != closed[m]:
            raise CrossCheckError(
                f"fibre integral I_{m} mismatch: closed {closed[m]}, direct {direct}"
            )
    sd = integrate(S, segre_class(EL, d))
    if closed[0] != Fraction(-1) ** d * sd:
        raise CrossCheckError("I_0 does not reduce to the top Segre integral")
    total = Fraction(1, 2) * binomial(2 * p, p) * closed[0] ** 2
    series = sum(
        binomial(2 * p, p + m) * Fraction(1, 2**m) * closed[m] for m in range(p + 1)
    )
    return total - Fraction(2) ** (p - 1) * series


def degree2_geometric(inst: Quot2Instance) -> Fraction:
    """Geometric pipeline: two-point Hilbert scheme of P(E) with the divisor
    (pullback of the twist) + relative hyperplane class."""
    X = ProjBundle(inst.S, inst.E)
    M = pullback_to_bundle(X, inst.Lc1) + zeta(X)
    return hilb2_degree(X, M)


def degree2_all(inst: Quot2Instance) -> Fraction:
    """Run all three pipelines and insist on exact agreement."""
    formula = degree2_formula(inst)
    projbundle = degree2_projbundle(inst)
    geometric = degree2_geometric(inst)
    if not formula == projbundle == geometric:
        raise CrossCheckError(
            f"degree pipelines disagree: formula {formula}, "
            f"projective bundle {projbundle}, geometric {geometric}"
        )
    return formula


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
    if poly.evaluate(2 * d + 1) != values[2 * d + 1][1]:
        raise CrossCheckError("degree polynomial fails at the verification point")
    coeffs = list(poly.coefficients) + [Fraction(0)] * (2 * d + 1 - len(poly.coefficients))
    box = boxsum(S, 2, direction)
    for j in range(d):
        integral = integrate_product(S, box ** (2 * d - j), nu_class(S, E, 2, j).rep)
        predicted = binomial(2 * p, 2 * d - j) * integral / 2
        if coeffs[2 * d - j] != predicted:
            raise CrossCheckError(
                f"coefficient of n^{2 * d - j} disagrees with the multinomial prediction"
            )
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
    the conventions are corrupted and the computation aborts.
    """
    d = S.dimension
    out = []
    for k, mu in enumerate(mu2_classes(S, E, k_max)):
        delta = SymClassRep(mu.rep - nu_class(S, E, 2, k).rep)
        if k < d and not delta.rep.is_zero():
            raise CrossCheckError("diagonal-defect class fails to vanish below the dimension")
        certificate = diagonal_membership(S, delta)
        if not certificate.member:
            raise CrossCheckError("diagonal-defect class escapes the diagonal span")
        out.append((delta, certificate))
    return out


def diagonal_multiple(S: ProjProduct, delta: SymClassRep) -> Fraction:
    """Constant c with delta = c * (symmetrised diagonal), for the defect
    class in degree d; raises if delta is not such a multiple."""
    if delta.rep.is_zero():
        return Fraction(0)
    reference = 2 * diagonal_class(S)
    mono, coeff = next(iter(reference.terms.items()))
    c = delta.rep.coefficient(mono) / coeff
    if delta.rep != c * reference:
        raise CrossCheckError("degree-d defect class is not proportional to the diagonal")
    return c
