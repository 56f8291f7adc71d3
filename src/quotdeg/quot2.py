"""Pluecker degree of the two-point Quot scheme via three independent
pipelines, plus the class-level pushforward and diagonal-defect classes.

Pipelines, which must agree exactly on every instance:

* a closed formula in Segre classes of S and the twisted bundle, with
  coefficients from the Jacobi-sum module; each unordered Segre pair
  s_i s_j (i + j = d - k) is formed and integrated once and weighted by
  a_j + a_i, and every a-value is evaluated, so each is cross-checked;
* the projective-bundle route: the two-point Hilbert scheme degree formula
  evaluated through fibre integrals I_m over P(E twisted), each I_m computed
  both from its closed form in Segre classes of the twisted bundle on S (one
  integral per unordered Segre pair) and from its definition over P(E) with
  O(1) twisted by L, which is P(E twisted); so one P(E) serves every twist;
* the geometric route: the degree of the two-point Hilbert scheme of P(E)
  for the divisor (pullback of c1 L) + z.

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
from math import comb, lcm

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
    divisor_from_vector,
    integrate,
    integrate_product,
    pullback_to_bundle,
    ring_of,
    segre_class,  # unused here; perfbench's tracer test wraps quot2.segre_class
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
    where EL is the twisted bundle.  Each unordered pair s_i s_j with
    i + j = d - k is formed and integrated once and weighted by a_j + a_i
    (by a_j alone when i = j); every a-value is still evaluated.
    """
    S, d, p, r = inst.S, inst.d, inst.p, inst.E.rank
    EL = twist(inst.E, inst.Lc1)
    segre_EL = segre_total(EL)
    sd = integrate(S, segre_EL.graded_part(d))
    total = Fraction(1, 2) * binomial(2 * p, p) * sd**2
    segre_S = segre_scheme(S)
    correction = Fraction(0)
    for k in range(d + 1):
        s_k = segre_S.graded_part(k)
        for j in range((d - k) // 2 + 1):
            i = d - k - j
            weight = a_coeff(r, d, k, j)
            if i != j:
                weight += a_coeff(r, d, k, i)
            pair = segre_EL.graded_part(i) * segre_EL.graded_part(j)
            correction += weight * integrate_product(S, s_k, pair)
    return total - Fraction(2) ** (p - 1) * correction


def _fibre_integrals_closed(inst: Quot2Instance, segre_EL: TruncPoly) -> list[Fraction]:
    """I_m for m = 0..p from the closed double sum in Segre classes: an integer
    combination of the pair integrals P[k][j] = int s_k(S) s_{d-k-j}(EL) s_j(EL)
    for k <= m, where segre_EL is the total Segre class of the twisted bundle
    EL.  P[k][j] = P[k][d-k-j], so each unordered pair is formed and
    integrated once.  The terms with k > m vanish, since each has a negative
    lower binomial index m - d + j <= m - k."""
    S, d, p, r = inst.S, inst.d, inst.p, inst.E.rank
    segre_S = segre_scheme(S)
    P = []
    for k in range(d + 1):
        s_k = segre_S.graded_part(k)
        row = [Fraction(0)] * (d - k + 1)
        for j in range((d - k) // 2 + 1):
            i = d - k - j
            pair = segre_EL.graded_part(i) * segre_EL.graded_part(j)
            row[j] = row[i] = integrate_product(S, s_k, pair)
        P.append(row)
    den = lcm(*(x.denominator for row in P for x in row))
    P = [[x.numerator * (den // x.denominator) for x in row] for row in P]
    out = []
    for m in range(p + 1):
        value = sum(
            (-1) ** (m + k + j) * comb(r - 1 + m - k, m - d + j) * P[k][j]
            for k in range(min(m, d) + 1)
            for j in range(max(0, d - m), d - k + 1)
        )
        out.append(Fraction(value, den))
    return out


def degree2_projbundle(inst: Quot2Instance) -> Fraction:
    """Projective-bundle pipeline through the fibre integrals I_m.

    Each I_m is also recomputed from its definition as an integral over
    P(E twisted), taken as P(E) with O(1) twisted by L: the integrand is
    M^{p-m} s_m(P(E)) with M = (pullback of c1 L) + z, and M^0..M^p come
    from one running product.  The closed side twists on S and the direct
    side pulls L back, so a wrong twist shows as a mismatch, which aborts
    the run.
    """
    S, d, p = inst.S, inst.d, inst.p
    segre_EL = segre_total(twist(inst.E, inst.Lc1))
    closed = _fibre_integrals_closed(inst, segre_EL)
    X = ProjBundle(S, inst.E)
    M = pullback_to_bundle(X, inst.Lc1) + zeta(X)
    M_powers = [TruncPoly.one(M.ring), M]
    for _ in range(p - 1):
        M_powers.append(M_powers[-1] * M)
    segre_X = segre_scheme(X)
    for m in range(p + 1):
        direct = integrate_product(X, M_powers[p - m], segre_X.graded_part(m))
        if direct != closed[m]:
            raise CrossCheckError(
                f"fibre integral I_{m} mismatch: closed {closed[m]}, direct {direct}"
            )
    sd = integrate(S, segre_EL.graded_part(d))
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

