import random
from fractions import Fraction
from math import factorial

import pytest

from quotdeg.errors import CrossCheckError, DomainError
from quotdeg.exactpoly import DegreePolynomial, TruncPoly
from quotdeg.symquot import (
    SymClassRep,
    beauville_k3,
    diagonal_membership,
    integrate_sym,
    leading_term,
    multint,
    mu_p1_coeffs,
    nu_class,
    nu_twist_check,
)
from quotdeg.varieties import (
    ProjProduct,
    SplitBundle,
    boxsum,
    diagonal_class,
    diagonal_pushforward,
    hyperplane,
    integrate,
    power_ring,
    ring_of,
)

P1 = ProjProduct((1,))
P2 = ProjProduct((2,))
P3 = ProjProduct((3,))


def bundle(space, *vectors):
    ring = ring_of(space)
    roots = []
    for vec in vectors:
        root = TruncPoly.zero(ring)
        for i, c in enumerate(vec):
            root = root + c * TruncPoly.generator(ring, i)
        roots.append(root)
    return SplitBundle(tuple(roots))


def trivial(space, rank):
    return bundle(space, *([tuple(0 for _ in space.dims)] * rank))


def test_nu_degree_zero():
    rep = nu_class(P1, trivial(P1, 3), 2, 0)
    assert rep.rep == TruncPoly.constant(power_ring(P1, 2), 6)
    rep = nu_class(P2, trivial(P2, 2), 3, 0)
    assert rep.rep == TruncPoly.constant(power_ring(P2, 3), factorial(3))


def test_nu_degree_one_example():
    E = bundle(P2, (1,), (1,))
    rep = nu_class(P2, E, 2, 1)
    square = power_ring(P2, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    assert rep.rep == 6 * (h1 + h2)


def test_nu_degree_one_closed_form():
    # degree-1 class is (l(r-1)+1)!/((r-1)!^{l-1} r!) times the symmetrised c1
    for space in (P2, P3):
        for E in (bundle(space, (1,), (0,)), bundle(space, (1,), (-1,), (2,))):
            for l in (2, 3, 4):
                r = E.rank
                c1 = sum(E.roots, TruncPoly.zero(ring_of(space)))
                coeff = Fraction(
                    factorial(l * (r - 1) + 1), factorial(r - 1) ** (l - 1) * factorial(r)
                )
                assert nu_class(space, E, l, 1).rep == coeff * boxsum(space, l, c1)


def test_nu_trivial_vanishes():
    for l in (2, 3):
        for k in range(1, 4):
            assert nu_class(P2, trivial(P2, 2), l, k).rep.is_zero()


def test_nu_range():
    with pytest.raises(DomainError):
        nu_class(P1, trivial(P1, 1), 2, 3)


def test_integrate_sym_examples():
    square = power_ring(P1, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    assert integrate_sym(P1, SymClassRep(2 * h1 * h2)) == 1
    assert integrate_sym(P1, nu_class(P1, trivial(P1, 1), 2, 0)) == 0
    cube = power_ring(P1, 3)
    top = TruncPoly.one(cube)
    for i in range(3):
        top = top * TruncPoly.generator(cube, i)
    assert integrate_sym(P1, SymClassRep(6 * top)) == 1


def test_pushforward_integration_compatibility():
    rng = random.Random(12)
    square = power_ring(P2, 2)
    monos_by_degree = {}
    import itertools

    for mono in itertools.product(*(range(t) for t in square.truncations)):
        monos_by_degree.setdefault(sum(mono), []).append(mono)
    for _ in range(10):
        degree = rng.randrange(0, 5)
        items = [
            (rng.choice(monos_by_degree[degree]), Fraction(rng.randrange(-3, 4)))
            for _ in range(3)
        ]
        beta = TruncPoly(square, items)
        from quotdeg.exactpoly import permute_blocks

        symmetrised = beta + permute_blocks(beta, (1, 0))
        assert integrate_sym(P2, SymClassRep(symmetrised)) == integrate(P2, beta)


def test_leading_term_values():
    h = hyperplane(P1, 0)
    assert leading_term(P1, trivial(P1, 2), 3 * h, 1) == 6
    assert leading_term(P1, trivial(P1, 2), 1 * h, 2) == 12
    assert leading_term(P1, trivial(P1, 1), 2 * h, 3) == 8


def test_leading_term_matrix():
    for space in (P1, P2):
        direction = sum(
            (TruncPoly.generator(ring_of(space), i) for i in range(len(space.dims))),
            TruncPoly.zero(ring_of(space)),
        )
        for E in (trivial(space, 1), bundle(space, (1,), (0,))):
            for l in (1, 2, 3):
                leading_term(space, E, direction, l)


def test_twist_identity():
    h = hyperplane(P2, 0)
    E = bundle(P2, (0,), (0,))
    rep = nu_twist_check(P2, E, h, 2, 2)
    assert rep.rep == nu_class(P2, SplitBundle((h, h)), 2, 2).rep
    zero = TruncPoly.zero(ring_of(P2))
    assert nu_twist_check(P2, E, zero, 2, 1).rep == nu_class(P2, E, 2, 1).rep
    assert nu_twist_check(P2, E, h, 3, 0).rep == TruncPoly.constant(power_ring(P2, 3), 6)


def test_twist_identity_random():
    rng = random.Random(31)
    spaces = [P1, P2]
    for _ in range(50):
        space = rng.choice(spaces)
        ring = ring_of(space)
        roots = [
            sum((rng.randrange(-1, 3) * TruncPoly.generator(ring, i) for i in range(len(space.dims))), TruncPoly.zero(ring))
            for _ in range(rng.randrange(1, 4))
        ]
        E = SplitBundle(tuple(roots))
        L = sum(
            (rng.randrange(-2, 3) * TruncPoly.generator(ring, i) for i in range(len(space.dims))),
            TruncPoly.zero(ring),
        )
        l = rng.choice([2, 3])
        k = rng.randrange(0, min(l * space.dimension, 3) + 1)
        nu_twist_check(space, E, L, l, k)


def test_multint_collapses_to_degree():
    from quotdeg.quot2 import Quot2Instance, degree2_formula, mu2_classes

    E = bundle(P1, (0,), (0,))
    h = hyperplane(P1, 0)
    n = 2
    lp = 2 * 2
    value = multint(P1, E, 2, [n * h] * lp, mu2_classes(P1, E))
    assert value == degree2_formula(Quot2Instance(P1, E, n * h))


@pytest.mark.parametrize("ns", [(1, 2), (0, 3), (2, 0)])
def test_multint_polarisation(ns):
    # distinct twists on the line, compared against a direct expansion
    from quotdeg.quot2 import mu2_classes

    E = bundle(P1, (0,))
    h = hyperplane(P1, 0)
    reps = mu2_classes(P1, E)
    value = multint(P1, E, 2, [n * h for n in ns], reps)
    # direct expansion: sum_k sigma_{2-k}(n_1, n_2) int c1^{2-k} mu_k
    box = boxsum(P1, 2, h)
    sigmas = {0: Fraction(1), 1: Fraction(ns[0] + ns[1]), 2: Fraction(ns[0] * ns[1])}
    expected = sum(
        sigmas[2 - k] * integrate_sym(P1, SymClassRep(box ** (2 - k) * reps[k].rep))
        for k in range(3)
    )
    assert value == expected


def test_multint_needs_lp_divisors():
    from quotdeg.quot2 import mu2_classes

    E = bundle(P1, (0,))
    with pytest.raises(DomainError):
        multint(P1, E, 2, [hyperplane(P1, 0)], mu2_classes(P1, E))


@pytest.mark.parametrize("extra", [-1, 1])
def test_multint_needs_ld_plus_one_classes(extra):
    # a short table and a table with one class too many are both refused
    from quotdeg.quot2 import mu2_classes

    E = bundle(P1, (0,), (0,))
    mu = mu2_classes(P1, E)
    mu = mu[:extra] if extra < 0 else mu + mu[:extra]
    with pytest.raises(DomainError, match=f"expected 3 pushforward classes, got {len(mu)}"):
        multint(P1, E, 2, [hyperplane(P1, 0)] * 4, mu)


def test_membership_zero_and_generator():
    zero = SymClassRep(TruncPoly.zero(power_ring(P2, 2)))
    assert diagonal_membership(P2, zero).member
    gen = SymClassRep(diagonal_pushforward(P2, TruncPoly.one(ring_of(P2))))
    cert = diagonal_membership(P2, gen)
    assert cert.member
    assert cert.coefficients == (("1", Fraction(1, 2)),)


def test_membership_rejects_offspan():
    square = power_ring(P2, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    cert = diagonal_membership(P2, SymClassRep(h1 * h2))
    assert not cert.member
    assert cert.witness
    # the witness functional really separates: check it against the span
    from quotdeg.symquot import diagonal_span

    witness = dict(cert.witness)
    ring = square
    for _, cls in diagonal_span(P2, 2, 2):
        pairing = sum(
            Fraction(c) * cls.coefficient(ring.monomial_from_str(m)) for m, c in witness.items()
        )
        assert pairing == 0
    target_pairing = sum(
        Fraction(c) * (h1 * h2).coefficient(ring.monomial_from_str(m))
        for m, c in witness.items()
    )
    assert target_pairing != 0


def test_membership_three_points():
    # symmetrised pairwise diagonal lies in its own span
    cube = power_ring(P1, 3)
    from quotdeg.exactpoly import map_blocks, permute_blocks

    diag12 = map_blocks(diagonal_class(P1), cube, (0, 1))
    total = TruncPoly.zero(cube)
    import itertools

    for sigma in itertools.permutations(range(3)):
        total = total + permute_blocks(diag12, sigma)
    cert = diagonal_membership(P1, SymClassRep(total))
    assert cert.member


def test_membership_guard():
    with pytest.raises(DomainError):
        diagonal_membership(P1, SymClassRep(TruncPoly.zero(power_ring(P1, 4))))


def test_beauville_values():
    assert beauville_k3(1, Fraction(7)) == 7
    assert beauville_k3(2, Fraction(4)) == 12
    assert beauville_k3(3, Fraction(2)) == -120


def test_mu_p1_coeffs():
    poly = DegreePolynomial((Fraction(6), Fraction(-16), Fraction(12)))
    assert mu_p1_coeffs(2, 2, poly) == [2, -4, 12]
    poly = DegreePolynomial((Fraction(0), Fraction(1)))
    assert mu_p1_coeffs(1, 1, poly) == [1, 0]
    # leading coefficient identity: binom(lr, l) a_0 = (lr)!/(l! (r-1)!^l)
    for r in (1, 2, 3):
        for l in (1, 2, 3, 4):
            from quotdeg.exactpoly import binomial

            a0 = Fraction(factorial(l * (r - 1)), factorial(r - 1) ** l)
            assert binomial(l * r, l) * a0 == Fraction(
                factorial(l * r), factorial(l) * factorial(r - 1) ** l
            )


def test_mu_p1_coeffs_guard():
    with pytest.raises(DomainError):
        mu_p1_coeffs(1, 1, DegreePolynomial((Fraction(0), Fraction(0), Fraction(1))))
    for r, l, coeffs in ((0, 2, (1,)), (-1, 2, (1, 2)), (2, -1, (1,))):
        poly = DegreePolynomial(tuple(Fraction(c) for c in coeffs))
        with pytest.raises(DomainError, match="need r >= 1 and l >= 0"):
            mu_p1_coeffs(r, l, poly)


def test_symclassrep_rejects_asymmetric():
    square = power_ring(P2, 2)
    h1 = TruncPoly.generator(square, 0)
    with pytest.raises(CrossCheckError):
        SymClassRep(h1)


def test_diagonal_span_four_points_symmetric():
    # emitted for any l (no completeness claim beyond 3 points)
    from quotdeg.exactpoly import permute_blocks
    from quotdeg.symquot import diagonal_span

    span = diagonal_span(P1, 4, 2)
    assert span
    for _, cls in span:
        for m in range(3):
            sigma = list(range(4))
            sigma[m], sigma[m + 1] = sigma[m + 1], sigma[m]
            assert permute_blocks(cls, sigma) == cls


def test_multint_mixed_divisors_hand_value():
    # for O + O on the line: 2 sigma_2 - 4 sigma_1 + 6 over four twists
    from quotdeg.quot2 import mu2_classes

    E = bundle(P1, (0,), (0,))
    h = hyperplane(P1, 0)
    ns = (1, 2, 0, 3)
    value = multint(P1, E, 2, [n * h for n in ns], mu2_classes(P1, E))
    sigma1 = sum(ns)
    sigma2 = sum(ns[i] * ns[j] for i in range(4) for j in range(i + 1, 4))
    assert value == 2 * sigma2 - 4 * sigma1 + 6 == 4
