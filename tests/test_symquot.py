import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from quotdeg.errors import CrossCheckError, DomainError
from quotdeg.exactpoly import DegreePolynomial, TruncPoly, map_blocks, permute_blocks
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
    twist,
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


def _span(space, degree):
    """2 Delta_*(m) for each monomial m of degree `degree - dim` on the space."""
    ring = ring_of(space)
    monomials = itertools.product(*(range(t) for t in ring.truncations))
    return [
        2 * diagonal_pushforward(space, TruncPoly(ring, [(m, 1)]))
        for m in monomials
        if sum(m) == degree - space.dimension
    ]


def _pairing(witness, cls):
    weights = dict(witness)
    return sum(c * weights.get(cls.ring.monomial_str(m), 0) for m, c in cls.terms.items())


def test_membership_rejects_offspan():
    square = power_ring(P2, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    cert = diagonal_membership(P2, SymClassRep(h1 * h2))
    assert not cert.member
    assert cert.witness
    # the witness functional really separates: check it against the span
    for cls in _span(P2, 2):
        assert _pairing(cert.witness, cls) == 0
    assert _pairing(cert.witness, h1 * h2) != 0


def test_membership_witness_with_nonzero_pushforward():
    # top (x) 1 + 1 (x) top pushes forward to the point class, so beta != 0,
    # yet the class is not 2 Delta times anything
    square = power_ring(P2, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    cls = h1**2 + h2**2
    cert = diagonal_membership(P2, SymClassRep(cls))
    assert not cert.member
    assert _pairing(cert.witness, 2 * diagonal_class(P2)) == 0
    assert _pairing(cert.witness, cls) != 0


def test_membership_three_points():
    # only two points are decided: an l = 3 class is refused, not judged
    cube = power_ring(P1, 3)
    total = TruncPoly.zero(cube)
    for sigma in itertools.permutations(range(3)):
        total = total + permute_blocks(map_blocks(diagonal_class(P1), cube, (0, 1)), sigma)
    with pytest.raises(DomainError, match="2 points"):
        diagonal_membership(P1, SymClassRep(total))


@pytest.mark.parametrize("space", [P1, P3])
def test_membership_refuses_a_class_off_the_square(space):
    with pytest.raises(DomainError, match="square of the space"):
        diagonal_membership(space, SymClassRep(2 * diagonal_class(P2)))


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



def test_nu_class_matches_kernel_products_of_block_embeddings():
    # the multinomial sum with every term formed by kernel products of
    # block embeddings built on the term-dict path, on spaces with and
    # without relations
    from quotdeg.exactpoly import compositions
    from quotdeg.varieties import ProjBundle, segre_total

    def embed(a, target, m):
        width = a.ring.ngens
        items = [((0,) * (m * width) + mono + (0,) * (target.ngens - (m + 1) * width), c)
                 for mono, c in a.terms.items()]
        return TruncPoly(target, items)

    def reference_nu(S, E, l, k):
        target, r = power_ring(S, l), E.rank
        segre = segre_total(E)
        total = TruncPoly.zero(target)
        for parts in compositions(k, l):
            term = TruncPoly.one(target)
            for m, p in enumerate(parts):
                term = term * embed(segre.graded_part(p), target, m)
            weight = Fraction(factorial(l * (r - 1) + k))
            for p in parts:
                weight /= factorial(r - 1 + p)
            total = total + weight * term
        return (-1) ** k * total

    X = ProjBundle(P1, bundle(P1, (0,), (1,)))
    z, h = TruncPoly.generator(ring_of(X), 1), TruncPoly.generator(ring_of(X), 0)
    cases = [
        (P2, bundle(P2, (1,), (-2,))),
        (P3, bundle(P3, (1,), (0,), (2,))),
        (ProjProduct((1, 2)), SplitBundle((hyperplane(ProjProduct((1, 2)), 1),) * 2)),
        (X, SplitBundle((z, z - h, 2 * h))),
    ]
    for S, E in cases:
        for l in (2, 3):
            for k in range(l * S.dimension + 1):
                assert nu_class(S, E, l, k).rep == reference_nu(S, E, l, k)


def test_leading_term_check_names_both_values(monkeypatch):
    from quotdeg import symquot

    E, L = bundle(P2, (1,), (0,)), hyperplane(P2, 0)
    closed = leading_term(P2, E, L, 2)
    monkeypatch.setattr(symquot, "integrate_sym", lambda S, rep: integrate_sym(S, rep) + 1)
    with pytest.raises(CrossCheckError) as caught:
        leading_term(P2, E, L, 2)
    error = caught.value
    assert error.routes == "leading term mismatch: closed form vs multinomial class"
    assert error.values == (closed, closed + 1)
    assert error.instance["l"] == 2


def test_nu_twist_check_names_both_classes(monkeypatch):
    from quotdeg import symquot

    # a doubled box sum corrupts only the twisting sum
    monkeypatch.setattr(symquot, "boxsum", lambda S, l, D: 2 * boxsum(S, l, D))
    E, L = bundle(P2, (1,), (0,)), hyperplane(P2, 0)
    with pytest.raises(CrossCheckError) as caught:
        nu_twist_check(P2, E, L, 2, 1)
    error = caught.value
    assert error.routes == (
        "twisting identity failed for nu classes: nu of twisted E vs twisting sum"
    )
    got, want = error.values
    assert got == nu_class(P2, twist(E, L), 2, 1).rep != want
    assert (error.instance["l"], error.instance["k"]) == (2, 1)
