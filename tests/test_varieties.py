import random
from fractions import Fraction

import pytest

from quotdeg.errors import DomainError
from quotdeg.exactpoly import TruncPoly, permute_blocks
from quotdeg.varieties import (
    ProjBundle,
    ProjProduct,
    SplitBundle,
    block_embed,
    bundle_power_pushforward,
    chern_total,
    diagonal_class,
    diagonal_pushforward,
    divisor_from_vector,
    euler_number,
    hyperplane,
    integrate,
    integrate_product,
    power_ring,
    pullback_to_bundle,
    ring_of,
    segre_class,
    segre_scheme,
    segre_total,
    twist,
    zeta,
)

P1 = ProjProduct((1,))
P2 = ProjProduct((2,))
P3 = ProjProduct((3,))
P1xP1 = ProjProduct((1, 1))


def line_bundles(space, *degree_vectors):
    return SplitBundle(tuple(divisor_from_vector(space, vec) for vec in degree_vectors))


def test_chern_total_examples():
    h = hyperplane(P2, 0)
    E = line_bundles(P2, (1,), (2,))
    assert chern_total(E) == 1 + 3 * h + 2 * h**2
    triv = line_bundles(P2, (0,), (0,), (0,))
    assert chern_total(triv) == TruncPoly.one(ring_of(P2))
    assert chern_total(line_bundles(P1, (5,))) == 1 + 5 * hyperplane(P1, 0)


def test_segre_total_examples():
    h1 = hyperplane(P1, 0)
    assert segre_total(line_bundles(P1, (3,))) == 1 - 3 * h1
    h = hyperplane(P2, 0)
    assert segre_total(line_bundles(P2, (1,), (1,))) == 1 - 2 * h + 3 * h**2
    triv = line_bundles(P2, (0,), (0,))
    assert segre_total(triv) == TruncPoly.one(ring_of(P2))
    assert segre_class(triv, 2).is_zero()


def test_segre_chern_inverse_random():
    rng = random.Random(2)
    for _ in range(20):
        space = rng.choice([P1, P2, P1xP1])
        vecs = [
            tuple(rng.randrange(-2, 3) for _ in space.dims)
            for _ in range(rng.randrange(1, 4))
        ]
        E = line_bundles(space, *vecs)
        assert segre_total(E) * chern_total(E) == TruncPoly.one(ring_of(space))


def test_segre_scheme_projective_spaces():
    h = hyperplane(P1, 0)
    assert segre_scheme(P1) == 1 - 2 * h
    h = hyperplane(P2, 0)
    assert segre_scheme(P2) == 1 - 3 * h + 6 * h**2


def test_segre_scheme_cross_representation():
    # P(O + O) over P1 is P1 x P1; match the rings generator by generator
    X = ProjBundle(P1, line_bundles(P1, (0,), (0,)))
    sX = segre_scheme(X)
    sP = segre_scheme(P1xP1)
    translated = TruncPoly(ring_of(P1xP1), list(sX.terms.items()))
    assert {m: c for m, c in translated.terms.items()} == sP.terms


def test_twist_examples():
    h = hyperplane(P1, 0)
    E = line_bundles(P1, (0,), (0,))
    assert twist(E, 2 * h).roots == (2 * h, 2 * h)
    assert twist(E, TruncPoly.zero(ring_of(P1))) == E
    h = hyperplane(P2, 0)
    F = twist(line_bundles(P2, (0,), (1,)), h)
    assert segre_class(F, 1) == -3 * h


def test_twist_composition():
    h = hyperplane(P2, 0)
    E = line_bundles(P2, (1,), (-1,))
    assert twist(twist(E, h), 2 * h) == twist(E, 3 * h)


def test_integrate_products():
    h = hyperplane(P2, 0)
    assert integrate(P2, h**2) == 1
    assert integrate(P2, h) == 0
    h1, h2 = hyperplane(P1xP1, 0), hyperplane(P1xP1, 1)
    assert integrate(P1xP1, h1 * h2) == 1


def test_integrate_bundle():
    X = ProjBundle(P1, line_bundles(P1, (0,), (0,)))
    zh = zeta(X) * TruncPoly.generator(ring_of(X), 0)
    assert integrate(X, zh) == 1


def test_pushforward_unit_and_deficit():
    X = ProjBundle(P2, line_bundles(P2, (1,), (0,), (-1,)))
    z = zeta(X)
    assert bundle_power_pushforward(X, z**2) == TruncPoly.one(ring_of(P2))
    assert bundle_power_pushforward(X, z).is_zero()


def test_pushforward_degree_one():
    X = ProjBundle(P1, line_bundles(P1, (1,), (2,)))
    z = zeta(X)
    h = TruncPoly.generator(ring_of(P1), 0)
    assert bundle_power_pushforward(X, z**2) == 3 * h


@pytest.mark.parametrize("space", [P1, P2, P3, P1xP1])
def test_pushforward_segre_lock(space):
    # f_* z^{r-1+k} = (-1)^k s_k(E) for every split bundle and 0 <= k <= dim
    rng = random.Random(9)
    for _ in range(8):
        vecs = [
            tuple(rng.randrange(-1, 3) for _ in space.dims)
            for _ in range(rng.randrange(1, 4))
        ]
        E = line_bundles(space, *vecs)
        X = ProjBundle(space, E)
        r = E.rank
        for k in range(space.dimension + 1):
            lhs = bundle_power_pushforward(X, zeta(X) ** (r - 1 + k))
            assert lhs == Fraction(-1) ** k * segre_class(E, k)


def test_rank_one_lock():
    # P(O(D)) collapses to the base with z = D
    h = hyperplane(P2, 0)
    X = ProjBundle(P2, line_bundles(P2, (2,)))
    assert zeta(X) == TruncPoly(ring_of(X), [((1, 0), Fraction(2))])
    assert integrate(X, zeta(X) ** 2) == 4


def test_diagonal_classical():
    dP1 = diagonal_class(P1)
    r = power_ring(P1, 2)
    h1, h2 = TruncPoly.generator(r, 0), TruncPoly.generator(r, 1)
    assert dP1 == h1 + h2
    dP2 = diagonal_class(P2)
    r = power_ring(P2, 2)
    h1, h2 = TruncPoly.generator(r, 0), TruncPoly.generator(r, 1)
    assert dP2 == h1**2 + h1 * h2 + h2**2


def test_diagonal_swap_invariant():
    for space in (P1, P2, P1xP1, ProjBundle(P1, line_bundles(P1, (0,), (1,)))):
        d = diagonal_class(space)
        assert permute_blocks(d, (1, 0)) == d


def test_diagonal_self_intersection_is_euler():
    for space in (P1, P2, P3, P1xP1, ProjBundle(P1, line_bundles(P1, (0,), (1,)))):
        d = diagonal_class(space)
        assert integrate(space, d * d) == euler_number(space)


def test_diagonal_pushforward_examples():
    r = power_ring(P2, 2)
    h1, h2 = TruncPoly.generator(r, 0), TruncPoly.generator(r, 1)
    one = TruncPoly.one(ring_of(P2))
    assert diagonal_pushforward(P2, one) == h1**2 + h1 * h2 + h2**2
    h = hyperplane(P2, 0)
    assert diagonal_pushforward(P2, h) == h1**2 * h2 + h1 * h2**2


def test_projection_formula_unit_case():
    h = hyperplane(P2, 0)
    pushed = diagonal_pushforward(P2, h)
    b = block_embed(P2, 2, 1, h)
    assert integrate(P2, pushed * b) == integrate(P2, h * h)


def test_projection_formula_random():
    rng = random.Random(17)
    spaces = [P1, P2, P1xP1, ProjBundle(P1, line_bundles(P1, (0,), (1,)))]
    checked = 0
    while checked < 50:
        space = rng.choice(spaces)
        ring = ring_of(space)
        a = _random_class(rng, ring)
        b = _random_class(rng, ring)
        lhs = integrate(space, diagonal_pushforward(space, a) * block_embed(space, 2, 1, b))
        rhs = integrate(space, a * b)
        assert lhs == rhs
        checked += 1


def _random_class(rng, ring):
    items = []
    for _ in range(rng.randrange(1, 5)):
        mono = tuple(rng.randrange(t) for t in ring.truncations)
        items.append((mono, Fraction(rng.randrange(-3, 4))))
    return TruncPoly(ring, items)


def test_euler_numbers():
    assert euler_number(P2) == 3
    assert euler_number(P1xP1) == 4
    X = ProjBundle(P2, line_bundles(P2, (0,), (0,), (0,)))
    assert euler_number(X) == 9


def test_divisor_from_vector():
    d = divisor_from_vector(P1xP1, (2, -1))
    assert d == 2 * hyperplane(P1xP1, 0) - hyperplane(P1xP1, 1)
    X = ProjBundle(P1, line_bundles(P1, (0,), (0,)))
    dz = divisor_from_vector(X, (1, 1))
    assert dz == TruncPoly.generator(ring_of(X), 0) + zeta(X)


def test_proj_bundle_rejects_nesting():
    X = ProjBundle(P1, line_bundles(P1, (0,), (0,)))
    with pytest.raises(Exception):
        ProjBundle(X, SplitBundle((zeta(X),)))


def _random_terms(rng, ring, terms):
    items = []
    for _ in range(terms):
        mono = tuple(rng.randrange(t) for t in ring.truncations)
        items.append((mono, Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
    return TruncPoly(ring, items)


def _pairing_spaces(rng):
    spaces = [P1, P2, P1xP1]
    for base in (P1, P2, P1xP1):
        for r in range(1, 5):
            roots = [tuple(rng.randint(-2, 2) for _ in base.dims) for _ in range(r)]
            spaces.append(ProjBundle(base, line_bundles(base, *roots)))
    return spaces


def test_integrate_product_matches_the_formed_product():
    rng = random.Random(2026)
    nonzero = 0
    for space in _pairing_spaces(rng):
        for l in (1, 2):
            ring = power_ring(space, l)
            zero = TruncPoly.zero(ring)
            assert integrate_product(space, zero, _random_terms(rng, ring, 5)) == 0
            for _ in range(12):
                a = _random_terms(rng, ring, rng.randint(1, 30))
                b = _random_terms(rng, ring, rng.randint(1, 30))
                if rng.random() < 0.5:
                    # a factor with full support: a product of two classes
                    b = b * _random_terms(rng, ring, rng.randint(1, 8))
                expected = integrate(space, a * b)
                assert integrate_product(space, a, b) == expected
                assert integrate_product(space, b, a) == expected
                nonzero += expected != 0
                # one homogeneous factor pairs a single bucket pair
                k = rng.randint(0, ring.max_degree)
                part = a.graded_part(k)
                assert integrate_product(space, part, b) == integrate(space, part * b)
    assert nonzero > 300


def test_pre_top_table_of_projective_products_is_the_top_monomial():
    for space in (P1, P2, P3, P1xP1):
        for l in (1, 2):
            ring = power_ring(space, l)
            top = ring._layout.pack(tuple(t - 1 for t in ring.truncations))
            assert ring._pre_top == {top: 1}


def test_bundle_integral_is_the_base_integral_of_the_fibre_pushforward():
    rng = random.Random(31)
    for space in _pairing_spaces(rng):
        if not isinstance(space, ProjBundle):
            continue
        for l in (1, 2):
            for _ in range(5):
                a = _random_terms(rng, power_ring(space, l), rng.randint(1, 30))
                pushed = bundle_power_pushforward(space, a)
                assert integrate(space, a) == integrate(space.base, pushed)


def test_integrate_product_rejects_a_class_off_the_space():
    X = ProjBundle(P1, line_bundles(P1, (0,), (1,)))
    h = hyperplane(P2, 0)
    with pytest.raises(DomainError):
        integrate_product(P2, h, TruncPoly.one(power_ring(P2, 2)))
    with pytest.raises(DomainError):
        integrate_product(P1, h, h)
    with pytest.raises(DomainError):
        integrate_product(X, zeta(X), hyperplane(P1, 0))


def test_integrals_and_fibre_maps_reject_a_class_off_the_space():
    X = ProjBundle(P1, line_bundles(P1, (0,), (1,)))
    with pytest.raises(DomainError):
        integrate(P1, hyperplane(P2, 0))
    with pytest.raises(DomainError):
        integrate(X, hyperplane(P1, 0))
    with pytest.raises(DomainError):
        bundle_power_pushforward(X, hyperplane(P1, 0))
    with pytest.raises(DomainError):
        pullback_to_bundle(X, zeta(X))
