import random
from fractions import Fraction

import pytest

from quotdeg.errors import DomainError, RingMismatchError
from quotdeg.exactpoly import (
    Monomial,
    Relation,
    RingDescriptor,
    TruncPoly,
    block_products,
    block_split,
    map_blocks,
    permute_blocks,
    top_pairings,
)
from quotdeg.varieties import (
    ProjBundle,
    ProjProduct,
    SplitBundle,
    block_embed,
    boxsum,
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


def _every_bucket(rng, ring):
    """A class with one random monomial of every degree 0..max_degree."""
    items = []
    for degree in range(ring.max_degree + 1):
        mono = [0] * ring.ngens
        for _ in range(degree):
            g = rng.choice([i for i, t in enumerate(ring.truncations) if mono[i] < t - 1])
            mono[g] += 1
        items.append((tuple(mono), Fraction(rng.randint(1, 5), rng.randint(1, 3))))
    return TruncPoly(ring, items)


def test_block_split_rows_pair_like_the_placed_block_products():
    from quotdeg.selftest import instance_matrix

    rng = random.Random(28)
    spaces = []
    for S, E in instance_matrix():
        spaces += [space for space in (S, ProjBundle(S, E)) if space not in spaces]
    nonzero = 0
    for space in spaces:
        factor, square = ring_of(space), power_ring(space, 2)
        for _ in range(3):
            terms = []
            for _ in range(rng.randint(1, 4)):
                a = _random_terms(rng, factor, rng.randint(1, 12))  # inhomogeneous
                b = _random_terms(rng, factor, rng.randint(1, 12))
                if rng.random() < 0.5:
                    b = b.graded_part(rng.randint(0, factor.max_degree))
                terms.append((Fraction(rng.randint(-4, 4), rng.randint(1, 3)), (a, b)))
            placed = [
                (coeff, [map_blocks(a, square, (0,)), map_blocks(b, square, (1,))])
                for coeff, (a, b) in terms
            ]
            classes = [_every_bucket(rng, square), _random_terms(rng, square, 40)]
            split = block_split(classes, factor)
            keys = [k for group in split.keys for k in group]
            pairings = [
                (coeff, top_pairings(a, keys), top_pairings(b, keys)) for coeff, (a, b) in terms
            ]
            for c, (den, groups) in zip(classes, split.classes):
                # rows (index of k1, index of k2, numerator), each paired to
                # num <a, x^k1><b, x^k2> for each term a (x) b
                rows = [row for _, group in groups for row in zip(*[iter(group)] * 3)]
                pairing = Fraction(0)
                for coeff, (a_den, phi_a), (b_den, phi_b) in pairings:
                    total = sum(num * phi_a[i] * phi_b[j] for i, j, num in rows)
                    pairing += coeff * Fraction(total, den * a_den * b_den)
                expected = integrate_product(space, block_products(square, placed), c)
                assert pairing == expected
                nonzero += expected != 0
    assert nonzero > 250


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


# -- block products and field moves against the term-dict paths -------------


def reference_map_blocks(a, dst, assignment):
    """The term-dict relabelling: exponents moved block by block, then the
    constructor's normal form."""
    index_map = {}
    for m, target in enumerate(assignment):
        index_map.update(zip(a.ring.blocks[m], dst.blocks[target]))
    items = []
    for mono, coeff in a.terms.items():
        new = [0] * dst.ngens
        for i, e in enumerate(mono):
            new[index_map[i]] += e
        items.append((tuple(new), coeff))
    return TruncPoly(dst, items)


def reference_pullback(space, a):
    l, k = len(a.ring.blocks), len(space.base.dims)
    dst = power_ring(space, l)
    items = []
    for mono, coeff in a.terms.items():
        expo = [0] * dst.ngens
        for m in range(l):
            for j in range(k):
                expo[m * (k + 1) + j] = mono[m * k + j]
        items.append((tuple(expo), coeff))
    return TruncPoly(dst, items)


def reference_pushforward(space, a):
    l, k, r = len(a.ring.blocks), len(space.base.dims), space.bundle.rank
    dst = power_ring(space.base, l)
    items = []
    for mono, coeff in a.terms.items():
        if any(mono[m * (k + 1) + k] != r - 1 for m in range(l)):
            continue
        expo = [0] * dst.ngens
        for m in range(l):
            for j in range(k):
                expo[m * k + j] = mono[m * (k + 1) + j]
        items.append((tuple(expo), coeff))
    return TruncPoly(dst, items)


def _block_spaces():
    # P^n, products of projective spaces, and split P(E) with relations
    return [
        P2,
        ProjProduct((4,)),
        P1xP1,
        ProjProduct((2, 1)),
        ProjBundle(P1, line_bundles(P1, (0,), (1,))),
        ProjBundle(P2, line_bundles(P2, (1,), (0,), (-2,))),
        ProjBundle(P1xP1, line_bundles(P1xP1, (0, 1), (2, -1), (1, 1))),
    ]


def test_block_products_match_kernel_products_of_block_embeddings():
    from quotdeg.exactpoly import block_products

    rng = random.Random(1717)
    for space in _block_spaces():
        ring = ring_of(space)
        for l in (2, 3):
            target = power_ring(space, l)
            for _ in range(8):
                blocks = rng.sample(range(l), rng.randint(1, l))
                factors = [
                    reference_map_blocks(_random_terms(rng, ring, rng.randint(1, 6)), target, (m,))
                    for m in blocks
                ]
                coeff = Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 5))
                expected = TruncPoly.constant(target, coeff)
                for a in factors:
                    expected = expected * a
                assert block_products(target, [(coeff, factors)]) == expected
            # a sum of several products, including shared keys that cancel
            a, b = (reference_map_blocks(_random_terms(rng, ring, 5), target, (m,)) for m in (0, 1))
            terms = [(1, [a, b]), (Fraction(1, 3), [b]), (-1, [b, a])]
            assert block_products(target, terms) == Fraction(1, 3) * b
            assert block_products(target, []) == TruncPoly.zero(target)
            assert block_products(target, [(Fraction(2, 3), [])]) == Fraction(2, 3)
    # disjoint generators inside one block: a base class times a polynomial
    # in z below the relation power, both in block 0 of the square of P(E)
    X = ProjBundle(P1xP1, line_bundles(P1xP1, (0, 1), (2, -1), (1, 1)))
    square = power_ring(X, 2)
    for _ in range(6):
        base = reference_pullback(X, _random_terms(rng, ring_of(P1xP1), 6))
        fibre = sum(rng.randint(-3, 3) * zeta(X) ** e for e in range(3))
        other = _random_terms(rng, ring_of(X), 6)
        factors = [
            reference_map_blocks(a, square, (m,)) for a, m in ((base, 0), (fibre, 0), (other, 1))
        ]
        expected = 3 * factors[0] * factors[1] * factors[2]
        assert block_products(square, [(3, factors)]) == expected


def test_block_embed_and_boxsum_match_the_term_dict_path():
    rng = random.Random(88)
    for space in _block_spaces():
        for l in (1, 2, 3):
            target = power_ring(space, l)
            a = _random_terms(rng, ring_of(space), 7)
            embedded = [reference_map_blocks(a, target, (m,)) for m in range(l)]
            for m in range(l):
                assert block_embed(space, l, m, a) == embedded[m]
            total = TruncPoly.zero(target)
            for e in embedded:
                total = total + e
            assert boxsum(space, l, a) == total


def test_block_products_reject_shared_generators_and_foreign_factors():
    from quotdeg.errors import RingMismatchError
    from quotdeg.exactpoly import block_products

    # P(E) over P^2, rank 2: block m has h(m+1) (truncation 3) and z(m+1)
    X = ProjBundle(P2, line_bundles(P2, (0,), (1,)))
    square = power_ring(X, 2)
    h1, z1, h2, z2 = (TruncPoly.generator(square, i) for i in range(4))
    # a shared generator at unequal exponents, whose packed fields share no bit
    overlapping = [(h1, h1**2), (z1, h1 * z1), (h1 + h2, z1 + h2**2), (z2, h1, z2 * h2)]
    for factors in overlapping:
        with pytest.raises(ValueError, match="disjoint"):
            block_products(square, [(1, factors)])
    # each term is checked on its own
    terms = [(1, [h1, z1]), (2, [h1**2 * z1, h2, z2])]
    assert block_products(square, terms) == h1 * z1 + 2 * h1**2 * z1 * h2 * z2
    with pytest.raises(RingMismatchError):
        block_products(square, [(1, [h1, zeta(X)])])
    with pytest.raises(RingMismatchError):
        block_products(power_ring(X, 3), [(1, [h1])])


def test_block_products_check_every_term_of_a_shared_factor():
    # a factor's generator support and placed terms are formed once per
    # call, but the disjointness test still runs on every term it is in
    from quotdeg.exactpoly import block_products

    X = ProjBundle(P2, line_bundles(P2, (0,), (1,)))
    square = power_ring(X, 2)
    h1, z1, h2, z2 = (TruncPoly.generator(square, i) for i in range(4))
    shared = h1 + z2
    terms = [(1, [shared, z1]), (2, [h2, shared]), (3, [z1, shared, h2 * z2])]
    with pytest.raises(ValueError, match="disjoint"):
        block_products(square, terms)
    with pytest.raises(ValueError, match="disjoint"):
        block_products(square, [(1, [shared, z1]), (1, [shared, shared])])
    assert block_products(square, terms[:2]) == shared * z1 + 2 * h2 * shared


def test_field_moves_match_the_term_dict_paths():
    from quotdeg.exactpoly import map_blocks

    rng = random.Random(4242)
    for space in _block_spaces():
        for l in (1, 2, 3):
            ring = power_ring(space, l)
            for _ in range(6):
                a = _random_terms(rng, ring, rng.randint(0, 25))
                sigma = rng.sample(range(l), l)
                assert permute_blocks(a, sigma) == reference_map_blocks(a, ring, sigma)
                into = power_ring(space, l + 1)
                assignment = rng.sample(range(l + 1), l)
                assert map_blocks(a, into, assignment) == reference_map_blocks(a, into, assignment)
                if isinstance(space, ProjBundle):
                    assert bundle_power_pushforward(space, a) == reference_pushforward(space, a)
                    b = _random_terms(rng, power_ring(space.base, l), rng.randint(0, 25))
                    assert pullback_to_bundle(space, b) == reference_pullback(space, b)


def test_map_blocks_rejects_blocks_with_other_truncations_or_relations():
    from quotdeg.exactpoly import map_blocks

    X = ProjBundle(P1, line_bundles(P1, (0,), (1,)))
    Y = ProjBundle(P1, line_bundles(P1, (0,), (2,)))
    with pytest.raises(DomainError):
        map_blocks(hyperplane(P1, 0), power_ring(P2, 2), (1,))
    with pytest.raises(DomainError):
        map_blocks(zeta(X), power_ring(Y, 2), (0,))
    # a block of another shape
    with pytest.raises(DomainError):
        map_blocks(hyperplane(P1xP1, 0), power_ring(P2, 2), (0,))


def reference_power_ring(space, l):
    # power_ring as it was built before both space types shared one loop
    if l < 1:
        raise ValueError("l must be positive")
    if isinstance(space, ProjProduct):
        k = len(space.dims)
        names = tuple(f"h{m * k + j + 1}" for m in range(l) for j in range(k))
        truncs = tuple(d + 1 for _ in range(l) for d in space.dims)
        blocks = tuple(tuple(range(m * k, (m + 1) * k)) for m in range(l))
        return RingDescriptor(names, truncs, blocks)
    base, bundle = space.base, space.bundle
    k = len(base.dims)
    r = bundle.rank
    width = k + 1
    names, truncs, blocks = [], [], []
    for m in range(l):
        names.extend(f"h{m * k + j + 1}" for j in range(k))
        names.append("z" if l == 1 else f"z{m + 1}")
        truncs.extend(d + 1 for d in base.dims)
        truncs.append(r)
        blocks.append(tuple(range(m * width, (m + 1) * width)))
    chern = chern_total(bundle)
    relations = []
    for m in range(l):
        z_index = m * width + k
        terms: list[tuple[Monomial, Fraction]] = []
        for i in range(1, r + 1):
            ci = chern.graded_part(i)
            sign = Fraction(-1) ** (i - 1)
            for mono, coeff in ci.terms.items():
                expo = [0] * (l * width)
                for j, e in enumerate(mono):
                    expo[m * width + j] = e
                expo[z_index] = r - i
                terms.append((tuple(expo), sign * coeff))
        relations.append(Relation(z_index, r, tuple(terms)))
    return RingDescriptor(tuple(names), tuple(truncs), tuple(blocks), tuple(relations))


P1xP2 = ProjProduct((1, 2))
RING_SPACES = [P1, P2, P1xP1, P1xP2] + [
    ProjBundle(base, line_bundles(base, *roots))
    for base, bundles in (
        (P1, [((0,),), ((2,), (-1,)), ((1,), (0,), (-3,))]),
        (P1xP2, [((1, -1),), ((0, 0), (2, 1)), ((1, 2), (-1, 0), (0, 1))]),
    )
    for roots in bundles
]


def space_id(space):
    if isinstance(space, ProjProduct):
        return "x".join(f"P{d}" for d in space.dims)
    return f"P(E)-r{space.bundle.rank}-over-{space_id(space.base)}"


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("space", RING_SPACES, ids=space_id)
def test_power_ring_matches_the_per_type_builder(space, l):
    ring, reference = power_ring(space, l), reference_power_ring(space, l)
    assert ring.names == reference.names
    assert ring.truncations == reference.truncations
    assert ring.blocks == reference.blocks
    assert ring.relations == reference.relations
