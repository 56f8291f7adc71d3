import random
from fractions import Fraction
from math import factorial

import pytest

from quotdeg.errors import DomainError, RingMismatchError
from quotdeg.exactpoly import (
    DegreePolynomial,
    Relation,
    RingDescriptor,
    TruncPoly,
    binomial,
    compositions,
    permute_blocks,
    poly_interpolate,
    series_inverse,
)
from quotdeg.varieties import (
    ProjBundle,
    ProjProduct,
    SplitBundle,
    divisor_from_vector,
    power_ring,
    segre_scheme,
)


def univariate(trunc, name="h"):
    return RingDescriptor((name,), (trunc,), ((0,),))


def square_ring(trunc):
    # two identical blocks of one generator each
    return RingDescriptor(("h1", "h2"), (trunc, trunc), ((0,), (1,)))


R3 = univariate(3)


def gen(ring, i=0):
    return TruncPoly.generator(ring, i)


def test_mul_difference_of_squares():
    h = gen(R3)
    assert (1 + h) * (1 - h) == 1 - h**2


def test_mul_truncation():
    h = gen(R3)
    assert h**2 * h == TruncPoly.zero(R3)


def test_mul_two_variables():
    ring = RingDescriptor(("h1", "h2"), (2, 2), ((0, 1),))
    h1, h2 = gen(ring, 0), gen(ring, 1)
    assert (1 + h1) * (1 + h2) == 1 + h1 + h2 + h1 * h2


def test_mul_ring_mismatch():
    with pytest.raises(RingMismatchError):
        gen(R3) * gen(univariate(4))


def test_series_inverse_geometric():
    h = gen(R3)
    assert series_inverse(1 + h) == 1 - h + h**2


def test_series_inverse_cube():
    h = gen(R3)
    inv = series_inverse((1 + h) ** 3)
    assert inv == 1 - 3 * h + 6 * h**2
    assert inv * (1 + h) ** 3 == TruncPoly.one(R3)


def test_series_inverse_linear():
    ring = univariate(2)
    h = gen(ring)
    assert series_inverse(1 + 2 * h) == 1 - 2 * h


def test_series_inverse_requires_unit():
    with pytest.raises(DomainError):
        series_inverse(gen(R3))


def test_permute_swap():
    ring = square_ring(2)
    h1, h2 = gen(ring, 0), gen(ring, 1)
    assert permute_blocks(h1, (1, 0)) == h2


def test_permute_monomial():
    ring = square_ring(3)
    h1, h2 = gen(ring, 0), gen(ring, 1)
    assert permute_blocks(h1 * h2**2, (1, 0)) == h2 * h1**2


def test_permute_fixes_symmetric():
    ring = square_ring(2)
    h1, h2 = gen(ring, 0), gen(ring, 1)
    assert permute_blocks(h1 * h2, (1, 0)) == h1 * h2


def test_permute_requires_identical_blocks():
    ring = RingDescriptor(("h1", "h2"), (2, 3), ((0,), (1,)))
    with pytest.raises(DomainError):
        permute_blocks(gen(ring, 0), (1, 0))


def test_permute_involutive_random():
    rng = random.Random(7)
    ring = square_ring(4)
    for _ in range(20):
        a = random_poly(rng, ring)
        assert permute_blocks(permute_blocks(a, (1, 0)), (1, 0)) == a


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(3, -1) == 0
    assert binomial(-2, 2) == 3
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    for x in range(-10, 11):
        for k in range(-1, 9):
            product = Fraction(1)
            for i in range(k):
                product *= x - i
            want = product / factorial(k) if k >= 0 else Fraction(0)
            for upper in (x, Fraction(x)):
                got = binomial(upper, k)
                assert type(got) is Fraction and got == want, (upper, k)


def test_binomial_vanishes_for_a_negative_lower_index():
    # the closed fibre integrals drop their terms with k > m on this convention
    for upper in (0, 1, 7, -1, -6, Fraction(3), Fraction(-4), Fraction(1, 2), Fraction(-5, 3)):
        for k in range(-5, 0):
            got = binomial(upper, k)
            assert type(got) is Fraction and got == 0, (upper, k)


def test_compositions():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(compositions(5, 3))) == binomial(7, 2)


def random_poly(rng, ring, max_terms=5):
    items = []
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randrange(t) for t in ring.truncations)
        items.append((mono, Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))))
    return TruncPoly(ring, items)


@pytest.mark.parametrize("ring", [R3, square_ring(3), RingDescriptor(("a", "b"), (2, 4), ((0, 1),))])
def test_ring_axioms(ring):
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (random_poly(rng, ring) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("ring", [R3, square_ring(3)])
def test_series_inverse_random(ring):
    rng = random.Random(5)
    for _ in range(100):
        a = 1 + random_poly(rng, ring) * gen(ring, 0)
        a = a - a.constant_term() + 1
        assert series_inverse(a) * a == TruncPoly.one(ring)


def test_permute_is_ring_homomorphism():
    rng = random.Random(3)
    ring = square_ring(4)
    for _ in range(25):
        a, b = random_poly(rng, ring), random_poly(rng, ring)
        sab = permute_blocks(a * b, (1, 0))
        assert sab == permute_blocks(a, (1, 0)) * permute_blocks(b, (1, 0))


def test_order_independence():
    items = [((1, 1), Fraction(2)), ((0, 2), Fraction(1)), ((1, 0), Fraction(-1))]
    ring = square_ring(3)
    a = TruncPoly(ring, items)
    b = TruncPoly(ring, list(reversed(items)))
    assert a == b
    assert list(a.to_dict()) == list(b.to_dict())


def test_serialization_round_trip():
    ring = RingDescriptor(("h1", "z"), (3, 2), ((0, 1),))
    h, z = gen(ring, 0), gen(ring, 1)
    a = Fraction(-3, 2) * h**2 * z + 5 * h
    data = a.to_dict()
    assert data == {"h1^1": "5", "h1^2*z^1": "-3/2"}


def test_graded_parts():
    h = gen(R3)
    a = (1 + h) ** 2
    assert a.graded_part(1) == 2 * h
    assert a.graded_part(5).is_zero()
    assert not a.is_homogeneous()
    assert a.graded_part(2).is_homogeneous()


def test_degree_polynomial():
    p = DegreePolynomial((Fraction(6), Fraction(-16), Fraction(12), Fraction(0)))
    assert p.degree == 2
    assert p.evaluate(2) == 22


def test_interpolation_exact():
    target = DegreePolynomial((Fraction(1), Fraction(-2), Fraction(1)))
    pts = [(n, target.evaluate(n)) for n in range(3)]
    assert poly_interpolate(pts) == target
    cubic = DegreePolynomial((Fraction(0), Fraction(1, 3), Fraction(0), Fraction(-2)))
    pts = [(n, cubic.evaluate(n)) for n in (-1, 0, 2, 5)]
    assert poly_interpolate(pts) == cubic


def test_operators_take_numbers_and_reject_other_operands():
    h = gen(R3)
    assert 2 * h == h + h == h * 2 and h - 1 == -(1 - h) and 1 + h == h + 1
    assert Fraction(1, 2) * h + h * Fraction(1, 2) == h and TruncPoly.one(R3) == 1
    assert (h == "h") is False and h != 1.5
    for bad in ("1", 1.5, None):
        with pytest.raises(TypeError):
            h + bad
        with pytest.raises(TypeError):
            h * bad
        with pytest.raises(TypeError):
            h - bad


def test_map_blocks_rejects_a_folding_assignment():
    from quotdeg.exactpoly import map_blocks

    square = square_ring(4)
    h1, h2 = gen(square, 0), gen(square, 1)
    with pytest.raises(ValueError, match="injective"):
        map_blocks(h1 * h2**2 + h1 * h2, univariate(4), (0, 0))
    with pytest.raises(ValueError, match="injective"):
        map_blocks(h1 * h2, RingDescriptor(("a", "b", "c"), (4, 4, 4), ((0,), (1,), (2,))), (2, 2))


# -- the packed kernel against a schoolbook reference ------------------------


def reference_normal_form(ring, items):
    """Tuple monomials and Fractions: rewrite gen^power by its relation
    until no relation applies, drop truncated monomials, collect terms."""
    related = {r.gen: r for r in ring.relations}
    out = {}
    stack = [(tuple(m), Fraction(c)) for m, c in items]
    while stack:
        mono, coeff = stack.pop()
        if not coeff:
            continue
        if any(e >= t for i, (e, t) in enumerate(zip(mono, ring.truncations)) if i not in related):
            continue
        rel = next((r for r in ring.relations if mono[r.gen] >= r.power), None)
        if rel is None:
            out[mono] = out.get(mono, 0) + coeff
            continue
        lowered = list(mono)
        lowered[rel.gen] -= rel.power
        for rmono, rcoeff in rel.terms:
            stack.append((tuple(a + b for a, b in zip(lowered, rmono)), coeff * rcoeff))
    return {m: c for m, c in out.items() if c}


def reference_product(a, b):
    raw = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            raw[m] = raw.get(m, 0) + c1 * c2
    return reference_normal_form(a.ring, raw.items())


def random_terms(rng, ring, nterms, overshoot=0):
    items = []
    for _ in range(nterms):
        mono = tuple(rng.randrange(t + overshoot) for t in ring.truncations)
        items.append((mono, Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))))
    return items


def _bundle_ring(dims, roots):
    S = ProjProduct(dims)
    E = SplitBundle(tuple(divisor_from_vector(S, v) for v in roots))
    return power_ring(ProjBundle(S, E), 2)


# plain truncations 1, 2, 4, 8 and 9 sit on field-width boundaries (the
# field must hold 2(t - 1): widths 0, 2, 3, 4 and 5 value bits)
WIDTH_RING = RingDescriptor(
    ("a", "b", "c", "d", "e", "f"), (1, 2, 4, 8, 9, 3), ((0, 1, 2), (3, 4, 5))
)
# squares of P(E) for relation ranks 1..5, so z reaches 2(r - 1) in a product
KERNEL_RINGS = {
    "widths": WIDTH_RING,
    "P1-r1": _bundle_ring((1,), ((0,),)),
    "P1-r2": _bundle_ring((1,), ((0,), (1,))),
    "P2-r3": _bundle_ring((2,), ((1,), (0,), (-1,))),
    "P1xP1-r4": _bundle_ring((1, 1), ((0, 0), (1, 0), (0, 1), (2, -1))),
    "P2-r5": _bundle_ring((2,), ((0,), (1,), (2,), (-1,), (3,))),
}


@pytest.mark.parametrize("ring", KERNEL_RINGS.values(), ids=KERNEL_RINGS.keys())
def test_kernel_matches_reference_product(ring):
    rng = random.Random(20240)
    for _ in range(30):
        a = TruncPoly(ring, random_terms(rng, ring, rng.randrange(1, 7)))
        b = TruncPoly(ring, random_terms(rng, ring, rng.randrange(1, 7)))
        ab = a * b
        assert dict(ab.terms) == reference_product(a, b)
        # denser operands reach the top degree buckets and the largest
        # related exponents, 2(r - 1), before the rewrite
        c = TruncPoly(ring, random_terms(rng, ring, rng.randrange(1, 7)))
        assert dict((ab * c).terms) == reference_product(ab, c)


@pytest.mark.parametrize("ring", KERNEL_RINGS.values(), ids=KERNEL_RINGS.keys())
def test_constructor_matches_reference(ring):
    rng = random.Random(404)
    for _ in range(30):
        items = random_terms(rng, ring, rng.randrange(0, 8), overshoot=6)
        assert dict(TruncPoly(ring, items).terms) == reference_normal_form(ring, items)


@pytest.mark.parametrize("ring", KERNEL_RINGS.values(), ids=KERNEL_RINGS.keys())
def test_series_inverse_times_unit(ring):
    rng = random.Random(77)
    for _ in range(10):
        u = TruncPoly(ring, random_terms(rng, ring, 6))
        u = u - u.constant_term() + 1
        assert series_inverse(u) * u == TruncPoly.one(ring)


def test_kernel_generators_of_each_width():
    a, b, c, d, e, f = (gen(WIDTH_RING, i) for i in range(6))
    assert a.is_zero()
    assert b * b == 0 and not b.is_zero()
    assert c**3 != 0 and c**4 == 0
    assert d**7 != 0 and d**8 == 0
    assert e**8 != 0 and e**9 == 0
    assert (b * c**3 * d**7 * e**8 * f**2).total_degree() == WIDTH_RING.max_degree


def test_projbundle_segre_class_golden():
    P2 = ProjProduct((2,))
    E = SplitBundle(tuple(divisor_from_vector(P2, v) for v in ((0,), (1,), (-2,))))
    data = segre_scheme(ProjBundle(P2, E)).to_dict()
    assert list(data.items()) == [
        ("1", "1"),
        ("z^1", "-3"),
        ("z^2", "6"),
        ("h1^1", "-4"),
        ("h1^1*z^1", "13"),
        ("h1^1*z^2", "-18"),
        ("h1^2", "12"),
        ("h1^2*z^1", "-65"),
        ("h1^2*z^2", "106"),
    ]


def test_relation_validation():
    def ring(*terms):
        return RingDescriptor(("h", "z"), (3, 2), ((0, 1),), (Relation(1, 2, terms),))

    ring(((1, 1), Fraction(2)), ((2, 0), Fraction(-1)))
    with pytest.raises(ValueError, match="homogeneous"):
        ring(((1, 0), Fraction(1)),)
    with pytest.raises(ValueError, match="integers"):
        ring(((1, 1), Fraction(1, 2)),)
    with pytest.raises(ValueError, match="normal-form"):
        RingDescriptor(("h", "z"), (2, 2), ((0, 1),), (Relation(1, 2, (((2, 0), Fraction(1)),)),))
