import random

import pytest

from quotdeg.errors import DomainError
from quotdeg.exactpoly import TruncPoly, binomial, permute_blocks
from quotdeg.hilb2 import blowup_power_pushforward, hilb2_degree, pair_power_pushforward_table
from quotdeg.varieties import (
    ProjBundle,
    ProjProduct,
    SplitBundle,
    divisor_from_vector,
    hyperplane,
    integrate,
    power_ring,
    ring_of,
)

P1 = ProjProduct((1,))
P2 = ProjProduct((2,))
P3 = ProjProduct((3,))
P1xP1 = ProjProduct((1, 1))


def test_blowup_pushforward_m0():
    assert blowup_power_pushforward(P2, 0) == TruncPoly.one(power_ring(P2, 2))


def test_blowup_pushforward_P1():
    square = power_ring(P1, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    assert blowup_power_pushforward(P1, 1) == -(h1 + h2)


def test_blowup_pushforward_below_dimension():
    assert blowup_power_pushforward(P2, 1).is_zero()
    assert blowup_power_pushforward(P3, 2).is_zero()


def test_blowup_pushforward_P2_m3():
    # -Delta_*(s_1) with s_1(P2) = -3h
    square = power_ring(P2, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    assert blowup_power_pushforward(P2, 3) == 3 * (h1**2 * h2 + h1 * h2**2)


def test_pair_pushforward_power_zero():
    out = pair_power_pushforward_table(P2, hyperplane(P2, 0), 0)[0]
    assert out == TruncPoly.one(power_ring(P2, 2))


def test_pair_pushforward_P1_hand_expansion():
    n = 3
    out = pair_power_pushforward_table(P1, n * hyperplane(P1, 0), 2)[2]
    square = power_ring(P1, 2)
    top = TruncPoly.generator(square, 0) * TruncPoly.generator(square, 1)
    assert out == 2 * (n - 1) ** 2 * top


def test_pair_pushforward_swap_symmetric():
    out = pair_power_pushforward_table(P2, hyperplane(P2, 0), 4)[4]
    assert permute_blocks(out, (1, 0)) == out


def test_pair_pushforward_pure_degree():
    table = pair_power_pushforward_table(P1xP1, divisor_from_vector(P1xP1, (1, 2)), 4)
    for n, out in enumerate(table):
        assert out.is_homogeneous()
        if not out.is_zero():
            assert out.total_degree() == n


def test_pair_pushforward_matches_literal_sum():
    # independent re-expansion straight from the definition
    from quotdeg.varieties import boxsum

    rng = random.Random(4)
    spaces = [P1, P2, P1xP1]
    for space in spaces:
        vec = tuple(rng.randrange(-1, 3) for _ in space.dims)
        M = divisor_from_vector(space, vec)
        for N in range(0, 2 * space.dimension + 1):
            box = boxsum(space, 2, M)
            literal = TruncPoly.zero(power_ring(space, 2))
            for m in range(N + 1):
                literal = literal + binomial(N, m) * box ** (N - m) * blowup_power_pushforward(space, m)
            assert pair_power_pushforward_table(space, M, N)[N] == literal


def test_request_validation():
    with pytest.raises(DomainError):
        pair_power_pushforward_table(P1, hyperplane(P2, 0), 2)
    with pytest.raises(DomainError):
        pair_power_pushforward_table(P2, hyperplane(P2, 0) ** 2, 2)
    with pytest.raises(DomainError):
        pair_power_pushforward_table(P2, hyperplane(P2, 0), 500)
    with pytest.raises(DomainError):
        pair_power_pushforward_table(P2, hyperplane(P2, 0), 2 * P2.dimension + 1)
    assert len(pair_power_pushforward_table(P2, hyperplane(P2, 0), 2 * P2.dimension)) == 5


def test_degree_P1():
    for n in range(6):
        assert hilb2_degree(P1, n * hyperplane(P1, 0)) == (n - 1) ** 2


def test_degree_P2():
    for n in range(4):
        expected = 3 * n**4 - 12 * n**2 + 12 * n - 3
        assert hilb2_degree(P2, n * hyperplane(P2, 0)) == expected


def test_degree_P1xP1():
    for n in range(4):
        M = divisor_from_vector(P1xP1, (n, 1))
        assert hilb2_degree(P1xP1, M) == 12 * n**2 - 16 * n + 6


def test_degree_zero_divisor():
    # single surviving closed-form term, still checked against the blow-up route
    for space in (P1, P2, P1xP1):
        hilb2_degree(space, TruncPoly.zero(ring_of(space)))


def test_degree_routes_random():
    rng = random.Random(23)
    ring = ring_of(P1)
    h = TruncPoly.generator(ring, 0)
    fibration = ProjBundle(P1, SplitBundle((TruncPoly.zero(ring), h)))
    spaces = [P1, P2, P3, P1xP1, fibration]
    for _ in range(20):
        space = rng.choice(spaces)
        vec = tuple(rng.randrange(-2, 4) for _ in range(ring_of(space).ngens))
        hilb2_degree(space, divisor_from_vector(space, vec))


def test_degree_on_projective_bundle():
    ring = ring_of(P1)
    h = TruncPoly.generator(ring, 0)
    E = SplitBundle((TruncPoly.zero(ring), TruncPoly.zero(ring)))
    X = ProjBundle(P1, E)
    for n in range(3):
        M = divisor_from_vector(X, (n, 1))
        assert hilb2_degree(X, M) == 12 * n**2 - 16 * n + 6


def test_degree_P3_closed_form():
    # hand evaluation: 10n^6 - 80n^3 + 120n^2 - 60n + 10
    for n in range(4):
        expected = 10 * n**6 - 80 * n**3 + 120 * n**2 - 60 * n + 10
        assert hilb2_degree(P3, n * hyperplane(P3, 0)) == expected


def test_degree_quadric_diagonal_polarisation():
    # hand evaluation for O(n, n): 12n^4 - 24n^2 + 16n - 2
    for n in range(4):
        M = divisor_from_vector(P1xP1, (n, n))
        assert hilb2_degree(P1xP1, M) == 12 * n**4 - 24 * n**2 + 16 * n - 2


def _degree_matrix():
    """The (space, divisor) pairs of the degree tests above."""
    ring = ring_of(P1)
    h = TruncPoly.generator(ring, 0)
    fibration = ProjBundle(P1, SplitBundle((TruncPoly.zero(ring), h)))
    trivial = ProjBundle(P1, SplitBundle((TruncPoly.zero(ring), TruncPoly.zero(ring))))
    cases = [(P1, n * hyperplane(P1, 0)) for n in range(6)]
    cases += [(P2, n * hyperplane(P2, 0)) for n in range(4)]
    cases += [(P3, n * hyperplane(P3, 0)) for n in range(4)]
    cases += [(P1xP1, divisor_from_vector(P1xP1, v)) for n in range(4) for v in ((n, 1), (n, n))]
    cases += [(space, TruncPoly.zero(ring_of(space))) for space in (P1, P2, P1xP1)]
    cases += [(trivial, divisor_from_vector(trivial, (n, 1))) for n in range(3)]
    rng = random.Random(23)
    for _ in range(20):
        space = rng.choice([P1, P2, P3, P1xP1, fibration])
        vec = tuple(rng.randrange(-2, 4) for _ in range(ring_of(space).ngens))
        cases.append((space, divisor_from_vector(space, vec)))
    return cases


def test_degree_equals_half_the_full_pair_pushforward_integral():
    # the blow-up route pairs top-degree monomials; this forms every product
    for space, M in _degree_matrix():
        pushed = pair_power_pushforward_table(space, M, 2 * space.dimension)[-1]
        assert hilb2_degree(space, M) == integrate(space, pushed) / 2


# the six ladder rungs: (factor dimensions, Chern root vectors)
LADDER_RUNGS = (
    ((2,), ((0,), (1,))),
    ((2, 2), ((0, 0), (1, 0), (0, 1))),
    ((4,), ((0,), (1,), (2,), (-1,))),
    ((6,), ((0,), (1,), (2,), (-1,), (3,))),
    ((3, 3), ((0, 0), (1, 0), (0, 1))),
    ((2, 2, 2), ((0, 0, 0), (1, 1, 0))),
)


def _kernel_box_powers(space, divisor, top):
    """(M boxplus M)^i by repeated products in the square ring, the box
    sum built on the term-dict path."""
    square = power_ring(space, 2)
    k = ring_of(space).ngens
    items = []
    for mono, coeff in divisor.terms.items():
        items.append((mono + (0,) * k, coeff))
        items.append(((0,) * k + mono, coeff))
    box = TruncPoly(square, items)
    powers = [TruncPoly.one(square)]
    for _ in range(top):
        powers.append(powers[-1] * box)
    return powers


def test_box_powers_match_repeated_kernel_products():
    from fractions import Fraction

    from quotdeg.hilb2 import _box_powers
    from quotdeg.varieties import pullback_to_bundle, zeta

    for dims, roots in LADDER_RUNGS:
        S = ProjProduct(dims)
        X = ProjBundle(S, SplitBundle(tuple(divisor_from_vector(S, v) for v in roots)))
        M = pullback_to_bundle(X, divisor_from_vector(S, [2] * len(dims))) + zeta(X)
        assert _box_powers(X, M, X.dimension) == _kernel_box_powers(X, M, X.dimension)
    # rational coefficients, and powers past the dimension, which vanish
    for space, vec in ((P2, (1,)), (P1xP1, (2, -1))):
        M = Fraction(2, 3) * divisor_from_vector(space, vec)
        top = 2 * space.dimension + 1
        assert _box_powers(space, M, top) == _kernel_box_powers(space, M, top)


def test_blowup_route_takes_its_own_powers_of_the_divisor(monkeypatch):
    # the closed route localises 2M and the blow-up route takes the powers of
    # M, so the routes must disagree; a divisor or powers shared between the
    # routes would both be those of 2M and agree
    from quotdeg import hilb2
    from quotdeg.errors import CrossCheckError

    original = hilb2.localised_fibre_integrals

    def doubled(dims, roots, divisor, t):
        return original(dims, roots, tuple(2 * x for x in divisor), t)

    monkeypatch.setattr(hilb2, "localised_fibre_integrals", doubled)
    for space, M in ((P2, hyperplane(P2, 0)), (P1xP1, divisor_from_vector(P1xP1, (1, 2)))):
        with pytest.raises(CrossCheckError, match="hilb2 degree routes disagree"):
            hilb2_degree(space, M)


def _mutant_diagonal_class(old, new):
    """`varieties.diagonal_class` with the one occurrence of `old` in its
    source replaced by `new`, compiled against the module's own names."""
    import inspect

    from quotdeg import varieties

    source = inspect.getsource(varieties.diagonal_class)
    assert source.count(old) == 1, old
    namespace = dict(vars(varieties))
    exec(compile(source.replace(old, new), varieties.__file__, "exec"), namespace)
    return namespace["diagonal_class"]


def test_a_sign_error_in_the_bundle_diagonal_fails_the_routes(monkeypatch, capsys):
    # the i = 1 term of the P(E) diagonal's fibre sum with the wrong sign
    # reaches the blow-up route through the exceptional pushforwards only
    import json

    from quotdeg import cli, hilb2, varieties
    from quotdeg.errors import CrossCheckError
    from quotdeg.varieties import pullback_to_bundle, zeta

    mutant = _mutant_diagonal_class(
        "fibre = fibre + Fraction(-1) ** i * kernel_chern",
        "fibre = fibre + Fraction(-1) ** (i + (i == 1)) * kernel_chern",
    )
    real = varieties.diagonal_class
    real.cache_clear()
    hilb2.blowup_power_pushforward.cache_clear()
    hilb2._exceptional_split.cache_clear()
    try:
        monkeypatch.setattr(varieties, "diagonal_class", mutant)
        cases = (
            ((1,), ((0,), (1,)), (1,)),
            ((2,), ((0,), (1,)), (1,)),
            ((1, 2), ((1, 2), (2, 1), (0, 1)), (1, 1)),
            ((2, 2), ((0, 0), (1, 0), (0, 1)), (1, 1)),
        )
        for dims, roots, twist_vector in cases:
            S = ProjProduct(dims)
            X = ProjBundle(S, SplitBundle(tuple(divisor_from_vector(S, v) for v in roots)))
            M = pullback_to_bundle(X, divisor_from_vector(S, twist_vector)) + zeta(X)
            with pytest.raises(CrossCheckError, match="hilb2 degree routes disagree"):
                hilb2_degree(X, M)
        instance = {
            "base": {"type": "projective_product", "dims": [1, 2]},
            "bundle": {"roots": [[1, 2], [2, 1], [0, 1]]},
            "twist": [1, 1],
        }
        code = cli.main(["degree2", "--n", "1", "--input", json.dumps(instance)])
        assert code == 3
        assert "hilb2 degree routes disagree" in json.loads(capsys.readouterr().out)["error"]
    finally:
        hilb2.blowup_power_pushforward.cache_clear()
        hilb2._exceptional_split.cache_clear()
        real.cache_clear()


# the blow-up route as a square-ring integral: each e_m, e_0 = 1 included,
# integrated against (M boxplus M)^{2d-m} placed on X x X by block products
def reference_blowup_route(space, divisor):
    from math import comb

    from quotdeg.exactpoly import block_products, map_blocks
    from quotdeg.varieties import integrate_product

    d = space.dimension
    square = power_ring(space, 2)
    own = [TruncPoly.one(divisor.ring)]
    for _ in range(d):
        own.append(own[-1] * divisor)
    first = [map_blocks(p, square, (0,)) for p in own]
    second = [map_blocks(p, square, (1,)) for p in own]
    blowup = 0
    for m in (0, *range(d, 2 * d + 1)):
        n = 2 * d - m
        js = range(max(0, n - d), min(n, d) + 1)  # M^j vanishes on X for j > d
        box = block_products(square, [(comb(n, j), [first[j], second[n - j]]) for j in js])
        e = blowup_power_pushforward(space, m)
        blowup += binomial(2 * d, m) * integrate_product(space, box, e)
    return blowup / 2


def test_one_pass_blowup_sum_matches_the_square_ring_integral_on_instance_matrix():
    from fractions import Fraction

    from quotdeg import hilb2
    from quotdeg.selftest import instance_matrix
    from quotdeg.varieties import pullback_to_bundle, zeta

    rng = random.Random(29)
    spaces = {}
    for S, E in instance_matrix():
        spaces[S] = None
        spaces[ProjBundle(S, E)] = None
    for space in spaces:
        ngens = ring_of(space).ngens
        integral = divisor_from_vector(space, [rng.randrange(-2, 4) for _ in range(ngens)])
        rational = divisor_from_vector(
            space, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(ngens)]
        )
        divisors = [integral, rational]
        if isinstance(space, ProjBundle):
            base = divisor_from_vector(space.base, [1] * len(space.base.dims))
            divisors.append(pullback_to_bundle(space, base) + zeta(space))
        for M in divisors:
            assert hilb2._blowup_route(space, M) == reference_blowup_route(space, M), (space, M)


def test_exceptional_split_holds_each_exceptional_term_once():
    from quotdeg import hilb2

    S = ProjProduct((1, 2))
    X = ProjBundle(S, SplitBundle(tuple(divisor_from_vector(S, v) for v in ((1, 2), (2, 1), (0, 1)))))
    ms, split = hilb2._exceptional_split(X)
    d = X.dimension
    assert ms == tuple(m for m in range(d, 2 * d + 1) if not blowup_power_pushforward(X, m).is_zero())
    keys = [k for group in split.keys for k in group]
    assert len(set(keys)) == len(keys)
    for m, (_, groups) in zip(ms, split.classes):
        rows = sum(len(r) for _, r in groups)
        assert rows == 3 * len(blowup_power_pushforward(X, m).terms)
        assert [i for i, _ in groups] == sorted(i for i, _ in groups)


def test_closed_form_in_integers_matches_the_rational_expression():
    # the closed form summed in integers over one denominator against the
    # formula term by term in Fractions, on integral and rational I_m
    from fractions import Fraction

    from quotdeg.hilb2 import closed_form

    rng = random.Random(38)
    for D in range(1, 8):
        for _ in range(20):
            I = [
                Fraction(rng.randrange(-50, 51), rng.choice((1, 1, 2, 3, 7, 12)))
                for _ in range(D + 1)
            ]
            series = sum(binomial(2 * D, D + m) * Fraction(1, 2**m) * I[m] for m in range(D + 1))
            want = Fraction(1, 2) * binomial(2 * D, D) * I[0] ** 2 - 2 ** (D - 1) * series
            assert closed_form(D, I) == want, (D, I)


def test_fibre_integrals_reject_a_divisor_off_the_space():
    from quotdeg.hilb2 import fibre_integrals

    with pytest.raises(DomainError, match="divisor must live on the space"):
        fibre_integrals(P2, hyperplane(P1, 0))
    with pytest.raises(DomainError, match="homogeneous of degree 1"):
        fibre_integrals(P2, hyperplane(P2, 0) ** 2)
