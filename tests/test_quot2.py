from fractions import Fraction

import pytest

from quotdeg.errors import CrossCheckError, DomainError
from quotdeg.exactpoly import TruncPoly
from quotdeg.quot2 import (
    Quot2Instance,
    degree2_all,
    degree2_formula,
    degree2_geometric,
    degree2_polynomial,
    degree2_projbundle,
    delta2_classes,
    delta2_constant,
    diagonal_multiple,
    divisor_all_ones,
    mu2_classes,
)
from quotdeg.symquot import SymClassRep, diagonal_membership, integrate_sym, nu_class
from quotdeg.varieties import (
    ProjProduct,
    SplitBundle,
    diagonal_class,
    divisor_from_vector,
    hyperplane,
    integrate,
    power_ring,
    segre_class,
    twist,
)

P1 = ProjProduct((1,))
P2 = ProjProduct((2,))
P1xP1 = ProjProduct((1, 1))


def bundle(space, *vectors):
    return SplitBundle(tuple(divisor_from_vector(space, vec) for vec in vectors))


def inst(space, E, n):
    return Quot2Instance(space, E, n * divisor_all_ones(space))


def test_formula_rank1_line():
    E = bundle(P1, (0,))
    assert degree2_formula(inst(P1, E, 3)) == 4


def test_formula_rank2_line():
    E = bundle(P1, (0,), (0,))
    assert degree2_formula(inst(P1, E, 2)) == 22


def test_formula_plane():
    E = bundle(P2, (0,))
    assert degree2_formula(inst(P2, E, 2)) == 21


@pytest.mark.parametrize(
    "space,vectors",
    [
        (P1, ((0,),)),
        (P1, ((0,), (0,))),
        (P1, ((1,), (-1,))),
        (P2, ((0,),)),
        (P2, ((1,), (0,))),
        (P1xP1, ((0, 0), (1, 1))),
    ],
)
def test_pipelines_agree(space, vectors):
    E = bundle(space, *vectors)
    for n in range(3):
        instance = inst(space, E, n)
        value = degree2_all(instance)
        assert value == degree2_projbundle(instance) == degree2_geometric(instance)


def test_polynomial_goldens():
    assert list(degree2_polynomial(P1, bundle(P1, (0,), (0,)))) == [6, -16, 12]
    assert list(degree2_polynomial(P1, bundle(P1, (0,)))) == [1, -2, 1]
    assert list(degree2_polynomial(P2, bundle(P2, (0,)))) == [-3, 12, -12, 0, 3]


def test_mu2_degree_zero_constant():
    # (2(r-1))! / (r-1)!^2: 2 for rank 2, 6 for rank 3
    for space, E, expected in [
        (P1, bundle(P1, (0,), (0,)), 2),
        (P2, bundle(P2, (1,), (0,), (0,)), 6),
    ]:
        rep = mu2_classes(space, E, 0)[0]
        assert rep.rep == TruncPoly.constant(power_ring(space, 2), expected)


def test_mu2_degree_one_example():
    E = bundle(P2, (1,), (1,))
    rep = mu2_classes(P2, E, 1)[1]
    square = power_ring(P2, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    assert rep.rep == 6 * (h1 + h2)
    assert rep.rep == nu_class(P2, E, 2, 1).rep


def test_mu2_trivial_bundle_vanishing():
    # vanishing in degrees strictly between 0 and dim S
    E = bundle(P2, (0,), (0,))
    reps = mu2_classes(P2, E)
    assert reps[1].rep.is_zero()


def test_mu2_range_guard():
    with pytest.raises(DomainError):
        mu2_classes(P1, bundle(P1, (0,)), 3)


def test_mu2_line_coefficients():
    # on the line the degree-k class is a_k times the k-th elementary symmetric
    E = bundle(P1, (0,))
    reps = mu2_classes(P1, E)
    square = power_ring(P1, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    assert reps[0].rep == TruncPoly.one(square)
    assert reps[1].rep == -(h1 + h2)
    assert reps[2].rep == 2 * h1 * h2


def test_delta2_vanishes_below_dimension():
    for space, E in [(P2, bundle(P2, (1,), (0,))), (P1xP1, bundle(P1xP1, (1, 0), (0, 1)))]:
        deltas = delta2_classes(space, E)
        for k in range(space.dimension):
            assert deltas[k][0].rep.is_zero()


def test_delta2_membership_certified():
    E = bundle(P2, (0,), (0,))
    deltas = delta2_classes(P2, E)
    for k in range(2, 5):
        cert = diagonal_membership(P2, 2, deltas[k][0])
        assert cert.member


def test_delta2_constant_line():
    assert delta2_constant(P1, bundle(P1, (0,))) == Fraction(-1, 2)


def test_delta2_constant_scales_diagonal():
    E = bundle(P2, (1,), (0,))
    c = delta2_constant(P2, E)
    delta = delta2_classes(P2, E)[2][0]
    assert delta.rep == c * 2 * diagonal_class(P2)


@pytest.mark.parametrize(
    "space, roots",
    [
        (P1, [(0,)]),
        (P1, [(1,), (-1,)]),
        (P2, [(1,), (0,)]),
        (P2, [(0,), (1,), (2,)]),
        (P1xP1, [(1, 1)]),
        (P1xP1, [(1, 0), (0, 1)]),
        (P1xP1, [(0, 0), (1, 1), (2, -1)]),
    ],
)
def test_delta2_classes_match_per_degree_calls(space, roots):
    E = bundle(space, *roots)
    table = delta2_classes(space, E)
    assert len(table) == 2 * space.dimension + 1
    for k, (delta, certificate) in enumerate(table):
        assert delta == delta2_classes(space, E, k)[k][0]
        assert certificate == diagonal_membership(space, 2, delta)
    d = space.dimension
    assert delta2_constant(space, E) == diagonal_multiple(space, table[d][0])


def off_diagonal_square():
    """h1^2 + h2^2 on P2 x P2: invariant, of degree 2, not a diagonal multiple."""
    square = power_ring(P2, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    return SymClassRep(h1**2 + h2**2, 2)


def nu_off_diagonal_in_degree_2(S, E, l, k):
    nu = nu_class(S, E, l, k)
    return SymClassRep(nu.rep + off_diagonal_square().rep, l) if k == 2 else nu


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda S, E, l, k: SymClassRep(2 * nu_class(S, E, l, k).rep, l), "fails to vanish"),
        (nu_off_diagonal_in_degree_2, "escapes the diagonal span"),
    ],
)
def test_delta2_classes_reject_corrupted_conventions(monkeypatch, corrupt, message):
    from quotdeg import quot2

    monkeypatch.setattr(quot2, "nu_class", corrupt)
    with pytest.raises(CrossCheckError, match=message):
        delta2_classes(P2, bundle(P2, (1,), (0,)))


def test_mu2_classes_reject_a_shifted_power_table(monkeypatch):
    # each entry one power too low: invariant and homogeneous, but of degree
    # k - 1, so only the degree check can catch it
    from quotdeg import quot2

    table = quot2.pair_power_pushforward_table
    monkeypatch.setattr(
        quot2, "pair_power_pushforward_table", lambda *args: [None] + table(*args)[:-1]
    )
    with pytest.raises(CrossCheckError, match="wrong degree"):
        mu2_classes(P2, bundle(P2, (1,), (0,)))


def test_degree2_polynomial_rejects_a_corrupted_prediction(monkeypatch):
    from quotdeg import quot2

    monkeypatch.setattr(
        quot2, "nu_class", lambda S, E, l, k: SymClassRep(2 * nu_class(S, E, l, k).rep, l)
    )
    with pytest.raises(CrossCheckError, match="multinomial prediction"):
        degree2_polynomial(P1, bundle(P1, (0,), (0,)))


def test_diagonal_multiple_rejects_off_diagonal_class():
    assert diagonal_multiple(P2, SymClassRep(3 * 2 * diagonal_class(P2), 2)) == 3
    with pytest.raises(CrossCheckError, match="not proportional"):
        diagonal_multiple(P2, off_diagonal_square())


def test_leading_term_split():
    # degree = (2p)!/(2 p!^2) (int s_d)^2 + symmetric integral of the defect
    for space, E in [(P1, bundle(P1, (0,), (0,))), (P2, bundle(P2, (0,),))]:
        d = space.dimension
        p = E.rank - 1 + d
        L = divisor_all_ones(space)
        instance = Quot2Instance(space, E, L)
        value = degree2_formula(instance)
        EL = twist(E, L)
        sd = integrate(space, segre_class(EL, d))
        from math import factorial

        leading = Fraction(factorial(2 * p), 2 * factorial(p) ** 2) * sd**2
        defect = integrate_sym(space, delta2_classes(space, EL)[2 * d][0])
        assert value == leading + defect


def test_prop_pushforward_integral_equals_degree():
    for space, E, n in [(P1, bundle(P1, (0,), (0,)), 2), (P2, bundle(P2, (0,),), 1)]:
        L = n * divisor_all_ones(space)
        instance = Quot2Instance(space, E, L)
        top = mu2_classes(space, twist(E, L))[2 * space.dimension]
        assert integrate_sym(space, top) == degree2_formula(instance)


def test_instance_validation():
    with pytest.raises(DomainError):
        Quot2Instance(P1, bundle(P1, (0,)), hyperplane(P1, 0) ** 1 + 1)


def test_fibre_integrals_frozen_values():
    # hand-derived for (P1, O + O, twist n): I_0 = 2n, I_1 = -2n - 2, I_2 = 4
    from quotdeg.quot2 import _fibre_integrals_closed

    E = bundle(P1, (0,), (0,))
    for n in (1, 2, 3):
        instance = inst(P1, E, n)
        closed = _fibre_integrals_closed(instance)
        assert closed == [2 * n, -2 * n - 2, 4]


def test_mu2_twisting_law():
    # the pushforward classes of the twisted bundle decompose against the
    # untwisted ones; both tables are computed through independent geometry
    from quotdeg.exactpoly import binomial
    from quotdeg.varieties import boxsum

    cases = [
        (P1, ((0,), (0,)), (1,)),
        (P2, ((1,), (0,)), (2,)),
        (P1xP1, ((0, 0), (1, 1)), (1, 2)),
        (P2, ((1,), (-1,), (0,)), (1,)),
    ]
    for space, roots, Lvec in cases:
        E = bundle(space, *roots)
        L = divisor_from_vector(space, Lvec)
        r, d = E.rank, space.dimension
        mu = mu2_classes(space, E)
        mu_twisted = mu2_classes(space, twist(E, L))
        box = boxsum(space, 2, L)
        for k in range(2 * d + 1):
            expected = TruncPoly.zero(box.ring)
            for j in range(k + 1):
                expected = expected + binomial(2 * (r - 1) + k, k - j) * box ** (k - j) * mu[j].rep
            assert mu_twisted[k].rep == expected
