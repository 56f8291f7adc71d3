import json
from fractions import Fraction

import pytest

from quotdeg import quot2
from quotdeg.cli import main
from quotdeg.errors import CrossCheckError, DomainError
from quotdeg.exactpoly import TruncPoly, binomial
from quotdeg.jacobi import a_coeff
from quotdeg.quot2 import (
    Quot2Instance,
    degree2_all,
    degree2_formula,
    degree2_geometric,
    degree2_polynomial,
    degree2_projbundle,
    delta2_classes,
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
    integrate_product,
    power_ring,
    ring_of,
    segre_class,
    segre_scheme,
    segre_total,
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
        cert = diagonal_membership(P2, deltas[k][0])
        assert cert.member


def test_delta2_constant_line():
    # in degree d the span is the one class 2 Delta, labelled "1"
    certificate = delta2_classes(P1, bundle(P1, (0,)), 1)[1][1]
    assert certificate.coefficients == (("1", Fraction(-1, 2)),)


def test_delta2_constant_scales_diagonal():
    E = bundle(P2, (1,), (0,))
    delta = delta2_classes(P2, E)[2][0]
    [(label, c)] = delta2_classes(P2, E, 2)[2][1].coefficients
    assert label == "1"
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
        assert certificate == diagonal_membership(space, delta)
    d = space.dimension
    certificate = delta2_classes(space, E, d)[d][1]
    assert certificate == table[d][1]
    assert {label for label, _ in certificate.coefficients} <= {"1"}


def test_delta2_certificates_rebuild_their_class():
    # each certificate re-expresses delta through the span classes
    # 2 Delta_*(m), m parsed from its label against the monomials of S
    import itertools

    from quotdeg.exactpoly import map_blocks
    from quotdeg.selftest import instance_matrix

    for space, E in instance_matrix():
        ring, square = ring_of(space), power_ring(space, 2)
        monomials = itertools.product(*(range(t) for t in ring.truncations))
        by_label = {ring.monomial_str(m): m for m in monomials}
        for delta, certificate in delta2_classes(space, E):
            rebuilt = TruncPoly.zero(square)
            for label, c in certificate.coefficients:
                m = map_blocks(TruncPoly(ring, [(by_label[label], 1)]), square, (0,))
                rebuilt = rebuilt + c * 2 * m * diagonal_class(space)
            assert rebuilt == delta.rep


def test_delta2_certificate_recorded_values():
    # recorded with the Gauss-Jordan solve over the whole span
    S = ProjProduct((2, 2, 2, 2))
    E = bundle(S, (1, 0, 0, 0), (0, 1, 1, 0))
    certificate = delta2_classes(S, E, 9)[9][1]
    assert certificate.coefficients == (
        ("h4^1", 30),
        ("h3^1", -69),
        ("h2^1", -69),
        ("h1^1", -69),
    )


def off_diagonal_square():
    """h1^2 + h2^2 on P2 x P2: invariant, of degree 2, not a diagonal multiple."""
    square = power_ring(P2, 2)
    h1, h2 = TruncPoly.generator(square, 0), TruncPoly.generator(square, 1)
    return SymClassRep(h1**2 + h2**2)


def nu_off_diagonal_in_degree_2(S, E, l, k):
    nu = nu_class(S, E, l, k)
    return SymClassRep(nu.rep + off_diagonal_square().rep) if k == 2 else nu


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda S, E, l, k: SymClassRep(2 * nu_class(S, E, l, k).rep), "fails to vanish"),
        (nu_off_diagonal_in_degree_2, "escapes the diagonal span"),
    ],
)
def test_delta2_classes_reject_corrupted_conventions(monkeypatch, corrupt, message):
    from quotdeg import quot2

    monkeypatch.setattr(quot2, "nu_class", corrupt)
    with pytest.raises(CrossCheckError, match=message):
        delta2_classes(P2, bundle(P2, (1,), (0,)))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda S, E, l, k: SymClassRep(2 * nu_class(S, E, l, k).rep), "at k = 0 fails"),
        (nu_off_diagonal_in_degree_2, r"at k = 2 escapes the diagonal span: witness \{"),
    ],
)
def test_delta2_failures_name_the_degree(monkeypatch, corrupt, message):
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
        quot2, "nu_class", lambda S, E, l, k: SymClassRep(2 * nu_class(S, E, l, k).rep)
    )
    with pytest.raises(CrossCheckError, match="multinomial prediction"):
        degree2_polynomial(P1, bundle(P1, (0,), (0,)))


def test_degree_d_certificate_rejects_off_diagonal_class():
    certificate = diagonal_membership(P2, SymClassRep(3 * 2 * diagonal_class(P2)))
    assert certificate.coefficients == (("1", 3),)
    assert not diagonal_membership(P2, off_diagonal_square()).member


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
        closed = _fibre_integrals_closed(instance, segre_total(twist(E, instance.Lc1)))
        assert closed == [2 * n, -2 * n - 2, 4]


def reference_fibre_integrals(instance):
    # the class-sum form of the closed I_m: one inner Segre class per (m, k)
    S, d, p, r = instance.S, instance.d, instance.p, instance.E.rank
    segre_EL = segre_total(twist(instance.E, instance.Lc1))
    segre_S = segre_scheme(S)
    out = []
    for m in range(p + 1):
        value = Fraction(0)
        for k in range(d + 1):
            inner = TruncPoly.zero(ring_of(S))
            for j in range(d - k + 1):
                pair = segre_EL.graded_part(d - k - j) * segre_EL.graded_part(j)
                inner = inner + Fraction(-1) ** j * binomial(r - 1 + m - k, m - d + j) * pair
            value += Fraction(-1) ** (m + k) * integrate_product(S, segre_S.graded_part(k), inner)
        out.append(value)
    return out


def reference_formula(instance):
    # the class-sum form of the closed formula: one J class per k
    S, d, p, r = instance.S, instance.d, instance.p, instance.E.rank
    segre_EL = segre_total(twist(instance.E, instance.Lc1))
    sd = integrate(S, segre_EL.graded_part(d))
    segre_S = segre_scheme(S)
    correction = Fraction(0)
    for k in range(d + 1):
        J = TruncPoly.zero(ring_of(S))
        for j in range(d - k + 1):
            J = J + a_coeff(r, d, k, j) * segre_EL.graded_part(d - k - j) * segre_EL.graded_part(j)
        correction += integrate_product(S, segre_S.graded_part(k), J)
    return Fraction(1, 2) * binomial(2 * p, p) * sd**2 - Fraction(2) ** (p - 1) * correction


# (factor dimensions, roots) of the benchmark ladder's rungs
LADDER_RUNGS = [
    ((2,), ((0,), (1,))),
    ((2, 2), ((0, 0), (1, 0), (0, 1))),
    ((4,), ((0,), (1,), (2,), (-1,))),
    ((6,), ((0,), (1,), (2,), (-1,), (3,))),
    ((3, 3), ((0, 0), (1, 0), (0, 1))),
    ((2, 2, 2), ((0, 0, 0), (1, 1, 0))),
]


def test_closed_routes_match_their_class_sum_form():
    P3 = ProjProduct((3,))
    P2xP1 = ProjProduct((2, 1))
    cases = [
        (P1, bundle(P1, (0,), (0,)), divisor_all_ones(P1)),
        (P2, bundle(P2, (1,), (-1,), (0,)), 2 * divisor_all_ones(P2)),
        (P3, bundle(P3, (1,), (2,)), divisor_all_ones(P3)),
        (P1xP1, bundle(P1xP1, (0, 1), (2, -1)), divisor_from_vector(P1xP1, (1, 3))),
        (P2xP1, bundle(P2xP1, (1, 0), (0, 1), (1, 1)), divisor_from_vector(P2xP1, (2, 1))),
        # a rational twist gives pair integrals with denominators
        (P2, bundle(P2, (1,), (0,)), Fraction(1, 2) * hyperplane(P2, 0)),
        (P1xP1, bundle(P1xP1, (0, 0)), Fraction(1, 3) * divisor_from_vector(P1xP1, (1, 0))),
    ]
    # the six ladder rungs, d = 2..6 and r = 2..5, at n = 2: each has rows
    # with d - k even, whose middle pair i = j is formed once, and rows with
    # d - k odd
    for dims, roots in LADDER_RUNGS:
        space = ProjProduct(dims)
        cases.append((space, bundle(space, *roots), 2 * divisor_all_ones(space)))
    for space, E, L in cases:
        instance = Quot2Instance(space, E, L)
        closed = quot2._fibre_integrals_closed(instance, segre_total(twist(E, L)))
        assert closed == reference_fibre_integrals(instance)
        assert degree2_formula(instance) == reference_formula(instance)


@pytest.mark.parametrize(
    "corrupt_kj",
    [(0, 0), (0, 2), (0, 1)],
    ids=["off-middle-low", "off-middle-high", "middle"],
)
def test_formula_cross_check_fires_on_one_corrupted_a_value(monkeypatch, corrupt_kj):
    # on P2 (d = 2) the pairs of row k = 0 are (s_2, s_0) and the middle
    # (s_1, s_1); every a-value enters the formula, so one wrong value in
    # either weight a_j + a_i, or in a middle weight a_j, shows
    def corrupted(r, d, k, j):
        return a_coeff(r, d, k, j) + ((k, j) == corrupt_kj)

    monkeypatch.setattr(quot2, "a_coeff", corrupted)
    instance = inst(P2, bundle(P2, (0,), (1,)), 2)
    with pytest.raises(CrossCheckError, match="degree pipelines disagree"):
        degree2_all(instance)


def test_projbundle_direct_check_fires_on_corrupted_closed_integrals(monkeypatch):
    original = quot2._fibre_integrals_closed

    def corrupted(instance, segre_EL):
        values = original(instance, segre_EL)
        values[1] += 1
        return values

    monkeypatch.setattr(quot2, "_fibre_integrals_closed", corrupted)
    for space, E in [(P1, bundle(P1, (0,), (0,))), (P2, bundle(P2, (1,), (0,)))]:
        with pytest.raises(CrossCheckError, match="fibre integral I_1 mismatch"):
            degree2_projbundle(inst(space, E, 2))


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


P1xP2_RANK3 = json.dumps(
    {
        "base": {"type": "projective_product", "dims": [1, 2]},
        "bundle": {"roots": [[1, 2], [2, 1], [0, 1]]},
        "twist": [1, 1],
    }
)


@pytest.mark.parametrize("points", [["--n", "2"], ["--sweep", "n=0..5"]], ids=["n", "sweep"])
def test_projbundle_pipeline_catches_a_corrupted_twist(capsys, monkeypatch, points):
    # the closed side twists on S and the direct side pulls L back to P(E),
    # so a wrong twist no longer passes both sides of the comparison
    argv = ["degree2", "--input", P1xP2_RANK3, "--pipeline", "projbundle", *points]
    assert main(argv) == 0
    capsys.readouterr()
    # roots + 2L in place of roots + L, wherever quot2 twists
    monkeypatch.setattr(
        quot2, "twist", lambda E, L: SplitBundle(tuple(root + 2 * L for root in E.roots))
    )
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out)["error"].startswith("fibre integral I_0 mismatch")


def test_projbundle_sweep_builds_one_bundle_ring(capsys):
    # every twist integrates over the same P(E): the base ring and the ring
    # of P(E) are all a sweep adds to the ring cache, however many points
    instance = json.dumps(
        {
            "base": {"type": "projective_product", "dims": [3, 1]},
            "bundle": {"roots": [[3, -2], [1, 4]]},
            "twist": [2, 1],
        }
    )
    before = power_ring.cache_info().currsize
    argv = ["degree2", "--input", instance, "--pipeline", "projbundle", "--sweep", "n=-10..19"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 31
    assert power_ring.cache_info().currsize - before <= 2
