import json
from fractions import Fraction

import pytest

from quotdeg import quot2
from quotdeg.cli import main
from quotdeg.errors import CrossCheckError, DomainError
from quotdeg.exactpoly import DegreePolynomial, TruncPoly, binomial
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
    P1xP2 = ProjProduct((1, 2))
    for S, E in ((P1, bundle(P1, (0,), (0,))), (P1xP2, bundle(P1xP2, (1, 2), (2, 1), (0, 1)))):
        with pytest.raises(CrossCheckError, match="multinomial prediction"):
            degree2_polynomial(S, E)


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
        closed = _fibre_integrals_closed(instance, quot2._segre_pairs(instance))
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
        closed = quot2._fibre_integrals_closed(instance, quot2._segre_pairs(instance))
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

    # the formula reads its weights from a table built once per (r, d)
    quot2._pair_weights.cache_clear()
    monkeypatch.setattr(quot2, "a_coeff", corrupted)
    instance = inst(P2, bundle(P2, (0,), (1,)), 2)
    try:
        with pytest.raises(CrossCheckError, match="degree pipelines disagree"):
            degree2_all(instance)
    finally:
        quot2._pair_weights.cache_clear()


def test_pair_weights_match_fresh_a_values():
    for r in range(1, 7):
        for d in range(1, 7):
            table = quot2._pair_weights(r, d)
            assert len(table) == d + 1
            for k, row in enumerate(table):
                assert len(row) == (d - k) // 2 + 1
                for j, weight in enumerate(row):
                    i = d - k - j
                    expected = a_coeff(r, d, k, j) + (a_coeff(r, d, k, i) if i != j else 0)
                    assert weight == expected, (r, d, k, j)


def test_projbundle_direct_check_fires_on_corrupted_closed_integrals(monkeypatch):
    original = quot2._fibre_integrals_closed

    def corrupted(instance, pairs):
        values = original(instance, pairs)
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
    # the closed side twists the roots at the fixed points of S and the direct
    # side pulls L back to P(E), so a wrong twist no longer passes both sides
    # of the comparison
    argv = ["degree2", "--input", P1xP2_RANK3, "--pipeline", "projbundle", *points]
    assert main(argv) == 0
    capsys.readouterr()
    # roots + 2L in place of roots + L, where the closed side twists
    real = quot2.localised_segre_pairs

    def doubled(dims, roots, twist, t):
        return real(dims, roots, tuple(2 * x for x in twist), t)

    monkeypatch.setattr(quot2, "localised_segre_pairs", doubled)
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


def test_degree2_polynomial_verification_point_names_both_values(monkeypatch):
    # the interpolant is off by one everywhere, so it misses the formula at n = 2d + 1
    real = quot2.poly_interpolate

    def shifted(points):
        c0, *rest = real(points).coefficients
        return DegreePolynomial((c0 + 1, *rest))

    monkeypatch.setattr(quot2, "poly_interpolate", shifted)
    E = bundle(P1, (0,), (0,))
    want = degree2_formula(inst(P1, E, 3))
    with pytest.raises(CrossCheckError) as caught:
        degree2_polynomial(P1, E)
    error = caught.value
    assert error.routes == "degree polynomial fails at the verification point: interpolant vs formula"
    assert error.values == (want + 1, want)
    assert error.instance["n"] == 3


def test_projbundle_i0_check_names_both_values(monkeypatch):
    # only the top Segre integral is off by one; the I_m checks read the
    # pair table, so they pass
    real = quot2.localised_segre_pairs

    def shifted(dims, roots, twist, t):
        P, den, sd = real(dims, roots, twist, t)
        return P, den, sd + 1

    monkeypatch.setattr(quot2, "localised_segre_pairs", shifted)
    for space, E in [(P1, bundle(P1, (0,), (0,))), (P2, bundle(P2, (1,), (0,)))]:
        instance = inst(space, E, 2)
        closed0 = quot2._fibre_integrals_closed(instance, quot2._segre_pairs(instance))[0]
        with pytest.raises(CrossCheckError) as caught:
            degree2_projbundle(instance)
        error = caught.value
        assert error.routes == (
            "I_0 does not reduce to the top Segre integral: closed I_0 vs (-1)^d int s_d"
        )
        assert error.values == (closed0, closed0 + (-1) ** space.dimension)


# the bases and bundles on which degree2_all must compute each shared piece once
SHARED_PIECE_CASES = [
    (P1, ((1,), (2,))),
    (P2, ((1,), (2,))),
    (ProjProduct((1, 2)), ((1, 2), (2, 1), (0, 1))),
    (ProjProduct((2, 2)), ((0, 0), (1, 0), (0, 1))),
]


@pytest.mark.parametrize(
    "space,vectors", SHARED_PIECE_CASES, ids=["P1-r2", "P2-r2", "P1xP2-r3", "P2xP2-r3"]
)
def test_degree2_all_computes_each_shared_piece_once(monkeypatch, space, vectors):
    from collections import Counter

    from quotdeg import hilb2

    instance = inst(space, bundle(space, *vectors), 2)
    want = degree2_all(instance)  # fills the caches keyed on untwisted data
    calls = Counter()

    def count(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(quot2, "_segre_pairs", "quot2._segre_pairs")
    count(quot2, "localised_segre_pairs", "quot2.localised_segre_pairs")
    count(quot2, "fibre_integrals", "quot2.fibre_integrals")
    count(hilb2, "fibre_integrals", "hilb2.fibre_integrals")
    count(hilb2, "localised_fibre_integrals", "hilb2.localised_fibre_integrals")
    assert degree2_all(instance) == want
    # one localised Segre-pair table, one localised set of direct fibre integrals
    assert calls["quot2._segre_pairs"] == calls["quot2.localised_segre_pairs"] == 1
    assert calls["quot2.fibre_integrals"] == calls["hilb2.localised_fibre_integrals"] == 1
    assert calls["hilb2.fibre_integrals"] == 0
    calls.clear()
    for pipeline in (degree2_formula, degree2_projbundle, degree2_geometric):
        assert pipeline(instance) == want
    # the three pipelines one at a time take two tables and two sets of integrals
    assert calls["quot2.localised_segre_pairs"] == 2
    assert calls["hilb2.localised_fibre_integrals"] == 2


def degree2_n_report(capsys):
    """The exit-3 report of `degree2 --n 2` on P1xP2, rank 3."""
    assert main(["degree2", "--input", P1xP2_RANK3, "--n", "2"]) == 3
    return json.loads(capsys.readouterr().out)


def test_each_corrupted_segre_pair_entry_fails_the_fibre_integral_check(capsys, monkeypatch):
    # P[k][j] first enters I_m at m = max(k, d - j), with a nonzero weight
    real = quot2._segre_pairs
    d = 3
    for k in range(d + 1):
        for j in range(d - k + 1):

            def corrupted(instance, k=k, j=j):
                P, den, sd = real(instance)
                P[k][j] += 1
                return P, den, sd

            monkeypatch.setattr(quot2, "_segre_pairs", corrupted)
            report = degree2_n_report(capsys)
            m = max(k, d - j)
            assert report["routes"] == f"fibre integral I_{m} mismatch: closed vs direct", (k, j)


def test_each_corrupted_direct_fibre_integral_fails_the_fibre_integral_check(
    capsys, monkeypatch
):
    real = quot2.fibre_integrals
    p = 5
    for m in range(p + 1):

        def corrupted(space, divisor, m=m):
            values = real(space, divisor)
            values[m] += 1
            return values

        monkeypatch.setattr(quot2, "fibre_integrals", corrupted)
        report = degree2_n_report(capsys)
        assert report["routes"] == f"fibre integral I_{m} mismatch: closed vs direct"
        assert report["values"][1] == str(Fraction(report["values"][0]) + 1)


def test_a_corrupted_shared_closed_form_fails_formula_vs_projective_bundle(capsys, monkeypatch):
    # quot2's closed form is the projective-bundle pipeline's; the closed
    # route of the two-point degree reads hilb2's, so its check still passes
    real = quot2.closed_form
    monkeypatch.setattr(quot2, "closed_form", lambda D, integrals: real(D, integrals) + 1)
    report = degree2_n_report(capsys)
    assert report["routes"] == "degree pipelines disagree: formula vs projective bundle"
    assert report["values"] == ["125434236", "125434237"]


def test_a_corrupted_blowup_route_fails_the_hilb2_routes(capsys, monkeypatch):
    from quotdeg import hilb2

    real = hilb2._blowup_route
    monkeypatch.setattr(hilb2, "_blowup_route", lambda space, M: real(space, M) + 1)
    report = degree2_n_report(capsys)
    assert report["routes"] == "hilb2 degree routes disagree: closed form vs blow-up route"
    assert report["values"] == ["125434236", "125434237"]


@pytest.fixture
def cold_segre_caches():
    """The caches that hold tangent or Segre classes of spaces, or classes
    built from them, emptied before and after the test: the tangent class of
    P(E) reads its base's through the module, and only when it is not cached."""
    from quotdeg import hilb2, varieties

    caches = (
        varieties.tangent_chern,
        varieties.segre_scheme,
        hilb2.blowup_power_pushforward,
        hilb2._exceptional_split,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_a_corrupted_tangent_class_fails_the_localised_closed_route(
    capsys, monkeypatch, cold_segre_caches
):
    # c(T) times (1 + h_1) on every product space, so on the base of P(E) too:
    # every class the kernel routes read is wrong in the same way, and only
    # the localised closed route of the two-point degree reads none of them
    from quotdeg import varieties

    real = varieties.tangent_chern

    def corrupted(space):
        value = real(space)
        if isinstance(space, ProjProduct):
            ring = ring_of(space)
            value = value * (TruncPoly.one(ring) + TruncPoly.generator(ring, 0))
        return value

    monkeypatch.setattr(varieties, "tangent_chern", corrupted)
    report = degree2_n_report(capsys)
    assert report["routes"] == "hilb2 degree routes disagree: closed form vs blow-up route"
    assert report["values"][0] == "125434236"


def _bott_mutant(name, old, new):
    """`bott.<name>` with the one occurrence of `old` in its source replaced
    by `new`, compiled against the module's own names, with a cache of its
    own."""
    import inspect

    from quotdeg import bott

    source = inspect.getsource(getattr(bott, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(bott))
    exec(compile(source.replace(old, new), bott.__file__, "exec"), namespace)
    return namespace[name]


# h_f -> +q_f in place of -q_f, at the one place each evaluation restricts
# the hyperplane classes
P1xP2_SPACE = '{"type": "projective_product", "dims": [1, 2]}'
SIGN_MUTANTS = {
    "segre-pairs-on-S": ("_base", ["degree2", "--input", P1xP2_RANK3, "--n", "2"]),
    "fibre-integrals-on-S": ("_base", ["hilb2", "--space", P1xP2_SPACE, "--divisor", "2,3"]),
    "fibre-integrals-on-P(E)": ("_bundle", ["degree2", "--input", P1xP2_RANK3, "--n", "2"]),
    "fibre-integrals-on-P(E)-geometric": (
        "_bundle",
        ["degree2", "--input", P1xP2_RANK3, "--n", "2", "--pipeline", "geometric"],
    ),
}


@pytest.mark.parametrize("case", list(SIGN_MUTANTS))
def test_a_sign_mutant_of_each_localised_evaluation_exits_3(capsys, monkeypatch, case):
    from quotdeg import bott

    name, argv = SIGN_MUTANTS[case]
    assert main(argv) == 0
    capsys.readouterr()
    mutant = _bott_mutant(name, "[-q[f] for q in points]", "[q[f] for q in points]")
    monkeypatch.setattr(bott, name, mutant)
    assert main(argv) == 3
    report = json.loads(capsys.readouterr().out)
    if argv[0] == "degree2" and "geometric" not in argv:
        # the first check of degree2_all compares the two localisations
        assert report["routes"] == "fibre integral I_0 mismatch: closed vs direct"
    else:
        assert report["routes"] == "hilb2 degree routes disagree: closed form vs blow-up route"


@pytest.fixture
def cold_bott_caches():
    """The fixed-point columns of every space, emptied before and after."""
    from quotdeg import bott

    caches = (bott._fixed_points, bott._base, bott._bundle)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_a_dropped_tangent_weight_fails_the_divisibility_check(monkeypatch, cold_bott_caches):
    # each fixed point one tangent weight short: the Euler weights and the
    # Segre classes of the space are then wrong, and the Segre classes below
    # top degree no longer integrate to 0.  The lcm of the Euler weights on
    # P1xP2 is 2, so divisibility by it sees a parity only: with the last
    # column dropped and 2h_1 + 2h_2 the sums on S stay even
    from quotdeg import bott, hilb2
    from quotdeg.varieties import ProjBundle, pullback_to_bundle, zeta

    real = bott._fixed_points
    S = ProjProduct((1, 2))
    instance = Quot2Instance(S, bundle(S, (1, 2), (2, 1), (0, 1)), divisor_from_vector(S, (2, 2)))
    X = ProjBundle(S, instance.E)
    M = pullback_to_bundle(X, instance.Lc1) + zeta(X)
    for dropped in range(3):  # each tangent column of P1xP2

        def short(dims, dropped=dropped):
            points, tangent = real(dims)
            return points, tangent[:dropped] + tangent[dropped + 1 :]

        monkeypatch.setattr(bott, "_fixed_points", short)
        for evaluate in (
            lambda: quot2._segre_pairs(instance),
            lambda: hilb2.fibre_integrals(S, divisor_from_vector(S, (1, 1))),
            lambda: hilb2.fibre_integrals(S, divisor_from_vector(S, (2, 2))),
            lambda: hilb2.fibre_integrals(X, M),
        ):
            with pytest.raises(CrossCheckError, match="is not 0, though s_. is below top degree"):
                evaluate()
