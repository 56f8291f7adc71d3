"""The localised integrals of `bott` against the Chow-ring kernel, and the
module's independence from it."""

import ast
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from quotdeg import bott
from quotdeg.errors import CrossCheckError, DomainError
from quotdeg.hilb2 import fibre_integrals
from quotdeg.varieties import (
    ProjBundle,
    ProjProduct,
    SplitBundle,
    divisor_from_vector,
    integrate,
    integrate_product,
    segre_scheme,
    segre_total,
    twist,
)


def kernel_segre_pairs(S, E, L):
    """The Segre-pair table of `quot2._segre_pairs` in rationals, by class
    products and `integrate_product`."""
    d = S.dimension
    segre_EL = segre_total(twist(E, L))
    segre_S = segre_scheme(S)
    table = [
        [
            integrate_product(
                S, segre_S.graded_part(k), segre_EL.graded_part(d - k - j) * segre_EL.graded_part(j)
            )
            for j in range(d - k + 1)
        ]
        for k in range(d + 1)
    ]
    return table, integrate(S, segre_EL.graded_part(d))


def kernel_fibre_integrals(space, M):
    """I_m = int M^{D-m} s_m(X) by powers of M in the kernel."""
    D = space.dimension
    segre = segre_scheme(space)
    return [integrate_product(space, M ** (D - m), segre.graded_part(m)) for m in range(D + 1)]


def vectors(classes):
    """Integer coefficient vectors of degree-1 classes over one denominator."""
    read = [c.linear_coefficients() for c in classes]
    t = lcm(*(den for _, den in read))
    return [tuple(x * (t // den) for x in v) for v, den in read], t


def coefficient(rng):
    """An integer or a proper fraction, about half of each."""
    return rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))


def random_instances(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        if sum(dims) > 5:
            continue
        S = ProjProduct(dims)
        E = SplitBundle(
            tuple(
                divisor_from_vector(S, [rng.randint(-3, 3) for _ in dims])
                for _ in range(rng.randint(1, 4))
            )
        )
        L = divisor_from_vector(S, [coefficient(rng) for _ in dims])
        M = divisor_from_vector(ProjBundle(S, E), [coefficient(rng) for _ in range(len(dims) + 1)])
        out.append((S, E, L, M))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_localised_segre_pairs_match_the_kernel(seed):
    for S, E, L, _ in random_instances(seed, 25):
        (*roots, shift), t = vectors(E.roots + (L,))
        P, den, top = bott.localised_segre_pairs(S.dims, tuple(roots), shift, t)
        table, want_top = kernel_segre_pairs(S, E, L)
        assert [[Fraction(x, den) for x in row] for row in P] == table, (S, E, L)
        assert top == want_top
        # den is the lcm of the table's denominators
        assert den == lcm(*(x.denominator for row in table for x in row))


@pytest.mark.parametrize("seed", range(4))
def test_localised_fibre_integrals_match_the_kernel(seed):
    for S, E, L, M in random_instances(100 + seed, 25):
        X = ProjBundle(S, E)
        assert fibre_integrals(X, M) == kernel_fibre_integrals(X, M), (X, M)
        assert fibre_integrals(S, L) == kernel_fibre_integrals(S, L), (S, L)


def test_rank_one_bundles_and_the_zero_divisor():
    # z has truncation 1 on P(L), so a divisor on it has no z term
    S = ProjProduct((1, 2))
    X = ProjBundle(S, SplitBundle((divisor_from_vector(S, (2, -1)),)))
    for vec in ((1, 1, 1), (0, 0, 0), (Fraction(1, 2), 0, 3)):
        M = divisor_from_vector(X, vec)
        assert fibre_integrals(X, M) == kernel_fibre_integrals(X, M)


def test_a_bundle_with_rational_roots_is_refused():
    # on P^1 the roots h/2 and -h/2 have integral Chern classes, so the ring
    # of P(E) exists; its fixed points would not be integral
    P1 = ProjProduct((1,))
    half = divisor_from_vector(P1, [Fraction(1, 2)])
    X = ProjBundle(P1, SplitBundle((half, -half)))
    with pytest.raises(DomainError, match="the roots of the bundle must be integral"):
        fibre_integrals(X, divisor_from_vector(X, (0, 1)))


def test_a_sum_off_the_lcm_of_the_euler_weights_is_a_crosscheckerror():
    assert bott._exact(12, 4) == 3
    with pytest.raises(CrossCheckError, match="Bott sum 13 is not divisible by 4"):
        bott._exact(13, 4)


def test_base_columns_have_the_factorial_denominator():
    # N = lcm of the Euler weights is prod_f d_f!, reached at q = 0
    for dims, want in (((1,), 1), ((2,), 2), ((3,), 6), ((2, 3), 12), ((1, 1, 4), 24)):
        assert bott._base(dims).den == want


def test_bott_imports_neither_kernel_module():
    tree = ast.parse(Path(bott.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported.isdisjoint({"exactpoly", "varieties", "quotdeg.exactpoly", "quotdeg.varieties"})
    assert "errors" in imported

