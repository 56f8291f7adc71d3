"""Named acceptance criteria, runnable from the CLI and from the test suite.

Each criterion is a function that raises on failure and returns a short
detail string on success.  All comparisons are exact; there are no
tolerances anywhere.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import factorial

from .errors import CrossCheckError
from .exactpoly import RingDescriptor, TruncPoly, binomial, permute_blocks, series_inverse
from .grassmann import catalan_degree, schubert_degree, syt_count
from .hilb2 import hilb2_degree
from .jacobi import JacobiParams, a_coeff, jacobi_finite_sum, jacobi_hyp
from .localise import degree_polynomial_localised, plucker_degree_localised
from .quot2 import (
    Quot2Instance,
    degree2_all,
    degree2_formula,
    degree2_polynomial,
    delta2_classes,
    divisor_all_ones,
    mu2_classes,
)
from .symquot import (
    leading_term,
    nu_class,
    nu_twist_check,
)
from .varieties import (
    ProjBundle,
    ProjProduct,
    SplitBundle,
    block_embed,
    boxsum,
    bundle_power_pushforward,
    diagonal_class,
    diagonal_pushforward,
    divisor_from_vector,
    euler_number,
    hyperplane,
    integrate,
    integrate_product,
    power_ring,
    ring_of,
    segre_class,
    twist,
    zeta,
)

P1 = ProjProduct((1,))
P2 = ProjProduct((2,))
P3 = ProjProduct((3,))
P1xP1 = ProjProduct((1, 1))

SPACES = (P1, P2, P3, P1xP1)


def _check(ok: bool, message: str = "") -> None:
    """Raise CrossCheckError unless ok; unlike assert, it survives python -O."""
    if not ok:
        raise CrossCheckError(message)


def _bundle(space, *vectors):
    return SplitBundle(tuple(divisor_from_vector(space, vec) for vec in vectors))


def instance_matrix() -> list[tuple[ProjProduct, SplitBundle]]:
    """Deterministic (space, bundle) matrix shared by several criteria:
    ranks 1..3 with root coefficients drawn from {-1, 0, 1, 2}."""
    counts = {1: 4, 2: 6, 3: 6}
    pairs = []
    for space in SPACES:
        if len(space.dims) == 1:
            pool = [(0,), (1,), (-1,), (2,)]
        else:
            pool = [(0, 0), (1, 1), (0, 1), (1, 0), (-1, 0), (2, -1)]
        for rank, count in counts.items():
            chosen = list(itertools.combinations_with_replacement(pool, rank))[:count]
            for roots in chosen:
                pairs.append((space, _bundle(space, *roots)))
    return pairs


def crit_hilb2_convention_lock() -> str:
    """Degree of the twisted tautological divisor on the two-point Hilbert
    scheme of the line equals (n-1)^2, through both internal routes."""
    h = hyperplane(P1, 0)
    for n in range(6):
        value = hilb2_degree(P1, n * h)
        _check(value == (n - 1) ** 2, f"lock failed at n={n}: {value}")
    return "n = 0..5"


def crit_degree2_pipeline_agreement() -> str:
    """The three degree pipelines agree exactly across the instance matrix."""
    matrix = instance_matrix()
    instances = 0
    for space, E in matrix:
        direction = divisor_all_ones(space)
        for n in range(5):
            degree2_all(Quot2Instance(space, E, n * direction))
            instances += 1
    _check(instances >= 300, f"only {instances} instances")
    return f"{instances} instances"


def crit_degree2_golden_polynomials() -> str:
    """Exact degree polynomials for six reference instances."""
    golden = [
        (P1, _bundle(P1, (0,)), [1, -2, 1]),
        (P1, _bundle(P1, (0,), (0,)), [6, -16, 12]),
        (P2, _bundle(P2, (0,)), [-3, 12, -12, 0, 3]),
        (P2, _bundle(P2, (0,), (1,)), [-3, 24, -30, 180, 90]),
        (P1xP1, _bundle(P1xP1, (0, 0)), [-2, 16, -24, 0, 12]),
        (P1xP1, _bundle(P1xP1, (0, 0), (1, 1)), [6, 72, 240, 720, 360]),
    ]
    for space, E, expected in golden:
        _check(list(degree2_polynomial(space, E)) == expected)
    return "6 reference polynomials"


def crit_localisation_oracle() -> str:
    """Fixed-point sums reproduce the degree polynomials for two points on
    the line, with three-draw consensus, integrality, and twist invariance."""
    checked = 0
    for r in (1, 2, 3):
        for roots in itertools.combinations_with_replacement((-1, 0, 1), r):
            E = _bundle(P1, *((c,) for c in roots))
            _check(degree_polynomial_localised(r, roots, 2) == degree2_polynomial(P1, E))
            checked += 1
    for m in (1, 2):
        for roots in ((0, 0), (1, -1, 0)):
            r = len(roots)
            shifted = tuple(x + m for x in roots)
            unshifted = plucker_degree_localised(r, roots, 2, 3)
            _check(unshifted == plucker_degree_localised(r, shifted, 2, 3 - m))
    return f"{checked} degree polynomials"


def crit_grassmannian_degrees() -> str:
    """Product formula vs tableau counting, the Catalan special case, and
    the quotient-subspace duality."""
    for l in range(1, 5):
        for r in range(l + 1, 13):
            _check(schubert_degree(l, r) == syt_count(l, r - l))
    for r in range(3, 21):
        _check(catalan_degree(r) == schubert_degree(2, r))
    for r in range(2, 13):
        for l in range(1, r):
            _check(schubert_degree(l, r) == schubert_degree(r - l, r))
    return "l <= 4, r <= 12; Catalan r <= 20"


def crit_jacobi_sums() -> str:
    """Finite sum vs hypergeometric series on the parameter grid, the value
    at 1, and the dual-route coefficient sums."""
    zs = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1)]
    checked = 0
    for alpha in range(1, 11):
        for beta in range(-10, 1):
            for n in range(0, 9):
                if not beta > -n - alpha - 1:
                    continue
                for z in zs:
                    p = JacobiParams(Fraction(alpha), Fraction(beta), n, z)
                    _check(jacobi_finite_sum(p) == jacobi_hyp(p))
                    checked += 1
                at_one = JacobiParams(Fraction(alpha), Fraction(beta), n, Fraction(1))
                _check(jacobi_hyp(at_one) == binomial(n + alpha, n))
    for r in range(1, 6):
        for d in range(1, 5):
            for k in range(d + 1):
                for j in range(d - k + 1):
                    a_coeff(r, d, k, j)  # dual route asserted internally
    return f"{checked} grid points"


def crit_diagonal_defect_classes() -> str:
    """Class-level decomposition for two points: the defect vanishes below
    the dimension, is supported on the diagonal, is a multiple of the
    diagonal in the critical degree, and splits the degree exactly."""
    combos = 0
    for space, E in instance_matrix():
        d = space.dimension
        p = E.rank - 1 + d
        # delta2_classes checks vanishing below d and diagonal membership;
        # in degree d the span is the one class 2 Delta, so membership there
        # makes the defect a multiple of the diagonal
        delta2_classes(space, E)
        # exact degree split at twist n = 1
        L = divisor_all_ones(space)
        EL = twist(E, L)
        value = degree2_formula(Quot2Instance(space, E, L))
        sd = integrate(space, segre_class(EL, d))
        leading = Fraction(factorial(2 * p), 2 * factorial(p) ** 2) * sd**2
        defect_top = mu2_classes(space, EL)[2 * d].rep - nu_class(space, EL, 2, 2 * d).rep
        _check(value == leading + integrate(space, defect_top) / 2)
        combos += 1
    return f"{combos} (space, bundle) pairs"


def crit_multinomial_class_laws() -> str:
    """Degree-0 and degree-1 closed forms, vanishing for trivial bundles,
    the twisting identity on random instances, and the leading term."""
    for space in (P2, P3):
        bundles = {
            1: [_bundle(space, (1,))],
            2: [_bundle(space, (1,), (0,))],
            3: [_bundle(space, (1,), (0,), (-1,))],
            4: [_bundle(space, (1,), (0,), (0,), (2,))],
        }
        for r, Es in bundles.items():
            for E in Es:
                for l in (1, 2, 3, 4):
                    rep0 = nu_class(space, E, l, 0)
                    expected0 = Fraction(factorial(l * (r - 1)), factorial(r - 1) ** l)
                    _check(rep0.rep == TruncPoly.constant(power_ring(space, l), expected0))
                    c1 = sum(E.roots, TruncPoly.zero(ring_of(space)))
                    coeff1 = Fraction(
                        factorial(l * (r - 1) + 1), factorial(r - 1) ** (l - 1) * factorial(r)
                    )
                    _check(nu_class(space, E, l, 1).rep == coeff1 * boxsum(space, l, c1))
    for l in (2, 3):
        for r in (1, 2, 3, 4):
            E = _bundle(P2, *([(0,)] * r))
            for k in range(1, min(l * 2, 3) + 1):
                _check(nu_class(P2, E, l, k).rep.is_zero())
    rng = random.Random(2024)
    for _ in range(50):
        space = rng.choice((P1, P2))
        roots = [
            divisor_from_vector(space, [rng.randrange(-1, 3) for _ in space.dims])
            for _ in range(rng.randrange(1, 4))
        ]
        E = SplitBundle(tuple(roots))
        L = divisor_from_vector(space, [rng.randrange(-2, 3) for _ in space.dims])
        l = rng.choice((2, 3))
        k = rng.randrange(0, min(l * space.dimension, 3) + 1)
        nu_twist_check(space, E, L, l, k)
    for space in (P1, P2):
        direction = divisor_all_ones(space)
        for E in (_bundle(space, (0,)), _bundle(space, (1,), (0,))):
            for l in (1, 2, 3):
                leading_term(space, E, direction, l)  # closed form vs integral
    return "closed forms, 50 twist identities, leading terms"


def crit_polynomial_top_coefficients() -> str:
    """Surface degree polynomials along non-default polarisation directions;
    degree2_polynomial checks their top coefficients against the
    multinomial-class prediction."""
    for space, vec in ((P2, (2,)), (P1xP1, (1, 2))):
        zero, ones = (0,) * len(vec), (1,) * len(vec)
        for E in (_bundle(space, zero), _bundle(space, zero, ones)):
            degree2_polynomial(space, E, divisor_from_vector(space, vec))
    return "4 surface instances"


def crit_engine_invariants() -> str:
    """Ring axioms, series inversion, the projection formula for diagonal
    pushforwards, the diagonal self-intersection, and the top-degree
    pairing against the integral of the formed product."""
    rng = random.Random(99)
    rings = [
        RingDescriptor(("h",), (3,), ((0,),)),
        RingDescriptor(("h1", "h2"), (2, 4), ((0, 1),)),
        power_ring(P1xP1, 2),
    ]

    def random_poly(ring):
        items = []
        for _ in range(rng.randrange(1, 5)):
            mono = tuple(rng.randrange(t) for t in ring.truncations)
            items.append((mono, Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))))
        return TruncPoly(ring, items)

    for ring in rings:
        for _ in range(25):
            a, b, c = (random_poly(ring) for _ in range(3))
            _check((a * b) * c == a * (b * c))
            _check(a * b == b * a)
            _check(a * (b + c) == a * b + a * c)
        for _ in range(100):
            u = random_poly(ring)
            u = u - u.constant_term() + 1
            _check(series_inverse(u) * u == TruncPoly.one(ring))
    square = power_ring(P2, 2)
    for _ in range(20):
        a = random_poly(square)
        swapped = permute_blocks(a, (1, 0))
        b = random_poly(square)
        _check(permute_blocks(a * b, (1, 0)) == swapped * permute_blocks(b, (1, 0)))
    spaces = [P1, P2, P3, P1xP1, ProjBundle(P1, _bundle(P1, (0,), (1,)))]
    for space in spaces:
        diag = diagonal_class(space)
        _check(integrate(space, diag * diag) == euler_number(space))
        ring = ring_of(space)
        for _ in range(10):
            a, b = random_poly(ring), random_poly(ring)
            lhs = integrate(space, diagonal_pushforward(space, a) * block_embed(space, 2, 1, b))
            _check(lhs == integrate(space, a * b))
        for l in (1, 2):
            for _ in range(10):
                a, b = random_poly(power_ring(space, l)), random_poly(power_ring(space, l))
                _check(integrate_product(space, a, b) == integrate(space, a * b))
    # fibre-integral sign lock on an assorted bundle matrix
    for space in (P1, P2):
        for E in (_bundle(space, (1,), (0,)), _bundle(space, (2,), (-1,), (0,))):
            X = ProjBundle(space, E)
            r = E.rank
            for k in range(space.dimension + 1):
                lhs = bundle_power_pushforward(X, zeta(X) ** (r - 1 + k))
                _check(lhs == Fraction(-1) ** k * segre_class(E, k))
    return "axioms, inverses, projection formula, Euler numbers, pairing, sign lock"


CRITERIA: list[tuple[str, object]] = [
    ("hilb2-convention-lock", crit_hilb2_convention_lock),
    ("degree2-pipeline-agreement", crit_degree2_pipeline_agreement),
    ("degree2-golden-polynomials", crit_degree2_golden_polynomials),
    ("localisation-oracle", crit_localisation_oracle),
    ("grassmannian-degrees", crit_grassmannian_degrees),
    ("jacobi-sums", crit_jacobi_sums),
    ("diagonal-defect-classes", crit_diagonal_defect_classes),
    ("multinomial-class-laws", crit_multinomial_class_laws),
    ("polynomial-top-coefficients", crit_polynomial_top_coefficients),
    ("engine-invariants", crit_engine_invariants),
]


def run_selftest(name_filter: str | None = None, stream=None) -> dict:
    """Run the acceptance criteria, print one line per criterion with its
    wall time on the stream, and return a machine-readable report that
    carries no timings, so it is byte-stable."""
    report = {"criteria": [], "ok": True}
    for name, fn in CRITERIA:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        try:
            detail = fn()
            status = "pass"
        except Exception as exc:  # noqa: BLE001 - report any failure
            detail = f"{type(exc).__name__}: {exc}"
            status = "fail"
            report["ok"] = False
        seconds = f"{time.perf_counter() - start:.3f}"
        report["criteria"].append({"name": name, "status": status, "detail": str(detail)})
        if stream is not None:
            print(f"[{status.upper():4}] {name} ({seconds}s) {detail}", file=stream)
    return report
