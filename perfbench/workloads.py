"""Seeded workloads of the quotdeg benchmark.

A workload is a list of items.  An item is one call through the package's
public API that returns the text a user would see; the runner times every
item in several rounds and checks that text.  The seed picks the instances
(roots, twists, weight seeds) but never the shape: the ladder rungs, the
command mix, the bases and ranks are fixed, so run cost stays comparable
across seeds.  Every function is looked up on its module at call time, so a
tracer that patches the module also sees the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from quotdeg import cli, jacobi, localise, quot2
from quotdeg.varieties import ProjProduct, SplitBundle, chern_total, divisor_from_vector, twist

DEFAULT_SEED = 0

# per-round cost in seconds on a 2-core VM; only used to pick the round count
NOMINAL_ROUND_S = {"ladder": 13.0, "cli-stream": 6.0, "oracle": 4.5}


@dataclass(frozen=True)
class Item:
    """One timed call.

    ``shape`` is what the seed may not change; ``group`` names items whose
    outputs must agree with each other; ``reference`` recomputes the output
    by a second route outside the timed phase and returns an error message,
    or None when the output is confirmed.
    """

    key: str
    shape: str
    run: Callable[[], str]
    group: str | None = None
    reference: Callable[[str], str | None] | None = None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- ladder ----------------------------------------------------------------

# (label, factor dimensions, default roots, degree); the default seed uses
# these roots at n = 2 with the all-ones direction, where the degree is known
LADDER = (
    ("P2 r2", (2,), ((0,), (1,)), 2805),
    ("P2xP2 r3", (2, 2), ((0, 0), (1, 0), (0, 1)), 3248709390),
    ("P4 r4", (4,), ((0,), (1,), (2,), (-1,)), 4876561354),
    ("P6 r5", (6,), ((0,), (1,), (2,), (-1,), (3,)), 5619595731637980),
    ("P3xP3 r3", (3, 3), ((0, 0), (1, 0), (0, 1)), 53730929009172),
    ("P2^3 r2", (2, 2, 2), ((0, 0, 0), (1, 1, 0)), 19394279408880),
)
LADDER_N = 2
PIPELINES = ("formula", "projbundle", "geometric")


def _bundle(S: ProjProduct, roots) -> SplitBundle:
    return SplitBundle(tuple(divisor_from_vector(S, v) for v in roots))


def _chern_support(S, roots, direction, n) -> tuple:
    E = _bundle(S, roots)
    return tuple(
        frozenset(chern_total(F).terms) for F in (E, twist(E, n * direction))
    )


def _ladder_draw(rng: random.Random, S, default_roots, direction):
    """Roots with the default's zero and sign pattern, magnitudes 1..3, and
    n in {1, 2, 3}; redrawn until the Chern classes of E and of the twisted
    bundle have the default's monomial support, so ring sizes stay put."""
    target = _chern_support(S, default_roots, direction, LADDER_N)
    for _ in range(100):
        roots = tuple(
            tuple(0 if c == 0 else (1 if c > 0 else -1) * rng.randint(1, 3) for c in vec)
            for vec in default_roots
        )
        n = rng.randint(1, 3)
        if _chern_support(S, roots, direction, n) == target:
            return roots, n
    return default_roots, LADDER_N


def ladder(seed: int) -> list[Item]:
    rng = _rng("ladder", seed)
    items = []
    for label, dims, default_roots, known in LADDER:
        S = ProjProduct(dims)
        direction = divisor_from_vector(S, [1] * len(dims))
        reference = None
        if seed == DEFAULT_SEED:
            roots, n = default_roots, LADDER_N
            reference = _known_value(known)
        else:
            roots, n = _ladder_draw(rng, S, default_roots, direction)
        inst = quot2.Quot2Instance(S, _bundle(S, roots), n * direction)
        for pipeline in PIPELINES:
            name = f"degree2_{pipeline}"
            items.append(
                Item(
                    key=f"{label} roots={roots} n={n} {pipeline}",
                    shape=f"{label} {pipeline}",
                    run=lambda name=name, inst=inst: str(getattr(quot2, name)(inst)),
                    group=label,
                    reference=reference,
                )
            )
    return items


def _known_value(known: int):
    def check(out: str) -> str | None:
        return None if out == str(known) else f"expected {known}"

    return check


# -- cli-stream ------------------------------------------------------------

CLI_BASES = ((1,), (2,), (3,), (1, 1), (1, 2))
# one block of ten commands, repeated twelve times: 60% degree2 --n and 10%
# each of --polynomial, --sweep, delta2 and mu2/hilb2
CLI_BLOCK = ("n", "n", "n", "polynomial", "n", "sweep", "n", "delta2", "n", "mu2|hilb2")
CLI_BLOCKS = 12


def _space_json(dims) -> dict:
    return {"type": "projective_product", "dims": list(dims)}


def _capture_main(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {buf.getvalue().strip()}")
    return buf.getvalue()


def _p1_reference(kind: str, roots, n):
    """Second route for degree2 on P^1: the torus fixed-point sum."""
    a = [v[0] for v in roots]
    r = len(a)

    def check(out: str) -> str | None:
        if kind == "n":
            want = str(localise.plucker_degree_localised(r, a, 2, n))
            got = json.loads(out)["degree"]
        elif kind == "polynomial":
            want = [str(c) for c in localise.degree_polynomial_localised(r, a, 2)]
            got = json.loads(out)["coefficients"]
        else:  # sweep n=0..5
            want = [f"{m},{localise.plucker_degree_localised(r, a, 2, m)}" for m in range(6)]
            got = out.splitlines()[1:]
        return None if got == want else f"P^1 fixed-point route gives {want}, CLI printed {got}"

    return check


def _agree_flag(out: str) -> str | None:
    return None if json.loads(out).get("pipelines_agree") is True else "pipelines_agree is not true"


def cli_stream(seed: int) -> list[Item]:
    rng = _rng("cli-stream", seed)
    counters: dict[str, int] = {}
    items = []
    for slot in range(CLI_BLOCKS * len(CLI_BLOCK)):
        kind = CLI_BLOCK[slot % len(CLI_BLOCK)]
        if kind == "mu2|hilb2":
            kind = "mu2" if (slot // len(CLI_BLOCK)) % 2 == 0 else "hilb2"
        j = counters.get(kind, 0)
        counters[kind] = j + 1
        dims = CLI_BASES[j % len(CLI_BASES)]
        rank = 1 + (j // len(CLI_BASES)) % 3
        d = sum(dims)
        # positive roots keep every twist's Chern class at full support, so
        # ring sizes, and with them the cost of a slot, do not depend on the seed
        roots = [[rng.randint(1, 2) for _ in dims] for _ in range(rank)]
        n = rng.randint(0, 5)
        instance = json.dumps({"base": _space_json(dims), "bundle": {"roots": roots}})
        reference = None
        if kind == "n":
            argv = ["degree2", "--input", instance, "--n", str(n)]
            shape = f"degree2 --n {dims} r{rank}"
            reference = _agree_flag
        elif kind == "polynomial":
            argv = ["degree2", "--input", instance, "--polynomial"]
            shape = f"degree2 --polynomial {dims} r{rank}"
        elif kind == "sweep":
            pipeline = ("formula", "projbundle")[j % 2]
            argv = ["degree2", "--input", instance, "--sweep", "n=0..5", "--pipeline", pipeline]
            shape = f"degree2 --sweep {pipeline} {dims} r{rank}"
        elif kind == "delta2":
            k = d + j % 2
            argv = ["delta2", "--input", instance, "--k", str(k)]
            shape = f"delta2 --k {k} {dims} r{rank}"
        elif kind == "mu2":
            k = j % (2 * d + 1)
            argv = ["mu2", "--input", instance, "--k", str(k)]
            shape = f"mu2 --k {k} {dims} r{rank}"
        else:  # hilb2, on the base or on P(E) in turn
            if j % 2 == 0:
                space = _space_json(dims)
                divisor = [rng.randint(1, 3) for _ in dims]
            else:
                space = {"base": _space_json(dims), "bundle": {"roots": roots}}
                divisor = [rng.randint(1, 2) for _ in dims] + [1]
            argv = ["hilb2", "--space", json.dumps(space), "--divisor", ",".join(map(str, divisor))]
            shape = f"hilb2 {'base' if j % 2 == 0 else 'P(E)'} {dims} r{rank}"
        if dims == (1,) and kind in ("n", "polynomial", "sweep"):
            reference = _p1_reference(kind, roots, n)
        items.append(
            Item(
                key=" ".join(argv),
                shape=shape,
                run=lambda argv=argv: _capture_main(argv),
                reference=reference,
            )
        )
    return items


# -- oracle ----------------------------------------------------------------

ORACLE_DEGREE_SHAPES = tuple((r, l) for r in (2, 3, 4) for l in range(3, 8))
ORACLE_DEGREE_REPEATS = 4
ORACLE_POLY_SHAPES = ((2, 3), (2, 4), (3, 3), (3, 4))
ORACLE_POLY_REPEATS = 5
ORACLE_ACOEFF_MAX = 6


def _second_draw(call: Callable[[int], str], wseed: int):
    """The same localised value from an independent weight draw."""

    def check(out: str) -> str | None:
        other = call(wseed + 1)
        return None if other == out else f"weight seed {wseed + 1} gives {other}"

    return check


def _a_coeff_grid(r: int, d: int) -> str:
    return " ".join(
        str(jacobi.a_coeff(r, d, k, j)) for k in range(d + 1) for j in range(d - k + 1)
    )


def oracle(seed: int) -> list[Item]:
    rng = _rng("oracle", seed)
    items = []
    for _ in range(ORACLE_DEGREE_REPEATS):
        for r, l in ORACLE_DEGREE_SHAPES:
            a = [rng.randint(-1, 2) for _ in range(r)]
            n = rng.randint(0, 5)
            wseed = rng.randrange(10**6)

            def call(ws, r=r, a=a, l=l, n=n):
                return str(localise.plucker_degree_localised(r, a, l, n, seed=ws))

            items.append(
                Item(
                    key=f"plucker_degree_localised r={r} a={a} l={l} n={n} seed={wseed}",
                    shape=f"plucker_degree_localised r={r} l={l}",
                    run=lambda call=call, ws=wseed: call(ws),
                    reference=_second_draw(call, wseed),
                )
            )
    for _ in range(ORACLE_POLY_REPEATS):
        for r, l in ORACLE_POLY_SHAPES:
            a = [rng.randint(-1, 2) for _ in range(r)]
            wseed = rng.randrange(10**6)

            def call(ws, r=r, a=a, l=l):
                poly = localise.degree_polynomial_localised(r, a, l, seed=ws)
                return ",".join(str(c) for c in poly.coefficients)

            items.append(
                Item(
                    key=f"degree_polynomial_localised r={r} a={a} l={l} seed={wseed}",
                    shape=f"degree_polynomial_localised r={r} l={l}",
                    run=lambda call=call, ws=wseed: call(ws),
                    reference=_second_draw(call, wseed),
                )
            )
    for r in range(1, ORACLE_ACOEFF_MAX + 1):
        for d in range(1, ORACLE_ACOEFF_MAX + 1):
            items.append(
                Item(
                    key=f"a_coeff grid r={r} d={d}",
                    shape=f"a_coeff grid r={r} d={d}",
                    run=lambda r=r, d=d: _a_coeff_grid(r, d),
                )
            )
    return items


_BY_NAME = {"ladder": ladder, "cli-stream": cli_stream, "oracle": oracle}


def build(workload: str, seed: int) -> list[Item]:
    return _BY_NAME[workload](seed)
