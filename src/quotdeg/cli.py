"""Batch command-line front end.

Every command reads JSON or simple flag values, emits one JSON object (or
CSV for sweeps) on standard output, and exits with 0 on success, 2 on
invalid input, 3 on an internal cross-check failure.  All numeric output is
exact rational strings; output is byte-stable for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

import jsonschema
from jsonschema.exceptions import best_match

from .errors import CrossCheckError, DomainError, RingMismatchError
from .exactpoly import DegreePolynomial, TruncPoly
from .grassmann import schubert_degree, syt_count
from .hilb2 import hilb2_degree
from .jacobi import JacobiParams, jacobi_hyp
from .localise import degree_polynomial_localised, plucker_degree_localised
from .quot2 import (
    Quot2Instance,
    degree2_all,
    degree2_formula,
    degree2_geometric,
    degree2_polynomial,
    degree2_projbundle,
    delta2_classes,
    diagonal_multiple,
    mu2_classes,
)
from .selftest import run_selftest
from .symquot import beauville_k3, leading_term, mu_p1_coeffs, multint, nu_class
from .varieties import (
    ProjBundle,
    ProjProduct,
    SplitBundle,
    divisor_from_vector,
)

BASE_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"const": "projective_product"},
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
    },
    "required": ["type", "dims"],
    "additionalProperties": False,
}

INSTANCE_SCHEMA = {
    "type": "object",
    "properties": {
        "base": BASE_SCHEMA,
        "bundle": {
            "type": "object",
            "properties": {
                "roots": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}},
                    "minItems": 1,
                }
            },
            "required": ["roots"],
            "additionalProperties": False,
        },
        "twist": {"type": "array", "items": {"type": "integer"}},
        "l": {"type": "integer", "minimum": 1},
        "n": {"type": "integer"},
    },
    "required": ["base"],
    "additionalProperties": False,
}

SPACE_SCHEMA = {
    "oneOf": [
        BASE_SCHEMA,
        {
            "type": "object",
            "properties": {"base": BASE_SCHEMA, "bundle": INSTANCE_SCHEMA["properties"]["bundle"]},
            "required": ["base", "bundle"],
            "additionalProperties": False,
        },
    ]
}


# One validator per schema, built once.  The schemas are constants, so their
# check against the metaschema is a test, not a cost paid on every command.
_BASE_VALIDATOR = jsonschema.Draft202012Validator(BASE_SCHEMA)
_INSTANCE_VALIDATOR = jsonschema.Draft202012Validator(INSTANCE_SCHEMA)
_SPACE_VALIDATOR = jsonschema.Draft202012Validator(SPACE_SCHEMA)


def _validate(validator, data) -> None:
    """Raise the error ``jsonschema.validate`` would raise for the validator's
    schema: the best match among all errors, not the first one found."""
    error = best_match(validator.iter_errors(data))
    if error is not None:
        raise error


def _load_json(text_or_path: str):
    if text_or_path.strip().startswith("{"):
        return json.loads(text_or_path)
    with open(text_or_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_base(obj) -> ProjProduct:
    return ProjProduct(tuple(obj["dims"]))


def _parse_bundle(space: ProjProduct, obj) -> SplitBundle:
    roots = []
    for vec in obj["roots"]:
        if len(vec) != len(space.dims):
            raise DomainError("each root needs one coefficient per factor")
        roots.append(divisor_from_vector(space, vec))
    return SplitBundle(tuple(roots))


def _parse_instance(data) -> tuple[ProjProduct, SplitBundle, TruncPoly]:
    _validate(_INSTANCE_VALIDATOR, data)
    S = _parse_base(data["base"])
    if "bundle" not in data:
        raise DomainError("instance needs a bundle")
    E = _parse_bundle(S, data["bundle"])
    twist_vec = data.get("twist", [1] * len(S.dims))
    if len(twist_vec) != len(S.dims):
        raise DomainError("twist vector needs one coefficient per factor")
    direction = divisor_from_vector(S, twist_vec)
    return S, E, direction


def _parse_space(text: str):
    data = _load_json(text)
    _validate(_SPACE_VALIDATOR, data)
    if "base" in data:
        S = _parse_base(data["base"])
        return ProjBundle(S, _parse_bundle(S, data["bundle"]))
    return _parse_base(data)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _vector_list(text: str) -> list[list[int]]:
    return [_int_list(part) for part in text.split(";") if part.strip() != ""]


def _emit(obj) -> None:
    print(json.dumps(obj))


def _poly_json(poly: DegreePolynomial) -> list[str]:
    return [str(c) for c in poly.coefficients]


# -- subcommand handlers ---------------------------------------------------


def _cmd_degree2(args) -> int:
    data = _load_json(args.input)
    S, E, direction = _parse_instance(data)
    if args.polynomial:
        poly = degree2_polynomial(S, E, direction)
        _emit({"coefficients": _poly_json(poly), "pipelines_agree": True})
        return 0
    pipelines = {
        "formula": degree2_formula,
        "projbundle": degree2_projbundle,
        "geometric": degree2_geometric,
        "all": degree2_all,
    }
    runner = pipelines[args.pipeline]
    if args.sweep:
        lo, hi = args.sweep
        points = range(lo, hi + 1)
        values = [runner(Quot2Instance(S, E, n * direction)) for n in points]
        print("n,degree")
        for n, value in zip(points, values):
            print(f"{n},{value}")
        return 0
    n = args.n if args.n is not None else data.get("n")
    if n is None:
        raise DomainError("degree2 needs --n, --polynomial, or --sweep")
    value = runner(Quot2Instance(S, E, n * direction))
    _emit({"degree": str(value), "pipelines_agree": args.pipeline == "all"})
    return 0


def _cmd_hilb2(args) -> int:
    space = _parse_space(args.space)
    divisor = divisor_from_vector(space, _int_list(args.divisor))
    value = hilb2_degree(space, divisor)
    _emit({"degree": str(value), "routes_agree": True})
    return 0


def _cmd_nu(args) -> int:
    data = _load_json(args.space)
    _validate(_BASE_VALIDATOR, data)
    space = _parse_base(data)
    E = _parse_bundle(space, {"roots": _vector_list(args.roots)})
    rep = nu_class(space, E, args.l, args.k)
    _emit({"l": args.l, "k": args.k, "class": rep.rep.to_dict()})
    return 0


def _cmd_mu2(args) -> int:
    S, E, _ = _parse_instance(_load_json(args.input))
    rep = mu2_classes(S, E, args.k)[args.k]
    _emit({"l": 2, "k": args.k, "class": rep.rep.to_dict()})
    return 0


def _cmd_delta2(args) -> int:
    S, E, _ = _parse_instance(_load_json(args.input))
    d, k = S.dimension, args.k
    if k is not None and not 0 <= k <= 2 * d:
        raise DomainError("k out of range")
    deltas = delta2_classes(S, E, d if k is None else max(d, k))
    out = {"constant": str(diagonal_multiple(S, deltas[d][0]))}
    if k is not None:
        delta, certificate = deltas[k]
        out["k"] = k
        out["class"] = delta.rep.to_dict()
        out["membership"] = certificate.to_json()
    _emit(out)
    return 0


def _cmd_leading(args) -> int:
    data = _load_json(args.input)
    S, E, direction = _parse_instance(data)
    l = args.l if args.l is not None else data.get("l")
    if l is None:
        raise DomainError("leading needs --l (or an l field in the instance)")
    n = args.n if args.n is not None else data.get("n", 1)
    value = leading_term(S, E, n * direction, l)
    _emit({"l": l, "value": str(value)})
    return 0


def _cmd_multint(args) -> int:
    data = _load_json(args.input)
    S, E, _ = _parse_instance(data)
    vectors = _vector_list(args.divisors)
    divisors = [divisor_from_vector(S, v) for v in vectors]
    l = args.l if args.l is not None else data.get("l")
    if l != 2:
        raise DomainError("pushforward classes are only modelled for l = 2")
    value = multint(S, E, 2, divisors, mu2_classes(S, E))
    _emit({"l": l, "value": str(value)})
    return 0


def _cmd_grassmann(args) -> int:
    out = {"degree": str(schubert_degree(args.l, args.r))}
    if args.oracle:
        out["oracle"] = str(syt_count(args.l, args.r - args.l))
    _emit(out)
    return 0


def _cmd_jacobi(args) -> int:
    params = JacobiParams(Fraction(args.alpha), Fraction(args.beta), args.n, Fraction(args.z))
    _emit({"value": str(jacobi_hyp(params))})
    return 0


def _cmd_localise(args) -> int:
    roots = _int_list(args.roots)
    if args.polynomial:
        poly = degree_polynomial_localised(args.r, roots, args.l, seed=args.seed)
        _emit({"coefficients": _poly_json(poly)})
        return 0
    if args.n is None:
        raise DomainError("localise needs --n or --polynomial")
    value = plucker_degree_localised(args.r, roots, args.l, args.n, seed=args.seed)
    _emit({"degree": str(value)})
    return 0


def _cmd_beauville(args) -> int:
    _emit({"value": str(beauville_k3(args.l, Fraction(args.c1sq)))})
    return 0


def _cmd_mu_p1_coeffs(args) -> int:
    coeffs = [Fraction(x.replace("−", "-")) for x in args.poly.split(",")]
    poly = DegreePolynomial(tuple(coeffs))
    values = mu_p1_coeffs(args.r, args.l, poly)
    _emit({"a": [str(v) for v in values]})
    return 0


def _cmd_selftest(args) -> int:
    report = run_selftest(args.filter, stream=sys.stderr)
    _emit(report)
    return 0 if report["ok"] else 3


def _sweep_range(text: str) -> tuple[int, int]:
    bounds = text[2:] if text.startswith("n=") else text
    lo, _, hi = bounds.partition("..")
    return int(lo), int(hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quotdeg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degree2", help="degree of the two-point Quot scheme")
    p.add_argument("--input", required=True, help="instance JSON (path or literal)")
    p.add_argument("--n", type=int, default=None, help="twist multiple of the instance direction")
    p.add_argument("--pipeline", choices=["all", "formula", "projbundle", "geometric"], default="all")
    p.add_argument("--polynomial", action="store_true", help="emit the degree polynomial in n")
    p.add_argument("--sweep", type=_sweep_range, default=None, metavar="n=A..B", help="CSV sweep over n")
    p.set_defaults(func=_cmd_degree2)

    p = sub.add_parser("hilb2", help="two-point Hilbert scheme degree")
    p.add_argument("--space", required=True, help="space JSON (path or literal)")
    p.add_argument("--divisor", required=True, help="comma-separated generator coefficients")
    p.set_defaults(func=_cmd_hilb2)

    p = sub.add_parser("nu", help="multinomial symmetric-product class")
    p.add_argument("--space", required=True)
    p.add_argument("--roots", required=True, help="semicolon-separated root vectors")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("mu2", help="two-point pushforward class")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_mu2)

    p = sub.add_parser("delta2", help="two-point diagonal-defect class data")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_delta2)

    p = sub.add_parser("leading", help="leading term of the degree")
    p.add_argument("--input", required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_leading)

    p = sub.add_parser("multint", help="integral of distinct tautological divisors")
    p.add_argument("--input", required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--divisors", required=True, help="semicolon-separated divisor vectors")
    p.set_defaults(func=_cmd_multint)

    p = sub.add_parser("grassmann", help="classical Grassmannian degree")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="also count standard tableaux")
    p.set_defaults(func=_cmd_grassmann)

    p = sub.add_parser("jacobi", help="Jacobi polynomial value")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=_cmd_jacobi)

    p = sub.add_parser("localise", help="fixed-point degree over the projective line")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--roots", required=True, help="comma-separated summand degrees")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--polynomial", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_localise)

    p = sub.add_parser("beauville", help="K3 tautological self-intersection")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--c1sq", required=True)
    p.set_defaults(func=_cmd_beauville)

    p = sub.add_parser("mu-p1-coeffs", help="class coefficients over the line")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--poly", required=True, help="comma-separated polynomial coefficients")
    p.set_defaults(func=_cmd_mu_p1_coeffs)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--filter", default=None, help="substring filter on criterion names")
    p.set_defaults(func=_cmd_selftest)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call of this process shares."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        DomainError,
        RingMismatchError,
        jsonschema.ValidationError,
        json.JSONDecodeError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        _emit({"error": str(exc)})
        return 2
    except CrossCheckError as exc:
        _emit({"error": str(exc)})
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
