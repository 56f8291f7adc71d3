"""Batch command-line front end.

Every command reads JSON or simple flag values, emits one JSON object (or
CSV for sweeps) on standard output, and exits with 0 on success, 2 on
invalid input, 3 on an internal cross-check failure.  All numeric output is
exact rational strings; output is byte-stable for fixed inputs and seed.

JSON inputs are checked against the three schemas below by a small walker
in this module; JSON's integral floats (``2.0``) count as integers and are
read as ints.  jsonschema is imported only when the walker rejects an input,
to word the error exactly as ``jsonschema.validate`` words it, so a valid
command never pays for importing it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import CrossCheckError, DomainError, confirm
from .exactpoly import DegreePolynomial, TruncPoly
from .grassmann import schubert_degree, syt_count
from .hilb2 import hilb2_degree
from .jacobi import JacobiParams, jacobi_finite_sum, jacobi_hyp
from .localise import degree_polynomial_localised, plucker_degree_localised
from .quot2 import (
    Quot2Instance,
    degree2_all,
    degree2_formula,
    degree2_geometric,
    degree2_polynomial,
    degree2_projbundle,
    delta2_classes,
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


# the JSON types the schemas name; an integer is any integral number but a bool
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "integer": lambda x: (
        not isinstance(x, bool) and (isinstance(x, int) or isinstance(x, float) and x.is_integer())
    ),
}


def _conforms(schema, data) -> bool:
    """Whether `data` is valid for `schema` under Draft 2020-12, for the
    keywords the schemas above use; any other keyword raises, so a schema
    edit cannot go unchecked."""
    if isinstance(schema, bool):
        return schema
    is_object, is_array = isinstance(data, dict), isinstance(data, list)
    for keyword, value in schema.items():
        if keyword == "type":
            ok = _TYPES[value](data)
        elif keyword == "const":  # JSON equality, which tells a bool from a number
            ok = data == value and isinstance(data, bool) == isinstance(value, bool)
        elif keyword == "properties":
            ok = not is_object or all(_conforms(value[k], data[k]) for k in value if k in data)
        elif keyword == "required":
            ok = not is_object or all(k in data for k in value)
        elif keyword == "additionalProperties":
            named = schema.get("properties", {})
            ok = not is_object or all(_conforms(value, data[k]) for k in data if k not in named)
        elif keyword == "items":
            ok = not is_array or all(_conforms(value, x) for x in data)
        elif keyword == "minItems":
            ok = not is_array or len(data) >= value
        elif keyword == "minimum":
            ok = isinstance(data, bool) or not isinstance(data, (int, float)) or data >= value
        elif keyword == "oneOf":
            ok = sum(_conforms(branch, data) for branch in value) == 1
        else:
            raise NotImplementedError(f"schema keyword {keyword!r} is not checked")
        if not ok:
            return False
    return True


def _validate(schema, data) -> None:
    """Accept `data`, or raise a DomainError worded as ``jsonschema.validate``
    words it: the best match among all errors, not the first one found."""
    if _conforms(schema, data):
        return
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    error = best_match(Draft202012Validator(schema).iter_errors(data))
    if error is None:
        raise CrossCheckError(
            f"the schema walker rejects what jsonschema accepts: {json.dumps(data)}"
        )
    raise DomainError(str(error))


def _load_json(text_or_path: str):
    """Inline JSON or the path of a JSON file: text that starts with `{` is
    JSON, and any other text is read as a path only if it is not JSON."""
    try:
        return json.loads(text_or_path)
    except json.JSONDecodeError:
        if text_or_path.strip().startswith("{"):
            raise
    try:
        with open(text_or_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise DomainError(str(exc)) from None


def _ints(values) -> list[int]:
    """A validated integer array, its integral floats read as ints."""
    return [int(x) for x in values]


def _int_field(data, key, default=None):
    """A validated integer field of an instance, or `default` if absent."""
    return int(data[key]) if key in data else default


def _parse_base(obj) -> ProjProduct:
    return ProjProduct(tuple(_ints(obj["dims"])))


def _parse_bundle(space: ProjProduct, obj) -> SplitBundle:
    roots = []
    for vec in obj["roots"]:
        if len(vec) != len(space.dims):
            raise DomainError("each root needs one coefficient per factor")
        roots.append(divisor_from_vector(space, _ints(vec)))
    return SplitBundle(tuple(roots))


def _parse_instance(data) -> tuple[ProjProduct, SplitBundle, TruncPoly]:
    _validate(INSTANCE_SCHEMA, data)
    S = _parse_base(data["base"])
    if "bundle" not in data:
        raise DomainError("instance needs a bundle")
    E = _parse_bundle(S, data["bundle"])
    twist_vec = _ints(data.get("twist", [1] * len(S.dims)))
    if len(twist_vec) != len(S.dims):
        raise DomainError("twist vector needs one coefficient per factor")
    direction = divisor_from_vector(S, twist_vec)
    return S, E, direction


def _parse_space(text: str):
    data = _load_json(text)
    _validate(SPACE_SCHEMA, data)
    if "base" in data:
        S = _parse_base(data["base"])
        return ProjBundle(S, _parse_bundle(S, data["bundle"]))
    return _parse_base(data)


def _rational(text: str) -> Fraction:
    """A rational flag value such as -1/2, with U+2212 read as a minus sign."""
    try:
        return Fraction(text.replace("\u2212", "-"))
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {text!r}") from None
    except ValueError as exc:
        raise DomainError(str(exc)) from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise DomainError(str(exc)) from None


def _vector_list(text: str) -> list[list[int]]:
    return [_int_list(part) for part in text.split(";") if part.strip() != ""]


def _emit(obj) -> None:
    print(json.dumps(obj))


def _poly_json(poly: DegreePolynomial) -> list[str]:
    return [str(c) for c in poly.coefficients]


# -- subcommand handlers ---------------------------------------------------


def _cmd_degree2(args) -> int:
    if args.polynomial and (args.sweep or args.n is not None or args.pipeline != "all"):
        raise DomainError("--polynomial takes no --n, no --sweep and no --pipeline other than all")
    if args.sweep and args.sweep[0] > args.sweep[1]:
        raise DomainError(f"--sweep n={args.sweep[0]}..{args.sweep[1]} is a reversed range")
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
    n = args.n if args.n is not None else _int_field(data, "n")
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
    _validate(BASE_SCHEMA, data)
    space = _parse_base(data)
    roots = _vector_list(args.roots)
    if not roots:
        raise DomainError("a split bundle needs at least one root")
    E = _parse_bundle(space, {"roots": roots})
    if args.l < 1:
        raise DomainError("l must be positive")
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
    # the degree-d span is the one class 2 Delta, labelled "1"; no terms when delta_d = 0
    out = {"constant": str(dict(deltas[d][1].coefficients).get("1", 0))}
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
    l = args.l if args.l is not None else _int_field(data, "l")
    if l is None:
        raise DomainError("leading needs --l (or an l field in the instance)")
    n = args.n if args.n is not None else _int_field(data, "n", 1)
    value = leading_term(S, E, n * direction, l)
    _emit({"l": l, "value": str(value)})
    return 0


def _cmd_multint(args) -> int:
    data = _load_json(args.input)
    S, E, _ = _parse_instance(data)
    vectors = _vector_list(args.divisors)
    divisors = [divisor_from_vector(S, v) for v in vectors]
    l = args.l if args.l is not None else _int_field(data, "l")
    if l != 2:
        raise DomainError("pushforward classes are only modelled for l = 2")
    value = multint(S, E, 2, divisors, mu2_classes(S, E))
    _emit({"l": l, "value": str(value)})
    return 0


def _cmd_grassmann(args) -> int:
    degree = schubert_degree(args.l, args.r)
    out = {"degree": str(degree)}
    if args.oracle:
        count = syt_count(args.l, args.r - args.l)
        routes = "Grassmannian degree routes disagree: product formula vs tableau count"
        confirm(degree, count, routes, l=args.l, r=args.r)
        out["oracle"] = str(count)
    _emit(out)
    return 0


def _cmd_jacobi(args) -> int:
    params = JacobiParams(_rational(args.alpha), _rational(args.beta), args.n, _rational(args.z))
    value = jacobi_hyp(params)
    try:
        finite = jacobi_finite_sum(params)
    except DomainError:  # outside the finite sum's domain the series is the only route
        finite = value
    confirm(value, finite, "Jacobi routes disagree: hypergeometric vs finite sum", params=params)
    _emit({"value": str(value)})
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
    _emit({"value": str(beauville_k3(args.l, _rational(args.c1sq)))})
    return 0


def _cmd_mu_p1_coeffs(args) -> int:
    coeffs = [_rational(x) for x in args.poly.split(",")]
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

    # no option is -<digit>, so -1/2 and -1/2,1 are values (argparse admits only -3, -0.5)
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call of this process shares."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, json.JSONDecodeError, FileNotFoundError) as exc:
        _emit({"error": str(exc)})
        return 2
    except CrossCheckError as exc:
        _emit({"error": str(exc), **exc.to_json()})
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
