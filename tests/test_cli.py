import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quotdeg.cli import main


@pytest.fixture
def p1_rank2(tmp_path):
    path = tmp_path / "ex_p1_rank2.json"
    path.write_text(
        json.dumps(
            {
                "base": {"type": "projective_product", "dims": [1]},
                "bundle": {"roots": [[0], [0]]},
                "twist": [1],
            }
        )
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- the CLI goldens: argv -> exit code and exact stdout ----------------------

GOLDENS = json.loads((Path(__file__).parent / "cli_goldens.json").read_text(encoding="utf-8"))


def clear_caches():
    """Empty every lru cache of the package, so a case starts cold as in a new process."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "quotdeg" or name.startswith("quotdeg.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


@pytest.mark.parametrize("case", GOLDENS, ids=[case["name"] for case in GOLDENS])
def test_cli_golden(capsys, case):
    clear_caches()
    assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])


def test_cli_goldens_have_unique_names_and_a_source():
    names = [case["name"] for case in GOLDENS]
    assert len(set(names)) == len(names)
    assert all(case["why"] for case in GOLDENS)


def test_delta2_builds_one_pushforward_table(capsys, monkeypatch, p1_rank2):
    from quotdeg import quot2

    calls = []
    real = quot2.pair_power_pushforward_table

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quot2, "pair_power_pushforward_table", counted)
    code, out = run(capsys, ["delta2", "--input", p1_rank2, "--k", "2"])
    assert code == 0
    assert json.loads(out)["k"] == 2
    assert len(calls) == 1


def test_validation_error_exit_2(capsys):
    code, out = run(capsys, ["degree2", "--input", '{"base": {"type": "projective_product"}}', "--n", "1"])
    assert code == 2
    assert "error" in json.loads(out)


def test_selftest_filter(capsys):
    code, out = run(capsys, ["selftest", "--filter", "grassmann"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert [c["name"] for c in report["criteria"]] == ["grassmannian-degrees"]


def test_byte_stable_output(capsys, p1_rank2):
    _, first = run(capsys, ["localise", "--r", "2", "--roots", "1,0", "--l", "2", "--n", "3"])
    _, second = run(capsys, ["localise", "--r", "2", "--roots", "1,0", "--l", "2", "--n", "3"])
    assert first == second


def test_subprocess_entry():
    result = subprocess.run(
        [sys.executable, "-m", "quotdeg", "grassmann", "--l", "2", "--r", "5"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"degree": "5"}


def test_instance_file_n_fallback(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps(
            {
                "base": {"type": "projective_product", "dims": [1]},
                "bundle": {"roots": [[0], [0]]},
                "twist": [1],
                "n": 2,
            }
        )
    )
    code, out = run(capsys, ["degree2", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["degree"] == "22"


def test_cross_check_failure_exits_3(capsys, monkeypatch):
    from quotdeg import cli
    from quotdeg.errors import CrossCheckError

    def boom(l, r):
        raise CrossCheckError("forced")

    monkeypatch.setattr(cli, "schubert_degree", boom)
    code, out = run(capsys, ["grassmann", "--l", "2", "--r", "4"])
    assert code == 3
    assert json.loads(out)["error"] == "forced"


def test_grassmann_oracle_compares_the_tableau_count(capsys, monkeypatch):
    from quotdeg import cli

    count = cli.syt_count
    monkeypatch.setattr(cli, "syt_count", lambda rows, cols: count(rows, cols) + 1)
    code, out = run(capsys, ["grassmann", "--l", "2", "--r", "4", "--oracle"])
    assert code == 3
    report = json.loads(out)
    assert report["routes"] == "Grassmannian degree routes disagree: product formula vs tableau count"
    assert report["values"] == ["2", "3"]
    assert report["instance"] == {"l": "2", "r": "4"}
    assert run(capsys, ["grassmann", "--l", "2", "--r", "4"]) == (0, '{"degree": "2"}\n')


def test_a_disagreeing_pipeline_exits_3_naming_the_routes_and_both_values(
    capsys, monkeypatch, tmp_path
):
    from quotdeg import quot2

    geometric = quot2.degree2_geometric
    monkeypatch.setattr(quot2, "degree2_geometric", lambda inst: geometric(inst) + 1)
    path = tmp_path / "p1p2.json"
    path.write_text(
        json.dumps(
            {
                "base": {"type": "projective_product", "dims": [1, 2]},
                "bundle": {"roots": [[1, 2], [2, 1], [0, 1]]},
                "twist": [1, 1],
            }
        )
    )
    code, out = run(capsys, ["degree2", "--n", "2", "--input", str(path)])
    assert code == 3
    report = json.loads(out)
    assert list(report) == ["error", "routes", "values", "instance"]
    assert report["routes"] == "degree pipelines disagree: formula vs geometric"
    assert report["values"] == ["125434236", "125434237"]
    assert list(report["instance"]) == ["space", "bundle", "twist"]
    assert report["instance"]["space"] == "ProjProduct(dims=(1, 2))"
    assert report["error"].startswith(report["routes"] + " at space=ProjProduct(dims=(1, 2)), ")
    assert report["error"].endswith(": 125434236 != 125434237")


def test_leading_l_from_file(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps(
            {
                "base": {"type": "projective_product", "dims": [1]},
                "bundle": {"roots": [[0], [0]]},
                "twist": [1],
                "l": 2,
                "n": 3,
            }
        )
    )
    code, out = run(capsys, ["leading", "--input", str(path), "--n", "1"])
    assert code == 0
    assert json.loads(out) == {"l": 2, "value": "12"}
    # without --n, the file's n applies
    code, out = run(capsys, ["leading", "--input", str(path)])
    assert code == 0
    assert json.loads(out) == {"l": 2, "value": "108"}


_BASE = {"type": "projective_product", "dims": [1]}
_BUNDLE = {"roots": [[0], [1]]}


@pytest.mark.parametrize(
    "argv, data, schema_name",
    [
        # minimum
        (["degree2", "--n", "1", "--input"],
         {"base": {"type": "projective_product", "dims": [0]}, "bundle": _BUNDLE}, "INSTANCE_SCHEMA"),
        (["mu2", "--k", "0", "--input"], {"base": _BASE, "bundle": _BUNDLE, "l": 0}, "INSTANCE_SCHEMA"),
        # required
        (["degree2", "--n", "1", "--input"], {"base": {"type": "projective_product"}}, "INSTANCE_SCHEMA"),
        (["delta2", "--input"], {"base": _BASE, "bundle": {}}, "INSTANCE_SCHEMA"),
        # additionalProperties
        (["degree2", "--n", "1", "--input"], {"base": _BASE, "bundle": _BUNDLE, "extra": 1}, "INSTANCE_SCHEMA"),
        # an item type
        (["degree2", "--n", "1", "--input"], {"base": _BASE, "bundle": {"roots": [["0"], [1]]}}, "INSTANCE_SCHEMA"),
        (["leading", "--l", "2", "--input"], {"base": _BASE, "bundle": _BUNDLE, "twist": [1.5]}, "INSTANCE_SCHEMA"),
        # several errors at once: the best match, not the first found
        (["degree2", "--n", "1", "--input"],
         {"base": {"type": "projective_product", "dims": [0]}, "bundle": {"roots": [[0.5]]}, "extra": 1},
         "INSTANCE_SCHEMA"),
        # the oneOf of the space schema, with errors under both branches
        (["hilb2", "--divisor", "1", "--space"], {"type": "projective_product", "dims": [1], "x": 0}, "SPACE_SCHEMA"),
        (["hilb2", "--divisor", "1", "--space"], {"base": _BASE, "bundle": {"roots": []}}, "SPACE_SCHEMA"),
        # the base schema
        (["nu", "--roots", "0;1", "--l", "2", "--k", "0", "--space"],
         {"type": "projective_line", "dims": [1]}, "BASE_SCHEMA"),
        (["nu", "--roots", "0;1", "--l", "2", "--k", "0", "--space"],
         {"type": "projective_product", "dims": []}, "BASE_SCHEMA"),
        # inline JSON that is not an object is read as JSON, not as a path
        (["degree2", "--n", "1", "--input"], [1], "INSTANCE_SCHEMA"),
        (["degree2", "--n", "1", "--input"], None, "INSTANCE_SCHEMA"),
        (["hilb2", "--divisor", "1", "--space"], [1], "SPACE_SCHEMA"),
        (["hilb2", "--divisor", "1", "--space"], "inst.json", "SPACE_SCHEMA"),
        (["nu", "--roots", "0;1", "--l", "2", "--k", "0", "--space"], 1, "BASE_SCHEMA"),
    ],
)
def test_invalid_input_error_matches_jsonschema_validate(capsys, argv, data, schema_name):
    import jsonschema

    from quotdeg import cli

    with pytest.raises(jsonschema.ValidationError) as raised:
        jsonschema.validate(data, getattr(cli, schema_name))
    code, out = run(capsys, argv + [json.dumps(data)])
    assert code == 2
    assert out == json.dumps({"error": str(raised.value)}) + "\n"


def test_schemas_are_valid_for_their_validators():
    # a rejection is worded by the Draft 2020-12 validator, so each schema
    # must be a valid Draft 2020-12 schema and select that validator
    from jsonschema import Draft202012Validator
    from jsonschema.validators import validator_for

    from quotdeg import cli

    for schema in (cli.BASE_SCHEMA, cli.INSTANCE_SCHEMA, cli.SPACE_SCHEMA):
        assert validator_for(schema) is Draft202012Validator
        Draft202012Validator.check_schema(schema)


# -- the schema walker against jsonschema -------------------------------------

_VALID = {
    "BASE_SCHEMA": [_BASE, {"type": "projective_product", "dims": [2, 1]}],
    "INSTANCE_SCHEMA": [
        {"base": _BASE, "bundle": _BUNDLE},
        {"base": {"type": "projective_product", "dims": [1, 2]}, "bundle": {"roots": [[1, -1]]},
         "twist": [1, 2], "l": 2, "n": 0},
    ],
    "SPACE_SCHEMA": [
        {"type": "projective_product", "dims": [1, 1]},
        {"base": {"type": "projective_product", "dims": [2]}, "bundle": {"roots": [[0], [1]]}},
    ],
}
# the command that validates each schema, its input last
_COMMAND = {
    "BASE_SCHEMA": ["nu", "--roots", "0;1", "--l", "2", "--k", "0", "--space"],
    "INSTANCE_SCHEMA": ["degree2", "--n", "1", "--input"],
    "SPACE_SCHEMA": ["hilb2", "--divisor", "1", "--space"],
}
_LEAVES = ("x", True, False, None, 1.5, 2.0, 0, -1)


def _paths(doc, path=()):
    """Every path below the root of a JSON document, with its value."""
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


_DROP = object()


def _edits(doc):
    """(path, new value) pairs, each one change to `doc`; _DROP removes the key."""
    out = [(("extra",), 1)]
    for path, value in _paths(doc):
        if isinstance(path[-1], str):
            out.append((path, _DROP))
        if isinstance(value, dict):
            out.append((path + ("extra",), 1))
        out += [(path, new) for new in _LEAVES + ([], {}, [value], {"x": value})]
    return out


def _edited(doc, path, new):
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if new is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return copy


def _corpus(seed):
    """Each valid document, each single edit of it, and seeded draws of two
    or three edits on top of each other."""
    rng = random.Random(seed)
    for schema_name, docs in _VALID.items():
        for doc in docs:
            yield schema_name, doc
            for edit in _edits(doc):
                yield schema_name, _edited(doc, *edit)
            for _ in range(60):
                copy = doc
                for _ in range(rng.randint(2, 3)):
                    copy = _edited(copy, *rng.choice(_edits(copy)))
                yield schema_name, copy


def test_walker_agrees_with_jsonschema(capsys):
    # jsonschema.validate is check_schema, then the best match among the
    # errors of a Draft 2020-12 validator; the schemas are checked once above
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    from quotdeg import cli

    validators = {name: Draft202012Validator(getattr(cli, name)) for name in _VALID}
    seen = {True: 0, False: 0}
    for schema_name, data in _corpus(20261018):
        error = best_match(validators[schema_name].iter_errors(data))
        accepted = cli._conforms(getattr(cli, schema_name), data)
        assert accepted == (error is None), data
        seen[accepted] += 1
        if not accepted:
            code, out = run(capsys, _COMMAND[schema_name] + [json.dumps(data)])
            assert (code, out) == (2, json.dumps({"error": str(error)}) + "\n"), data
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize(
    "schema, data",
    [
        # no input of the schemas above tells these apart
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 1),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -1),
        ({"const": 1}, True),
        ({"const": 1}, 1.0),
        ({"minimum": 1}, False),
        ({"additionalProperties": {"type": "integer"}}, {"a": 1, "b": "x"}),
        ({"properties": {"a": False}}, {"a": 1}),
    ],
)
def test_walker_agrees_with_jsonschema_on_general_schemas(schema, data):
    from jsonschema import Draft202012Validator

    from quotdeg import cli

    assert cli._conforms(schema, data) == Draft202012Validator(schema).is_valid(data)


def test_walker_refuses_an_unknown_keyword():
    from quotdeg import cli

    with pytest.raises(NotImplementedError, match="maxItems"):
        cli._conforms({"type": "array", "maxItems": 1}, [])


def test_walker_rejection_that_jsonschema_accepts_exits_3(capsys, monkeypatch, p1_rank2):
    from quotdeg import cli

    monkeypatch.setattr(cli, "_conforms", lambda schema, data: False)
    code, out = run(capsys, ["degree2", "--input", p1_rank2, "--n", "2"])
    assert code == 3
    assert "jsonschema accepts" in json.loads(out)["error"]
    assert '"roots": [[0], [0]]' in json.loads(out)["error"]


_P1_INSTANCE = {"base": _BASE, "bundle": {"roots": [[0], [0]]}, "twist": [1], "l": 2, "n": 2}
_P2_SPACE = {"type": "projective_product", "dims": [2]}
_P1_BUNDLE_SPACE = {"base": _BASE, "bundle": {"roots": [[0], [1]]}}


def _floated(doc):
    """The document with every integer written as a JSON float."""
    if isinstance(doc, dict):
        return {k: _floated(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_floated(v) for v in doc]
    return float(doc) if type(doc) is int else doc


@pytest.mark.parametrize(
    "argv, data",
    [
        (["degree2", "--input"], _P1_INSTANCE),
        (["degree2", "--polynomial", "--input"], _P1_INSTANCE),
        (["leading", "--input"], _P1_INSTANCE),
        (["multint", "--divisors", "2;2;2;2", "--input"], _P1_INSTANCE),
        (["mu2", "--k", "1", "--input"], _P1_INSTANCE),
        (["delta2", "--k", "1", "--input"], _P1_INSTANCE),
        (["hilb2", "--divisor", "3", "--space"], _BASE),
        (["hilb2", "--divisor", "1,1", "--space"], _P1_BUNDLE_SPACE),
        (["nu", "--roots", "1;1", "--l", "2", "--k", "1", "--space"], _P2_SPACE),
    ],
)
def test_integral_floats_read_as_integers(capsys, argv, data):
    code, out = run(capsys, argv + [json.dumps(data)])
    assert code == 0
    floated = json.dumps(_floated(data))
    assert ".0" in floated
    assert run(capsys, argv + [floated]) == (code, out)


def test_valid_commands_do_not_import_jsonschema():
    commands = [
        ["degree2", "--input", json.dumps(_P1_INSTANCE), "--n", "2"],
        ["hilb2", "--space", json.dumps(_BASE), "--divisor", "3"],
        ["nu", "--space", json.dumps(_P2_SPACE), "--roots", "1;1", "--l", "2", "--k", "1"],
    ]
    script = (
        "import sys\nfrom quotdeg.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print(codes, 'jsonschema' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [json.loads(line)["degree"] for line in lines[:2]] == ["22", "4"]
    assert lines[3] == "[0, 0, 0] False"
    # an invalid input prints the same line as when jsonschema checked every input
    bad = {"base": {"type": "projective_product", "dims": [0]}, "bundle": {"roots": [[True]]}}
    result = subprocess.run(
        [sys.executable, "-m", "quotdeg", "degree2", "--input", json.dumps(bad), "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    error = (
        "0 is less than the minimum of 1\n\n"
        "Failed validating 'minimum' in schema['properties']['base']['properties']['dims']['items']:\n"
        "    {'type': 'integer', 'minimum': 1}\n\n"
        "On instance['base']['dims'][0]:\n    0"
    )
    assert result.stdout == json.dumps({"error": error}) + "\n"


def test_shared_parser_leaks_no_state(capsys, p1_rank2):
    from quotdeg import cli

    first = ["degree2", "--input", p1_rank2, "--polynomial"]
    second = ["degree2", "--input", p1_rank2, "--n", "2"]
    fresh = []
    for argv in (first, second):
        cli._parser.cache_clear()
        fresh.append(run(capsys, argv))
    parser = cli._parser()
    shared = [run(capsys, first), run(capsys, second)]
    assert cli._parser() is parser
    assert shared == fresh
    assert json.loads(fresh[1][1]) == {"degree": "22", "pipelines_agree": True}


def corrupt_cli_finite_sum(monkeypatch):
    from quotdeg import cli

    original = cli.jacobi_finite_sum
    monkeypatch.setattr(cli, "jacobi_finite_sum", lambda params: original(params) + 1)


def test_jacobi_in_domain_compares_both_routes(capsys, monkeypatch):
    # integer alpha > 0 and beta > -n - alpha - 1: the finite sum is a second route
    argv = ["jacobi", "--alpha", "3", "--beta", "-7/2", "--n", "4", "--z", "-5/7"]
    assert run(capsys, argv) == (0, '{"value": "-2477/19208"}\n')
    corrupt_cli_finite_sum(monkeypatch)
    code, out = run(capsys, argv)
    assert code == 3
    assert json.loads(out)["error"].startswith("Jacobi routes disagree")


def test_jacobi_out_of_domain_prints_the_series_value(capsys, monkeypatch):
    corrupt_cli_finite_sum(monkeypatch)
    argv = ["jacobi", "--alpha", "1/2", "--beta", "2/3", "--n", "3", "--z", "1/5"]
    assert run(capsys, argv) == (0, '{"value": "-59723/162000"}\n')


def test_selftest_stdout_is_byte_stable(capsys):
    first = run(capsys, ["selftest", "--filter", "hilb2"])
    second = run(capsys, ["selftest", "--filter", "hilb2"])
    assert first == second
    assert first[0] == 0
    assert "seconds" not in first[1]


def test_input_and_space_read_a_path(capsys, tmp_path, monkeypatch):
    # a path is read as a file whatever its first character
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tests").mkdir()
    instance = {"base": _BASE, "bundle": {"roots": [[0], [0]]}, "twist": [1]}
    for name in ("tests/x.json", "notes.json"):
        (tmp_path / name).write_text(json.dumps(instance))
        assert run(capsys, ["degree2", "--input", name, "--n", "2"]) == (
            0,
            '{"degree": "22", "pipelines_agree": true}\n',
        )
        (tmp_path / name).write_text(json.dumps({"type": "projective_product", "dims": [2]}))
        inline = run(capsys, ["hilb2", "--divisor", "2", "--space", '{"type":"projective_product","dims":[2]}'])
        assert run(capsys, ["hilb2", "--divisor", "2", "--space", name]) == inline
        assert inline[0] == 0


def test_missing_file_and_broken_inline_json_are_errors(capsys, tmp_path):
    code, out = run(capsys, ["degree2", "--input", str(tmp_path / "absent.json"), "--n", "1"])
    assert code == 2 and "No such file or directory" in json.loads(out)["error"]
    code, out = run(capsys, ["degree2", "--input", '{"base": ', "--n", "1"])
    assert code == 2 and "Expecting value" in json.loads(out)["error"]


def test_every_rational_flag_reads_the_unicode_minus(capsys):
    beauville = ["beauville", "--l", "3", "--c1sq"]
    assert run(capsys, beauville + ["−1/2"]) == run(capsys, beauville + ["-1/2"])
    jacobi = ["jacobi", "--n", "2"]
    unicode = jacobi + ["--alpha", "−1/3", "--beta", "−1/3", "--z", "−1/3"]
    ascii_ = jacobi + ["--alpha=-1/3", "--beta=-1/3", "--z=-1/3"]
    assert run(capsys, unicode) == run(capsys, ascii_) == (0, '{"value": "-25/81"}\n')
    poly = ["mu-p1-coeffs", "--r", "2", "--l", "2", "--poly"]
    assert run(capsys, poly + ["6,−16,12"]) == (0, '{"a": ["2", "-4", "12"]}\n')


_SPACE_P1P1 = '{"type": "projective_product", "dims": [1, 1]}'
_INSTANCE_P1P1 = json.dumps(
    {
        "base": {"type": "projective_product", "dims": [1, 1]},
        "bundle": {"roots": [[1, 0], [0, 1]]},
        "twist": [1, 1],
    }
)
_NOT_AN_INT = "invalid literal for int() with base 10: 'x'"
_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["mu-p1-coeffs", "--r", "2", "--l", "2", "--poly", ","],
            "Invalid literal for Fraction: ''",
        ),
        (
            ["jacobi", "--alpha", "1", "--beta", "1", "--n", "2", "--z", "x"],
            "Invalid literal for Fraction: 'x'",
        ),
        (["localise", "--r", "2", "--roots", "0,x", "--l", "2", "--n", "1"], _NOT_AN_INT),
        (["hilb2", "--space", _SPACE_P1P1, "--divisor", "1,x"], _NOT_AN_INT),
        (["nu", "--space", _SPACE_P1P1, "--roots", "1,x", "--l", "2", "--k", "1"], _NOT_AN_INT),
        (["multint", "--input", _INSTANCE_P1P1, "--divisors", "1,x", "--l", "2"], _NOT_AN_INT),
        (
            ["nu", "--space", _SPACE_P1P1, "--roots", "", "--l", "2", "--k", "1"],
            "a split bundle needs at least one root",
        ),
        (
            ["nu", "--space", _SPACE_P1P1, "--roots", "1,0", "--l", "0", "--k", "0"],
            "l must be positive",
        ),
        (["degree2", "--input", "{not_utf8}", "--n", "1"], _NOT_UTF8),
        (["hilb2", "--space", "{not_utf8}", "--divisor", "1,1"], _NOT_UTF8),
    ],
    ids=[
        "mu-p1-coeffs-poly",
        "jacobi-z",
        "localise-roots",
        "hilb2-divisor",
        "nu-roots",
        "multint-divisors",
        "nu-no-roots",
        "nu-l-zero",
        "degree2-input-not-utf8",
        "hilb2-space-not-utf8",
    ],
)
def test_invalid_flag_text_exits_2_with_its_message(capsys, tmp_path, argv, message):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"type": "projective_product"}')
    code, out = run(capsys, [str(path) if arg == "{not_utf8}" else arg for arg in argv])
    assert code == 2
    assert out == json.dumps({"error": message}) + "\n"


def test_a_value_error_inside_a_pipeline_exits_1_with_its_traceback():
    # an internal fault is not invalid input: no JSON line, the traceback on stderr
    script = (
        "import sys\nfrom quotdeg import cli\n"
        "def fault(inst):\n    raise ValueError('an internal fault')\n"
        "cli.degree2_formula = fault\n"
        "sys.argv = ['quotdeg', 'degree2', '--pipeline', 'formula', '--n', '1', '--input',"
        f" {_INSTANCE_P1P1!r}]\n"
        "cli.entry()\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("Traceback (most recent call last):")
    assert result.stderr.endswith("ValueError: an internal fault\n")
