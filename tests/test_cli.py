import json
import subprocess
import sys

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


def test_degree2(capsys, p1_rank2):
    code, out = run(capsys, ["degree2", "--input", p1_rank2, "--n", "2"])
    assert code == 0
    assert json.loads(out) == {"degree": "22", "pipelines_agree": True}


def test_degree2_polynomial(capsys, p1_rank2):
    code, out = run(capsys, ["degree2", "--input", p1_rank2, "--polynomial"])
    assert code == 0
    assert json.loads(out)["coefficients"] == ["6", "-16", "12"]


def test_degree2_sweep_csv(capsys, p1_rank2):
    code, out = run(capsys, ["degree2", "--input", p1_rank2, "--sweep", "n=0..3"])
    assert code == 0
    assert out.splitlines() == ["n,degree", "0,6", "1,2", "2,22", "3,66"]


def test_degree2_single_pipeline(capsys, p1_rank2):
    code, out = run(capsys, ["degree2", "--input", p1_rank2, "--n", "3", "--pipeline", "geometric"])
    assert code == 0
    assert json.loads(out)["degree"] == "66"


def test_hilb2(capsys):
    space = '{"type": "projective_product", "dims": [1]}'
    code, out = run(capsys, ["hilb2", "--space", space, "--divisor", "3"])
    assert code == 0
    assert json.loads(out) == {"degree": "4", "routes_agree": True}


def test_hilb2_bundle_space(capsys):
    space = '{"base": {"type": "projective_product", "dims": [1]}, "bundle": {"roots": [[0], [0]]}}'
    code, out = run(capsys, ["hilb2", "--space", space, "--divisor", "1,1"])
    assert code == 0
    assert json.loads(out)["degree"] == "2"


def test_grassmann(capsys):
    code, out = run(capsys, ["grassmann", "--l", "2", "--r", "4", "--oracle"])
    assert code == 0
    assert json.loads(out) == {"degree": "2", "oracle": "2"}


def test_jacobi(capsys):
    code, out = run(capsys, ["jacobi", "--alpha", "1", "--beta", "-2", "--n", "1", "--z", "0"])
    assert code == 0
    assert json.loads(out) == {"value": "3/2"}


def test_localise(capsys):
    code, out = run(capsys, ["localise", "--r", "2", "--roots", "0,0", "--l", "2", "--n", "2"])
    assert code == 0
    assert json.loads(out) == {"degree": "22"}


def test_localise_polynomial(capsys):
    code, out = run(
        capsys, ["localise", "--r", "2", "--roots", "0,0", "--l", "2", "--polynomial"]
    )
    assert code == 0
    assert json.loads(out)["coefficients"] == ["6", "-16", "12"]


def test_beauville(capsys):
    code, out = run(capsys, ["beauville", "--l", "2", "--c1sq", "4"])
    assert code == 0
    assert json.loads(out) == {"value": "12"}


def test_mu_p1_coeffs(capsys):
    code, out = run(capsys, ["mu-p1-coeffs", "--r", "2", "--l", "2", "--poly", "6,-16,12"])
    assert code == 0
    assert json.loads(out)["a"] == ["2", "-4", "12"]


@pytest.mark.parametrize(
    "r, l, poly", [("0", "2", "1"), ("-1", "2", "1,2"), ("2", "-1", "1")]
)
def test_mu_p1_coeffs_rejects_invalid_r_and_l(capsys, r, l, poly):
    code, out = run(capsys, ["mu-p1-coeffs", "--r", r, "--l", l, "--poly", poly])
    assert code == 2
    assert out == '{"error": "need r >= 1 and l >= 0"}\n'


def test_nu(capsys):
    space = '{"type": "projective_product", "dims": [2]}'
    code, out = run(capsys, ["nu", "--space", space, "--roots", "1;1", "--l", "2", "--k", "1"])
    assert code == 0
    assert json.loads(out)["class"] == {"h1^1": "6", "h2^1": "6"}


def test_mu2_and_delta2(capsys, p1_rank2):
    code, out = run(capsys, ["mu2", "--input", p1_rank2, "--k", "0"])
    assert code == 0
    assert json.loads(out)["class"] == {"1": "2"}
    code, out = run(capsys, ["delta2", "--input", p1_rank2, "--k", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["constant"] == "-2"
    assert data["membership"]["member"] is True


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


@pytest.mark.parametrize("k", ["-1", "3"])
def test_mu2_k_out_of_range(capsys, p1_rank2, k):
    code, out = run(capsys, ["mu2", "--input", p1_rank2, "--k", k])
    assert code == 2
    assert out == '{"error": "k out of range"}\n'


@pytest.mark.parametrize("k", ["-1", "3"])
def test_delta2_k_out_of_range(capsys, p1_rank2, k):
    code, out = run(capsys, ["delta2", "--input", p1_rank2, "--k", k])
    assert code == 2
    assert out == '{"error": "k out of range"}\n'


def test_leading(capsys, p1_rank2):
    code, out = run(capsys, ["leading", "--input", p1_rank2, "--l", "2", "--n", "1"])
    assert code == 0
    assert json.loads(out)["value"] == "12"


def test_multint(capsys, p1_rank2):
    code, out = run(
        capsys, ["multint", "--input", p1_rank2, "--l", "2", "--divisors", "2;2;2;2"]
    )
    assert code == 0
    assert json.loads(out)["value"] == "22"


def test_validation_error_exit_2(capsys):
    code, out = run(capsys, ["degree2", "--input", '{"base": {"type": "projective_product"}}', "--n", "1"])
    assert code == 2
    assert "error" in json.loads(out)


def test_missing_n_exit_2(capsys, p1_rank2):
    code, out = run(capsys, ["degree2", "--input", p1_rank2])
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
    from jsonschema.validators import validator_for

    from quotdeg import cli

    pairs = [
        (cli._BASE_VALIDATOR, cli.BASE_SCHEMA),
        (cli._INSTANCE_VALIDATOR, cli.INSTANCE_SCHEMA),
        (cli._SPACE_VALIDATOR, cli.SPACE_SCHEMA),
    ]
    for validator, schema in pairs:
        assert validator.schema is schema
        assert type(validator) is validator_for(schema)
        type(validator).check_schema(schema)


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
