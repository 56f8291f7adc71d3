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
            }
        )
    )
    code, out = run(capsys, ["leading", "--input", str(path), "--n", "1"])
    assert code == 0
    assert json.loads(out) == {"l": 2, "value": "12"}
