"""Acceptance suite: every criterion runs exactly and prints a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion, or `quotdeg selftest` for the same checks from the CLI.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quotdeg.selftest import CRITERIA

_BY_NAME = dict(CRITERIA)


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion(name):
    try:
        detail = _BY_NAME[name]()
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name} ({detail})")


def test_convention_lock_detects_sign_corruption(monkeypatch):
    """A deliberately flipped Segre sign must be caught by the lock criterion."""
    from quotdeg import hilb2
    from quotdeg.errors import CrossCheckError
    from quotdeg.selftest import crit_hilb2_convention_lock
    from quotdeg.varieties import segre_scheme as true_segre_scheme

    def corrupted(space):
        honest = true_segre_scheme(space)
        flipped = honest.graded_part(0)
        for k in range(1, space.dimension + 1):
            flipped = flipped + (-1) ** k * honest.graded_part(k)
        return flipped

    hilb2.blowup_power_pushforward.cache_clear()
    hilb2._exceptional_split.cache_clear()
    monkeypatch.setattr(hilb2, "segre_scheme", corrupted)
    try:
        with pytest.raises((AssertionError, CrossCheckError)):
            crit_hilb2_convention_lock()
    finally:
        hilb2.blowup_power_pushforward.cache_clear()
        hilb2._exceptional_split.cache_clear()


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quotdeg"


def test_criteria_fail_under_python_O():
    """A criterion's checks are not assert statements, so -O keeps them."""
    code = (
        "import json\n"
        "from quotdeg import selftest\n"
        "true_degree = selftest.schubert_degree\n"
        "selftest.schubert_degree = lambda l, r: true_degree(l, r) + 1\n"
        "print(json.dumps(selftest.run_selftest('grassmann')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("PYTHONOPTIMIZE", None)
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(done.stdout)
    assert report["ok"] is False
    assert [c["status"] for c in report["criteria"]] == ["fail"]


def test_failed_criterion_names_the_instance_and_both_values(monkeypatch):
    from quotdeg import selftest

    true_degree = selftest.schubert_degree
    monkeypatch.setattr(selftest, "schubert_degree", lambda l, r: true_degree(l, r) + 1)
    (criterion,) = selftest.run_selftest("grassmann")["criteria"]
    assert criterion["status"] == "fail"
    # the first check: schubert_degree(1, 2) = 1 + 1 against syt_count(1, 1) = 1
    assert criterion["detail"] == "CrossCheckError: schubert_degree vs syt_count at l=1, r=2: 2 != 1"


def test_confirm_returns_the_value_or_names_both_routes():
    from fractions import Fraction

    from quotdeg.errors import CrossCheckError, confirm
    from quotdeg.exactpoly import DegreePolynomial

    assert confirm(Fraction(3), 3, "a vs b", n=1) == Fraction(3)
    poly = DegreePolynomial((1, Fraction(1, 2)))
    with pytest.raises(CrossCheckError) as caught:
        confirm(poly, [1, 2], "a vs b", p=poly)
    assert str(caught.value) == "a vs b at p=[1, 1/2]: [1, 1/2] != [1, 2]"
    assert caught.value.values == (poly, [1, 2])
    with pytest.raises(CrossCheckError) as caught:
        confirm((1, 2), (1, 3), "a vs b")  # no instance, no " at "
    assert str(caught.value) == "a vs b: [1, 2] != [1, 3]"
    assert caught.value.to_json() == {
        "routes": "a vs b",
        "values": ["[1, 2]", "[1, 3]"],
        "instance": {},
    }
    assert CrossCheckError("a property failed").to_json() == {}


def test_package_has_no_assert_statement():
    """python -O deletes assert statements, so no check in the package is one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
