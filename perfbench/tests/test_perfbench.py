"""Tests of the benchmark itself: repeatable traced counts, seeds that move
instances but not shapes, a tracer that leaves no trace, and output checks
that catch wrong values.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import jsonschema  # noqa: E402
import quotdeg  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench.tracer import Tracer, is_wrapped  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, LADDER, build  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES

# cheap slices of each workload
SLICES = {
    "ladder": slice(0, 6),
    "cli-stream": slice(0, 12),
    "oracle": [0, 1, 2, 60, 61, -2, -1],
}


def _items(workload, seed):
    items = build(workload, seed)
    picked = SLICES[workload]
    return items[picked] if isinstance(picked, slice) else [items[i] for i in picked]


def _traced_metrics(workload, seed):
    run.clear_caches()
    untraced = run.run_rounds(_items(workload, seed), 3)
    run.clear_caches()
    items = _items(workload, seed)
    with Tracer() as tracer:
        traced = run.run_rounds(items, 3, tracer)
    assert not any(traced.errors)
    return run.per_layer(untraced, traced, tracer)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first = _traced_metrics(workload, 3)
    second = _traced_metrics(workload, 3)
    counts = {k: v for k, (v, unit) in first.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in second.items() if unit == "count"}
    if workload == "oracle":
        assert counts["exactpoly.mul.calls"] == 0
        assert counts["localise.tangent_weights.calls"] > 0
    else:
        assert counts["exactpoly.mul.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_instances_not_shape(workload):
    a, b = build(workload, DEFAULT_SEED), build(workload, 7)
    assert [i.shape for i in a] == [i.shape for i in b]
    assert [i.key for i in a] != [i.key for i in b]


def test_fixed_mix_and_ladder_shape():
    mix = collections.Counter(i.key.split()[0] + (" --n" if " --n " in i.key else "")
                              for i in build("cli-stream", 11))
    assert mix == {"degree2 --n": 72, "degree2": 24, "delta2": 12, "mu2": 6, "hilb2": 6}
    assert [i.shape for i in build("ladder", 11)] == [
        f"{label} {p}" for label, *_ in LADDER for p in ("formula", "projbundle", "geometric")
    ]


def _namespace_snapshot():
    spaces = [m for name, m in sys.modules.items()
              if m is not None and (name == "quotdeg" or name.startswith("quotdeg."))]
    spaces += [quotdeg.TruncPoly, quotdeg.SymClassRep, jsonschema]
    return {(id(ns), key): value for ns in spaces for key, value in list(vars(ns).items())}


def test_tracer_restores_package():
    before = _namespace_snapshot()
    with pytest.raises(quotdeg.DomainError):
        with Tracer() as tracer:
            assert is_wrapped(quotdeg.quot2.segre_class)
            assert is_wrapped(quotdeg.segre_class)
            assert is_wrapped(quotdeg.TruncPoly.__rmul__)
            assert is_wrapped(jsonschema.validate)
            quotdeg.jacobi.a_coeff(0, 1, 0, 0)
    assert tracer.spans[-1][6] == {"error": "DomainError"}
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(is_wrapped(v) for v in after.values())


def test_goldens_cover_the_default_seed():
    goldens = json.loads(run.GOLDENS.read_text())
    for workload in WORKLOADS:
        assert [k for k, _ in goldens[workload]] == [i.key for i in build(workload, DEFAULT_SEED)]
    ladder = [out for _, out in goldens["ladder"]]
    assert ladder == [str(known) for *_, known in LADDER for _ in range(3)]


def test_checks_catch_wrong_and_unstable_output():
    items = build("ladder", DEFAULT_SEED)
    golden = [out for _, out in json.loads(run.GOLDENS.read_text())["ladder"]]
    outputs = [[out] * 3 for out in golden]
    phase = run.Phase(3, [[0.1] * 3 for _ in items], outputs, [[] for _ in items])
    assert run.check_outputs("ladder", DEFAULT_SEED, items, phase)[0] == 0
    outputs[4] = [golden[4], "1", golden[4]]  # one round prints another value
    assert run.check_outputs("ladder", DEFAULT_SEED, items, phase)[0] == 3
    outputs[4] = ["1"] * 3  # wrong every round: golden and rung agreement fail
    failed, problems = run.check_outputs("ladder", DEFAULT_SEED, items, phase)
    assert failed == 9 and any("golden" in p for p in problems)


def test_exits_nonzero_without_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
