"""Benchmark runner for quotdeg.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process and one thread drive the workload in a closed loop
with one client.  The item list is timed in an odd number of rounds (at
least three, more when ``--seconds`` leaves room), and each item's time is
its median across rounds.  Outputs are checked outside the timed phase.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first repeats
the untraced phase, then runs the same rounds again with the tracer
installed, and prints the per-layer metrics.  The last line of stdout is the
result object; the line before it holds the run's context.  Both, with the
per-item times, also go to ``perfbench/out/``, and a traced run writes its
spans there.  Exit code 0: all outputs correct; 1: an output check failed;
2: the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("ladder", "cli-stream", "oracle")


def import_package() -> None:
    """Import quotdeg from this checkout's src/, never from elsewhere."""
    package = SRC / "quotdeg"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import quotdeg

    if Path(quotdeg.__file__).resolve().parent != package.resolve():
        print(f"perfbench: quotdeg imported from {quotdeg.__file__}", file=sys.stderr)
        sys.exit(2)


def rounds_for(workload: str, seconds: int) -> int:
    """Odd round count, at least three, that fits the workload's nominal
    round cost into ``seconds``; depends on nothing measured."""
    from perfbench.workloads import NOMINAL_ROUND_S

    fit = int(seconds / NOMINAL_ROUND_S[workload])
    if fit % 2 == 0:
        fit -= 1
    return max(3, fit)


# -- context ---------------------------------------------------------------


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "quotdeg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def context_start(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "loadavg_start": _loadavg(),
    }


# -- set-up time -----------------------------------------------------------


def measure_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> float:
    """Median time from interpreter start to package imported and inputs
    generated, over fresh child interpreters; a first, untimed child
    compiles the bytecode caches."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = child.communicate(timeout=120)
        if child.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')}")
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


# -- timed rounds ----------------------------------------------------------


@dataclass
class Phase:
    """Everything one phase of timed rounds observed."""

    rounds: int
    times: list[list[float]]
    outputs: list[list[str | None]]
    errors: list[list[str]]
    round_wall_s: list[float] = field(default_factory=list)
    round_cpu_s: list[float] = field(default_factory=list)
    round_spans: list[tuple[int, int]] = field(default_factory=list)

    @property
    def medians(self) -> list[float]:
        return [statistics.median(t) for t in self.times]

    @property
    def work_s(self) -> float:
        return sum(self.medians)


def clear_caches() -> None:
    """Empty every lru cache of the package, so each phase starts cold."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "quotdeg" or name.startswith("quotdeg.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def run_rounds(items, rounds: int, tracer=None) -> Phase:
    phase = Phase(rounds, [[] for _ in items], [[] for _ in items], [[] for _ in items])
    for _ in range(rounds):
        gc.collect()
        first_span = len(tracer.spans) if tracer else 0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for i, item in enumerate(items):
            sid = tracer.begin("item") if tracer else None
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception as exc:  # a failing item is counted, the run goes on
                out = None
                phase.errors[i].append(f"{type(exc).__name__}: {exc}")
            phase.times[i].append(time.perf_counter() - t0)
            if tracer:
                tracer.end(sid)
            phase.outputs[i].append(out)
        phase.round_wall_s.append(time.perf_counter() - wall0)
        phase.round_cpu_s.append(time.process_time() - cpu0)
        if tracer:
            phase.round_spans.append((first_span, len(tracer.spans)))
    return phase


# -- output checks ---------------------------------------------------------


def check_outputs(workload: str, seed: int, items, phase: Phase) -> tuple[int, list[str]]:
    """Count failed executions: each one that raised, and every execution of
    an item whose rounds printed different bytes or whose output a check
    rejects (golden, group agreement, or the item's second route)."""
    from perfbench.workloads import DEFAULT_SEED

    problems: dict[int, list[str]] = {}
    firsts: list[str | None] = []
    for i, outs in enumerate(phase.outputs):
        printed = [o for o in outs if o is not None]
        firsts.append(printed[0] if printed else None)
        if len(set(printed)) > 1:
            problems.setdefault(i, []).append("rounds printed different bytes")
    groups: dict[str, set] = {}
    for item, first in zip(items, firsts):
        if item.group is not None and first is not None:
            groups.setdefault(item.group, set()).add(first)
    for i, item in enumerate(items):
        if item.group is not None and len(groups.get(item.group, ())) > 1:
            problems.setdefault(i, []).append(f"group {item.group} disagrees: {sorted(groups[item.group])}")
    if seed == DEFAULT_SEED:
        golden = dict(json.loads(GOLDENS.read_text())[workload])
        for i, item in enumerate(items):
            want = golden.get(item.key)
            if want is None:
                problems.setdefault(i, []).append("no golden output for this item")
            elif firsts[i] is not None and firsts[i] != want:
                problems.setdefault(i, []).append(f"golden {want!r}, printed {firsts[i]!r}")
    for i, item in enumerate(items):
        if item.reference is None or firsts[i] is None:
            continue
        try:
            verdict = item.reference(firsts[i])
        except Exception as exc:  # a broken second route is a failed check
            verdict = f"second route raised {type(exc).__name__}: {exc}"
        if verdict:
            problems.setdefault(i, []).append(verdict)
    failed = 0
    messages = []
    for i, item in enumerate(items):
        raised = len(phase.errors[i])
        if i in problems:
            failed += phase.rounds
            messages.extend(f"{item.key}: {p}" for p in problems[i])
        else:
            failed += raised
        messages.extend(f"{item.key}: {e}" for e in dict.fromkeys(phase.errors[i]))
    return failed, messages


# -- metrics ---------------------------------------------------------------


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float, failed: int, attempted: int) -> dict:
    deciles = statistics.quantiles(phase.medians, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "work_s": (phase.work_s, "s"),
        "item_p50_s": (deciles[4], "s"),
        "item_p90_s": (deciles[8], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    }


def _varieties_caches() -> list:
    from quotdeg import varieties

    return [
        v for v in vars(varieties).values()
        if hasattr(v, "cache_info") and getattr(v, "__module__", None) == varieties.__name__
    ]


def per_layer(untraced: Phase, traced: Phase, tracer) -> dict:
    from perfbench.tracer import aggregate

    stats = aggregate(tracer.spans)  # an empty record for a name that never ran
    work = sum(sum(t) for t in traced.times)

    def share(name, kind):
        return getattr(stats[name], kind) / work if work else 0.0

    def round_median(name):
        per_round = []
        for lo, hi in traced.round_spans:
            per_round.append(sum(
                (s[4] - s[3] for s in tracer.spans[lo:hi] if s[2] == name and s[5]), 0.0
            ))
        return statistics.median(per_round)

    mul = stats["exactpoly.mul"]
    products = mul.counts.get("products", 0)
    terms_out = mul.counts.get("terms_out", 0)
    caches = [c.cache_info() for c in _varieties_caches()]
    walls = untraced.round_wall_s
    metrics = {
        "exactpoly.mul.calls": (products, "count"),
        "exactpoly.mul.pairs": (mul.counts.get("pairs", 0), "count"),
        "exactpoly.mul.terms_out": (terms_out, "count"),
        "exactpoly.mul.pairs_per_term": (mul.counts.get("pairs", 0) / terms_out if terms_out else 0.0, "ratio"),
        "exactpoly.mul.self_share": (share("exactpoly.mul", "self_s"), "ratio"),
        "exactpoly.reduce.calls": (stats["exactpoly.reduce"].calls, "count"),
        "exactpoly.reduce.self_share": (share("exactpoly.reduce", "self_s"), "ratio"),
        "exactpoly.add.self_share": (share("exactpoly.add", "self_s"), "ratio"),
        "exactpoly.series_inverse.calls": (stats["exactpoly.series_inverse"].calls, "count"),
        "varieties.segre_class.calls": (stats["varieties.segre_class"].calls, "count"),
        "varieties.segre_class.total_share": (share("varieties.segre_class", "total_s"), "ratio"),
        "varieties.cache.entries": (sum(c.currsize for c in caches), "count"),
        "varieties.cache.hits": (sum(c.hits for c in caches), "count"),
        "varieties.cache.misses": (sum(c.misses for c in caches), "count"),
        "varieties.cache.cold_ratio": (walls[0] / statistics.median(walls), "ratio"),
        "hilb2.pair_power_pushforward_table.total_share": (share("hilb2.pair_power_pushforward_table", "total_s"), "ratio"),
        "quot2.formula.work_s": (round_median("quot2.formula"), "s"),
        "quot2.projbundle.work_s": (round_median("quot2.projbundle"), "s"),
        "quot2.geometric.work_s": (round_median("quot2.geometric"), "s"),
        "symquot.SymClassRep.checks": (stats["symquot.SymClassRep"].calls, "count"),
        "symquot.SymClassRep.self_share": (share("symquot.SymClassRep", "self_s"), "ratio"),
        "symquot.diagonal_membership.calls": (stats["symquot.diagonal_membership"].calls, "count"),
        "symquot.diagonal_membership.total_share": (share("symquot.diagonal_membership", "total_s"), "ratio"),
        "jacobi.a_coeff.calls": (stats["jacobi.a_coeff"].calls, "count"),
        "jacobi.a_coeff.self_share": (share("jacobi.a_coeff", "self_s"), "ratio"),
        "localise.tangent_weights.calls": (stats["localise.tangent_weights"].calls, "count"),
        "localise.tangent_weights.self_share": (share("localise.tangent_weights", "self_s"), "ratio"),
        "localise.taut_weight_sum.self_share": (share("localise.taut_weight_sum", "self_s"), "ratio"),
        "localise.redraws": (stats["localise.tangent_weights"].errors.get("NonGenericWeightsError", 0), "count"),
        "cli.validate.self_share": (share("cli.validate", "self_s"), "ratio"),
        "cli.main.self_share": (share("cli.main", "self_s"), "ratio"),
        "trace.overhead": (traced.work_s / untraced.work_s, "ratio"),
    }
    return metrics


# -- main ------------------------------------------------------------------


def _metrics_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def write_goldens() -> None:
    """Record every workload's default-seed outputs as the goldens."""
    from perfbench.workloads import DEFAULT_SEED, build

    goldens = {}
    for workload in WORKLOAD_NAMES:
        goldens[workload] = [[item.key, item.run()] for item in build(workload, DEFAULT_SEED)]
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default="ladder")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-goldens", action="store_true",
                        help="record the default-seed outputs as goldens and exit")
    args = parser.parse_args(argv)

    import_package()
    from perfbench.tracer import Tracer
    from perfbench.workloads import build

    if args.setup_probe:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.write_goldens:
        write_goldens()
        return 0

    context = context_start(args.workload, args.seed, args.seconds, args.trace)
    rounds = rounds_for(args.workload, args.seconds)
    context["rounds"] = rounds
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None

    clear_caches()
    items = build(args.workload, args.seed)
    phase = run_rounds(items, rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = check_outputs(args.workload, args.seed, items, phase)
    attempted = len(items) * rounds
    context.update(items=len(items), round_wall_s=phase.round_wall_s, round_cpu_s=phase.round_cpu_s)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        clear_caches()
        traced_items = build(args.workload, args.seed)
        with Tracer() as tracer:
            traced = run_rounds(traced_items, rounds, tracer)
        more_failed, more_problems = check_outputs(args.workload, args.seed, traced_items, traced)
        failed += more_failed
        problems += more_problems
        attempted *= 2
        metrics = per_layer(phase, traced, tracer)
        context.update(missing_targets=tracer.missing, spans=len(tracer.spans))
        tracer.write(OUT / f"{stem}.spans.jsonl")
    else:
        metrics = end_to_end(phase, setup_s, peak_rss_mb, failed, attempted)
    context["loadavg_end"] = _loadavg()

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": _metrics_json(metrics)}
    record = dict(result, context=context, problems=problems, items=[
        {"key": item.key, "median_s": statistics.median(t), "times_s": t}
        for item, t in zip(items, phase.times)
    ])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for message in problems[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
