"""Outside-in tracer for the quotdeg benchmark.

The tracer wraps named functions of the package without touching its
source.  For each target it finds the original function on its home module
or class, then replaces every reference to that same object in every
``quotdeg`` namespace (so ``from .varieties import segre_class`` is covered)
and in the home module itself.  Each call becomes a span with an id, the
id of the span that was open when it started, its name, start and end
times, whether it is the outermost span of that name, and optional counts.
Spans stay in memory; ``write`` dumps them once at the end, and ``restore``
puts every patched attribute back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

_MARK = "__perfbench_wrapped__"


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module`` and dotted ``qualname`` locate the
    original; ``name`` labels its spans; ``info`` maps (args, result) to
    counts stored on the span."""

    name: str
    module: str
    qualname: str
    info: Callable | None = None


def _mul_info(args, result):
    a, b = args
    if type(b) is not type(a):
        return None  # scaling by a number is not a ring product
    return {"products": 1, "pairs": len(a.terms) * len(b.terms), "terms_out": len(result.terms)}


TARGETS = (
    Target("exactpoly.mul", "quotdeg.exactpoly", "TruncPoly.__mul__", _mul_info),
    Target("exactpoly.add", "quotdeg.exactpoly", "TruncPoly.__add__"),
    Target("exactpoly.reduce", "quotdeg.exactpoly", "_reduce_terms"),
    Target("exactpoly.series_inverse", "quotdeg.exactpoly", "series_inverse"),
    Target("varieties.segre_class", "quotdeg.varieties", "segre_class"),
    Target("hilb2.pair_power_pushforward_table", "quotdeg.hilb2", "pair_power_pushforward_table"),
    Target("quot2.formula", "quotdeg.quot2", "degree2_formula"),
    Target("quot2.projbundle", "quotdeg.quot2", "degree2_projbundle"),
    Target("quot2.geometric", "quotdeg.quot2", "degree2_geometric"),
    Target("symquot.SymClassRep", "quotdeg.symquot", "SymClassRep.__post_init__"),
    Target("symquot.diagonal_membership", "quotdeg.symquot", "diagonal_membership"),
    Target("jacobi.a_coeff", "quotdeg.jacobi", "a_coeff"),
    Target("localise.tangent_weights", "quotdeg.localise", "tangent_weights"),
    Target("localise.taut_weight_sum", "quotdeg.localise", "taut_weight_sum"),
    Target("cli.validate", "jsonschema", "validate"),
    Target("cli.main", "quotdeg.cli", "main"),
)


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "quotdeg" or name.startswith("quotdeg."))
    ]


class Tracer:
    """Records spans for the targets while installed; use as a context
    manager so the package is restored even when a traced call raises."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outer = self._active[name] == 0
        self._active[name] += 1
        self.spans.append((sid, parent, name, time.perf_counter(), None, outer, None))
        self._stack.append(sid)
        return sid

    def end(self, sid: int, extra: dict | None = None) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        _, parent, name, t0, _, outer, _ = self.spans[sid]
        self._active[name] -= 1
        self.spans[sid] = (sid, parent, name, t0, t1, outer, extra)

    def _wrap(self, target: Target, fn):
        name, info = target.name, target.info

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(sid, {"error": type(exc).__name__})
                raise
            self.end(sid, info(args, result) if info else None)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            home = importlib.import_module(target.module)
            owner_path, _, attr = target.qualname.rpartition(".")
            owner = home
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            owners = [owner] if owner is not home else [home] + _package_modules()
            for ns in dict.fromkeys(owners):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def restore(self) -> None:
        while self._patched:
            ns, key, original = self._patched.pop()
            setattr(ns, key, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t_base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, outer, extra in self.spans:
                row = {"id": sid, "parent": parent, "name": name,
                       "start": round(t0 - t_base, 9), "end": round(t1 - t_base, 9)}
                if extra:
                    row.update(extra)
                fh.write(json.dumps(row) + "\n")


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0  # outermost spans only, so recursion is not counted twice
    errors: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


def aggregate(spans) -> dict[str, SpanStats]:
    """Per-name calls, self time, total time, error names and summed counts."""
    child = [0.0] * len(spans)
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for sid, _, name, t0, t1, outer, extra in spans:
        st = stats[name]
        st.calls += 1
        st.self_s += (t1 - t0) - child[sid]
        if outer:
            st.total_s += t1 - t0
        if extra:
            for key, value in extra.items():
                if key == "error":
                    st.errors[value] += 1
                else:
                    st.counts[key] += value
    return stats


def is_wrapped(value) -> bool:
    return getattr(value, _MARK, False) is True
