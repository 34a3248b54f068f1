"""Span tracing at dsmfusion's module boundaries, for the traced run only.

install() replaces each traced public function, in every dsmfusion module
namespace that binds it, with a wrapper that records a span (name, start,
end, parent span, request id) and the layer's counts.  The library itself
is unchanged; uninstall() puts the originals back.  Spans stay in memory,
in flat arrays, until the run ends.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from functools import wraps
from time import perf_counter

import dsmfusion
import dsmfusion.bba

# Public functions at each module boundary, under the names callers use.
TRACED = {
    "rules": ("dsm_hybrid", "dsm_classic", "dempster", "bayesian_mixture"),
    "lattice": ("to_expression", "u_of", "enumerate_hpset"),
    "model": ("build_model", "compress", "survivors", "compression_report"),
    "exprparse": ("parse",),
    "dynamic": ("run_session",),
    "worked_examples": ("run_example",),
    "cli": ("main",),
}
CONSTRUCTORS = {"bba.MassAssignment": dsmfusion.bba.MassAssignment}

MODULES = ("rules", "lattice", "model", "exprparse", "bba", "dynamic", "worked_examples", "cli")


def _tuples(ms) -> int:
    return math.prod(len(m.focal) for m in ms)


# Counts recorded from a call's arguments and result, per span name.
def _count_hybrid(counts, args, kwargs, result):
    counts["rules.tuples"] += _tuples(args[0] if args else kwargs["ms"])
    counts["rules.distinct_keys"] += len(result.s1)


def _count_classic(counts, args, kwargs, result):
    counts["rules.tuples"] += _tuples(args[0] if args else kwargs["ms"])
    counts["rules.distinct_keys"] += len(result)


def _count_compress(counts, args, kwargs, result):
    counts["model.compress.keys_in"] += len(args[1] if len(args) > 1 else kwargs["m"])
    counts["model.compress.keys_out"] += len(result)


def _count_survivors(counts, args, kwargs, result):
    counts["model.survivors.classes"] += len(result)


COUNTERS = {
    "rules.dsm_hybrid": _count_hybrid,
    "rules.dsm_classic": _count_classic,
    "model.compress": _count_compress,
    "model.survivors": _count_survivors,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request_id = -1
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        calls = f"{name}.calls"

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            self.counts[calls] += 1
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "dsmfusion" or k.startswith("dsmfusion.")]
        for module_name, attrs in TRACED.items():
            home = sys.modules[f"dsmfusion.{module_name}"]
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{module_name}.{attr}", original)
                for module in modules:
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, bound, original))
                            setattr(module, bound, wrapper)
        for name, cls in CONSTRUCTORS.items():
            init = cls.__init__
            self._patched.append((cls, "__init__", init))
            cls.__init__ = self._wrap(name, init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> Counter:
        """Self seconds per span name: span time minus that of its child spans."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Counter = Counter()
        for i, name_id in enumerate(self.name_of):
            out[self.names[name_id]] += self.end[i] - self.start[i] - child[i]
        return out

    def top_level_time(self) -> float:
        """Seconds inside spans that no other span encloses."""
        return sum(self.end[i] - self.start[i] for i, p in enumerate(self.parent) if p < 0)

    @property
    def span_count(self) -> int:
        return len(self.start)
