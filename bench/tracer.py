"""Per-module tracing for the circledyn benchmark, from outside the program.

`Tracer.install()` rebinds the public functions named in `SPANS` (and the
methods named in `COUNTS`) to recording wrappers, in the defining module and
in every circledyn module that imported the same object under any name.
Imports made inside a function body read the defining module's attribute at
call time, so they see the wrapper too.  `Tracer.uninstall()` puts every
original back.  Nothing under src/ changes.

Spans are kept in memory as (name, parent index, start ns, end ns); a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) pairs wrapped with a span; the span is named module.function.
SPANS = [
    ("markov", "build_markov_system"),
    ("markov", "perron_bracket"),
    ("markov", "find_rome"),
    ("markov", "rome_char_poly"),
    ("markov", "transitivity_certificate"),
    ("markov", "enumerate_loops"),
    ("oracle", "periods_up_to"),
    ("lifting", "build_from_orbits"),
    ("lifting", "rotation_interval"),
    ("lifting", "upper_lower"),
    ("lifting", "rotation_number_monotone"),
    ("arith", "largest_root_above"),
    ("periods", "per_from_rotation"),
    ("periods", "m_set"),
    ("cofiniteness", "report"),
    ("minentropy", "beta"),
    ("minentropy", "q_series_enclosure"),
    ("minentropy", "r_series_enclosure"),
    ("graphext", "extend"),
    ("graphext", "verify_extension"),
    ("families", "make"),
    ("families", "verify"),
    ("families", "mts1_scan"),
]

# (module, owner, attribute, counter): calls counted without a span, because
# they are too frequent for one (hundreds of thousands per workload).
COUNTS = [
    ("lifting", None, "compose", "lifting.compose.calls"),
    ("lifting", "Lifting", "eval", "lifting.eval.calls"),
    ("arith", "IntPolynomial", "eval", "arith.poly_eval.calls"),
]

PACKAGE = "circledyn"


def _arrows(system) -> int:
    return sum(map(sum, system.matrix))


def _series_terms(tr, args, result):
    tr.counts["minentropy.series_terms"] += args[3]


def _loops(tr, args, result):
    tr.counts["markov.loops"] += len(result)
    parent = tr.current_parent()
    if parent == "oracle.periods_up_to":
        tr.counts["oracle.loops_solved"] += sum(1 for loop in result if loop.simple)


# Counters derived from a traced call's arguments and result.
HOOKS = {
    "markov.build_markov_system": lambda tr, args, res: tr.counts.update(
        {"markov.classes": res.size, "markov.arrows": _arrows(res)}
    ),
    "markov.find_rome": lambda tr, args, res: tr.counts.update({"markov.rome_size": len(res.members)}),
    "markov.enumerate_loops": _loops,
    "oracle.periods_up_to": lambda tr, args, res: tr.counts.update({"oracle.witnesses": len(res.witnesses)}),
    "minentropy.q_series_enclosure": _series_terms,
    "minentropy.r_series_enclosure": _series_terms,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def current_parent(self) -> str | None:
        """Name of the span enclosing the innermost open span."""
        if len(self._stack) < 2:
            return None
        return self.spans[self._stack[-2]][0]

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append((name, stack[-1] if stack else -1, 0, 0))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, spans[idx][1], start, end)

        return wrapper

    def counting(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == PACKAGE and m]
        try:
            for mod, attr in SPANS:
                self._rebind_everywhere(modules, mod, attr, self.span(f"{mod}.{attr}", self._get(mod, attr)))
            for mod, owner, attr, key in COUNTS:
                if owner is None:
                    self._rebind_everywhere(modules, mod, attr, self.counting(key, self._get(mod, attr)))
                else:
                    cls = self._get(mod, owner)
                    self._set(cls, attr, self.counting(key, vars(cls)[attr]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _get(self, mod: str, attr: str):
        return getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _rebind_everywhere(self, modules, mod: str, attr: str, wrapper) -> None:
        original = self._get(mod, attr)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    self._set(m, name, wrapper)

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def self_times(spans: list) -> dict[str, tuple[float, int]]:
    """{span name: (total self seconds, calls)} from (name, parent, start, end)."""
    child = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        acc = out.setdefault(name, [0, 0])
        acc[0] += end - start - child[i]
        acc[1] += 1
    return {name: (ns / 1e9, calls) for name, (ns, calls) in out.items()}


def top_level_seconds(spans: list) -> float:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _, parent, start, end in spans if parent < 0) / 1e9
