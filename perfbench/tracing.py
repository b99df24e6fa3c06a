"""Span recording around slownim's public functions, from outside the package.

A ``Tracer`` replaces public names in the modules that look them up (the
names listed in ``WRAP_SITES``) with wrappers that record one span per call:
name, parent span, start and end in integer nanoseconds.  Spans stay in a
flat in-memory array while the pass runs; ``summary`` turns them into the
per-layer table and ``write`` saves them once the pass is over.

A span is named after the module that defines the function, so
``slownim.fast.canonicalize`` and ``slownim.mrule.canonicalize`` both count
as ``game.canonicalize``.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from time import perf_counter_ns

# (module, public names it looks up) -- the call sites the benchmark wraps.
WRAP_SITES = (
    ("slownim.fast", ("canonicalize", "e_index", "m_move", "E_value", "is_exceptional")),
    ("slownim.mrule", ("canonicalize", "is_terminal")),
    ("slownim.cli", ("remoteness_fast", "remoteness_oracle", "m_count", "nim43_status")),
    ("slownim.oracle", ("successors", "m_of_oracle", "b_oracle", "critical_oracle")),
    ("slownim.critical", ("critical_oracle", "enumerate_critical", "check_conjecture")),
)

# Span names reported with ``.calls`` and ``.self_ms``, by defining module.
LAYER_FUNCTIONS = (
    "game.canonicalize",
    "game.is_terminal",
    "game.successors",
    "fast.remoteness_fast",
    "fast.E_value",
    "fast.is_exceptional",
    "mrule.e_index",
    "mrule.m_move",
    "mrule.m_count",
    "oracle.remoteness_oracle",
    "oracle.m_of_oracle",
    "oracle.b_oracle",
    "oracle.critical_oracle",
    "critical.enumerate_critical",
    "critical.check_conjecture",
    "nim43.nim43_status",
)

# The span the verify workloads open around ``cli.main``; its self time is
# the CLI layer's own time (parsing, batch reading, bookkeeping).
CLI_SPAN = "cli.main"
STATES_SPAN = "game.successors"      # one oracle expansion per call


class Tracer:
    """Records spans for wrapped calls of one single-threaded pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")          # name id, parent index, start, end
        self.steps = 0                   # total length of m_count playouts
        self._stack = [-1]
        self._sites = []

    def wrap(self, fn, name: str | None = None, on_result=None):
        """A function recording one span per call of ``fn``."""
        name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans) // 4
            spans.extend((nid, stack[-1], 0, 0))
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * sid + 3] = perf_counter_ns()
                spans[4 * sid + 2] = start
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_steps(self, playout) -> None:
        self.steps += playout.length

    def wrap_sites(self) -> None:
        """Prepare a wrapper for every name in WRAP_SITES; ``install`` puts
        them in place."""
        for module_name, attrs in WRAP_SITES:
            module = importlib.import_module(module_name)
            for attr in attrs:
                original = getattr(module, attr)
                on_result = self._count_steps if attr == "m_count" else None
                wrapper = self.wrap(original, on_result=on_result)
                self._sites.append((module, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per-name calls and self time, oracle state counts, and whether
        the self times under every root span add up to its duration.

        Self time is a span's duration minus the union of its children's
        intervals clipped to it.  Spans are appended on entry, so a parent's
        children appear in start order and one sweep finds that union.
        """
        spans = self.spans
        names, parents = spans[0::4], spans[1::4]
        starts, ends = spans[2::4], spans[3::4]
        n = len(names)
        covered = [0] * n
        swept = list(starts)                 # end of the union seen so far
        oracle_ids = {i for i, s in enumerate(self.names) if s.startswith("oracle.")}
        outer_oracle = [-1] * n
        root = [0] * n
        for i in range(n):
            p = parents[i]
            if p < 0:
                root[i] = i
                if names[i] in oracle_ids:
                    outer_oracle[i] = i
                continue
            root[i] = root[p]
            outer_oracle[i] = outer_oracle[p]
            if outer_oracle[i] < 0 and names[i] in oracle_ids:
                outer_oracle[i] = i
            lo = max(starts[i], swept[p])
            hi = min(ends[i], ends[p])
            if hi > lo:
                covered[p] += hi - lo
                swept[p] = hi

        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        subtree = {}
        consistent = True
        for i in range(n):
            own = ends[i] - starts[i] - covered[i]
            if ends[i] <= 0 or own < 0:
                consistent = False
            calls[names[i]] += 1
            self_ns[names[i]] += own
            subtree[root[i]] = subtree.get(root[i], 0) + own
        for r, total in subtree.items():
            if total != ends[r] - starts[r]:
                consistent = False

        states = engine_ns = 0
        sid = self._ids.get(STATES_SPAN)
        if sid is not None:
            engines = {outer_oracle[i] for i in range(n) if names[i] == sid}
            states = calls[sid]
            engine_ns = sum(ends[e] - starts[e] for e in engines if e >= 0)
        by_name = {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}
        return {
            "functions": {name: {"calls": c, "self_ns": s} for name, (c, s) in by_name.items()},
            "states": states,
            "engine_ns": engine_ns,
            "steps": self.steps,
            "roots": len(subtree),
            "self_times_add_up": consistent,
        }

    def write(self, path) -> None:
        """Save every span as gzipped JSON (name table plus flat rows)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "names": self.names, "spans": self.spans.tolist()}, handle)
