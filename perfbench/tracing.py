"""Spans around calls into the program's layers, recorded from outside it.

Wrappers replace attributes on the ``quartaut.<module>`` objects, so calls
made through a module attribute or a module-global name are seen. The
package-level re-exports in ``quartaut/__init__`` are copied references and
are deliberately left alone; the workloads call through the modules.
"""
from __future__ import annotations

import functools
import importlib
import time
from typing import NamedTuple

# Layer boundaries the traced run wraps, as "<module>.<function>". The
# lattice module is left unwrapped: its 2x2 primitives are called in tight
# loops and their time counts toward their callers' self time.
WRAPPED = (
    "pell.solve",
    "pell.solution_class_reps",
    "pell.fundamental_solution",
    "surface.classify_aut",
    "surface.class_with_square_exists",
    "surface.ample_square2_axes",
    "surface.is_ample",
    "surface.neg2_wall_orbits",
    "surface.find_curve_class",
    "isometry.generators_for",
    "isometry.minimal_quadeq_solution",
    "isometry.gluing_ok",
    "isometry.torelli_ok",
    "links.realize_generator",
    "links.compose_word",
    "exclusion.antiflip_report",
    "exclusion.admissible_discriminants",
    "verify.run_all",
    "cli.main",
)

RAISED, NONE, VALUE = "raised", "none", "value"


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a top-level span
    op: int
    outcome: str  # RAISED, NONE (returned None) or VALUE
    value: int | None  # a count read off the result, see Tracer.probes


class Tracer:
    """Keeps spans in memory while enabled; ``install`` wraps the layers."""

    def __init__(self, probes: dict | None = None):
        self.spans: list[Span | None] = []
        self.enabled = False
        self.op = -1
        self.absent: list[str] = []
        # name -> function reading a count off a successful result
        self.probes = probes or {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            outcome, value = RAISED, None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if result is None:
                    outcome = NONE
                else:
                    outcome = VALUE
                    if probe is not None:
                        value = probe(result)
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.op, outcome, value)

        return wrapper

    def install(self, names=WRAPPED) -> None:
        """Wrap every named function that exists; a missing one is recorded
        as absent instead of failing the run."""
        for full in names:
            mod_name, attr = full.split(".")
            try:
                mod = importlib.import_module("quartaut." + mod_name)
            except ImportError:
                self.absent.append(full)
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(full)
                continue
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(full, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start_ns), min(b, s.end_ns)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.end_ns - s.start_ns - covered)
    return out


def layer_metrics(spans: list[Span], names=WRAPPED) -> dict[str, float]:
    """``<name>.calls``, ``.self_ms`` and ``.failures`` for every wrapped
    name; a name with no spans (absent or never called) reports zeros."""
    out: dict[str, float] = {}
    for name in names:
        out[name + ".calls"] = 0
        out[name + ".self_ms"] = 0.0
        out[name + ".failures"] = 0
    for s, self_ns in zip(spans, self_times_ns(spans)):
        out[s.name + ".calls"] += 1
        out[s.name + ".self_ms"] += self_ns / 1e6
        out[s.name + ".failures"] += s.outcome == RAISED
    return out


def found_ratio(spans: list[Span], name: str) -> float:
    """Share of a function's calls that returned something other than None
    (0 when it was never called)."""
    calls = [s for s in spans if s.name == name]
    if not calls:
        return 0.0
    return sum(s.outcome == VALUE for s in calls) / len(calls)


def last_value(spans: list[Span], name: str) -> int:
    """The probe value of the last successful call of ``name``, else 0."""
    for s in reversed(spans):
        if s.name == name and s.value is not None:
            return s.value
    return 0
