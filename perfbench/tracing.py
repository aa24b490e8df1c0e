"""Span tracing of bandalloc's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function at every ``bandalloc`` module
attribute that refers to it, so calls made inside the package are caught as
well as the benchmark's own calls. Spans stay in memory; per-layer numbers are
derived from them after the traced batch. ``optim.maximize_fractional_1d`` is
left untraced on purpose: it runs millions of times and per-call timing would
swamp what it measures.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

LAYERS = ("cli", "model", "optim", "orthogonal", "schedule", "randalloc", "fixedalloc", "sim")
TRACED = (
    "cli.main",
    "model.rate_matrix",
    "optim.solve_lp",
    "orthogonal.envelope_point",
    "schedule.schedule_from_assignment",
    "randalloc.dominant1_envelope_2x2",
    "randalloc.dominant2_envelope_2x2",
    "randalloc.shat_section_lambda2",
    "fixedalloc.best_fixed_max",
    "sim.run",
)
SIM_POLICIES = ("orthogonal", "random", "fixed")


class Span:
    """One call of a traced function; ``parent`` indexes the enclosing span or is -1."""

    __slots__ = ("name", "start", "end", "parent", "op", "args", "result")

    def __init__(self, name, start, parent, op, args):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.args, self.result = parent, op, args, None

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op}


class Tracer:
    """Records spans for calls made while installed; ``op`` tags the current command."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, stack[-1] if stack else -1, self.op, args)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            return span.result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "bandalloc" or n.startswith("bandalloc.")]
        for qualname in TRACED:
            layer, func = qualname.split(".")
            original = getattr(sys.modules[f"bandalloc.{layer}"], func)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration less the durations of the spans directly inside it."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _under(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counts of one traced batch."""
    own = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    calls = {name: 0 for name in TRACED}
    for span, t in zip(spans, own):
        out[span.name.split(".")[0] + ".self_s"] += t
        calls[span.name] += 1

    for name, count in calls.items():
        out[f"{name}.calls"] = count

    def named(name):
        return [s for s in spans if s.name == name]

    runs = named("sim.run")
    out["sim.slots"] = sum(s.args[2].n_slots for s in runs)
    for kind in SIM_POLICIES:
        mine = [s for s in runs if s.args[1].kind == kind]
        busy = sum(s.end - s.start for s in mine)
        out[f"sim.slots_per_s.{kind}"] = sum(s.args[2].n_slots for s in mine) / busy if busy else 0.0
    out["sim.verdicts_inconclusive"] = sum(s.result.verdicts_secondary.count("inconclusive") for s in runs)
    out["sim.collisions"] = sum(s.result.collision_count for s in runs)

    sections = calls["randalloc.shat_section_lambda2"]
    in_sections = sum(1 for i, s in enumerate(spans)
                      if s.name == "randalloc.dominant1_envelope_2x2"
                      and _under(spans, i, "randalloc.shat_section_lambda2"))
    out["randalloc.dominant1_per_section"] = in_sections / sections if sections else 0.0

    lps = named("optim.solve_lp")
    out["optim.solve_lp.mean_us"] = 1e6 * statistics.fmean(s.end - s.start for s in lps) if lps else 0.0
    out["optim.solve_lp.infeasible"] = sum(s.result.status == "infeasible" for s in lps)
    out["optim.solve_lp.failed"] = sum(s.result.status == "failed" for s in lps)

    schedules = named("schedule.schedule_from_assignment")
    out["schedule.entries_per_schedule"] = (
        statistics.fmean(len(s.result[1].entries) for s in schedules) if schedules else 0.0)
    out["fixedalloc.mappings_scanned"] = sum(
        math.perm(s.args[0].m_p, s.args[0].m_s) for s in named("fixedalloc.best_fixed_max"))
    return out


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.startswith("sim.slots_per_s."):
        return "1/s"
    if name.endswith(".mean_us"):
        return "us"
    if name in ("randalloc.dominant1_per_section", "schedule.entries_per_schedule"):
        return "ratio"
    return "count"
