"""Spans around calls into ricciflow's layers, recorded from outside the package.

``Tracer.session()`` replaces the public entry points listed in ``TARGETS``,
at the module attribute their callers look up, with wrappers that time each
call, and restores the originals on exit. Spans are held in memory; the
caller writes them out when the benchmark ends. Each thread keeps its own
stack of open spans, so the pair experiment's two worker threads get correct
parents; a span opened in a thread with no open span is a child of the op's
root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

ROOT_ID = 0
ROOT_NAME = "experiment.op"

_STATS = (
    "monotonicity_violations",
    "evolution_residual_median",
    "dual_area_rate_residuals",
    "normalization_rate_residuals",
    "pde_residual_median",
)
_CHECKS = (
    "envelope_check",
    "rmax_ode_check",
    "log_derivative_corridor_check",
    "ratio_bound_check",
    "distortion_upper_bound",
    "buser_comparison_check",
    "main_theorem_check",
)
_WRITERS = ("write_trace_csv", "write_spectrum_csv", "write_report_json", "write_plot_series")

# (module whose attribute the callers look up, attribute, layer of the span)
TARGETS = (
    [
        ("ricciflow.experiment", "generate_genus2", "mesh"),
        ("ricciflow.experiment", "perturb_metric", "geometry"),
        ("ricciflow.experiment", "run_flow", "flow"),
        ("ricciflow.experiment", "track_branches", "tracking"),
        ("ricciflow.flow", "operator_norm_estimate", "flow"),
        ("ricciflow.flow", "smallest_eigenpairs", "spectrum"),
        ("ricciflow.flow", "assemble_operators", "spectrum"),
        ("ricciflow.spectrum", "eigsh", "spectrum"),
        ("ricciflow.audit", "audit_directory", "audit"),
    ]
    + [("ricciflow.experiment", name, "tracking") for name in _STATS]
    + [("ricciflow.bounds", name, "bounds") for name in _CHECKS]
    + [("ricciflow.experiment", name, "reporting") for name in _WRITERS]
)

SOLVE = "spectrum.smallest_eigenpairs"
EIGSH = "spectrum.eigsh"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    thread: int
    start: float
    end: float
    error: str | None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects the spans of one op; ``trace_id`` is shared by all of them."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        # next() on itertools.count and list.append are single C calls, so
        # the two flow threads can share them without a lock.
        self._ids = itertools.count(ROOT_ID + 1)
        self._local = threading.local()

    @contextlib.contextmanager
    def session(self):
        """Patch every target, open the root span, and undo both on exit."""
        patched = []
        try:
            for module_name, attr, layer in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, f"{layer}.{attr}"))
                patched.append((module, attr, original))
            start = perf_counter()
            try:
                yield self
            finally:
                end = perf_counter()
                self.spans.append(
                    Span(ROOT_ID, None, ROOT_NAME, threading.get_ident(), start, end, None)
                )
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [(ROOT_ID, ROOT_NAME)]
        return stack

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent_id, parent_name = stack[-1]
            if name == EIGSH and parent_name != SOLVE:
                # ARPACK calls of the stability estimate and of the
                # perturbation's mode solve belong to their caller's span.
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            stack.append((span_id, name))
            error = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, parent_id, name, threading.get_ident(), start, end, error)
                )

        return traced


def self_times(spans):
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    return {s.span_id: s.duration - _covered(children[s.span_id], s.start, s.end) for s in spans}


def _covered(intervals, lo, hi):
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_metrics(spans):
    """Per-op layer numbers derived from the spans of one traced op."""
    own = self_times(spans)
    root = next(s for s in spans if s.span_id == ROOT_ID)
    wall = root.duration
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += own[s.span_id]

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    solves = named(SOLVE)
    eigsh_calls = len(named(EIGSH))
    assembles = named("spectrum.assemble_operators")
    flows = named("flow.run_flow")
    parallel = (max(s.end for s in flows) - min(s.start for s in flows)) if flows else 0.0
    stats = [s for s in spans if s.layer == "tracking" and s.name != "tracking.track_branches"]
    return {
        "flow.self_s": layer_self["flow"],
        "flow.share_pct": 100.0 * layer_self["flow"] / wall,
        "flow.stability_estimates": len(named("flow.operator_norm_estimate")),
        "flow.stability_estimate_s": total("flow.operator_norm_estimate"),
        "spectrum.self_s": layer_self["spectrum"],
        "spectrum.share_pct": 100.0 * layer_self["spectrum"] / wall,
        "spectrum.solves": len(solves),
        "spectrum.solve_s": total(SOLVE),
        "spectrum.s_per_solve": total(SOLVE) / len(solves) if solves else 0.0,
        "spectrum.eigsh_calls": eigsh_calls,
        "spectrum.retries": eigsh_calls - len(solves),
        "spectrum.failures": sum(1 for s in solves if s.error is not None),
        "spectrum.assemble_calls": len(assembles),
        "spectrum.assemble_ms": (
            1000.0 * sum(s.duration for s in assembles) / len(assembles) if assembles else 0.0
        ),
        "tracking.track_s": total("tracking.track_branches"),
        "tracking.stats_s": sum(s.duration for s in stats),
        "bounds.checks_s": layer_self["bounds"],
        "mesh.generate_s": total("mesh.generate_genus2"),
        "mesh.generate_calls": len(named("mesh.generate_genus2")),
        "geometry.perturb_s": total("geometry.perturb_metric"),
        "experiment.self_s": own[ROOT_ID],
        "experiment.concurrency": sum(s.duration for s in flows) / parallel if parallel else 0.0,
        "reporting.emit_s": layer_self["reporting"],
        "audit.audit_s": total("audit.audit_directory"),
        "trace.coverage_pct": 100.0 * (1.0 - own[ROOT_ID] / wall),
        "trace.spans": len(spans),
    }
