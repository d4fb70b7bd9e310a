"""Spans and counters at the layer boundaries of the simulator stack.

:func:`install` wraps the public entry point of each layer, in the
calling process only, so every call records a span (name, start, end,
parent, operation id) in one in-memory :class:`Tracer`.  A few wrappers
also fold the callee's own counters into ``Tracer.counts``.  Nothing in
``src/`` changes; the wrappers are installed by ``bench/sample.py`` in
its traced modes.

Span names double as layer names: the benchmark reports each one's self
time (its duration minus the time its child spans cover) as a share of
the top-level ``bench`` spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import repro.experiments.engine as engine_mod
import repro.experiments.figures as figures
import repro.runtime.executor as executor
import repro.tuning as tuning
import repro.tuning.search as tuning_search
from repro.experiments.cache import SimCache
from repro.experiments.engine import Engine
from repro.experiments.supervisor import SupervisedPool
from repro.runtime.executor import ExecutionResult
from repro.runtime.program import TiledProgram
from repro.sim.mpi import World

#: Span names, one per layer, in the order reports list them.
LAYERS = (
    "bench",
    "figures",
    "model.analytic",
    "engine",
    "cache.get",
    "cache.put",
    "pool.run",
    "pool.close",
    "tuning",
    "critical_path",
    "executor",
    "program.build",
    "world.build",
    "sim.run",
)


class Tracer:
    """Spans held in memory; written out only when the sample ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def self_times(self) -> tuple[dict[str, float], float]:
        """(self seconds per span name, total seconds of top-level spans).

        Children nest strictly inside their parent on one thread, so the
        part of a parent's interval they cover is the sum of their
        durations."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own: Counter = Counter()
        top = 0.0
        for k, (name, start, end, parent, _op) in enumerate(self.spans):
            own[name] += end - start - covered[k]
            if parent < 0:
                top += end - start
        return dict(own), top

    def span_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write_chrome(self, path: str, max_ops: int) -> None:
        """Chrome-trace JSON of the first ``max_ops`` operations (load it
        in chrome://tracing or https://ui.perfetto.dev)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {"name": name, "cat": "bench", "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
             "args": {"op": op, "parent": parent}}
            for name, start, end, parent, op in self.spans
            if op < max_ops
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    """Replace ``owner.attr`` by a spanned call; ``after(counts, args,
    result)`` folds counters once the call returns."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            out = orig(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(tracer.counts, args, out)
        return out

    setattr(owner, attr, wrapper)


def _engine_reports(c: Counter, _args, reports) -> None:
    c["engine.runs"] += len(reports)
    for r in reports:
        c[f"engine.runs_{r.source}"] += 1
        c["engine.runs_failed"] += not r.ok


def _tuned(c: Counter, _args, r) -> None:
    c["tune.steps_spent"] += r.steps_spent
    c["tune.budget_steps"] += r.budget_steps
    c["tune.probe_steps"] += r.probe_steps
    c["tune.candidates"] += len(r.candidates)
    c["tune.sweep_steps"] += r.sweep_equivalent_steps


def _program_built(c: Counter, args, _out) -> None:
    c["program.ranks"] = max(c["program.ranks"], args[0].num_ranks)


def _world_ran(c: Counter, args, _end) -> None:
    world = args[0]
    c["sim.events"] += world.sim.event_count
    c["sim.messages"] += world.messages_sent
    c["sim.queue.calendar_runs"] += world.sim.queue_backend != "heap"
    c["sim.records.acquired"] += world.pool_acquired
    c["sim.records.created"] += world.pool_created
    c["sim.records.leaked"] += (
        world.pool_acquired - world.pool_released
        + world.frames_acquired - world.frames_released
    )


def _critical_path(c: Counter, args, _cp) -> None:
    c["trace.records"] += len(args[0].trace.records)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry point in this process."""
    _wrap(tracer, figures, "sweep", "figures")
    _wrap(tracer, figures, "analytic_times", "model.analytic")
    _wrap(tracer, tuning_search, "model_time", "model.analytic")
    _wrap(tracer, tuning, "tune", "tuning", _tuned)
    _wrap(tracer, Engine, "run_batch_outcomes", "engine", _engine_reports)
    _wrap(tracer, SimCache, "get", "cache.get")
    _wrap(tracer, SimCache, "put", "cache.put")
    _wrap(tracer, SupervisedPool, "run", "pool.run")
    _wrap(tracer, SupervisedPool, "close", "pool.close")
    _wrap(tracer, ExecutionResult, "critical_path", "critical_path",
          _critical_path)
    # ``run_tiled`` is imported by name into each module that calls it.
    for module in (executor, engine_mod, tuning_search):
        _wrap(tracer, module, "run_tiled", "executor")
    _wrap(tracer, TiledProgram, "__init__", "program.build", _program_built)
    _wrap(tracer, World, "__init__", "world.build")
    _wrap(tracer, World, "run", "sim.run", _world_ran)
