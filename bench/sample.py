"""One benchmark sample, run in a fresh process by ``bench/run.py``.

Usage: ``python bench/sample.py '<json config>'`` with ``src`` on
``PYTHONPATH``.  The config names the workload, seed, mode and time
budget (see ``Runner.sample`` in ``run.py``).

The sample imports the package, builds its inputs from the seed, prints
``READY`` (the parent's set-up clock stops there) and then repeats the
workload's operation until its budget is spent.  Its last line of
output is one JSON object: operation times, simulated work, a digest of
every output, the correctness checks and, in the traced modes, layer
spans and counters (``spans``) or the cProfile lane split
(``profile``).  Modes:

* ``plain``   -- nothing but the timed body (the end-to-end runs);
* ``spans``   -- layer wrappers from ``spans.py`` record every call;
* ``profile`` -- in-process (one job) under cProfile, folded into the
  simulator lanes of ``repro.experiments.profiling``;
* ``fill``    -- one cold sweep into a given cache (``sweep_warm`` prep);
* ``setup``   -- exits after ``READY``: one more set-up for ``setup_s``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import cProfile
import gc
import hashlib
import json
import math
import pathlib
import pstats
import random
import resource
import shutil
import sys
from collections import Counter

import repro.experiments.figures as figures
import repro.tuning as tuning
from repro.experiments.cache import SimCache
from repro.experiments.engine import Engine
from repro.experiments.profiling import LANES, attribute_stats
from repro.ir.loopnest import IterationSpace
from repro.kernels.stencil import sqrt_kernel_3d
from repro.kernels.workloads import (
    StencilWorkload,
    paper_experiments,
    scale_workload,
)
from repro.model.machine import Machine, pentium_cluster
from repro.runtime import executor
from repro.runtime.program import TiledProgram
from repro.sim.mpi import World

IMPORT_S = time.perf_counter() - _T0

MACHINE = pentium_cluster()
MACHINE_TIMES = ("t_c", "t_s", "t_t", "fill_mpi_per_byte",
                 "fill_kernel_per_byte", "network_latency")
#: Pool workers: the load comes from one process and at most two workers,
#: whatever the host's core count, so every host runs the same workload.
JOBS = 2
SWEEP_POINTS = 8
TUNE_BUDGET = 0.10
SCALE_V = 8
#: ``--smoke`` divides every mapped extent by this.
SMOKE_SHRINK = 16
#: Operations written to the Chrome trace (the rest stay in the totals).
CHROME_OPS = 200


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _with_extent(w: StencilWorkload, extent: int, name: str | None = None
                 ) -> StencilWorkload:
    extents = list(w.space.extents)
    extents[w.mapped_dim] = extent
    return StencilWorkload(
        name or "x".join(str(e) for e in extents),
        IterationSpace.from_extents(extents), w.kernel, w.procs_per_dim,
        w.mapped_dim,
    )


def _seeded(w: StencilWorkload, rng: random.Random, seed: int,
            shrink: int) -> StencilWorkload:
    """Seed 0 keeps the paper's extent; any other seed moves the mapped
    extent by up to 1/256 of itself, so the outputs change while the
    simulated work stays within a fraction of a percent."""
    extent = w.space.extents[w.mapped_dim] // shrink
    if seed:
        extent += rng.randint(-(extent // 256), extent // 256)
    return _with_extent(w, extent)


def sweep_inputs(seed: int, smoke: bool) -> list[tuple[StencilWorkload, list[int]]]:
    """Experiments i-iii with ``default_heights(points=8)``.  Other seeds
    also move every height of 16 or more by up to 2; the smaller heights
    carry most of the work and stay put."""
    rng = random.Random(seed)
    out = []
    for w in paper_experiments():
        w = _seeded(w, rng, seed, SMOKE_SHRINK if smoke else 1)
        heights = figures.default_heights(w, max_points=SWEEP_POINTS)
        if seed:
            heights = [v + rng.randint(-2, 2) if v >= 16 else v
                       for v in heights]
        out.append((w, heights))
    return out


def tune_inputs(seed: int, smoke: bool
                ) -> tuple[Machine, list[tuple[StencilWorkload, bool]]]:
    """The machine, and (workload, shape search?) for experiments i-iii
    and the anisotropic 8x64x2048 space whose default 4x4 grid is not
    communication-minimal.

    Moving an extent changes the tuner's search path and so its work by
    up to 9%; other seeds instead scale every time parameter of the
    machine by one factor in [0.9, 1.1].  Every output changes, while
    the search path (and its work) stays within half a percent."""
    machine = MACHINE
    if seed:
        f = random.Random(seed).uniform(0.9, 1.1)
        machine = MACHINE.with_(**{k: getattr(MACHINE, k) * f
                                   for k in MACHINE_TIMES})
    shrink = SMOKE_SHRINK if smoke else 1
    cases = [(_with_extent(w, w.space.extents[w.mapped_dim] // shrink), False)
             for w in paper_experiments()]
    aniso = StencilWorkload("aniso-8x64",
                            IterationSpace.from_extents([8, 64, 2048 // shrink]),
                            sqrt_kernel_3d(), (4, 4, 1), 2)
    return machine, cases + [(aniso, True)]


def scale_input(seed: int, smoke: bool) -> StencilWorkload:
    """Other seeds shorten the last tile by up to ``SCALE_V - 1``: the
    completion time changes, the tile and event counts do not."""
    w = scale_workload(8, 64) if smoke else scale_workload(32, 512)
    grid = w.procs_per_dim[0]
    extent = w.space.extents[w.mapped_dim]
    if seed:
        extent -= random.Random(seed).randint(0, SCALE_V - 1)
    return _with_extent(w, extent, f"scale{grid}x{grid}x{extent}")


def direct_time(w: StencilWorkload, v: int, blocking: bool,
                machine: Machine = MACHINE) -> float:
    """Completion time straight from the simulator, bypassing the
    engine, pool, cache and ``run_tiled`` -- the reference the served
    results must equal bit for bit."""
    prog = TiledProgram(w, v, machine, blocking=blocking)
    return World(machine, prog.num_ranks).run(prog.programs())


def sweep_digest(result) -> str:
    return _sha(json.dumps([
        [p.v, p.grain, p.t_nonoverlap_sim.hex(), p.t_overlap_sim.hex(),
         p.t_nonoverlap_model.hex(), p.t_overlap_model.hex()]
        for p in result.points
    ]))


class Sweep:
    """``sweep_cold``: one op is the full paper sweep (experiments i-iii,
    both schedules) into a fresh cache.  ``sweep_warm``: one op renders
    one experiment's sweep from the filled cache with a fresh engine."""

    def __init__(self, cfg: dict):
        self.inputs = sweep_inputs(cfg["seed"], cfg["smoke"])
        self.warm = cfg["workload"] == "sweep_warm" and cfg["mode"] != "fill"
        profile = cfg["mode"] == "profile"
        if profile and not self.warm:
            # In-process and under cProfile a full cold sweep would take
            # half a minute; its smallest experiment shows the same lanes.
            self.inputs = [min(self.inputs, key=lambda x: self.steps(*x))]
        self.jobs = 1 if profile else JOBS
        self.shared = cfg.get("cache")
        self.tmp = pathlib.Path(cfg["tmp"])
        self.engines: list[Engine] = []
        self.latest: dict[str, tuple] = {}
        self.warm_misses = 0

    @staticmethod
    def steps(w: StencilWorkload, heights: list[int]) -> int:
        return sum(2 * tuning.simulated_tile_steps(w, v) for v in heights)

    def _cache_dir(self, i: int) -> pathlib.Path:
        return pathlib.Path(self.shared) if self.shared else self.tmp / f"cold{i}"

    def op(self, i: int):
        engine = Engine(jobs=self.jobs, cache=SimCache(path=self._cache_dir(i)))
        self.engines = [engine]
        todo = [self.inputs[i % len(self.inputs)]] if self.warm else self.inputs
        return [(w, figures.sweep(w, MACHINE, hs, engine=engine))
                for w, hs in todo]

    def finish(self, i: int, out) -> tuple[dict, int]:
        if self.warm:
            self.warm_misses += self.engines[0].cache.stats.misses
        if not self.shared:
            shutil.rmtree(self._cache_dir(i), ignore_errors=True)
        for w, res in out:
            self.latest[w.name] = (w, res)
        return (
            {w.name: sweep_digest(res) for w, res in out},
            sum(self.steps(w, [p.v for p in res.points]) for w, res in out),
        )

    def checks(self):
        if self.warm:
            yield ("every warm render is served from the cache",
                   self.warm_misses == 0)
        for name, (w, res) in self.latest.items():
            for p in res.points[-2:]:
                yield (f"{name} V={p.v}: served times equal a direct simulation",
                       direct_time(w, p.v, True) == p.t_nonoverlap_sim
                       and direct_time(w, p.v, False) == p.t_overlap_sim)


class Tune:
    """One op tunes V for experiments i-iii and V plus the grid shape for
    the anisotropic space, each with a fresh two-worker engine."""

    def __init__(self, cfg: dict):
        self.machine, self.cases = tune_inputs(cfg["seed"], cfg["smoke"])
        self.jobs = 1 if cfg["mode"] == "profile" else JOBS
        self.engines: list[Engine] = []
        self.latest: list = []

    def op(self, i: int):
        self.engines = [Engine(jobs=self.jobs, cache=None) for _ in self.cases]
        return [
            (w, tuning.tune(w, self.machine, overlap=True, budget=TUNE_BUDGET,
                            shape=shape, engine=engine))
            for (w, shape), engine in zip(self.cases, self.engines)
        ]

    def finish(self, i: int, out) -> tuple[dict, int]:
        self.latest = out
        return (
            {w.name: _sha(r.to_json()) for w, r in out},
            sum(r.steps_spent for _w, r in out),
        )

    def checks(self):
        for w, r in self.latest:
            fastest = min(c.completion_time for c in r.candidates)
            yield (f"{w.name}: best is the fastest candidate",
                   r.best.completion_time == fastest)
            yield (f"{w.name}: best re-simulates to the same time",
                   direct_time(tuning.regrid(w, r.best.grid), r.best.v,
                               not r.overlap, self.machine)
                   == r.best.completion_time)


class Scale:
    """One op is ``run_tiled`` of a 1,024-rank stencil (overlapping
    schedule, untraced, default queue), program and world built inside
    the timed call."""

    def __init__(self, cfg: dict):
        self.w = scale_input(cfg["seed"], cfg["smoke"])
        self.engines: list[Engine] = []
        self.latest = None

    def op(self, i: int):
        return executor.run_tiled(self.w, SCALE_V, MACHINE, blocking=False)

    def finish(self, i: int, r) -> tuple[dict, int]:
        self.latest = r
        return (
            {self.w.name: _sha(f"{r.completion_time.hex()} {r.event_count} "
                               f"{r.messages_sent}")},
            tuning.simulated_tile_steps(self.w, SCALE_V),
        )

    def checks(self):
        # The sqrt stencil sends one face per tile to the next rank along
        # each split dimension.
        p0, p1, _ = self.w.procs_per_dim
        tiles = math.ceil(self.w.space.extents[self.w.mapped_dim] / SCALE_V)
        expected = tiles * ((p0 - 1) * p1 + p0 * (p1 - 1))
        yield (f"{self.w.name}: {expected} messages",
               self.latest.messages_sent == expected)


WORKLOADS = {"sweep_cold": Sweep, "sweep_warm": Sweep, "tune": Tune,
             "scale": Scale}


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*.json"))


def main(cfg: dict) -> dict:
    mode = cfg["mode"]
    tracer = None
    if mode in ("spans", "profile"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    t = time.perf_counter()
    wl = WORKLOADS[cfg["workload"]](cfg)
    inputs_s = time.perf_counter() - t
    expect = dict(cfg.get("expect") or {})
    prof = cProfile.Profile() if mode == "profile" else None
    # Each op's cyclic garbage is collected before the next op, outside
    # the timing.  Left alone, a later op collects it at an arbitrary
    # point, which moves that op's time by up to 15% and the peak RSS
    # with the number of ops.  Freezing what set-up allocated keeps each
    # collection down to the op's own objects.
    gc.freeze()
    print("READY", flush=True)
    if mode == "setup":
        return {"import_s": IMPORT_S, "inputs_s": inputs_s}

    ops: list[float] = []
    units: dict[str, str] = {}
    errors: list[str] = []
    steps = cache_bytes = 0
    cache = Counter()
    pool = Counter()
    start = time.perf_counter()
    while True:
        i = len(ops)
        gc.collect()
        if tracer is not None:
            tracer.op = i
            tracer.begin("bench")
        if prof is not None:
            prof.enable()
        t = time.perf_counter()
        out = wl.op(i)
        dt = time.perf_counter() - t
        if prof is not None:
            prof.disable()
        if tracer is not None:
            tracer.end()
        ops.append(dt)
        for e in wl.engines:
            ps = e.supervisor_stats
            pool.update(dispatched=ps.dispatched, retried=ps.retried,
                        crashed=ps.crashed, respawns=ps.respawns)
            if e.cache is not None:
                st = e.cache.stats
                cache.update(gets=st.lookups, hits=st.hits, puts=st.stores,
                             errors=st.errors)
                if tracer is not None:
                    cache_bytes += _dir_bytes(e.cache.path)
        digests, s = wl.finish(i, out)
        steps += s
        bad = sorted(k for k, d in digests.items() if expect.setdefault(k, d) != d)
        if bad:
            errors.append(f"op {i}: output digest differs for {', '.join(bad)}")
        units.update(digests)
        if mode == "fill" or time.perf_counter() - start >= cfg["budget"]:
            break

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    res = {
        "import_s": IMPORT_S, "inputs_s": inputs_s, "ops": ops,
        "steps": steps, "units": units,
        "cache": dict(cache, bytes=cache_bytes), "pool": dict(pool),
        "rss_mb": usage / 1024.0,
    }
    if tracer is not None:
        # Snapshot before the checks, whose direct runs are not ops.
        own, res["top_s"] = tracer.self_times()
        res["self_s"] = dict.fromkeys(spans.LAYERS, 0.0) | own
        res["counts"] = dict(tracer.counts)
        res["calls"] = dict(tracer.span_counts())
        if cfg.get("trace_out"):
            tracer.write_chrome(cfg["trace_out"], CHROME_OPS)
    if prof is not None:
        res["lanes"] = {lane: 0.0 for lane, _ in LANES} | {"other": 0.0}
        res["lanes"].update((c.lane, c.tottime) for c in
                            attribute_stats(pstats.Stats(prof)))
    checks = [] if mode == "fill" else list(wl.checks())
    errors += [name for name, ok in checks if not ok]
    res["attempted"] = len(ops) + len(checks)
    res["failed"] = len(errors)
    res["errors"] = errors
    return res


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
