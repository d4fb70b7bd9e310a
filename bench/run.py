#!/usr/bin/env python3
"""The repository benchmark: the paper's V-sweeps cold and warm, the
autotuner, and a 1,024-rank run, timed end to end and split by layer.

    python bench/run.py                        # every workload, seed 0
    python bench/run.py --workload scale --seed 3 --seconds 20 --trace 0
    python bench/run.py --against HEAD~1       # interleaved A/B vs a commit
    python bench/run.py --smoke                # reduced inputs, seconds

With ``--workload`` the run measures one workload and its last line of
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Without it,
every workload is measured (samples round-robin across workloads), then
traced, and a summary lands in ``bench/out/``.  The exit code is
non-zero when any output is wrong.  See ``bench/README.md``.

This script never imports the package: every sample is a fresh
``bench/sample.py`` process with ``src`` on ``PYTHONPATH``, so the
same benchmark code can measure another commit's sources.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import threading
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Each sample measures ``seconds / SAMPLE_SHARE``; samples repeat until
#: ``seconds`` have passed and at least ``MIN_SAMPLES`` ran (one under
#: ``--smoke``, which checks the benchmark rather than the numbers).
SAMPLE_SHARE = 5
MIN_SAMPLES = 3
#: Set-up-only spawns after each timed sample.  ``setup_s`` is the median
#: over every spawn of a run, so a run has at least twelve set-ups
#: without its timed samples getting any shorter.
SETUPS_PER_SAMPLE = 3
#: A sample that has not finished after this many seconds is killed.
SAMPLE_TIMEOUT = 150
PAIRS = 10

#: Which end-to-end metric, on which workload, each per-layer metric
#: should move; the longest matching name prefix wins.
MOVES = {
    "setup.": ("setup_s", "all"),
    "trace_overhead": ("op_ms.p50", "all"),
    "op_ms.p99": ("op_ms.p50", "sweep_warm"),
    "bench.": ("op_ms.p50", "sweep_warm"),
    "figures.": ("op_ms.p50", "sweep_warm"),
    "model.": ("op_ms.p50", "sweep_warm"),
    "engine.": ("op_ms.p50", "sweep_warm"),
    "cache.get": ("op_ms.p50", "sweep_warm"),
    "cache.hit_ratio": ("op_ms.p50", "sweep_warm"),
    "cache.": ("op_ms.p50", "sweep_cold"),
    "pool.": ("op_ms.p50", "sweep_cold"),
    "pool.close": ("op_ms.p50", "tune"),
    "tuning.": ("op_ms.p50", "tune"),
    "tune.": ("op_ms.p50", "tune"),
    "critical_path.": ("op_ms.p50", "tune"),
    "trace.records": ("op_ms.p50", "tune"),
    "executor.": ("tile_steps_per_s", "scale"),
    "program.": ("tile_steps_per_s", "scale"),
    "world.": ("tile_steps_per_s", "scale"),
    "sim.": ("tile_steps_per_s", "scale"),
    "lane.": ("tile_steps_per_s", "scale"),
}


def moves(name: str) -> tuple[str, str] | None:
    """(end-to-end metric, workload) a per-layer metric should move."""
    hits = [p for p in MOVES if name.startswith(p)]
    return MOVES[max(hits, key=len)] if hits else None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_golden(smoke: bool) -> dict:
    return json.loads((BENCH / "golden.json").read_text())[
        "smoke" if smoke else "full"]


def quartiles(xs) -> tuple[float, float, float]:
    xs = list(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else 0.0


def slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


# -- host -----------------------------------------------------------------


def fingerprint() -> dict:
    """Where the numbers were measured."""
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(), "cpu": cpu}


def check_load(when: str) -> float:
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        print(f"warning: load average {load:.2f} {when} the run exceeds "
              f"{os.cpu_count()} CPUs; timings are unreliable",
              file=sys.stderr)
    return load


# -- samples --------------------------------------------------------------


class SampleError(RuntimeError):
    pass


class Runner:
    """Spawns samples of one source tree at one seed."""

    def __init__(self, src: Path, seed: int, smoke: bool, tmp: Path):
        self.src = src
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.golden = load_golden(smoke) if seed == 0 else {}
        self.expected: dict[str, dict] = {}
        #: Results of untimed preparation samples (the warm-cache fill).
        self.prep: list[dict] = []
        tmp.mkdir(parents=True, exist_ok=True)

    def _spawn(self, cfg: dict) -> tuple[float, dict]:
        env = dict(os.environ, PYTHONPATH=str(self.src),
                   REPRO_CACHE_DIR=str(self.tmp / "repro-cache"),
                   TMPDIR=str(self.tmp))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "sample.py"), json.dumps(cfg)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        timer = threading.Timer(SAMPLE_TIMEOUT, proc.kill)
        timer.start()
        setup = None
        last = ""
        try:
            for line in proc.stdout:
                if setup is None and line == "READY\n":
                    setup = time.perf_counter() - t0
                last = line
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.wait()
        if proc.returncode != 0 or setup is None:
            raise SampleError(f"{cfg['workload']} {cfg['mode']} sample "
                              f"exited with code {proc.returncode}")
        return setup, json.loads(last)

    def expect(self, workload: str) -> dict:
        """Digests every output must match: the pinned seed-0 goldens
        and, for ``sweep_warm``, the cold pass that fills its cache."""
        if workload not in self.expected:
            expect = dict(self.golden.get(workload, {}))
            if workload == "sweep_warm":
                _, fill = self._spawn(self._cfg(workload, "fill", 0.0, expect))
                self.prep.append(fill)
                for k, d in fill["units"].items():
                    expect.setdefault(k, d)
            self.expected[workload] = expect
        return self.expected[workload]

    def _cfg(self, workload: str, mode: str, budget: float, expect: dict,
             trace_out: str | None = None) -> dict:
        return {"workload": workload, "seed": self.seed, "smoke": self.smoke,
                "mode": mode, "budget": budget, "tmp": str(self.tmp),
                "cache": str(self.tmp / "warm-cache")
                if workload == "sweep_warm" else None,
                "expect": expect, "trace_out": trace_out}

    def sample(self, workload: str, mode: str, budget: float,
               trace_out: str | None = None) -> tuple[float, dict]:
        expect = self.expect(workload)
        return self._spawn(self._cfg(workload, mode, budget, expect, trace_out))


class Measured:
    """One workload's untraced run: the timed samples as (set-up
    seconds, result), and the set-up seconds of every spawn."""

    def __init__(self):
        self.samples: list[tuple[float, dict]] = []
        self.setups: list[float] = []

    @property
    def results(self) -> list[dict]:
        return [r for _, r in self.samples]


def measure(runner: Runner, workloads: list[str], seconds: float
            ) -> dict[str, Measured]:
    """Untraced samples, round-robin across workloads so host drift
    spreads evenly over them, each followed by set-up-only spawns."""
    runs = {w: Measured() for w in workloads}
    spent = dict.fromkeys(workloads, 0.0)
    least = 1 if runner.smoke else MIN_SAMPLES
    for w in workloads:
        runner.expect(w)
    while True:
        todo = [w for w in workloads
                if spent[w] < seconds or len(runs[w].samples) < least]
        if not todo:
            return runs
        for w in todo:
            t = time.perf_counter()
            setup, result = runner.sample(w, "plain", seconds / SAMPLE_SHARE)
            spent[w] += time.perf_counter() - t
            runs[w].samples.append((setup, result))
            runs[w].setups.append(setup)
            for _ in range(SETUPS_PER_SAMPLE):
                runs[w].setups.append(runner.sample(w, "setup", 0.0)[0])


def end_to_end(samples: list[tuple[float, dict]], setups: list[float]
               ) -> dict[str, float]:
    """Medians over every spawn (set-up), sample (memory) or operation
    (time).  Throughput is the mean work of an operation over the median
    time of one, so one slow operation moves it no more than the median."""
    ops = [t for _, r in samples for t in r["ops"]]
    steps = sum(r["steps"] for _, r in samples) / len(ops)
    return {
        "setup_s": median(setups),
        "op_ms.p50": median(ops) * 1e3,
        "tile_steps_per_s": steps / median(ops),
        "peak_rss_mb": median(r["rss_mb"] for _, r in samples),
    }


def per_sample(run: Measured) -> dict[str, list[float]]:
    """Each end-to-end metric computed from every sample on its own
    (``setup_s`` from every spawn)."""
    each = [end_to_end([s], [s[0]]) for s in run.samples]
    return {"setup_s": list(run.setups)} | {
        k: [e[k] for e in each]
        for k in ("op_ms.p50", "tile_steps_per_s", "peak_rss_mb")}


def traced(runner: Runner, workload: str, seconds: float,
           plain: list[dict] | None = None
           ) -> tuple[dict[str, float], list[dict], dict]:
    """Per-layer metrics from fresh samples of a third of ``seconds``
    each: untraced (the overhead baseline; ``plain`` when the untraced
    run already has them), spans, profile.  Returns the metrics, the
    results of the samples spawned here, and raw span data."""
    budget = seconds / 3
    trace_out = OUT / f"{workload}-seed{runner.seed}.trace.json"
    spawned = []
    if plain is None:
        plain = [runner.sample(workload, "plain", budget)[1]]
        spawned += plain
    _, spans = runner.sample(workload, "spans", budget, str(trace_out))
    _, prof = runner.sample(workload, "profile", budget)
    spawned += [spans, prof]
    passes = plain + [spans, prof]
    plain_ops = [t for r in plain for t in r["ops"]]
    m = {
        "setup.import_s": median(r["import_s"] for r in passes),
        "setup.inputs_s": median(r["inputs_s"] for r in passes),
        "trace_overhead": median(spans["ops"]) / median(plain_ops),
        "op_ms.p99": p99(plain_ops) * 1e3,
    }
    top = spans["top_s"]
    for layer, own in spans["self_s"].items():
        m[f"{layer}.self_pct"] = 100.0 * own / top
    n = len(spans["ops"])
    c, calls = spans["counts"], spans["calls"]
    cache, pool = spans["cache"], spans["pool"]
    gets = cache.get("gets", 0)
    m.update({
        "engine.batches": calls.get("engine", 0) / n,
        "engine.runs": c.get("engine.runs", 0) / n,
        "engine.runs_sim": c.get("engine.runs_sim", 0) / n,
        "engine.runs_cache": c.get("engine.runs_cache", 0) / n,
        "engine.runs_failed": c.get("engine.runs_failed", 0) / n,
        "cache.gets": gets / n,
        "cache.hit_ratio": cache.get("hits", 0) / gets if gets else 0.0,
        "cache.puts": cache.get("puts", 0) / n,
        "cache.errors": cache.get("errors", 0) / n,
        "cache.bytes": cache.get("bytes", 0) / n,
        "pool.batches": calls.get("pool.run", 0) / n,
        "pool.dispatched": pool.get("dispatched", 0) / n,
        "pool.retried": pool.get("retried", 0) / n,
        "pool.crashed": pool.get("crashed", 0) / n,
        "pool.respawns": pool.get("respawns", 0) / n,
        "model.analytic_calls": calls.get("model.analytic", 0) / n,
        "tune.steps_spent": c.get("tune.steps_spent", 0) / n,
        "tune.budget_steps": c.get("tune.budget_steps", 0) / n,
        "tune.probe_steps": c.get("tune.probe_steps", 0) / n,
        "tune.candidates": c.get("tune.candidates", 0) / n,
        "tune.steps_ratio": (c["tune.steps_spent"] / c["tune.sweep_steps"]
                             if c.get("tune.sweep_steps") else 0.0),
        "critical_path.calls": calls.get("critical_path", 0) / n,
        "trace.records": c.get("trace.records", 0) / n,
        "program.builds": calls.get("program.build", 0) / n,
        "program.ranks": c.get("program.ranks", 0),
        "sim.events_per_s": (c.get("sim.events", 0) / spans["self_s"]["sim.run"]
                             if spans["self_s"].get("sim.run") else 0.0),
    })
    # The profiled pass runs every simulation in-process, so it sees the
    # simulator counters that pool workers keep to themselves.
    cp = prof["counts"]
    acquired = cp.get("sim.records.acquired", 0)
    m.update({
        "sim.runs": prof["calls"].get("sim.run", 0) / len(prof["ops"]),
        "sim.events_per_step": cp.get("sim.events", 0) / prof["steps"],
        "sim.messages_per_step": cp.get("sim.messages", 0) / prof["steps"],
        "sim.queue.calendar_runs": cp.get("sim.queue.calendar_runs", 0),
        "sim.records.reuse_ratio": (1.0 - cp["sim.records.created"] / acquired
                                    if acquired else 0.0),
        "sim.records.leaked": (cp.get("sim.records.leaked", 0)
                               + c.get("sim.records.leaked", 0)),
    })
    total = sum(prof["lanes"].values()) or 1.0
    for lane, own in prof["lanes"].items():
        m[f"lane.{slug(lane)}_pct"] = 100.0 * own / total
    raw = {"self_s": spans["self_s"], "top_s": top,
           "trace": str(trace_out.relative_to(ROOT))}
    return m, spawned, raw


def p99(xs: list[float]) -> float:
    """The 99th percentile; the slowest operation when under 100 ran."""
    if len(xs) < 100:
        return max(xs)
    return statistics.quantiles(xs, n=100)[98]


def correctness(results: list[dict], golden: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over every sample of one workload:
    each sample's own checks, digest agreement across samples and, at
    seed 0, a produced output for every pinned digest."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    seen: dict[str, str] = {}
    for r in results:
        for k, d in r["units"].items():
            if k not in seen:
                seen[k] = d
                continue
            attempted += 1
            if seen[k] != d:
                failed += 1
                errors.append(f"{k}: samples disagree on the output digest")
    for k in golden:
        attempted += 1
        if k not in seen:
            failed += 1
            errors.append(f"{k}: pinned output was never produced")
    return attempted, failed, errors


# -- reports --------------------------------------------------------------


def emit(metrics: dict[str, float], declared: list[dict]) -> dict:
    """The declared metrics with their units; a declared metric the run
    did not produce raises, so a broken layer cannot pass silently."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SampleError(f"metrics not produced: {', '.join(missing)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def print_metrics(workload: str, metrics: dict, spreads: dict | None = None
                  ) -> None:
    for name, v in metrics.items():
        extra = ""
        if spreads is not None:
            extra = f"  (IQR {spreads[name]:.1%})"
        print(f"  {workload:<11} {name:<28} {v['value']:>14.6g} "
              f"{v['unit']}{extra}")


def run_one(args, spec: dict) -> int:
    """One workload, one trace setting: the interface ``BENCHMARK.json``
    declares, ending in one JSON result line."""
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    runner = Runner(ROOT / "src", args.seed, args.smoke, tmp)
    host = fingerprint()
    host["load_before"] = check_load("before")
    try:
        if args.trace:
            values, results, raw = traced(runner, args.workload, args.seconds)
            metrics = emit(values, spec["per_layer"])
        else:
            run = measure(runner, [args.workload], args.seconds)[args.workload]
            results = run.results
            metrics = emit(end_to_end(run.samples, run.setups),
                           spec["end_to_end"])
            raw = {"per_sample": per_sample(run)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    host["load_after"] = check_load("after")
    attempted, failed, errors = correctness(
        runner.prep + results, runner.golden.get(args.workload, {}))
    print_metrics(args.workload, metrics)
    for e in errors:
        print(f"  WRONG OUTPUT: {e}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "smoke": args.smoke, "host": host,
              "digests": {k: v for r in results for k, v in r["units"].items()},
              "metrics": metrics, "raw": raw, "errors": errors}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args, spec: dict, workloads: list[str]) -> int:
    """Every workload untraced (round-robin), then each one traced."""
    tmp = OUT / f"tmp-all-{os.getpid()}"
    runner = Runner(ROOT / "src", args.seed, args.smoke, tmp)
    host = fingerprint()
    host["load_before"] = check_load("before")
    summary = {"seed": args.seed, "smoke": args.smoke,
               "seconds": args.seconds, "host": host, "workloads": {}}
    ok = True
    try:
        runs = measure(runner, workloads, args.seconds)
        print("end to end (median over samples):")
        for w in workloads:
            run = runs[w]
            metrics = emit(end_to_end(run.samples, run.setups),
                           spec["end_to_end"])
            spreads = {k: spread(v) for k, v in per_sample(run).items()}
            print(f"  {w}: {len(run.samples)} samples, "
                  f"{len(run.setups)} set-ups")
            print_metrics(w, metrics, spreads)
            summary["workloads"][w] = {"end_to_end": metrics,
                                       "spread": spreads,
                                       "samples": len(run.samples),
                                       "setups": len(run.setups)}
        print("per layer (traced run):")
        for w in workloads:
            values, results, raw = traced(runner, w, args.seconds,
                                          runs[w].results)
            metrics = emit(values, spec["per_layer"])
            print_metrics(w, metrics)
            entry = summary["workloads"][w]
            entry.update(per_layer=metrics, spans=raw)
            results = runs[w].results + results
            if w == "sweep_warm":
                results += runner.prep
            attempted, failed, errors = correctness(
                results, runner.golden.get(w, {}))
            entry.update(attempted=attempted, failed=failed, errors=errors,
                         digests={k: d for r in results
                                  for k, d in r["units"].items()})
            for e in errors:
                print(f"  WRONG OUTPUT ({w}): {e}", file=sys.stderr)
            ok = ok and failed == 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    host["load_after"] = check_load("after")
    name = f"summary-{'smoke-' if args.smoke else ''}seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(summary, indent=1))
    print(f"{'all outputs correct' if ok else 'WRONG OUTPUTS'}; "
          f"summary in {(OUT / name).relative_to(ROOT)}")
    return 0 if ok else 1


# -- A/B against another commit -------------------------------------------


def checkout_src(ref: str, dest: Path) -> tuple[str, Path]:
    """Extract ``ref``'s ``src/`` under ``dest`` with ``git archive``
    (nothing is registered in the repository, so an interrupted run
    leaves no worktree behind)."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                         cwd=ROOT, capture_output=True, text=True, check=True
                         ).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha, "src"],
                         cwd=ROOT, capture_output=True, check=True).stdout
    dest = dest / sha[:12]
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        if hasattr(tarfile, "data_filter"):
            tf.extractall(dest, filter="data")
        else:
            # Python before 3.10.12 / 3.11.4 has no extraction filters;
            # the archive is this repository's own ``git archive``.
            tf.extractall(dest)
    return sha, dest / "src"


def compare(parent: list[float], change: list[float], better: str,
            bound: float, parent_failed: int = 0, change_failed: int = 0
            ) -> tuple[float, str]:
    """(share of pairs the change won, verdict) by the rule in
    bench/README.md: a gain needs 9/10 wins and a median gap wider than
    the parent's IQR; a spread wider than the bound is unresolved; a
    change that fails more operations than the parent gains nothing."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    pq1, pmed, pq3 = quartiles(parent)
    cmed = median(change)
    gap = sign * (cmed - pmed)
    if max(spread(parent), spread(change)) > bound:
        verdict = ("better (every run)"
                   if all(sign * (c - p) > 0 for c in change for p in parent)
                   else "unresolved")
    elif share >= 0.9 and gap > pq3 - pq1:
        verdict = "gain"
    elif -gap > bound * abs(pmed):
        verdict = "regression"
    else:
        verdict = "within bound"
    if change_failed > parent_failed and verdict in ("gain", "better (every run)"):
        verdict = "void: more failures"
    return share, verdict


def run_against(args, spec: dict, workloads: list[str]) -> int:
    tmp = OUT / f"tmp-against-{os.getpid()}"
    try:
        sha, ref_src = checkout_src(args.against, tmp / "ref")
        sides = {"parent": ref_src, "change": ROOT / "src"}
        print(f"A/B: parent {sha[:12]} vs this checkout, {PAIRS} pairs",
              file=sys.stderr)
        vals = {(side, w): {m["name"]: [] for m in spec["end_to_end"]}
                for side in sides for w in workloads}
        #: (attempted, failed) per side and workload, over every pair.
        fails = {key: [0, 0] for key in vals}
        errors = []
        differ = []
        for i in range(PAIRS):
            seed = args.seed + i
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for w in workloads:
                digests = {}
                for side in order:
                    runner = Runner(sides[side], seed, args.smoke,
                                    tmp / f"{side}-{i}")
                    run = measure(runner, [w], args.seconds)[w]
                    for k, v in end_to_end(run.samples, run.setups).items():
                        vals[(side, w)][k].append(v)
                    results = runner.prep + run.results
                    attempted, failed, errs = correctness(
                        results, runner.golden.get(w, {}))
                    fails[(side, w)][0] += attempted
                    fails[(side, w)][1] += failed
                    errors += [f"{side} {w} seed {seed}: {e}" for e in errs]
                    digests[side] = {k: d for r in results
                                     for k, d in r["units"].items()}
                if digests["parent"] != digests["change"]:
                    differ.append(f"{w} seed {seed}")
                print(f"pair {i + 1}/{PAIRS} {w} done", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{'workload':<11} {'metric':<17} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for w in workloads:
        pf, cf = fails[("parent", w)][1], fails[("change", w)][1]
        for m in spec["end_to_end"]:
            p, c = vals[("parent", w)][m["name"]], vals[("change", w)][m["name"]]
            share, verdict = compare(p, c, m["better"], m["bound"], pf, cf)
            cells = []
            for xs in (p, c):
                q1, q2, q3 = quartiles(xs)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{w:<11} {m['name']:<17} {cells[0]:>34} {cells[1]:>34} "
                  f"{share:>6.0%}  {verdict}")
        cells = [f"{fails[(side, w)][1]} of {fails[(side, w)][0]}"
                 for side in ("parent", "change")]
        print(f"{w:<11} {'failed':<17} {cells[0]:>34} {cells[1]:>34}")
    for e in errors:
        print(f"WRONG OUTPUT: {e}", file=sys.stderr)
    for d in differ:
        print(f"outputs differ between the commits: {d}", file=sys.stderr)
    failed = any(fails[("change", w)][1] for w in workloads)
    return 1 if differ or failed else 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="measure one workload and print one JSON line")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measuring time per workload (default "
                         f"{spec['run_seconds']}, 0.5 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="inputs reduced 16x, for checking the benchmark")
    ap.add_argument("--against", metavar="REF",
                    help="interleaved A/B of REF's src/ against this one")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(spec["run_seconds"])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.against:
            return run_against(args, spec, [args.workload] if args.workload
                               else names)
        if args.workload:
            return run_one(args, spec)
        return run_all(args, spec, names)
    except SampleError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
