"""Self-test of the benchmark: ``python -m pytest bench/``.

Runs ``bench/run.py --smoke`` once (reduced inputs, about 15 s) and
checks what it emits against ``BENCHMARK.json``, which is checked
against the limits the benchmark must keep.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    return run.load_spec()


@pytest.fixture(scope="module")
def smoke() -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads((BENCH / "out" / "summary-smoke-seed0.json").read_text())


def test_spec_keeps_its_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    for item in spec["workloads"] + metrics:
        assert NAME.fullmatch(item["name"]), item
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_metric_names_what_it_moves(spec):
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]} | {"all"}
    for m in spec["per_layer"]:
        target = run.moves(m["name"])
        assert target is not None, m["name"]
        assert target[0] in end_to_end and target[1] in workloads, m["name"]


def test_every_metric_is_emitted_with_its_unit(spec, smoke):
    for w in (w["name"] for w in spec["workloads"]):
        entry = smoke["workloads"][w]
        for kind in ("end_to_end", "per_layer"):
            emitted = entry[kind]
            assert list(emitted) == [m["name"] for m in spec[kind]]
            for m in spec[kind]:
                assert emitted[m["name"]]["unit"] == m["unit"]
                assert isinstance(emitted[m["name"]]["value"], float | int)
        for m in spec["end_to_end"]:
            assert entry["end_to_end"][m["name"]]["value"] > 0, (w, m)


def test_smoke_outputs_are_correct(smoke):
    for w, entry in smoke["workloads"].items():
        assert entry["failed"] == 0, (w, entry["errors"])
        assert entry["attempted"] > 0


def test_self_times_fit_inside_the_top_level_spans(smoke):
    for w, entry in smoke["workloads"].items():
        spans = entry["spans"]
        assert all(own >= -1e-9 for own in spans["self_s"].values()), w
        assert sum(spans["self_s"].values()) <= spans["top_s"] * (1 + 1e-9), w
        shares = [v["value"] for k, v in entry["per_layer"].items()
                  if k.endswith(".self_pct")]
        assert sum(shares) <= 100.0 + 1e-6, w


def test_no_message_record_leaks(smoke):
    for w, entry in smoke["workloads"].items():
        assert entry["per_layer"]["sim.records.leaked"]["value"] == 0, w


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scale", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_ab_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [x * 0.8 for x in parent]
    assert run.compare(parent, faster, "lower", 0.1) == (1.0, "gain")
    assert run.compare(parent, faster, "lower", 0.1, 0, 1) == \
        (1.0, "void: more failures")
    assert run.compare(parent, faster, "lower", 0.1, 1, 1) == (1.0, "gain")
    assert run.compare(parent, parent, "lower", 0.1) == (0.0, "within bound")
    slower = [x * 1.3 for x in parent]
    assert run.compare(parent, slower, "lower", 0.1)[1] == "regression"
    noisy = [50.0, 150.0] * 5
    assert run.compare(parent, noisy, "lower", 0.1)[1] == "unresolved"
    noisy_but_faster = [40.0, 90.0] * 5
    assert run.compare(parent, noisy_but_faster, "lower", 0.1)[1] == \
        "better (every run)"
