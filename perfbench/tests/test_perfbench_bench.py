"""Tests of the repository benchmark in ``perfbench``.

A tiny-size smoke run of each workload through the command line, in both
the timed and the traced mode, and negative cases proving that the
benchmark's output checks fire: a damaged store entry fails
``store-resume``, a planted protocol mutant fails ``check-byz``, a count
table that differs from the one an earlier run stored fails each
workload, and without the program sources the benchmark exits
non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.counts import DriftStore  # noqa: E402
from perfbench.workloads import WORKLOADS, Context  # noqa: E402
from repro.checking import apply_mutant  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]


def _cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _context(tmp_path: Path, workload: str, **kwargs) -> Context:
    work = tmp_path / "work"
    work.mkdir()
    return Context(
        root=ROOT, work=work, seed=5, seconds=0, trace=False, size="tiny",
        drift=DriftStore(ROOT, workload, 5, "tiny", state_dir=tmp_path / "state"),
        **kwargs,
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_timed_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_cli(ROOT, workload, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    result = _result(_cli(ROOT, workload, 1))
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    out = ROOT / ".perfbench_out"
    assert (out / f"{workload}-s5-spans.jsonl").stat().st_size > 0
    counts = json.loads((out / f"{workload}-s5-counts.json").read_text())
    assert counts


def test_damaged_store_entry_fails_store_resume(tmp_path):
    def damage(ctx: Context) -> None:
        entry = sorted((ctx.work / "store").rglob("*.json"))[0]
        entry.write_text("{damaged", encoding="utf-8")

    outcome = WORKLOADS["store-resume"](
        _context(tmp_path, "store-resume", after_setup=damage)
    )
    assert outcome.failed >= 1
    assert outcome.named["hit_ratio"][0] < 1.0
    assert any("re-executed" in reason for reason in outcome.failures)


def test_undamaged_store_resume_passes(tmp_path):
    outcome = WORKLOADS["store-resume"](_context(tmp_path, "store-resume"))
    assert outcome.failed == 0 and outcome.attempted > 0
    assert outcome.named["hit_ratio"][0] == 1.0


def test_planted_mutant_fails_check_byz(tmp_path):
    with apply_mutant("rb-echo-deliver"):
        outcome = WORKLOADS["check-byz"](_context(tmp_path, "check-byz"))
    assert outcome.failed >= 1
    assert any("violation" in reason for reason in outcome.failures)


def test_count_drift_is_reported(tmp_path):
    store = DriftStore(ROOT, "sweep-cold", 1, "tiny", state_dir=tmp_path)
    assert store.check("base", {"events": 10, "cells": [1, 2]})
    assert store.check("base", {"events": 10, "cells": [1, 2]})
    assert not store.check("base", {"events": 11, "cells": [1, 2]})


@pytest.mark.parametrize("workload, section", [
    ("sweep-cold", "base"),
    ("store-resume", "prefill"),
    ("check-byz", "explorations"),
])
def test_stored_count_mismatch_fails_the_workload(tmp_path, workload, section):
    ctx = _context(tmp_path, workload)
    # An earlier run of this code stored a different table.
    assert ctx.drift.check(section, {"n4/t1/crash": {"events": -1}})
    outcome = WORKLOADS[workload](ctx)
    assert outcome.failed >= 1
    assert any("from an earlier run" in reason for reason in outcome.failures)


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli(tmp_path, "sweep-cold", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
