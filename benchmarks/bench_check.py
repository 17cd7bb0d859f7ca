"""Exhaustive-checker throughput: explored states per second.

Explored-states/sec is the number that decides how large a model is
checkable.  A state's cost has three parts; the shares below are of
cProfile time over one check-byz round (seed 1: the n=4, t=1
``two_faced`` FIFO models, 40 executions each, 57,466 events, 1,157
states) on an Intel Xeon vCPU:

* **One fingerprint per newly reached branching point: ~52%, and the
  per-process protocol walk alone ~46%.**  The walk is cached per
  process and redone only for the processes an event touched since the
  last fingerprint (about 1.2 of the 4 per call), so what is left is
  ``canon`` over the RB instance tables of those processes.  The rest
  — coroutine stacks, timers, decisions and the SHA-256 over ~600
  tokens — is rebuilt on every call; pending-delivery keys come from a
  per-execution memo.  A call costs about 1 ms unprofiled.
* **Re-execution: ~23% in protocol handlers.**  Every execution replays
  its schedule prefix from event zero before it reaches new ground, so
  each state also pays for the ~49 events that lead to it.
* **Per-event checker overhead: ~11% for the invariant-progress token
  and invariant checks.**  The check-mode kernel itself is small: each
  delivery is classified into the choice tier once, as it is scheduled;
  forced moves are told from the first one or two candidates
  (``BaseChooser.forced``, ~1%); channel heads are listed only on new
  ground (``channel_heads``, ~0.4%).

This bench exhausts the pinned n=2 FIFO models
(the same ones the golden fixture and the acceptance tests use) and
budget-runs one harder shape, then writes ``BENCH_check.json`` at the
repo root; ``bench_history.py`` folds the headline geomean into the
per-PR perf trajectory next to the kernel and sweep numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_check.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import time
from typing import Any

from repro.checking import Explorer
from repro.orchestration.config import RunConfig

REPO_ROOT = pathlib.Path(__file__).parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_check.json"


def _cases(quick: bool) -> dict[str, dict[str, Any]]:
    """name -> {config, explorer kwargs}; exhaustible cases first."""
    budget = 200 if quick else 2_000
    return {
        # The acceptance model: exhausts, so the run measures the full
        # explore/fingerprint/dedup/prune cycle end to end.
        "n2_fifo": {
            "config": RunConfig(
                n=2, t=0, proposals={1: "a", 2: "a"},
                max_rounds=1, fifo=True,
            ),
            "kwargs": {},
        },
        "n2_fifo_divergent": {
            "config": RunConfig(
                n=2, t=0, proposals={1: "a", 2: "b"},
                max_rounds=1, fifo=True,
            ),
            "kwargs": {},
        },
        # Unordered channels: the space is unbounded, so this is a
        # fixed-budget sample — it weights the fingerprint walk on a
        # busier frontier than the FIFO cases.
        "n2_unordered_budget": {
            "config": RunConfig(
                n=2, t=0, proposals={1: "a", 2: "a"}, max_rounds=1,
            ),
            "kwargs": {"max_executions": budget, "minimize": False},
        },
    }


def collect(quick: bool) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for name, case in _cases(quick).items():
        start = time.perf_counter()
        result = Explorer(case["config"], **case["kwargs"]).run()
        elapsed = time.perf_counter() - start
        stats = result.stats
        out[name] = {
            "exhausted": result.exhausted,
            "executions": stats.executions,
            "states": stats.states,
            "steps": stats.steps,
            "elapsed": round(elapsed, 4),
            "states_per_sec": round(stats.states / elapsed, 1),
            "executions_per_sec": round(stats.executions / elapsed, 1),
        }
        print(f"{name:>20}: {out[name]['states_per_sec']:>9,.1f} states/s  "
              f"({stats.states:,} states, {stats.executions:,} executions, "
              f"{'exhausted' if result.exhausted else 'budgeted'}, "
              f"{elapsed:.2f}s)")
    return out


def geomean(values: list[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--label", default="check")
    parser.add_argument("--quick", action="store_true",
                        help="smaller budgets (CI smoke)")
    args = parser.parse_args(argv)

    metrics = collect(args.quick)
    states_geomean = round(
        geomean([m["states_per_sec"] for m in metrics.values()]), 1
    )
    payload: dict[str, Any] = {
        "bench": "check",
        "label": args.label,
        "quick": args.quick,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "metrics": metrics,
        "states_per_sec_geomean": states_geomean,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"\nstates/s geomean: {states_geomean:,.1f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
