"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the ``end_to_end`` entries of
``BENCHMARK.json``; with ``--trace 1`` they are the ``per_layer``
entries, and spans, the count table and the per-layer figures are also
written under ``.perfbench_out/``.  A per-layer metric the workload does
not measure reads 0.

Timings in the JSON line are host-adjusted (see ``perfbench/hostspeed.py``):
raw timings scaled by the speed of a reference loop sampled between work
items over the run.  The raw figures are printed above it.

Exits 2 without a result when the program sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from perfbench.hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
#: Imports of the program whose median counts in ``setup_s``.
IMPORT_REPEATS = 9


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-cold", "store-resume", "check-byz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for smoke tests")
    return parser.parse_args(argv)


def _import_seconds(host: HostSpeed) -> float:
    """Median time to import the program with the bench's workloads.

    The first import is the one the run uses; each repeat imports fresh
    module objects and then puts the first ones back.  Reference samples
    flank every import, so ``host`` sees the speed the imports ran at.
    """
    def fresh(name: str) -> bool:
        return name.split(".")[0] == "repro" or name.startswith("perfbench.")

    samples = []
    for repeat in range(IMPORT_REPEATS):
        saved = {name: module for name, module in sys.modules.items() if fresh(name)}
        if repeat:
            for name in saved:
                del sys.modules[name]
            # Each repeat starts from a heap without the last one's garbage.
            gc.collect()
        host.sample()
        started = time.perf_counter()
        importlib.import_module("perfbench.workloads")
        samples.append(time.perf_counter() - started)
        host.sample()
        if repeat:
            sys.modules.update(saved)
            for name, module in saved.items():
                parent, _, child = name.rpartition(".")
                if parent in sys.modules:
                    setattr(sys.modules[parent], child, module)
    return statistics.median(samples)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.hostspeed import HostSpeed

    # Set-up starts with importing the program.
    setup_host = HostSpeed()
    import_s = _import_seconds(setup_host)
    from perfbench.counts import DriftStore
    from perfbench.workloads import WORKLOADS, Context, peak_rss_mb, percentile

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    ctx = Context(
        root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), size=args.size,
        drift=DriftStore(ROOT, args.workload, args.seed, args.size),
        host=HostSpeed(), setup_host=setup_host,
    )
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host = ctx.host
    scale = host.time_scale()
    raw = {
        "setup_s": import_s + outcome.setup_s,
        "throughput_per_s": outcome.throughput_per_s,
        "latency_p50_ms": percentile(outcome.latencies_s, 50) * 1e3,
        "latency_p95_ms": percentile(outcome.latencies_s, 95) * 1e3,
    }
    if args.trace:
        wanted = spec["per_layer"]
        figures = {**outcome.layers,
                   "host.reference_units_per_s": host.units_per_s()}
        out = ROOT / ".perfbench_out"
        stem = f"{args.workload}-s{args.seed}"
        for name, recorder in outcome.recorders.items():
            recorder.write(out / f"{stem}-{name}.jsonl")
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{stem}-counts.json").write_text(
            json.dumps(outcome.counts, indent=1, sort_keys=True), encoding="utf-8")
        (out / f"{stem}-layers.json").write_text(
            json.dumps(figures, indent=1, sort_keys=True), encoding="utf-8")
    else:
        wanted = spec["end_to_end"]
        figures = {
            "setup_s": raw["setup_s"] * setup_host.time_scale(),
            "throughput_per_s": raw["throughput_per_s"] / scale,
            "latency_p50_ms": raw["latency_p50_ms"] * scale,
            "latency_p95_ms": raw["latency_p95_ms"] * scale,
            "peak_rss_mb": peak_rss_mb(),
        }
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = figures.get(name)
        note = "" if value is not None else "  (not measured on this workload)"
        metrics[name] = {"value": float(value or 0.0), "unit": entry["unit"]}
        print(f"{name:34s} {metrics[name]['value']:14.6g} {entry['unit']}{note}")
    print(f"host: reference loop {host.units_per_s():.6g} units/s in the passes "
          f"(time scale {scale:.4f}), {setup_host.units_per_s():.6g} in set-up "
          f"(time scale {setup_host.time_scale():.4f}); raw figures:")
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    for name, value in raw.items():
        print(f"{'raw.' + name:34s} {value:14.6g} {units[name]}")
    for name, (value, unit) in outcome.named.items():
        print(f"{args.workload}.{name:21s} {value:14.6g} {unit}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{'failed_ratio':34s} {ratio:14.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} checked outputs)")
    for reason in outcome.failures:
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
