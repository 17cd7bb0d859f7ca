"""The three benchmark workloads: sweep-cold, store-resume and check-byz.

Each workload is a closed loop driven from this one process through the
public API: one scenario (or one checker execution) at a time, the next
starting when the previous one completed.  A run sets up, then repeats
whole passes over its fixed inputs until ``seconds`` have elapsed, and
checks every output as it goes.  Inputs depend only on the seed.

With ``trace`` on, passes rotate through three modes: ``plain`` (no
instrumentation, the overhead baseline), ``spans`` (wrappers around the
public calls of each layer, :mod:`perfbench.tracing`) and ``profile``
(:class:`repro.profiling.SweepProfiler` through the public ``profiler=``
argument, for the RB/CB/AC/EA split that has no call boundary).

Every callback between two work items lets ``ctx.host`` sample the
reference loop of :mod:`perfbench.hostspeed`; that time is left out of
every timed interval.  The workloads report raw timings; ``run.py``
scales them to the host-adjusted figures it prints.
"""

from __future__ import annotations

import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.adversary.strategies import two_faced
from repro.analysis.complexity import consensus_budget, ea_round_messages
from repro.checking import Explorer
from repro.orchestration import parallel
from repro.orchestration.config import RunConfig
from repro.orchestration.kernel import KernelContext, default_context
from repro.orchestration.matrix import ScenarioMatrix
from repro.profiling import SweepProfiler
from repro.store.cache import ResultCache
from repro.store.shards import ShardFolder, matrix_order

from .counts import EA_TAGS, RB_TAGS, CellCounts, DriftStore
from .hostspeed import HostSpeed
from .tracing import SpanRecorder, traced_calls

TOPOLOGIES = ("single_bisource", "fully_timely", "fully_asynchronous")
ADVERSARIES = ("crash", "two_faced:evil", "mute_coord", "collude:evil",
               "spam_decide", "noise")
#: Topologies in which every correct process must decide.
MUST_DECIDE = ("single_bisource", "fully_timely")

#: Input sizes per ``--size``: ``full`` is the benchmark, ``tiny`` the
#: smoke-test shape of the same code paths.
SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "sweep": dict(sizes=((4, 1), (7, 2), (10, 3)), topologies=TOPOLOGIES,
                      adversaries=ADVERSARIES, value_counts=(1, 2), seeds=4),
        "store": dict(sizes=((4, 1),), topologies=TOPOLOGIES,
                      adversaries=ADVERSARIES, value_counts=(1, 2), seeds=28),
        "check_budget": 40,
        "check_models": 2,
    },
    "tiny": {
        "sweep": dict(sizes=((4, 1),), topologies=TOPOLOGIES,
                      adversaries=("crash", "two_faced:evil"),
                      value_counts=(1, 2), seeds=1),
        "store": dict(sizes=((4, 1),), topologies=TOPOLOGIES[:2],
                      adversaries=("crash", "two_faced:evil"),
                      value_counts=(2,), seeds=3),
        "check_budget": 4,
        "check_models": 1,
    },
}

#: Shards one store-resume pass is split into.
STORE_SHARDS = 4
MODES = ("plain", "spans", "profile")


@dataclass
class Context:
    """Everything one run needs: where to write, what to run, how."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    size: str
    drift: DriftStore
    #: Reference-loop samples between the work items of the timed passes
    #: and of the set-up.
    host: HostSpeed = field(default_factory=HostSpeed)
    setup_host: HostSpeed = field(default_factory=HostSpeed)
    #: Called once set-up is done, before the first pass (tests use it
    #: to damage the store).
    after_setup: Callable[["Context"], None] | None = None


@dataclass
class Outcome:
    """What a workload reports back to ``run.py``."""

    #: Raw seconds of the workload's own set-up (the import is timed by
    #: ``run.py``).
    setup_s: float = 0.0
    throughput_per_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Workload-specific figures printed by name (not in the JSON line).
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    counts: dict[str, Any] = field(default_factory=dict)
    recorders: dict[str, SpanRecorder] = field(default_factory=dict)

    def check(self, ok: bool, reason: str) -> bool:
        """Count one checked output; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(reason)
        return ok


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method), 0 for no samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn: Callable[[], Any], host: HostSpeed) -> tuple[Any, float]:
    """``fn()`` and its duration, less the reference samples it took."""
    paused = host.paused_s
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start - (host.paused_s - paused)


def _timed_pass(
    fn: Callable[[], Any],
    host: HostSpeed,
    mode: str,
    recorder: SpanRecorder,
    workload: str,
    on_return: dict[str, Callable[[Any], None]] | None = None,
) -> tuple[Any, float]:
    """``_timed(fn)``, inside the span wrappers on a ``spans`` pass."""
    if mode != "spans":
        return _timed(fn, host)
    with traced_calls(recorder, workload, on_return=on_return):
        return _timed(fn, host)


def _keep_tags(captured: dict[str, Any]) -> dict[str, Callable[[Any], None]]:
    """Park each scenario run's per-tag message counts in ``captured``."""
    def keep(run: Any) -> None:
        captured["tags"] = dict(run.sent_by_tag)
    return {"runner.run_consensus": keep}


def _schedule(ctx: Context, warmup: bool = False) -> Iterator[tuple[int, str]]:
    """Pass ``(index, mode)`` pairs until ``ctx.seconds`` have elapsed.

    At least one pass runs (one of each mode when tracing); index -1 is
    the untimed warm-up pass.
    """
    index = -1 if warmup else 0
    minimum = len(MODES) if ctx.trace else 1
    started = time.perf_counter()
    while True:
        yield index, "plain" if index < 0 else _mode(ctx, index)
        if index < 0:
            started = time.perf_counter()
        index += 1
        if index >= minimum and time.perf_counter() - started >= ctx.seconds:
            return


def _mode(ctx: Context, index: int) -> str:
    return MODES[index % len(MODES)] if ctx.trace else "plain"


def _matrix(grid: dict[str, Any], seed: int) -> ScenarioMatrix:
    return ScenarioMatrix(
        sizes=grid["sizes"], topologies=grid["topologies"],
        adversaries=grid["adversaries"], value_counts=grid["value_counts"],
        seeds=range(grid["seeds"]), base_seed=seed,
    )


def _check_outcome(result: Outcome, outcome: Any) -> None:
    spec = outcome.spec
    result.check(
        outcome.error is None and outcome.invariants_ok
        and (outcome.decided or spec.topology not in MUST_DECIDE),
        f"{spec.cell_id} seed {spec.seed}: error={outcome.error} "
        f"invariants_ok={outcome.invariants_ok} decided={outcome.decided}",
    )


# ----------------------------------------------------------------------
# Per-layer figures
# ----------------------------------------------------------------------
def _profile_layers(profiler: SweepProfiler) -> dict[str, float]:
    """RB/EA shares and per-event costs from the profiler's per-tag
    attribution; shares are of all attributed simulator event time."""
    labels = profiler.sim_labels
    event_time = sum(stat.seconds for stat in labels.values())

    def share(tags: tuple[str, ...]) -> float:
        spent = sum(labels[f"tag:{tag}"].seconds for tag in tags
                    if f"tag:{tag}" in labels)
        return spent / event_time if event_time else 0.0

    def per_call_us(label: str) -> float:
        stat = labels.get(label)
        return stat.seconds / stat.calls * 1e6 if stat and stat.calls else 0.0

    return {
        "broadcast.rb_time_share": share(RB_TAGS),
        "broadcast.rb_init_us": per_call_us("tag:RB_INIT"),
        "broadcast.rb_echo_us": per_call_us("tag:RB_ECHO"),
        "broadcast.rb_ready_us": per_call_us("tag:RB_READY"),
        "core.ea_time_share": share(EA_TAGS),
        "core.task_step_us": per_call_us("Task._step"),
    }


def _unattributed(profiler: SweepProfiler) -> dict[str, float]:
    """Sweep wall time no harness phase of the profiler accounts for."""
    covered = profiler.coverage() if profiler.wall_seconds > 0 else 1.0
    return {"parallel.unattributed_share": max(0.0, 1.0 - covered)}


def _span_means(recorder: SpanRecorder, metrics: dict[str, tuple[str, float]]) -> dict[str, float]:
    """``metric -> mean span duration`` (``span name, scale`` per metric)
    for the spans that fired at all."""
    return {
        metric: recorder.stats[span].mean_total() * scale
        for metric, (span, scale) in metrics.items()
        if span in recorder.stats and recorder.stats[span].calls
    }


def _kernel_layers(recorder: SpanRecorder, kernel_span: str, events: int) -> dict[str, float]:
    """Per-call costs of the layers every scenario run goes through."""
    layers = _span_means(recorder, {
        "analysis.verify_us": ("analysis.verify_consensus_run", 1e6),
        "runner.build_runtime_us": ("runner.build_runtime", 1e6),
        "matrix.build_config_us": ("matrix.build_config", 1e6),
        "matrix.summarize_us": ("matrix.summarize_run", 1e6),
        "store.cache_put_us": ("store.cache_put", 1e6),
    })
    stat = recorder.stats.get(kernel_span)
    if stat is not None and events:
        layers["sim.us_per_event"] = stat.self_time / events * 1e6
    return layers


def _store_layers(recorder: SpanRecorder) -> dict[str, float]:
    return _span_means(recorder, {
        "matrix.expand_ms": ("matrix.expand", 1e3),
        "store.cache_get_us": ("store.cache_get", 1e6),
        "store.key_us": ("store.scenario_key", 1e6),
    })


def _count_layers(counts: CellCounts) -> dict[str, float]:
    """Per-run counts from one pass's count table."""
    cells = list(counts.cells.values())
    runs = sum(c["runs"] for c in cells)
    if not runs:
        return {}
    rounds = sum(c["rounds"] for c in cells)
    messages = sum(c["messages"] for c in cells)
    rb = sum(c["tags"].get(tag, 0) for c in cells for tag in RB_TAGS)
    ea = sum(c["tags"].get(tag, 0) for c in cells for tag in EA_TAGS)
    ea_budget = sum(c["rounds"] * ea_round_messages(c["n"]) for c in cells)
    return {
        "sim.events_per_run": sum(c["events"] for c in cells) / runs,
        "net.messages_per_run": messages / runs,
        "net.budget_ratio": messages / sum(c["budget"] for c in cells),
        "broadcast.rb_messages_per_run": rb / runs,
        "core.rounds_per_run": rounds / runs,
        "core.ea_messages_per_round": ea / rounds if rounds else 0.0,
        "core.ea_budget_ratio": ea / ea_budget if ea_budget else 0.0,
    }


class _PoolReuse:
    """Freelist reuse share of a :class:`~repro.sim.pool.ObjectPools`
    over a window."""

    def __init__(self, pools: Any) -> None:
        self.pools = pools
        self.created = pools.created_total()
        self.reused = pools.reused_total()

    def ratio(self) -> float:
        created = self.pools.created_total() - self.created
        reused = self.pools.reused_total() - self.reused
        return reused / (created + reused) if created + reused else 0.0


def _overheads(items: dict[str, list[list[float]]]) -> dict[str, float]:
    """Tracing overhead: the median over items (scenarios, shards,
    executions) of an item's traced latency over its untraced latency,
    minus 1; each latency is the item's median over the passes of that
    mode."""
    def typical(mode: str) -> list[float]:
        return [statistics.median(column) for column in zip(*items[mode])]

    plain = typical("plain")
    return {
        f"trace.{mode}_overhead_share": statistics.median(
            traced / untraced for traced, untraced in zip(typical(mode), plain)
        ) - 1.0
        for mode in ("spans", "profile")
    }


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
def sweep_cold(ctx: Context) -> Outcome:
    """``sweep_serial`` of the mixed n=4..10 grid into a fresh store,
    then ``write_jsonl`` — what ``repro sweep --workers 1`` does."""
    grid = SIZES[ctx.size]["sweep"]
    host = ctx.host
    result = Outcome()

    def setup() -> ScenarioMatrix:
        matrix = _matrix(grid, ctx.seed)
        matrix.expand()
        ResultCache(ctx.work / "cold-setup").root.mkdir(parents=True)
        return matrix

    matrix, result.setup_s = _timed(setup, ctx.setup_host)
    total = len(matrix.expand())
    if ctx.after_setup is not None:
        ctx.after_setup(ctx)

    recorder = SpanRecorder()
    profiler = SweepProfiler()
    reuse = _PoolReuse(default_context().pools)
    items: dict[str, list[list[float]]] = {mode: [] for mode in MODES}
    reference: dict[str, Any] | None = None
    plain_walls: list[float] = []
    span_counts = CellCounts()
    span_events = 0
    lookups = [0, 0]  # hits, lookups
    jsonl_bytes = 0
    for index, mode in _schedule(ctx):
        cache = ResultCache(ctx.work / f"cold-{index}")
        jsonl = ctx.work / f"cold-{index}.jsonl"
        use = profiler if mode == "profile" else None
        counts = CellCounts()
        latencies: list[float] = []
        last = [0.0]
        captured: dict[str, Any] = {}

        def on_result(outcome: Any) -> None:
            latencies.append(time.perf_counter() - last[0])
            counts.add_outcome(outcome, captured.pop("tags", None))
            recorder.item += 1
            host.tick()
            last[0] = time.perf_counter()

        def one_pass() -> Any:
            last[0] = time.perf_counter()
            swept = parallel.sweep_serial(
                matrix, on_result=on_result, cache=cache, profiler=use
            )
            swept.write_jsonl(jsonl, profiler=use)
            return swept

        swept, wall = _timed_pass(one_pass, host, mode, recorder, "sweep-cold",
                                  _keep_tags(captured))
        if mode == "spans":
            span_counts = counts
            span_events += sum(c["events"] for c in counts.cells.values())
        items[mode].append(latencies)
        if mode == "plain":
            result.latencies_s.extend(latencies)
            plain_walls.append(wall)
        lookups[0] += cache.stats.hits
        lookups[1] += cache.stats.hits + cache.stats.misses
        result.check(swept.executed == total and swept.cache_hits == 0,
                     f"pass {index}: executed {swept.executed} of {total}")
        for outcome in swept.outcomes:
            _check_outcome(result, outcome)
        written = jsonl.read_bytes()
        jsonl_bytes = len(written)
        records = written.count(b"\n")
        result.check(records == total,
                     f"pass {index}: {records} JSONL records of {total}")
        base = {"cells": counts.base(), "jsonl_bytes": jsonl_bytes}
        if reference is None:
            reference = base
            result.check(ctx.drift.check("base", base),
                         "count table differs from an earlier run of this code")
        else:
            result.check(base == reference, f"pass {index}: count table drifted")
        shutil.rmtree(cache.root, ignore_errors=True)

    # Work over the whole measured time: it averages a host whose speed
    # drifts within a run, where a median of passes would snap to one speed.
    result.throughput_per_s = total / statistics.fmean(plain_walls)
    result.named = {
        "scenarios_per_s": (result.throughput_per_s, "1/s"),
        "scenario_p50_ms": (percentile(result.latencies_s, 50) * 1e3, "ms"),
        "scenario_p95_ms": (percentile(result.latencies_s, 95) * 1e3, "ms"),
        "latency_samples": (len(result.latencies_s), "count"),
        "timed_passes": (len(plain_walls), "count"),
    }
    if ctx.trace:
        result.check(ctx.drift.check("tags", span_counts.tags()),
                     "per-tag message counts differ from an earlier run")
        write = recorder.stats.get("store.write_jsonl")
        result.layers = {
            **_count_layers(span_counts),
            **_kernel_layers(recorder, "sim.run_until_complete", span_events),
            **_store_layers(recorder),
            **_profile_layers(profiler),
            **_unattributed(profiler),
            **_overheads(items),
            "sim.pool_reuse_ratio": reuse.ratio(),
            "store.hit_ratio": lookups[0] / lookups[1] if lookups[1] else 0.0,
            "store.write_jsonl_us": (write.mean_total() / total * 1e6
                                     if write else 0.0),
            "store.bytes_per_record": jsonl_bytes / total,
        }
        result.counts = {"cells": span_counts.table(), "jsonl_bytes": jsonl_bytes}
        result.recorders = {"spans": recorder}
    return result


# ----------------------------------------------------------------------
# store-resume
# ----------------------------------------------------------------------
def store_resume(ctx: Context) -> Outcome:
    """Resume a fully cached n=4 grid as four shards from a fresh store
    handle, write each shard, fold them in matrix order and write the
    merged file; it must equal the cold reference byte for byte."""
    grid = SIZES[ctx.size]["store"]
    host = ctx.host
    result = Outcome()
    store = ctx.work / "store"

    # Set-up: expansion, the cold prefill and the reference JSONL.  The
    # traced run prefills inside the span wrappers; that is where its
    # kernel-side figures and ``store.cache_put_us`` come from.
    prefill_recorder = SpanRecorder()
    prefill_counts = CellCounts()
    reuse = _PoolReuse(default_context().pools)
    captured: dict[str, Any] = {}
    reference_path = ctx.work / "reference.jsonl"

    def on_prefill(outcome: Any) -> None:
        prefill_counts.add_outcome(outcome, captured.pop("tags", None))
        ctx.setup_host.tick()

    def setup() -> tuple[ScenarioMatrix, Any]:
        matrix = _matrix(grid, ctx.seed)
        swept = parallel.sweep_serial(matrix, cache=ResultCache(store),
                                      on_result=on_prefill)
        swept.write_jsonl(reference_path)
        return matrix, swept

    (matrix, swept), result.setup_s = _timed_pass(
        setup, ctx.setup_host, "spans" if ctx.trace else "plain", prefill_recorder,
        "store-resume", _keep_tags(captured),
    )
    prefill_events = sum(c["events"] for c in prefill_counts.cells.values())
    cold = swept.outcomes
    reference = reference_path.read_bytes()
    total = len(matrix.expand())
    result.check(len(cold) == total, f"prefill ran {len(cold)} of {total}")
    for outcome in cold:
        _check_outcome(result, outcome)
    result.check(ctx.drift.check("prefill", prefill_counts.base()),
                 "prefill count table differs from an earlier run of this code")
    if ctx.after_setup is not None:
        ctx.after_setup(ctx)

    recorder = SpanRecorder()
    profiler = SweepProfiler()
    items: dict[str, list[list[float]]] = {mode: [] for mode in MODES}
    plain_walls: list[float] = []
    lookups = [0, 0]  # hits, lookups over every resume pass
    for index, mode in _schedule(ctx, warmup=True):
        use = profiler if mode == "profile" else None
        cache = ResultCache(store)
        latencies: list[float] = []

        def one_pass() -> bytes:
            paths = []
            for shard in range(1, STORE_SHARDS + 1):
                begin = time.perf_counter()
                specs = parallel.shard_slice(matrix, shard, STORE_SHARDS)
                swept = parallel.sweep_serial(specs, cache=cache, profiler=use)
                paths.append(swept.write_jsonl(
                    ctx.work / f"shard-{shard}.jsonl", profiler=use
                ))
                latencies.append(time.perf_counter() - begin)
                host.tick()
                result.check(
                    swept.executed == 0 and swept.cache_hits == len(specs),
                    f"pass {index} shard {shard}: {swept.executed} scenarios "
                    f"re-executed, {swept.cache_hits} of {len(specs)} served",
                )
            folder = ShardFolder()
            for path in paths:
                folder.add_shard(path)
            merged = folder.result(order=matrix_order)
            return merged.write_jsonl(ctx.work / "merged.jsonl").read_bytes()

        merged, wall = _timed_pass(one_pass, host, mode, recorder, "store-resume")
        host.tick()
        result.check(merged == reference,
                     f"pass {index}: merged JSONL differs from the cold reference")
        lookups[0] += cache.stats.hits
        lookups[1] += cache.stats.hits + cache.stats.misses
        if index < 0:
            continue
        items[mode].append(latencies)
        if mode == "plain":
            result.latencies_s.extend(latencies)
            plain_walls.append(wall)

    result.throughput_per_s = total / statistics.fmean(plain_walls)
    hit_ratio = lookups[0] / lookups[1] if lookups[1] else 0.0
    result.check(ctx.drift.check("merged_bytes", len(reference)),
                 "merged JSONL size differs from an earlier run of this code")
    result.named = {
        "scenarios_per_s": (result.throughput_per_s, "1/s"),
        "shard_resume_p50_ms": (percentile(result.latencies_s, 50) * 1e3, "ms"),
        "shard_resume_p95_ms": (percentile(result.latencies_s, 95) * 1e3, "ms"),
        "latency_samples": (len(result.latencies_s), "count"),
        "cells": (total, "count"),
        "timed_passes": (len(plain_walls), "count"),
        "hit_ratio": (hit_ratio, "ratio"),
    }
    if ctx.trace:
        result.check(ctx.drift.check("tags", prefill_counts.tags()),
                     "per-tag message counts differ from an earlier run")
        spans_passes = len(items["spans"])
        stats = recorder.stats
        write = stats.get("store.write_jsonl")
        merge_s = sum(stats[name].total for name in
                      ("store.merge_add_shard", "store.merge_result") if name in stats)
        # Per pass: every record is written twice (its shard, the merged
        # file) and folded once.
        result.layers = {
            **_count_layers(prefill_counts),
            **_kernel_layers(prefill_recorder, "sim.run_until_complete", prefill_events),
            **_store_layers(recorder),
            **_unattributed(profiler),
            **_overheads(items),
            "sim.pool_reuse_ratio": reuse.ratio(),
            "store.hit_ratio": hit_ratio,
            "store.write_jsonl_us": (write.total / (2 * total * spans_passes) * 1e6
                                     if write else 0.0),
            "store.merge_us": merge_s / (total * spans_passes) * 1e6,
            "store.bytes_per_record": len(reference) / total,
        }
        result.counts = {"prefill_cells": prefill_counts.table(),
                         "merged_bytes": len(reference), "records": total}
        result.recorders = {"prefill-spans": prefill_recorder, "spans": recorder}
    return result


# ----------------------------------------------------------------------
# check-byz
# ----------------------------------------------------------------------
def check_models(seed: int) -> list[tuple[str, RunConfig]]:
    """One exploration round: n=4, t=1, FIFO channels, one consensus
    round and one ``two_faced`` process, which equivocates towards even
    pids.  The round holds one model with the Byzantine process at an
    odd pid and one at an even pid (the two shapes of the search space);
    the seed picks both pids, their order and, for each, the split of
    two distinct correct proposals."""
    rng = random.Random(seed)
    pids = [rng.choice((1, 3)), rng.choice((2, 4))]
    rng.shuffle(pids)
    models = []
    for byz in pids:
        correct = [pid for pid in (1, 2, 3, 4) if pid != byz]
        minority = rng.choice(correct)
        majority, other = rng.sample(("a", "b"), 2)
        proposals = {pid: other if pid == minority else majority
                     for pid in correct}
        models.append((
            f"byz{byz}-{majority}-except-p{minority}",
            RunConfig(n=4, t=1, proposals=proposals,
                      adversaries={byz: two_faced("z", proposal=majority)},
                      max_rounds=1, fifo=True),
        ))
    return models


def check_byz(ctx: Context) -> Outcome:
    """``Explorer.run()`` with a fixed execution budget over the round of
    Byzantine models, ``minimize=False``; no violation may be found."""
    budget = SIZES[ctx.size]["check_budget"]
    shapes = SIZES[ctx.size]["check_models"]
    host = ctx.host
    result = Outcome()

    def setup() -> list[tuple[str, RunConfig]]:
        models = check_models(ctx.seed)[:shapes]
        for _, config in models:
            Explorer(config, max_executions=budget, minimize=False)
        return models

    models, result.setup_s = _timed(setup, ctx.setup_host)
    if ctx.after_setup is not None:
        ctx.after_setup(ctx)

    recorder = SpanRecorder()
    profiler = SweepProfiler()
    kernel = KernelContext()
    reuse = _PoolReuse(kernel.pools)
    items: dict[str, list[list[float]]] = {mode: [] for mode in MODES}
    reference: dict[str, Any] | None = None
    plain_walls: list[float] = []
    span_tags: dict[str, int] = {}
    span_runs = [0, 0, 0, 0]  # executions, messages, rounds, budget
    for index, mode in _schedule(ctx):
        stats: dict[str, Any] = {}
        latencies: list[float] = []
        last = [0.0]
        frames: list[Any] = []
        tags: dict[str, int] = {}
        runs = [0, 0, 0, 0]

        def on_execution(model: str) -> Callable[[tuple[int, ...], Any], None]:
            def seen(prefix: tuple[int, ...], run: Any) -> None:
                latencies.append(time.perf_counter() - last[0])
                recorder.item += 1
                result.check(
                    run.status not in ("violation", "divergence", "steps"),
                    f"{model} schedule {list(prefix)}: {run.status} "
                    f"{[str(v) for v in run.violations]}",
                )
                if frames:
                    frame = frames.pop()
                    runs[0] += 1
                    runs[1] += frame.network.messages_sent
                    rounds = max((c.rounds_executed
                                  for c in frame.consensi.values()), default=0)
                    runs[2] += rounds
                    runs[3] += consensus_budget(4, 1, rounds).total
                    for tag, count in frame.network.sent_by_tag.items():
                        tags[tag] = tags.get(tag, 0) + count
                host.tick()
                last[0] = time.perf_counter()
            return seen

        def one_round() -> None:
            for model, config in models:
                context = kernel if mode == "profile" else None
                if context is not None:
                    kernel.profiler = profiler
                    profiler.start()
                last[0] = time.perf_counter()
                explored = Explorer(
                    config, context=context, max_executions=budget,
                    minimize=False, on_execution=on_execution(model),
                ).run()
                if context is not None:
                    profiler.stop()
                    kernel.profiler = None
                result.check(explored.verdict == "ok",
                             f"{model}: verdict {explored.verdict} "
                             f"{list(explored.violations)}")
                stats[model] = explored.stats.as_dict()

        _, wall = _timed_pass(one_round, host, mode, recorder, "check-byz",
                              {"runner.build_runtime": frames.append})
        if mode == "spans":
            span_tags, span_runs = tags, runs
        items[mode].append(latencies)
        if mode == "plain":
            plain_walls.append(wall)
            result.latencies_s.extend(latencies)
        if reference is None:
            reference = stats
            result.check(ctx.drift.check("explorations", stats),
                         "checker counts differ from an earlier run of this code")
        else:
            result.check(stats == reference, f"round {index}: checker counts drifted")

    totals = {key: sum(s[key] for s in reference.values())
              for key in ("executions", "states", "steps", "deduped",
                          "pruned", "choice_points")}
    plain_wall = statistics.fmean(plain_walls)
    result.throughput_per_s = totals["states"] / plain_wall
    result.named = {
        "states_per_s": (result.throughput_per_s, "1/s"),
        "executions_per_s": (totals["executions"] / plain_wall, "1/s"),
        "execution_p50_ms": (percentile(result.latencies_s, 50) * 1e3, "ms"),
        "execution_p95_ms": (percentile(result.latencies_s, 95) * 1e3, "ms"),
        "latency_samples": (len(result.latencies_s), "count"),
        "timed_rounds": (len(plain_walls), "count"),
    }
    if ctx.trace:
        result.check(ctx.drift.check("tags", span_tags),
                     "per-tag message counts differ from an earlier run")
        executions = totals["executions"]
        runs, messages, rounds, message_budget = span_runs
        rb = sum(span_tags.get(tag, 0) for tag in RB_TAGS)
        ea = sum(span_tags.get(tag, 0) for tag in EA_TAGS)
        steps = recorder.stats.get("sim.step")
        choices = totals["pruned"] + totals["choice_points"]
        result.layers = {
            **_kernel_layers(recorder, "sim.step", steps.calls if steps else 0),
            **_profile_layers(profiler),
            **_overheads(items),
            "sim.events_per_run": totals["steps"] / executions,
            "sim.pool_reuse_ratio": reuse.ratio(),
            "net.messages_per_run": messages / runs if runs else 0.0,
            "net.budget_ratio": messages / message_budget if message_budget else 0.0,
            "broadcast.rb_messages_per_run": rb / runs if runs else 0.0,
            "core.rounds_per_run": rounds / runs if runs else 0.0,
            "core.ea_messages_per_round": ea / rounds if rounds else 0.0,
            "core.ea_budget_ratio": (ea / (rounds * ea_round_messages(4))
                                     if rounds else 0.0),
            "checking.execution_ms": percentile(result.latencies_s, 50) * 1e3,
            "checking.steps_per_execution": totals["steps"] / executions,
            "checking.us_per_step": plain_wall / totals["steps"] * 1e6,
            "checking.states_per_execution": totals["states"] / executions,
            "checking.dedup_ratio": totals["deduped"] / executions,
            "checking.prune_ratio": totals["pruned"] / choices if choices else 0.0,
            **_span_means(recorder, {
                "checking.fingerprint_us": ("checking.state_fingerprint", 1e6),
            }),
        }
        result.counts = {"explorations": reference, "totals": totals,
                         "messages_by_tag": span_tags}
        result.recorders = {"spans": recorder}
    return result


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "sweep-cold": sweep_cold,
    "store-resume": store_resume,
    "check-byz": check_byz,
}
