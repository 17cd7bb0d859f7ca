"""Span recording around the public calls of each layer (traced runs only).

The traced run wraps public functions and methods of ``repro`` for the
duration of one run and restores them afterwards; nothing under ``src/``
is edited and the timed runs never see a wrapper.  Each wrapped call is
a span: ``(name, start, end, parent, item)``, where ``item`` is the
scenario or execution the span belongs to.  Spans stay in memory and
are written out once, at the end of the run.

Self time is a span's duration minus the time its traced children
cover.  Hot calls (one per simulator event) are *aggregated* instead of
recorded: they still count as children of their parent and still get
totals, but they add no record.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class SpanStats:
    """Totals for one span name."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0

    def mean_total(self) -> float:
        return self.total / self.calls if self.calls else 0.0


class SpanRecorder:
    """In-memory span store with per-name totals and self times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Recorded spans: (id, name, start, end, parent id, item).
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.stats: dict[str, SpanStats] = {}
        #: The scenario / execution the next spans belong to.
        self.item = 0
        # Open frames: [span id, name, start, time covered by children].
        self._stack: list[list[Any]] = []
        self._next_id = 1

    def stat(self, name: str) -> SpanStats:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStats()
        return stat

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        record: bool = True,
        on_return: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name``; ``on_return`` sees
        each return value (to read counts off a finished run)."""
        stack = self._stack
        clock = self.clock
        stat = self.stat(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                value = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(value)
                return value
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if record:
                    parent = stack[-1][0] if stack else 0
                    self.spans.append(
                        (span_id, name, frame[2], end, parent, self.item)
                    )

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def write(self, path: Path) -> Path:
        """Write every recorded span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, item in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item,
                }) + "\n")
        return path


# (owner, attribute, span name, record each call?)
_SWEEP_TARGETS = (
    ("repro.orchestration.parallel", "sweep_serial", "parallel.sweep_serial", True),
    ("repro.orchestration.matrix:ScenarioMatrix", "expand", "matrix.expand", True),
    ("repro.orchestration.matrix", "build_config", "matrix.build_config", True),
    ("repro.orchestration.matrix", "run_consensus", "runner.run_consensus", True),
    ("repro.orchestration.matrix", "summarize_run", "matrix.summarize_run", True),
    ("repro.orchestration.runner", "build_runtime", "runner.build_runtime", True),
    ("repro.orchestration.runner", "verify_consensus_run", "analysis.verify_consensus_run", True),
    ("repro.sim.loop:Simulator", "run_until_complete", "sim.run_until_complete", True),
    ("repro.store.resume", "plan_resume", "store.plan_resume", True),
    ("repro.store.cache:ResultCache", "get", "store.cache_get", True),
    ("repro.store.cache:ResultCache", "put", "store.cache_put", True),
    ("repro.store.cache", "scenario_key", "store.scenario_key", True),
    ("repro.store.shards", "scenario_key", "store.scenario_key", True),
    ("repro.orchestration.parallel:SweepResult", "write_jsonl", "store.write_jsonl", True),
    ("repro.store.shards:MergeResult", "write_jsonl", "store.write_jsonl", True),
    ("repro.store.shards:ShardFolder", "add_shard", "store.merge_add_shard", True),
    ("repro.store.shards:ShardFolder", "result", "store.merge_result", True),
)

_CHECK_TARGETS = (
    ("repro.checking.explorer:Explorer", "run", "checking.explorer_run", True),
    ("repro.checking.explorer", "execute_run", "checking.execute_run", True),
    ("repro.checking.explorer", "state_fingerprint", "checking.state_fingerprint", True),
    ("repro.checking.harness", "build_runtime", "runner.build_runtime", True),
    ("repro.checking.harness", "verify_consensus_run", "analysis.verify_consensus_run", False),
    ("repro.sim.loop:Simulator", "step", "sim.step", False),
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


@contextmanager
def traced_calls(
    recorder: SpanRecorder,
    workload: str,
    on_return: dict[str, Callable[[Any], None]] | None = None,
) -> Iterator[SpanRecorder]:
    """Install span wrappers for ``workload``'s layers; restore on exit.

    ``on_return`` maps span names to callbacks that see the wrapped
    call's return value.
    """
    targets = _CHECK_TARGETS if workload == "check-byz" else _SWEEP_TARGETS
    on_return = on_return or {}
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name, record in targets:
            obj = _resolve(owner)
            original = obj.__dict__[attribute] if isinstance(obj, type) else getattr(obj, attribute)
            saved.append((obj, attribute, original))
            setattr(obj, attribute, recorder.wrap(
                name, original, record=record, on_return=on_return.get(name)
            ))
        yield recorder
    finally:
        for obj, attribute, original in reversed(saved):
            setattr(obj, attribute, original)
