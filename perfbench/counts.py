"""The deterministic per-layer count table and its drift check.

Counts (events, messages by tag, rounds, bytes per record, checker
states, executions and steps) depend only on the code and the workload
seed.  The bench therefore demands that they repeat exactly: within a
run every pass must produce the table of the first, and across runs of
one code version the table must match the one stored by the first run.

The stored tables live in ``.perfbench_state/`` at the checkout root,
keyed by workload, seed, size and a digest of the ``src`` and
``perfbench`` sources, so a code change starts a fresh table instead of
reporting drift.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.analysis.complexity import (
    consensus_budget,
    ea_round_messages,
    rb_instance_messages,
)

RB_TAGS = ("RB_INIT", "RB_ECHO", "RB_READY")
EA_TAGS = ("EA_PROP2", "EA_COORD", "EA_RELAY")


def source_digest(root: Path) -> str:
    """SHA-256 over every Python source of the program and the bench."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if "/tests/" in rel:
                continue
            digest.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class CellCounts:
    """Per ``(n, t, adversary)`` sums over the runs of one pass."""

    def __init__(self) -> None:
        self.cells: dict[str, dict[str, Any]] = {}

    def add_outcome(self, outcome: Any, tags: dict[str, int] | None = None) -> None:
        spec = outcome.spec
        key = f"n{spec.n}/t{spec.t}/{spec.adversary}"
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = {
                "n": spec.n, "t": spec.t, "runs": 0, "events": 0,
                "messages": 0, "rounds": 0, "budget": 0, "tags": {},
            }
        cell["runs"] += 1
        cell["events"] += outcome.events_processed
        cell["messages"] += outcome.messages_sent
        cell["rounds"] += outcome.max_round
        cell["budget"] += consensus_budget(spec.n, spec.t, outcome.max_round).total
        if tags is not None:
            for tag, count in tags.items():
                cell["tags"][tag] = cell["tags"].get(tag, 0) + count

    def base(self) -> dict[str, Any]:
        """The clock-free counts every run can compare (no tag split)."""
        return {
            key: {k: v for k, v in cell.items() if k != "tags"}
            for key, cell in sorted(self.cells.items())
        }

    def tags(self) -> dict[str, Any]:
        return {key: dict(sorted(cell["tags"].items()))
                for key, cell in sorted(self.cells.items())}

    def table(self) -> list[dict[str, Any]]:
        """Per-cell counts set against ``analysis.complexity``.

        ``rb_instances_per_run`` is RB sends over ``rb_instance_messages(n)``: how
        many fully participated RB instances the traffic is worth.
        ``ea_round_ratio`` is plain EA sends over ``rounds *
        ea_round_messages(n)``; ``budget_ratio`` is all sends over the
        ``consensus_budget`` of the rounds actually run.
        """
        rows = []
        for key, cell in sorted(self.cells.items()):
            n, runs = cell["n"], cell["runs"]
            tags = cell["tags"]
            rb = sum(tags.get(tag, 0) for tag in RB_TAGS)
            ea = sum(tags.get(tag, 0) for tag in EA_TAGS)
            rows.append({
                "cell": key,
                "runs": runs,
                "events_per_run": cell["events"] / runs,
                "messages_per_run": cell["messages"] / runs,
                "rounds_per_run": cell["rounds"] / runs,
                "messages_by_tag_per_run": {
                    tag: count / runs for tag, count in tags.items()
                },
                "rb_instances_per_run": rb / rb_instance_messages(n) / runs,
                "ea_round_ratio": (
                    ea / (cell["rounds"] * ea_round_messages(n))
                    if cell["rounds"] else 0.0
                ),
                "budget_ratio": cell["messages"] / cell["budget"],
            })
        return rows


class DriftStore:
    """First-run reference counts, compared by every later run."""

    def __init__(
        self,
        root: Path,
        workload: str,
        seed: int,
        size: str,
        state_dir: Path | None = None,
    ) -> None:
        state = root / ".perfbench_state" if state_dir is None else state_dir
        self.path = state / f"{workload}-s{seed}-{size}-{source_digest(root)}.json"

    def check(self, section: str, counts: Any) -> bool:
        """True when ``counts`` match the stored ``section`` (storing it
        on first sight); False on drift."""
        # Round-trip through JSON so tuples and int keys compare as stored.
        counts = json.loads(json.dumps(counts, sort_keys=True))
        stored: dict[str, Any] = {}
        if self.path.exists():
            stored = json.loads(self.path.read_text(encoding="utf-8"))
        if section in stored:
            return stored[section] == counts
        stored[section] = counts
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(stored, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
        return True
