"""Bounded-DFS exhaustive exploration of the small-model schedule space.

The explorer re-executes schedules (stateless model checking): a DFS
*stack entry* is ``(prefix, sleep)`` — replay the choice prefix, then
descend first-candidate, pushing one sibling entry per unexplored
alternative at every choice point passed.  Runs are cheap (a few hundred
events) and the kernel is deterministic, so re-execution beats
snapshotting process state.

Two classic reductions keep the tree tractable:

* **Visited-state dedup** — a SHA-256 fingerprint of the semantic global
  state (:mod:`repro.checking.fingerprint`) at every newly reached
  *branching* choice point (a lone candidate is a forced move: the
  corridor to the next branch is deterministic, so fingerprinting it
  buys nothing); re-reaching a fingerprint aborts the run.  Sound
  because the kernel is deterministic: the subtree under an equal state
  is equal.
* **Sleep sets** — after exploring delivery ``c`` at a node, the sibling
  branches carry ``c`` in their sleep set: delivering an *independent*
  message first and ``c`` second commutes with the explored order, so
  branches that would only re-derive it are pruned.  Two deliveries are
  dependent iff they target the same process (handlers touch only their
  own process's state; sends commute into the sorted pending multiset).
  Sleep members are dropped when a dependent delivery executes.

The two interact: a sleep set *restricts* what a visit explored, so
dedup only aborts when the stored sleep set is a subset of the current
one (the prior visit explored at least as much); otherwise the state is
re-explored and the stored set shrinks to the intersection.

On a violation the raw trail is shrunk by greedy single-choice removal
to a *locally minimal* counterexample: removing any one choice no longer
reproduces the violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from .choice import BaseChooser, ScheduleChooser
from .fingerprint import state_fingerprint
from .harness import DEFAULT_MAX_STEPS, RunAbort, RunOutcome, execute_run

if TYPE_CHECKING:  # pragma: no cover
    from ..orchestration.config import RunConfig
    from ..orchestration.kernel import KernelContext
    from ..sim.handles import EventHandle

__all__ = [
    "CheckResult",
    "CheckStats",
    "ExplorationChooser",
    "Explorer",
    "minimize_counterexample",
]


@dataclass
class CheckStats:
    """Exploration counters (the CLI's explored/deduped/pruned report)."""

    #: Schedules executed (including aborted ones).
    executions: int = 0
    #: Distinct state fingerprints recorded.
    states: int = 0
    #: Branching choice points (two or more candidates) passed across
    #: all executions; forced singleton deliveries are not counted.
    choice_points: int = 0
    #: Executions aborted because their state was already visited.
    deduped: int = 0
    #: Branches never taken thanks to sleep sets / duplicate candidates
    #: (including executions aborted with every candidate slept).
    pruned: int = 0
    #: Executions that ran to all-decided termination.
    completed: int = 0
    #: Executions that drained the queue with undecided processes.
    quiescent: int = 0
    #: Violating executions found.
    violations: int = 0
    #: Simulator events executed across all executions.
    steps: int = 0
    #: Deepest choice point reached.
    max_depth: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "executions": self.executions,
            "states": self.states,
            "choice_points": self.choice_points,
            "deduped": self.deduped,
            "pruned": self.pruned,
            "completed": self.completed,
            "quiescent": self.quiescent,
            "violations": self.violations,
            "steps": self.steps,
            "max_depth": self.max_depth,
        }


@dataclass
class CheckResult:
    """Outcome of one (possibly sharded) exploration."""

    #: ``"ok"`` — no violation found; ``"violation"`` — counterexample
    #: below reproduces one.
    verdict: str
    #: Whether the schedule space was exhausted (no budget tripped and
    #: no violation cut the search short).
    exhausted: bool
    stats: CheckStats
    #: Locally minimal violating schedule (``None`` when verdict is ok).
    counterexample: tuple[int, ...] | None = None
    #: ``str(Violation)`` lines of the counterexample's violating step.
    violations: tuple[str, ...] = ()
    #: Whether the counterexample went through minimization.
    minimized: bool = False
    #: Raw (pre-minimization) violating trail.
    raw_counterexample: tuple[int, ...] | None = None
    #: Visited fingerprints (sharding equivalence checks); empty when
    #: ``keep_states`` was off.
    visited: frozenset[str] = frozenset()

    def as_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "exhausted": self.exhausted,
            "stats": self.stats.as_dict(),
            "counterexample": (
                None if self.counterexample is None else list(self.counterexample)
            ),
            "violations": list(self.violations),
            "minimized": self.minimized,
        }


class ExplorationChooser(BaseChooser):
    """The DFS's working chooser: replay a prefix, then descend
    first-unslept while pushing sibling entries onto the explorer's
    stack (reverse order, so LIFO pops explore them in candidate
    order — the sleep-set accumulation below relies on it)."""

    def __init__(
        self,
        explorer: "Explorer",
        prefix: tuple[int, ...],
        sleep: frozenset,
    ) -> None:
        super().__init__()
        self.fingerprints = explorer.dedup
        self.explorer = explorer
        self.prefix = prefix
        self.sleep = sleep
        self.depth = 0
        self.trail: list[int] = []

    def choose(self, candidates: list["EventHandle"]) -> int:
        explorer = self.explorer
        stats = explorer.stats
        depth = self.depth
        if self.forced(candidates):
            # Forced move (lone candidate, or FIFO left one enabled
            # head): no index, no fingerprint — but the delivery still
            # wakes dependent (same-dest) sleep members, and past the
            # prefix a *slept* forced delivery means this branch can
            # only re-derive an interleaving a sibling order already
            # covered (classic sleep-set leaf).  An empty sleep set has
            # nothing to check or wake, so the key is not even needed.
            sleep = self.sleep
            if sleep:
                key = self.key_of(candidates[0])
                if key in sleep and depth >= len(self.prefix):
                    stats.pruned += 1
                    raise RunAbort("pruned")
                self.sleep = frozenset(k for k in sleep if k[1] != key[1])
            return 0
        self.depth = depth + 1
        stats.choice_points += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if depth < len(self.prefix):
            # Retraced ground: dedup/sleep ran when it was first crossed.
            index = self.prefix[depth]
            self.trail.append(index)
            return index
        if explorer.max_depth is not None and depth >= explorer.max_depth:
            raise RunAbort("depth")
        key_of = self.key_of
        keys = {
            index: key_of(candidates[index])
            for index in self.channel_heads(candidates)
        }
        if explorer.dedup:
            fingerprint = state_fingerprint(
                self.frame, candidates, self.tasks, self.fifo, self.cache
            )
            stored = explorer.visited.get(fingerprint)
            if stored is not None and stored <= self.sleep:
                stats.deduped += 1
                raise RunAbort("deduped")
            explorer.visited[fingerprint] = (
                self.sleep if stored is None else stored & self.sleep
            )
            stats.states = len(explorer.visited)
            if (
                explorer.max_states is not None
                and stats.states > explorer.max_states
            ):
                raise RunAbort("budget")
        sleep = self.sleep
        explorable: list[int] = []
        seen_keys: set = set()
        for index, key in keys.items():
            if key in sleep or key in seen_keys:
                # Slept: covered by an already-explored sibling order.
                # Duplicate key: delivering either copy first leads to
                # fingerprint-identical states.
                stats.pruned += 1
                continue
            seen_keys.add(key)
            explorable.append(index)
        if not explorable:
            raise RunAbort("pruned")
        chosen = explorable[0]
        chosen_key = keys[chosen]
        # Sibling entries: sibling j sleeps on every explorable key that
        # will have been explored before it (the chosen branch and the
        # siblings popped earlier), minus keys dependent on (same dest
        # as) its own first delivery.
        earlier: list = [chosen_key]
        siblings: list[tuple[tuple[int, ...], frozenset]] = []
        base_trail = tuple(self.trail)
        for index in explorable[1:]:
            dest = keys[index][1]
            sibling_sleep = frozenset(
                key for key in sleep.union(earlier) if key[1] != dest
            )
            siblings.append((base_trail + (index,), sibling_sleep))
            earlier.append(keys[index])
        if explorer.prune:
            for entry in reversed(siblings):
                explorer.stack.append(entry)
        else:
            # Pruning disabled: siblings still explored, but with empty
            # sleep sets (plain DFS + dedup).
            for trail, _ in reversed(siblings):
                explorer.stack.append((trail, frozenset()))
        self.sleep = frozenset(
            key for key in sleep if key[1] != chosen_key[1]
        )
        self.trail.append(chosen)
        return chosen


class Explorer:
    """Iterative bounded-DFS over the schedule space of one config.

    Args:
        config: The run configuration (check-mode semantics are forced;
            any ``topology`` is ignored in favour of instant channels).
        context: Optional shared kernel context (pools/bus reuse).
        max_executions: Budget on schedules executed.
        max_depth: Budget on choice points per run.
        max_states: Budget on distinct fingerprints.
        max_steps: Per-run event ceiling (livelock guard).
        prune: Sleep-set partial-order pruning (on by default).
        dedup: Visited-state deduplication (on by default).
        minimize: Shrink counterexamples to local minimality.
        keep_states: Retain the visited fingerprint set on the result.
        progress: Optional callback ``(stats, done)`` invoked every
            ``progress_every`` executions and once at the end.
        on_execution: Optional callback ``(prefix, outcome)`` invoked
            after every execution — the exploration journal the golden
            determinism fixture pins.
        roots: Initial DFS entries as schedule prefixes (sharding);
            default is the single empty prefix.
    """

    def __init__(
        self,
        config: "RunConfig",
        context: "KernelContext | None" = None,
        *,
        max_executions: int | None = None,
        max_depth: int | None = None,
        max_states: int | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        prune: bool = True,
        dedup: bool = True,
        minimize: bool = True,
        keep_states: bool = False,
        progress: Callable[[CheckStats, bool], None] | None = None,
        progress_every: int = 50,
        on_execution: Callable[[tuple[int, ...], RunOutcome], None] | None = None,
        roots: tuple[tuple[int, ...], ...] = ((),),
    ) -> None:
        self.config = config
        self.context = context
        self.max_executions = max_executions
        self.max_depth = max_depth
        self.max_states = max_states
        self.max_steps = max_steps
        self.prune = prune
        self.dedup = dedup
        self.minimize = minimize
        self.keep_states = keep_states
        self.progress = progress
        self.progress_every = progress_every
        self.on_execution = on_execution
        self.stats = CheckStats()
        self.visited: dict[str, frozenset] = {}
        self.stack: list[tuple[tuple[int, ...], frozenset]] = [
            (tuple(root), frozenset()) for root in reversed(roots)
        ]

    def run(self) -> CheckResult:
        """Explore until the stack drains, a budget trips, or a
        violation is found (and minimized)."""
        stats = self.stats
        exhausted = True
        counterexample: tuple[int, ...] | None = None
        raw_counterexample: tuple[int, ...] | None = None
        violations: tuple[str, ...] = ()
        minimized = False
        while self.stack:
            if (
                self.max_executions is not None
                and stats.executions >= self.max_executions
            ):
                exhausted = False
                break
            prefix, sleep = self.stack.pop()
            chooser = ExplorationChooser(self, prefix, sleep)
            outcome = execute_run(
                self.config, chooser, context=self.context,
                max_steps=self.max_steps,
            )
            stats.executions += 1
            stats.steps += outcome.steps
            if self.on_execution is not None:
                self.on_execution(prefix, outcome)
            status = outcome.status
            if status == "complete":
                stats.completed += 1
            elif status == "quiescent":
                stats.quiescent += 1
            elif status in ("depth", "steps", "budget"):
                exhausted = False
                if status == "budget":
                    break
            elif status == "violation":
                stats.violations += 1
                raw_counterexample = outcome.trail
                violations = tuple(str(v) for v in outcome.violations)
                if self.minimize:
                    counterexample = minimize_counterexample(
                        self.config,
                        raw_counterexample,
                        frozenset(v.check for v in outcome.violations),
                        context=self.context,
                        max_steps=self.max_steps,
                    )
                    minimized = True
                else:
                    counterexample = raw_counterexample
                exhausted = False
                break
            # "deduped"/"pruned" already counted by the chooser.
            if (
                self.progress is not None
                and stats.executions % self.progress_every == 0
            ):
                self.progress(stats, False)
        if self.progress is not None:
            self.progress(stats, True)
        return CheckResult(
            verdict="violation" if counterexample is not None else "ok",
            exhausted=exhausted,
            stats=stats,
            counterexample=counterexample,
            violations=violations,
            minimized=minimized,
            raw_counterexample=raw_counterexample,
            visited=(
                frozenset(self.visited) if self.keep_states else frozenset()
            ),
        )


def _reproduces(
    config: "RunConfig",
    schedule: tuple[int, ...],
    target_checks: frozenset[str],
    context: "KernelContext | None",
    max_steps: int,
) -> bool:
    """Whether replaying ``schedule`` (default continuation) still hits
    a violation of one of the target invariant checks."""
    outcome = execute_run(
        config, ScheduleChooser(schedule), context=context, max_steps=max_steps
    )
    if outcome.status != "violation":
        return False
    return bool({v.check for v in outcome.violations} & target_checks)


def minimize_counterexample(
    config: "RunConfig",
    schedule: tuple[int, ...],
    target_checks: frozenset[str],
    context: "KernelContext | None" = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[int, ...]:
    """Greedy single-choice removal to a locally minimal schedule.

    Repeatedly drops any choice whose removal still reproduces one of
    ``target_checks`` (replay uses first-candidate continuation past the
    shortened schedule) until no single removal survives — the result is
    locally minimal by construction: removing any one choice no longer
    violates.
    """
    current = list(schedule)
    changed = True
    while changed:
        changed = False
        index = 0
        while index < len(current):
            candidate = tuple(current[:index] + current[index + 1 :])
            if _reproduces(config, candidate, target_checks, context, max_steps):
                current = list(candidate)
                changed = True
            else:
                index += 1
    return tuple(current)
