"""Choice-point identification and schedule replay.

A *choice point* is a ready-tier event whose order against its siblings
is genuinely nondeterministic in the modelled system: the delivery of a
message between two distinct processes.  Everything else on the ready
tier — task steps, callbacks, and self-deliveries — runs eagerly in FIFO
order, because in the sampled system same-instant cascades always drain
before any positive-delay delivery (the virtual self channel's ``1e-9``
delta beats every cross-process delay floor).

A *schedule* is the tuple of candidate indices chosen at successive
**branching** choice points — a forced move (a lone candidate, or under
FIFO a single enabled channel head) consumes no index, so schedules name
only real decisions.  Candidates are presented in scheduling order (the
simulator's choice tier), which is itself a pure function of the choices
made so far, so a schedule identifies one execution exactly.  Under FIFO
a schedule may only name channel heads: replaying one that names a
message behind its channel's head diverges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import SimulationError
from ..instrumentation import SIM_STEP
from .fingerprint import FingerprintCache, MessageKey, message_key

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import Network
    from ..sim.handles import EventHandle

__all__ = ["MessageKey", "ScheduleChooser", "ScheduleDivergence", "message_key"]


class ScheduleDivergence(SimulationError):
    """A replayed schedule index names no enabled candidate.

    Raised when the index falls outside the candidate set or, under
    FIFO, names a message behind its channel's head — typically a
    schedule recorded against a different model (wrong config, mutated
    protocol, stale counterexample) whose choice tree no longer has the
    recorded shape.
    """


class BaseChooser:
    """Shared choice-point detection, task tracking and the per-execution
    fingerprint cache for choosers."""

    _deliver_cb: Any = None
    #: Whether this chooser fingerprints states: if so, :meth:`attach`
    #: arms the fingerprint cache and its invalidation sink.
    fingerprints: bool = False

    def __init__(self) -> None:
        #: Tasks created while this chooser was installed: fingerprint
        #: input, and closed by the harness when an execution is
        #: discarded (a never-started ``_round_loop`` coroutine would
        #: otherwise warn at garbage collection).
        self.tasks: list[Any] = []
        self.frame: Any = None
        #: Whether the model's channels are FIFO: only per-channel head
        #: deliveries are enabled transitions then.
        self.fifo: bool = False
        #: Segment walks and pending message keys, valid for this
        #: execution only (``state_fingerprint``'s ``cache``); ``None``
        #: while no cache is armed.
        self.cache: FingerprintCache | None = None
        self._step_probe: Any = None

    def attach(self, frame: Any) -> None:
        """Receive the runtime frame the harness built for this run.

        A fingerprinting chooser also arms its cache here and attaches
        :meth:`invalidate` to the simulator's step probe, so every event
        drops the cached facts it may have changed.
        """
        self.frame = frame
        if self.fingerprints:
            self.cache = FingerprintCache()
            self._step_probe = frame.sim.bus.probe(SIM_STEP)
            self._step_probe.attach(self.invalidate)

    def detach(self) -> None:
        """Detach the invalidation sink and drop the cache (the harness
        calls this however the execution ended)."""
        if self._step_probe is not None:
            self._step_probe.detach(self.invalidate)
            self._step_probe = None
        self.cache = None

    def invalidate(self, handle: "EventHandle") -> None:
        """Step-probe sink: forget the cached facts ``handle`` may change.

        A delivery runs only its destination's handlers, so it marks that
        one process dirty — the premise the sleep sets' same-destination
        dependence already rests on — and retires its own message key:
        the probe fires before the handle runs, so the entry is gone
        before the kernel can recycle the handle for another message.
        Any other event (task step, timer, callback) may touch any
        process and marks them all; it carries no message key.
        """
        cache = self.cache
        if handle._callback is self._deliver_cb:
            cache.segments.pop(handle._args[0].dest, None)
            cache.keys.pop(handle, None)
        else:
            cache.segments.clear()

    def on_task(self, task: Any) -> None:
        self.tasks.append(task)

    def bind(self, network: "Network") -> None:
        """Anchor choice detection to ``network``'s delivery callback."""
        self._deliver_cb = network._deliver_cb
        self.fifo = bool(getattr(network, "_fifo", False))

    def key_of(self, handle: "EventHandle") -> MessageKey:
        """The message key of a pending delivery, memoised while a cache
        is armed."""
        if self.cache is None:
            return message_key(handle._args[0])
        return self.cache.entry(handle)[0]

    def forced(self, candidates: list["EventHandle"]) -> bool:
        """Whether the choice point is a forced move: one enabled
        candidate, namely ``candidates[0]``.

        True for a lone candidate, and under FIFO when every candidate
        shares the first one's channel; the scan stops at the first
        candidate on another channel, usually the second.
        """
        if len(candidates) == 1:
            return True
        if not self.fifo:
            return False
        first = candidates[0]._args[0]
        sender = first.sender
        dest = first.dest
        for handle in candidates:
            message = handle._args[0]
            if message.dest != dest or message.sender != sender:
                return False
        return True

    def channel_heads(self, candidates: list["EventHandle"]) -> list[int]:
        """Indices of the *enabled* candidate deliveries.

        Without FIFO every pending delivery may go next.  With FIFO only
        the oldest pending message of each ``(sender, dest)`` channel is
        enabled — candidates are in send order, so the first occurrence
        per channel is that channel's head (``candidates[0]`` is
        always one).
        """
        if not self.fifo:
            return list(range(len(candidates)))
        heads: list[int] = []
        seen: set[tuple[int, int]] = set()
        for index, handle in enumerate(candidates):
            message = handle._args[0]
            channel = (message.sender, message.dest)
            if channel in seen:
                continue
            seen.add(channel)
            heads.append(index)
        return heads

    def is_choice(self, handle: "EventHandle") -> bool:
        """Whether ``handle`` delivers a message between two distinct
        processes."""
        if handle._callback is not self._deliver_cb:
            return False
        message = handle._args[0]
        return message.sender != message.dest


class ScheduleChooser(BaseChooser):
    """Replay a recorded schedule, then continue first-candidate.

    The continuation rule matters: a checker counterexample ends at the
    violating event, and the remainder of the run (the ordinary runner
    verifies invariants post-hoc) must be deterministic — index 0 at
    every further choice point is the canonical continuation both the
    explorer's default descent and minimization replays use.
    """

    def __init__(self, schedule: tuple[int, ...]) -> None:
        super().__init__()
        self.schedule = tuple(int(c) for c in schedule)
        self.position = 0
        #: Every choice actually taken, forced and default alike.
        self.trail: list[int] = []

    def choose(self, candidates: list["EventHandle"]) -> int:
        if self.forced(candidates):
            # Forced move: no index consumed, none recorded.  Schedules
            # stay short and survive model edits that only change the
            # length of forced corridors between branch points.
            return 0
        if self.position < len(self.schedule):
            index = self.schedule[self.position]
            self.position += 1
            if not 0 <= index < len(candidates):
                raise ScheduleDivergence(
                    f"schedule index {index} out of range at choice point "
                    f"{self.position - 1} ({len(candidates)} candidates) — "
                    f"the schedule was recorded against a different model"
                )
            if self.fifo and index not in self.channel_heads(candidates):
                raise ScheduleDivergence(
                    f"schedule index {index} at choice point "
                    f"{self.position - 1} is not the head of its FIFO "
                    f"channel — the schedule was recorded against a "
                    f"different model"
                )
        else:
            # Default continuation: the first candidate, always a head.
            index = 0
        self.trail.append(index)
        return index
