"""Choice-point identification and schedule replay.

A *choice point* is a ready-tier event whose order against its siblings
is genuinely nondeterministic in the modelled system: the delivery of a
message between two distinct processes.  Everything else on the ready
tier — task steps, callbacks, and self-deliveries — runs eagerly in FIFO
order, because in the sampled system same-instant cascades always drain
before any positive-delay delivery (the virtual self channel's ``1e-9``
delta beats every cross-process delay floor).

A *schedule* is the tuple of candidate indices chosen at successive
**branching** choice points — a lone candidate is a forced move and
consumes no index, so schedules name only real decisions.  Candidates
are presented in ready-tier (scheduling) order, which is itself a pure
function of the choices made so far, so a schedule identifies one
execution exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import SimulationError
from ..instrumentation import SIM_STEP
from .fingerprint import FingerprintError, canon

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import Network
    from ..sim.handles import EventHandle

__all__ = ["MessageKey", "ScheduleChooser", "ScheduleDivergence", "message_key"]

#: Semantic identity of a pending delivery: ``(sender, dest, tag,
#: canonical payload)``.  Stable across executions (unlike kernel uids),
#: so sleep sets keyed by it compare across DFS branches.
MessageKey = tuple


class ScheduleDivergence(SimulationError):
    """A replayed schedule index fell outside the candidate set.

    Raised when a schedule recorded against one model is replayed
    against a different one (wrong config, mutated protocol, stale
    counterexample) — the choice tree no longer has the recorded shape.
    """


def message_key(message: Any) -> MessageKey:
    """The semantic identity of one pending delivery.

    Raises :class:`~repro.checking.fingerprint.FingerprintError` for a
    payload with no canonical form: a shared stand-in would make
    distinct messages look alike to dedup and the sleep sets.
    """
    payload = canon(message.payload)
    if payload is None:
        raise FingerprintError(
            f"{message.tag} from p{message.sender} to p{message.dest}: the "
            f"payload has no canonical form"
        )
    return (message.sender, message.dest, message.tag, payload)


class BaseChooser:
    """Shared choice-point detection, task tracking and the per-process
    fingerprint cache for choosers."""

    _deliver_cb: Any = None
    #: Whether this chooser fingerprints states: if so, :meth:`attach`
    #: arms the segment cache and its invalidation sink.
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
        #: ``pid -> tokens`` of each process's protocol walk, valid for
        #: this execution only (``state_fingerprint``'s ``segments``);
        #: ``None`` while no cache is armed.
        self.segments: dict[int, list[str]] | None = None
        self._step_probe: Any = None

    def attach(self, frame: Any) -> None:
        """Receive the runtime frame the harness built for this run.

        A fingerprinting chooser also arms its segment cache here and
        attaches :meth:`invalidate` to the simulator's step probe, so
        every event drops the cached walks it may have changed.
        """
        self.frame = frame
        if self.fingerprints:
            self.segments = {}
            self._step_probe = frame.sim.bus.probe(SIM_STEP)
            self._step_probe.attach(self.invalidate)

    def detach(self) -> None:
        """Detach the invalidation sink and drop the segment cache (the
        harness calls this however the execution ended)."""
        if self._step_probe is not None:
            self._step_probe.detach(self.invalidate)
            self._step_probe = None
        self.segments = None

    def invalidate(self, handle: "EventHandle") -> None:
        """Step-probe sink: forget the cached walks ``handle`` may change.

        A delivery runs only its destination's handlers, so it marks that
        one process dirty — the premise the sleep sets' same-destination
        dependence already rests on.  Any other event (task step, timer,
        callback) may touch any process and marks them all.
        """
        if handle._callback is self._deliver_cb:
            self.segments.pop(handle._args[0].dest, None)
        else:
            self.segments.clear()

    def on_task(self, task: Any) -> None:
        self.tasks.append(task)

    def bind(self, network: "Network") -> None:
        """Anchor choice detection to ``network``'s delivery callback."""
        self._deliver_cb = network._deliver_cb
        self.fifo = bool(getattr(network, "_fifo", False))

    def channel_heads(self, candidates: list["EventHandle"]) -> list[int]:
        """Indices of the *enabled* candidate deliveries.

        Without FIFO every pending delivery may go next.  With FIFO only
        the oldest pending message of each ``(sender, dest)`` channel is
        enabled — candidates sit in the ready deque in send order, so
        the first occurrence per channel is that channel's head.
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
        """Whether a ready handle is a cross-process message delivery."""
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
        heads = self.channel_heads(candidates)
        if len(heads) == 1:
            # Forced move: no index consumed, none recorded.  Schedules
            # stay short and survive model edits that only change the
            # length of forced corridors between branch points.
            return heads[0]
        if self.position < len(self.schedule):
            index = self.schedule[self.position]
            self.position += 1
            if not 0 <= index < len(candidates):
                raise ScheduleDivergence(
                    f"schedule index {index} out of range at choice point "
                    f"{self.position - 1} ({len(candidates)} candidates) — "
                    f"the schedule was recorded against a different model"
                )
        else:
            index = heads[0]
        self.trail.append(index)
        return index
