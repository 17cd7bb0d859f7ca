"""Canonical state fingerprints for visited-state deduplication.

Two executions that reach *semantically identical* global states must
produce identical fingerprints even though their kernels differ in
bookkeeping (message uids, scheduling sequence numbers, pool contents,
deque order).  The fingerprint therefore hashes only:

* the virtual clock;
* the pending-delivery **multiset** by semantic message key — sorted, so
  commuting delivery orders (the diamonds dedup exists to collapse)
  fingerprint equal;
* the pending-timer multiset (time, callback qualname, plain args);
* every protocol object's state, walked structurally (kernel objects —
  simulator, network, processes, futures, RNG streams — are skipped;
  their protocol-relevant content is captured elsewhere);
* each tracked coroutine's stack: code position plus plain-valued
  locals, which is where round counters and await points live;
* the decisions (and decision times) of tracked processes.

Excluded on purpose: message uids, handle sequence numbers, object
identities, network counters — all vary between executions that are
about to behave identically.

The protocol walk is split into one **segment** per process: a correct
pid's consensus object and RB engine, or a Byzantine pid's protocol
stack.  Each segment is walked with its own memo set, so its tokens
depend on that process's objects alone and a caller may keep them
between fingerprints of one execution (:class:`FingerprintCache`),
re-walking only the processes an event touched.  The same cache keeps
each pending delivery's message key, computed once per message rather
than once per fingerprint.

The walk is strict: a value it cannot render canonically (an object
from outside the ``repro`` package, a dict key or set member without a
canonical form) raises :class:`FingerprintError` naming where it sits,
rather than being reduced to its type name — two states differing only
there would otherwise fingerprint equal and dedup would be unsound.
"""

from __future__ import annotations

import enum
import hashlib
import random
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from ..orchestration.runner import RuntimeFrame
    from ..sim.handles import EventHandle
    from ..sim.tasks import Task

__all__ = [
    "FingerprintCache",
    "FingerprintError",
    "MessageKey",
    "canon",
    "message_key",
    "state_fingerprint",
]

#: Types whose values are hashed verbatim.
_PLAIN = (type(None), bool, int, float, str, bytes)

#: Walk depth guard: protocol state is shallow; anything deeper is a
#: cycle the memo set already breaks, or kernel plumbing we exclude.
_MAX_CORO_DEPTH = 32

#: Nesting depth past which :func:`canon` gives up on a value tree.
_MAX_CANON_DEPTH = 8


class FingerprintError(ReproError):
    """A protocol-state value has no canonical rendering.

    Raised instead of hashing a lossy stand-in (such as the type name),
    which would let two different states share a fingerprint.
    """


# Per-class kinds: what canon() and the walk do with an instance.  Every
# test below is a property of the class, so it is decided once per class.
_SCALAR = 1  # a _PLAIN instance (subclasses included) or ⊥: its repr
_ENUM = 2  # TypeName.member
_SEQ = 3  # tuple / list
_SET = 4  # set / frozenset
_DICT = 5  # dict
_EXCLUDED = 6  # kernel plumbing and callables: skipped by the walk
_OBJECT = 7  # a repro.* object: walked attribute by attribute
_FOREIGN = 8  # anything else: the walk refuses it

_KINDS: dict[type, int] = {}


def _classify(cls: type) -> int:
    from ..core.values import Bot

    if issubclass(cls, _PLAIN) or cls is Bot:
        kind = _SCALAR
    elif issubclass(cls, enum.Enum):
        kind = _ENUM
    elif issubclass(cls, (tuple, list)):
        kind = _SEQ
    elif issubclass(cls, (set, frozenset)):
        kind = _SET
    elif issubclass(cls, dict):
        kind = _DICT
    elif issubclass(cls, _excluded_types()) or any(
        "__call__" in vars(klass) for klass in cls.__mro__
    ):
        kind = _EXCLUDED
    elif cls.__module__.startswith("repro."):
        kind = _OBJECT
    else:
        kind = _FOREIGN
    _KINDS[cls] = kind
    return kind


def canon(value: Any, _depth: int = 0) -> str | None:
    """Canonical string of a *plain* value tree; ``None`` if not plain.

    Plain means: scalars (⊥ included), enums, and tuples/lists/dicts/sets
    thereof.
    Deterministic across processes (no ids, no unordered iteration).
    Stops at the first non-plain part.
    """
    cls = type(value)
    kind = _KINDS.get(cls) or _classify(cls)
    if kind == _SCALAR:
        return repr(value)
    if kind == _ENUM:
        return f"{cls.__name__}.{value.name}"
    if kind > _DICT or _depth >= _MAX_CANON_DEPTH:
        return None
    depth = _depth + 1
    kinds = _KINDS
    # Scalar items are rendered inline: they are most of the leaves.
    if kind == _DICT:
        items = []
        for key, item in value.items():
            if kinds.get(type(key)) == _SCALAR:
                ckey = repr(key)
            else:
                ckey = canon(key, depth)
                if ckey is None:
                    return None
            if kinds.get(type(item)) == _SCALAR:
                citem = repr(item)
            else:
                citem = canon(item, depth)
                if citem is None:
                    return None
            items.append(f"{ckey}:{citem}")
        items.sort()
        return "{" + ",".join(items) + "}"
    parts = []
    for item in value:
        if kinds.get(type(item)) == _SCALAR:
            parts.append(repr(item))
            continue
        part = canon(item, depth)
        if part is None:
            return None
        parts.append(part)
    if kind == _SET:
        parts.sort()
        return "{" + ",".join(parts) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(parts) + ")"
    return "[" + ",".join(parts) + "]"


#: Semantic identity of a pending delivery: ``(sender, dest, tag,
#: canonical payload)``.  Stable across executions (unlike kernel uids),
#: so sleep sets keyed by it compare across DFS branches.
MessageKey = tuple


def message_key(message: Any) -> MessageKey:
    """The semantic identity of one pending delivery.

    Raises :class:`FingerprintError` for a payload with no canonical
    form: a shared stand-in would make distinct messages look alike to
    dedup and the sleep sets.
    """
    payload = canon(message.payload)
    if payload is None:
        raise FingerprintError(
            f"{message.tag} from p{message.sender} to p{message.dest}: the "
            f"payload has no canonical form"
        )
    return (message.sender, message.dest, message.tag, payload)


class FingerprintCache:
    """What :func:`state_fingerprint` may keep between the choice points
    of one execution.

    * ``segments`` — ``pid -> tokens`` of that process's protocol walk;
    * ``keys`` — ``handle -> (message key, its repr)`` of each pending
      delivery, filled on first use by :meth:`entry`.

    The owner must drop the segment of every process an event may have
    changed and a delivery's key when its handle runs — before the
    kernel can recycle the handle for another message
    (:meth:`repro.checking.choice.BaseChooser.invalidate` does both).
    A key stays valid while its message is in flight because payloads
    are never mutated once sent.
    """

    __slots__ = ("segments", "keys")

    def __init__(self) -> None:
        self.segments: dict[int, list[str]] = {}
        self.keys: dict["EventHandle", tuple[MessageKey, str]] = {}

    def entry(self, handle: "EventHandle") -> tuple[MessageKey, str]:
        """``(key, repr(key))`` of the message a pending delivery carries."""
        entry = self.keys.get(handle)
        if entry is None:
            key = message_key(handle._args[0])
            entry = self.keys[handle] = (key, repr(key))
        return entry


def _uncached_entry(handle: "EventHandle") -> tuple[MessageKey, str]:
    key = message_key(handle._args[0])
    return key, repr(key)


_SLOTS: dict[type, tuple[str, ...]] = {}


def _slot_names(cls: type) -> tuple[str, ...]:
    """Every ``__slots__`` name along ``cls``'s MRO, once each."""
    names = _SLOTS.get(cls)
    if names is None:
        found: dict[str, None] = {}
        for klass in cls.__mro__:
            slots = klass.__dict__.get("__slots__", ())
            for name in (slots,) if isinstance(slots, str) else slots:
                found[name] = None
        names = _SLOTS[cls] = tuple(found)
    return names


def _object_attrs(obj: Any) -> dict[str, Any]:
    """Instance attributes of ``obj``, covering ``__dict__`` and slots."""
    d = getattr(obj, "__dict__", None)
    items: dict[str, Any] = dict(d) if d else {}
    for name in _slot_names(type(obj)):
        if name not in items:
            try:
                items[name] = getattr(obj, name)
            except AttributeError:
                pass
    return items


_EXCLUDED_TYPES: tuple[type, ...] = ()


def _excluded_types() -> tuple[type, ...]:
    global _EXCLUDED_TYPES
    if not _EXCLUDED_TYPES:
        from ..net.channel import Channel
        from ..net.network import Network
        from ..runtime.process import Process
        from ..sim.futures import Future
        from ..sim.loop import Simulator

        _EXCLUDED_TYPES = (
            Simulator, Network, Channel, Process, Future, random.Random
        )
    return _EXCLUDED_TYPES


def _walk(value: Any, label: str, out: list[str], seen: set[int]) -> None:
    """Emit deterministic state tokens for one protocol-state value.

    A plain value becomes one ``label=canon`` token; a container that is
    not plain is walked item by item.
    """
    cls = type(value)
    kind = _KINDS.get(cls) or _classify(cls)
    if kind == _SCALAR:
        out.append(f"{label}={value!r}")
        return
    if kind == _ENUM:
        out.append(f"{label}={cls.__name__}.{value.name}")
        return
    if kind == _EXCLUDED:
        # Bound-method callables etc. carry no state of their own; the
        # excluded kernel types are fingerprinted through other channels
        # (pending deliveries, coroutine stacks, decision snapshots).
        return
    if kind == _OBJECT:
        if id(value) in seen:
            out.append(f"{label}=<cycle>")
            return
        seen.add(id(value))
        out.append(f"{label}:{cls.__name__}")
        kinds = _KINDS
        for name, item in sorted(_object_attrs(value).items()):
            if kinds.get(type(item)) == _SCALAR:
                out.append(f"{label}.{name}={item!r}")
            else:
                _walk(item, f"{label}.{name}", out, seen)
        return
    if kind == _FOREIGN:
        raise FingerprintError(
            f"{label}: a {cls.__module__}.{cls.__qualname__} object has no "
            f"canonical form"
        )
    plain = canon(value)
    if plain is not None:
        out.append(f"{label}={plain}")
        return
    if id(value) in seen:
        out.append(f"{label}=<cycle>")
        return
    seen.add(id(value))
    if kind == _SEQ:
        for index, item in enumerate(value):
            _walk(item, f"{label}[{index}]", out, seen)
        return
    if kind == _DICT:
        entries = []
        for key, item in value.items():
            ckey = canon(key)
            if ckey is None:
                raise FingerprintError(
                    f"{label}: a dict key of type {type(key).__name__} has no "
                    f"canonical form"
                )
            entries.append((ckey, item))
        entries.sort(key=itemgetter(0))
        for ckey, item in entries:
            _walk(item, f"{label}{{{ckey}}}", out, seen)
        return
    # A set whose members are not all plain at this depth: members are
    # unordered, so each must still have a canonical form of its own.
    members = []
    for item in value:
        part = canon(item)
        if part is None:
            raise FingerprintError(
                f"{label}: a set member of type {type(item).__name__} has "
                f"no canonical form"
            )
        members.append(part)
    members.sort()
    out.append(f"{label}={{{','.join(members)}}}")


def _coro_tokens(task: "Task") -> list[str]:
    """Stack snapshot of one task: code positions + plain locals."""
    out = [f"task:{task.name}"]
    if task.done():
        out.append("done")
        return out
    obj: Any = task._coro
    for _ in range(_MAX_CORO_DEPTH):
        if obj is None:
            break
        frame = getattr(obj, "cr_frame", None)
        if frame is None:
            frame = getattr(obj, "gi_frame", None)
        if frame is None:
            break
        code = frame.f_code
        out.append(f"{code.co_qualname}:{frame.f_lasti}")
        for name in sorted(frame.f_locals):
            plain = canon(frame.f_locals[name])
            if plain is not None:
                out.append(f"{name}={plain}")
        nxt = getattr(obj, "cr_await", None)
        if nxt is None:
            nxt = getattr(obj, "gi_yieldfrom", None)
        obj = nxt
    return out


def _segment_tokens(frame: "RuntimeFrame", pid: int, label: str) -> list[str]:
    """The walk of one process's protocol objects, under its own memo."""
    out: list[str] = []
    seen: set[int] = set()
    if pid in frame.consensi:
        _walk(frame.consensi[pid], label, out, seen)
        _walk(frame.rb_engines[pid], f"{label}.rb", out, seen)
    else:
        _walk(frame.adversary_consensi[pid], label, out, seen)
    return out


def state_fingerprint(
    frame: "RuntimeFrame",
    candidates: Iterable["EventHandle"],
    tasks: Iterable["Task"] = (),
    fifo: bool = False,
    cache: FingerprintCache | None = None,
) -> str:
    """SHA-256 fingerprint of the global state at one choice point.

    Called at a choice point, where ``candidates`` (the simulator's
    choice tier) holds every pending cross-process delivery, so they
    contribute exactly their sorted semantic multiset.  With ``fifo``
    the multiset is grouped into per-channel *sequences* instead: under
    FIFO channels the order of two pending messages on the same channel
    is part of the state (it fixes which is deliverable), so states
    differing only there must not fingerprint equal.  ``tasks`` are the
    coroutines created this run (the chooser's ``on_task`` feed).  The
    protocol stacks walked are the frame's tracked processes and its
    protocol-running adversaries.

    ``cache`` is an optional per-execution :class:`FingerprintCache`:
    present segments and message keys are reused as they are, missing
    ones are computed and stored.  The caller keeps it valid (see the
    class).  The digest is the same with or without the cache; without
    one, every segment and every key is computed afresh.
    """
    entry = _uncached_entry if cache is None else cache.entry
    out: list[str] = [f"now={frame.sim.now!r}"]
    if fifo:
        queues: dict[tuple[int, int], list[str]] = {}
        for handle in candidates:
            key, token = entry(handle)
            queues.setdefault((key[0], key[1]), []).append(token)
        out.extend(
            f"chan:{channel!r}:" + ";".join(keys)
            for channel, keys in sorted(queues.items())
        )
    else:
        out.extend(sorted(entry(handle)[1] for handle in candidates))
    deliver_cb = frame.network._deliver_cb
    timers = []
    for time, _seq, handle in frame.sim._heap:
        if handle._cancelled or handle._callback is deliver_cb:
            continue
        qualname = getattr(handle._callback, "__qualname__", "?")
        args = ",".join(canon(a) or type(a).__name__ for a in handle._args)
        timers.append(f"timer:{time!r}:{qualname}({args})")
    out.extend(sorted(timers))
    labels = [(pid, f"p{pid}") for pid in sorted(frame.consensi)]
    labels.extend(
        (pid, f"adv{index}")
        for index, pid in enumerate(sorted(frame.adversary_consensi))
    )
    segments = None if cache is None else cache.segments
    for pid, label in labels:
        tokens = None if segments is None else segments.get(pid)
        if tokens is None:
            tokens = _segment_tokens(frame, pid, label)
            if segments is not None:
                segments[pid] = tokens
        out.extend(tokens)
    for pid in sorted(frame.consensi):
        decision = frame.consensi[pid].decision
        if decision.done() and not decision.cancelled():
            out.append(f"decided:p{pid}={canon(decision.result()) or '?'}")
    for pid, when in sorted(frame.decision_times.items()):
        out.append(f"decided_at:p{pid}={when!r}")
    for task in tasks:
        out.extend(_coro_tokens(task))
    digest = hashlib.sha256("\x1f".join(out).encode("utf-8", "replace"))
    return digest.hexdigest()
