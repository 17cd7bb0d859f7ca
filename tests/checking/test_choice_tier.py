"""The check-mode choice tier, forced-move detection and the key memo.

In chooser mode the simulator classifies each same-instant delivery
once, as it is scheduled: choice points go to a separate list (the
choice tier), everything else stays on the ready deque.  These tests
hold the tier to the kernel it replaced — one ready deque, rescanned on
every pop — reimplemented here as :func:`legacy_scan`:

* at every ``choose`` call the candidates are the handles the legacy
  scan would have offered, in the same order, and every internal pop is
  the one the legacy scan would have made;
* ``forced`` agrees with counting channel heads;
* the tier is visible to ``peek_time``/``pending_events`` and merges
  back into the ready deque in ``seq`` order when the chooser goes, so
  the rest of the run is the legacy kernel's;
* no memoised message key outlives the execution of its handle.
"""

import heapq

import pytest

from repro.checking import (
    MUTANTS,
    Explorer,
    ScheduleChooser,
    apply_mutant,
    execute_run,
    message_key,
)
from repro.checking.explorer import ExplorationChooser
from repro.instrumentation import SIM_STEP
from repro.orchestration import runner
from repro.orchestration.config import RunConfig
from repro.orchestration.runner import build_runtime
from repro.sim import Simulator

from tests.checking.test_fingerprint import byzantine_model, golden_model


def legacy_pending(sim):
    """The legacy single ready deque: every live same-instant handle,
    in scheduling order."""
    merged = heapq.merge(sim._ready, sim._choices, key=lambda h: h.seq)
    return [handle for handle in merged if not handle._cancelled]


def legacy_scan(sim):
    """The legacy ``_pop_next_chosen`` scan: ``(internal, None)`` for
    the first pending internal event, else ``(None, candidates)``."""
    candidates = []
    for handle in legacy_pending(sim):
        if not sim._chooser.is_choice(handle):
            return handle, None
        candidates.append(handle)
    return None, candidates


class LegacySimulator(Simulator):
    """The kernel before the choice tier: deliveries stay on the ready
    deque and every chooser-mode pop rescans it."""

    def set_chooser(self, chooser):
        self._chooser = chooser

    def _pop_next_chosen(self):
        ready = self._ready
        while ready and ready[0]._cancelled:
            ready.popleft()
        if not ready:
            return self._pop_next()
        internal, candidates = legacy_scan(self)
        chosen = internal
        if chosen is None:
            chosen = candidates[self._chooser.choose(candidates)]
        ready.remove(chosen)
        return chosen


# ----------------------------------------------------------------------
# Equivalence oracle
# ----------------------------------------------------------------------
@pytest.fixture
def tier_oracle(monkeypatch):
    """Check every pop and every explorer ``choose`` call against the
    legacy scan; returns ``[choose calls, internal pops]``."""
    tally = [0, 0]
    real_pop = Simulator._pop_next_chosen
    real_choose = ExplorationChooser.choose

    def pop(self):
        internal, _ = legacy_scan(self)
        handle = real_pop(self)
        if internal is not None:
            tally[1] += 1
            assert handle is internal, "the tier ran another internal event"
        return handle

    def choose(self, candidates):
        tally[0] += 1
        sim = self.frame.sim
        internal, expected = legacy_scan(sim)
        assert internal is None, "chose while an internal event was ready"
        assert len(candidates) == len(expected)
        assert all(a is b for a, b in zip(candidates, expected))
        assert self.forced(candidates) == (
            len(self.channel_heads(candidates)) == 1
        )
        return real_choose(self, candidates)

    monkeypatch.setattr(Simulator, "_pop_next_chosen", pop)
    monkeypatch.setattr(ExplorationChooser, "choose", choose)
    return tally


def test_tier_matches_the_legacy_scan_on_the_golden_model(tier_oracle):
    result = Explorer(golden_model()).run()
    assert result.exhausted
    assert tier_oracle[0] > 1000 and tier_oracle[1] > 1000


def test_tier_matches_the_legacy_scan_on_the_unordered_model(tier_oracle):
    config = RunConfig(n=2, t=0, proposals={1: "a", 2: "a"}, max_rounds=1)
    result = Explorer(config, max_executions=200).run()
    assert result.stats.executions == 200
    assert tier_oracle[0] > 1000


@pytest.mark.parametrize("byz", [3, 4])
def test_tier_matches_the_legacy_scan_on_byzantine_models(tier_oracle, byz):
    result = Explorer(
        byzantine_model(byz), max_executions=40, minimize=False
    ).run()
    assert result.verdict == "ok"
    assert tier_oracle[0] > 10_000


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_tier_matches_the_legacy_scan_on_mutant_scenarios(tier_oracle, name):
    mutant = MUTANTS[name]
    with apply_mutant(name):
        result = Explorer(
            mutant.scenario(), **{**mutant.budgets, "minimize": False}
        ).run()
    assert result.verdict == "violation"
    assert tier_oracle[0] > 0


def test_legacy_kernel_explores_the_same_tree(monkeypatch):
    tiered = Explorer(golden_model(), keep_states=True).run()
    monkeypatch.setattr(runner, "Simulator", LegacySimulator)
    legacy = Explorer(golden_model(), keep_states=True).run()
    assert tiered.stats == legacy.stats
    assert tiered.visited == legacy.visited


# ----------------------------------------------------------------------
# Kernel tier lifecycle
# ----------------------------------------------------------------------
def _deliver(message):
    pass


class _Message:
    def __init__(self, sender, dest):
        self.sender = sender
        self.dest = dest


class _FirstCandidate:
    """A minimal chooser over :func:`_deliver` handles."""

    def is_choice(self, handle):
        message = handle._args[0]
        return handle._callback is _deliver and message.sender != message.dest

    def choose(self, candidates):
        return 0


def test_peek_time_and_pending_events_count_the_tier():
    sim = Simulator()
    sim.set_chooser(_FirstCandidate())
    sim.schedule_delivery(0.0, _deliver, _Message(1, 2))
    sim.schedule_delivery(0.0, _deliver, _Message(2, 2))  # self-delivery
    sim.call_at(5.0, _deliver, _Message(2, 1))
    assert len(sim._choices) == 1 and len(sim._ready) == 1
    assert sim.pending_events == 3
    assert "pending=3" in repr(sim)
    sim.step()  # the self-delivery: internal events run first
    assert not sim._ready
    assert sim.peek_time() == 0.0
    assert sim.pending_events == 2
    sim.step()  # the choice, before the timer
    assert sim.peek_time() == 5.0
    assert sim.pending_events == 1


def test_clearing_the_chooser_merges_the_tier_back_in_seq_order():
    sim = Simulator()
    sim.set_chooser(_FirstCandidate())
    sim.schedule_delivery(0.0, _deliver, _Message(1, 2))
    sim.call_soon(_deliver, _Message(1, 1))
    sim.schedule_delivery(0.0, _deliver, _Message(2, 1))
    sim.schedule_delivery(0.0, _deliver, _Message(2, 2))
    assert [h.seq for h in sim._choices] == [0, 2]
    sim.set_chooser(None)
    assert sim._choices == []
    assert [h.seq for h in sim._ready] == [0, 1, 2, 3]
    # Deliveries scheduled from now on take the plain ready deque.
    sim.schedule_delivery(0.0, _deliver, _Message(1, 2))
    assert [h.seq for h in sim._ready] == [0, 1, 2, 3, 4]


def _event_log(simulator_cls, monkeypatch, steps):
    """Run the golden model under ``ScheduleChooser(())`` for ``steps``
    events, clear the chooser and finish the run without one; return
    the executed events and the tier sizes at the switch."""
    monkeypatch.setattr(runner, "Simulator", simulator_cls)
    frame = build_runtime(golden_model(), chooser=ScheduleChooser(()))
    sim = frame.sim
    log = []
    sim.bus.probe(SIM_STEP).attach(
        lambda handle: log.append(
            (handle.seq, getattr(handle._callback, "__qualname__", "?"))
        )
    )
    for _ in range(steps):
        sim.step()
    split = (list(sim._ready), list(sim._choices))
    sim.set_chooser(None)
    sim.run_until_complete(frame.all_decided, max_events=100_000)
    return log, split


def test_a_run_continued_without_the_chooser_matches_the_legacy_kernel(
    monkeypatch,
):
    # Find a switch point where both tiers hold handles and their seqs
    # interleave, so the merge is not a concatenation.
    for steps in range(10, 200):
        log, (ready, choices) = _event_log(Simulator, monkeypatch, steps)
        live = [h.seq for h in ready if not h._cancelled]
        if live and len(choices) > 1 and max(live) > choices[0].seq:
            break
    else:
        pytest.fail("no switch point with interleaved tiers")
    legacy, _ = _event_log(LegacySimulator, monkeypatch, steps)
    assert len(log) > steps
    assert log == legacy


# ----------------------------------------------------------------------
# Key memo lifetime
# ----------------------------------------------------------------------
def test_no_memoised_key_survives_its_handles_execution(monkeypatch):
    real_attach = ExplorationChooser.attach
    real_choose = ExplorationChooser.choose
    memoised = [0]
    pools = []

    def attach(self, frame):
        real_attach(self, frame)
        assert frame.network._recycle
        pools.append(frame.sim.pools)

        def after_invalidate(handle):
            assert handle not in self.cache.keys, "key outlived its handle"

        # Attached after the chooser's own sink, so it sees the memo as
        # the handle is about to run.
        frame.sim.bus.probe(SIM_STEP).attach(after_invalidate)

    def choose(self, candidates):
        # Every memoised key belongs to a pending delivery and still
        # names the message that delivery carries.
        pending = {id(handle) for handle in candidates}
        for handle, (key, token) in self.cache.keys.items():
            assert id(handle) in pending
            assert key == message_key(handle._args[0])
            assert token == repr(key)
        memoised[0] += len(self.cache.keys)
        return real_choose(self, candidates)

    monkeypatch.setattr(ExplorationChooser, "attach", attach)
    monkeypatch.setattr(ExplorationChooser, "choose", choose)
    statuses = set()
    Explorer(
        golden_model(),
        on_execution=lambda prefix, outcome: statuses.add(outcome.status),
    ).run()
    assert {"deduped", "pruned", "complete"} <= statuses
    assert memoised[0] > 100
    # Handles and messages really were recycled under the memo.
    assert sum(p.handles_reused for p in pools) > 1000
    assert sum(p.messages_reused for p in pools) > 1000


def test_a_non_fingerprinting_chooser_keeps_no_cache():
    chooser = ExplorationChooser(
        Explorer(golden_model(), dedup=False), (), frozenset()
    )
    assert execute_run(golden_model(), chooser).status == "complete"
    assert chooser.cache is None
