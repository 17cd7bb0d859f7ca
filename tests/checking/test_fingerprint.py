"""State fingerprints: the segment cache agrees with a full walk, and the
walk refuses values it cannot render.

The explorer fingerprints through a per-execution cache of each
process's protocol walk, invalidated from the simulator's step probe (a
delivery dirties its destination, any other event dirties every
process).  The oracle below recomputes every cached fingerprint with a
fresh, uncached walk at the same choice point and requires equality, on
the golden n=2 model, both Byzantine check-byz shapes and every mutant
trigger scenario — and shows it would catch an invalidation rule that
misses deliveries.
"""

from types import SimpleNamespace

import pytest

import repro.checking.explorer as explorer_module
from repro.adversary.strategies import collude, two_faced
from repro.checking import (
    MUTANTS,
    Explorer,
    FingerprintError,
    ScheduleChooser,
    apply_mutant,
    canon,
    execute_run,
    message_key,
    schedule_prefix_roots,
)
from repro.checking.choice import BaseChooser
from repro.checking.fingerprint import _walk
from repro.core.values import BOT
from repro.instrumentation import SIM_STEP, InstrumentationBus
from repro.orchestration.config import RunConfig
from repro.orchestration.kernel import KernelContext


def golden_model() -> RunConfig:
    return RunConfig(
        n=2, t=0, proposals={1: "a", 2: "a"}, max_rounds=1, fifo=True
    )


def byzantine_model(byz: int) -> RunConfig:
    """A check-byz shape: n=4, t=1, one two_faced process (it equivocates
    towards even pids, so an odd and an even Byzantine pid differ)."""
    proposals = {pid: "a" for pid in (1, 2, 3, 4) if pid != byz}
    proposals[min(proposals)] = "b"
    return RunConfig(
        n=4, t=1, proposals=proposals,
        adversaries={byz: two_faced("z", proposal="a")},
        max_rounds=1, fifo=True,
    )


@pytest.fixture
def oracle(monkeypatch):
    """Check every cached fingerprint against a fresh full walk; returns
    ``[calls, mismatches]``."""
    real = explorer_module.state_fingerprint
    tally = [0, 0]

    def checked(frame, candidates, tasks, fifo, segments):
        cached = real(frame, candidates, tasks, fifo, segments)
        tally[0] += 1
        if cached != real(frame, candidates, tasks, fifo):
            tally[1] += 1
        return cached

    monkeypatch.setattr(explorer_module, "state_fingerprint", checked)
    return tally


def test_cache_matches_full_walk_on_the_golden_model(oracle):
    result = Explorer(golden_model()).run()
    assert result.exhausted
    assert oracle[0] > 100
    assert oracle[1] == 0


@pytest.mark.parametrize("byz", [3, 4])
def test_cache_matches_full_walk_on_byzantine_models(oracle, byz):
    result = Explorer(
        byzantine_model(byz), max_executions=40, minimize=False
    ).run()
    assert result.verdict == "ok"
    assert oracle[0] > 400
    assert oracle[1] == 0


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_cache_matches_full_walk_on_mutant_scenarios(oracle, name):
    mutant = MUTANTS[name]
    with apply_mutant(name):
        result = Explorer(
            mutant.scenario(), **{**mutant.budgets, "minimize": False}
        ).run()
    assert result.verdict == "violation"
    assert oracle[0] >= 1
    assert oracle[1] == 0


def test_oracle_catches_a_delivery_that_marks_nothing_dirty(
    oracle, monkeypatch
):
    def deliveries_ignored(self, handle):
        if handle._callback is not self._deliver_cb:
            self.cache.segments.clear()

    monkeypatch.setattr(BaseChooser, "invalidate", deliveries_ignored)
    Explorer(golden_model()).run()
    assert oracle[1] > 0


def test_segment_cache_leaves_exploration_unchanged(monkeypatch):
    cached = Explorer(golden_model(), keep_states=True).run()
    real = explorer_module.state_fingerprint
    monkeypatch.setattr(
        explorer_module, "state_fingerprint",
        lambda frame, candidates, tasks, fifo, segments: real(
            frame, candidates, tasks, fifo
        ),
    )
    full = Explorer(golden_model(), keep_states=True).run()
    assert cached.stats == full.stats
    assert cached.visited == full.visited


# ----------------------------------------------------------------------
# Sink and cache lifetime
# ----------------------------------------------------------------------
def test_no_sink_survives_an_aborted_execution():
    context = KernelContext()
    probe = context.bus.probe(SIM_STEP)
    statuses = set()

    def after(prefix, outcome):
        statuses.add(outcome.status)
        assert probe.sinks == (), f"sink left attached after {outcome.status}"

    Explorer(golden_model(), context=context, on_execution=after).run()
    assert {"deduped", "pruned", "complete"} <= statuses
    schedule_prefix_roots(golden_model(), depth=2, context=context)
    assert probe.sinks == (), "sink left attached after a probe"


def test_execute_run_uninstalls_the_chooser():
    # simulator -> chooser -> tasks -> simulator would otherwise keep the
    # discarded frame alive until a full collection.
    chooser = ScheduleChooser(())
    assert execute_run(golden_model(), chooser).status == "complete"
    assert chooser.frame.sim._chooser is None


def test_detach_drops_the_segment_cache():
    chooser = BaseChooser()
    chooser.fingerprints = True
    bus = InstrumentationBus()
    chooser.attach(SimpleNamespace(sim=SimpleNamespace(bus=bus)))
    assert chooser.cache.segments == {} and chooser.cache.keys == {}
    assert len(bus.probe(SIM_STEP).sinks) == 1
    chooser.detach()
    assert chooser.cache is None
    assert bus.probe(SIM_STEP).sinks == ()


# ----------------------------------------------------------------------
# The strict walk
# ----------------------------------------------------------------------
class Node:
    """A protocol-state object as the walk sees it: from a repro module."""

    __module__ = "repro.synthetic"

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class Slotted:
    __module__ = "repro.synthetic"
    __slots__ = ("left", "right")


class Foreign:
    __module__ = "elsewhere"


def walk(value, label="s"):
    out = []
    _walk(value, label, out, set())
    return out


def test_walk_renders_repro_objects_attribute_by_attribute():
    leaf = Node(count=2, seen={3, 1}, tag=("x", 1))
    root = Node(child=leaf, again=leaf, peers={"b": leaf, "a": 1})
    assert walk(root) == [
        "s:Node",
        "s.again:Node",
        "s.again.count=2",
        "s.again.seen={1,3}",
        "s.again.tag=('x',1)",
        "s.child=<cycle>",
        "s.peers{'a'}=1",
        "s.peers{'b'}=<cycle>",
    ]


def test_walk_reads_slots_and_skips_callables():
    obj = Slotted()
    obj.left = [1, print, 3]
    assert walk(obj) == ["s:Slotted", "s.left[0]=1", "s.left[2]=3"]


def test_walk_of_a_plain_value_is_its_canonical_form():
    value = {"k": [(1, 2.5), frozenset({"z", "y"})], 3: None}
    assert walk(value) == [f"s={canon(value)}"]


def test_foreign_object_raises_naming_its_label():
    with pytest.raises(FingerprintError, match=r"s\.inner\.thing"):
        walk(Node(inner=Node(thing=Foreign())))


def test_non_plain_dict_key_raises_naming_its_label():
    with pytest.raises(FingerprintError, match=r"s\.table: a dict key"):
        walk(Node(table={Node(): 1, "other": Node()}))


def test_non_plain_set_member_raises_naming_its_label():
    with pytest.raises(FingerprintError, match=r"s\.members: a set member"):
        walk(Node(members={1, Node()}))



def test_non_plain_payload_raises_naming_the_message():
    message = SimpleNamespace(sender=1, dest=2, tag="RB_INIT", payload=Node())
    with pytest.raises(FingerprintError, match="RB_INIT from p1 to p2"):
        message_key(message)


def test_bot_is_a_plain_value():
    assert canon(BOT) == "⊥"
    assert canon(("CB_VAL", frozenset({BOT, "a"}))) == "('CB_VAL',{'a',⊥})"
    # A ⊥-variant model puts ⊥ into cb_valid sets and message payloads.
    config = RunConfig(
        n=4, t=1, proposals={2: "b", 3: "a", 4: "b"},
        adversaries={1: collude("z")}, max_rounds=2, fifo=True,
        variant="bot",
    )
    result = Explorer(config, max_executions=3, minimize=False).run()
    assert result.verdict == "ok"
