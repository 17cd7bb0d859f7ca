"""Dedup soundness: fingerprint equality must mean equal futures.

Visited-state dedup aborts an execution whose branching state was
fingerprinted before, on the premise that equal fingerprints have equal
subtrees.  Two oracles check that premise on the exhaustible models of
``benchmarks/bench_check.py``:

* **Terminal decision vectors.**  ``dedup=True`` exhausts the model.
  ``dedup=False`` cannot: without dedup the n=2 FIFO trees have
  trillions of root-to-leaf paths.  So the dedup-off side is an
  execution-budgeted DFS plus seeded random descents through the whole
  tree, and both must reach exactly the vectors the exhaustive run
  reached.
* **Equal futures.**  Every dedup hit is replayed next to the execution
  that first recorded the same fingerprint.  From there both continue
  with one order-independent policy: deliver the enabled head with the
  smallest semantic key.  Both must then deliver the same messages and
  end with the same status and decisions.
"""

import random

import pytest

import repro.checking.explorer as explorer_module
from benchmarks.bench_check import _cases
from repro.checking import Explorer, ScheduleChooser, execute_run, message_key
from repro.checking.choice import BaseChooser

MODELS = ("n2_fifo", "n2_fifo_divergent")
TERMINAL = ("complete", "quiescent")


def model(name):
    return _cases(quick=True)[name]["config"]


def vector(outcome):
    return outcome.status, tuple(sorted(outcome.decisions.items()))


class RandomDescent(BaseChooser):
    """Pick a uniformly random enabled head at every choice point."""

    def __init__(self, rng):
        super().__init__()
        self.rng = rng

    def choose(self, candidates):
        return self.rng.choice(self.channel_heads(candidates))


class SmallestKeyContinuation(ScheduleChooser):
    """Replay ``schedule``, then deliver the enabled head with the
    smallest semantic key, recording every key delivered from the first
    branching point past the schedule on."""

    def __init__(self, schedule):
        super().__init__(schedule)
        self.delivered = None

    def choose(self, candidates):
        heads = self.channel_heads(candidates)
        if self.delivered is None:
            if len(heads) == 1 or self.position < len(self.schedule):
                return super().choose(candidates)
            self.delivered = []
        index = min(
            heads, key=lambda i: repr(message_key(candidates[i]._args[0]))
        )
        self.delivered.append(message_key(candidates[index]._args[0]))
        return index


@pytest.mark.parametrize("name", MODELS)
def test_dedup_on_and_off_reach_the_same_terminal_vectors(name):
    on = set()
    result = Explorer(
        model(name),
        on_execution=lambda prefix, outcome: (
            outcome.status in TERMINAL and on.add(vector(outcome))
        ),
    ).run()
    assert result.exhausted and on

    budgeted = set()
    Explorer(
        model(name), dedup=False, max_executions=300,
        on_execution=lambda prefix, outcome: (
            outcome.status in TERMINAL and budgeted.add(vector(outcome))
        ),
    ).run()
    rng = random.Random(name)
    sampled = set()
    for _ in range(150):
        outcome = execute_run(model(name), RandomDescent(rng))
        assert outcome.status in TERMINAL
        sampled.add(vector(outcome))
    assert budgeted <= on
    assert sampled | budgeted == on


@pytest.mark.parametrize("name", MODELS)
def test_deduped_states_have_equal_futures(name, monkeypatch):
    real = explorer_module.state_fingerprint
    first_trail = {}
    last = [None]

    def recording(frame, candidates, tasks, fifo, segments):
        fingerprint = real(frame, candidates, tasks, fifo, segments)
        first_trail.setdefault(fingerprint, tuple(frame.sim._chooser.trail))
        last[0] = fingerprint
        return fingerprint

    hits = []

    def on_execution(prefix, outcome):
        if outcome.status == "deduped":
            hits.append((tuple(outcome.trail), first_trail[last[0]]))

    monkeypatch.setattr(explorer_module, "state_fingerprint", recording)
    Explorer(model(name), on_execution=on_execution).run()
    monkeypatch.undo()
    assert len(hits) > 50

    def future(schedule):
        chooser = SmallestKeyContinuation(schedule)
        outcome = execute_run(model(name), chooser)
        return chooser.delivered, outcome.status, outcome.decisions

    root = future(())
    for again, first in hits:
        assert again != first
        assert future(again) == future(first), f"{again} and {first} diverge"
    # The comparison tells states apart: no deduped state is the root.
    assert all(future(again) != root for again, _ in hits)
