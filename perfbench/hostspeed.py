"""Host-speed calibration for timings taken on a shared host.

On a host shared with other tenants the same code runs at speeds that
differ by tens of percent, in phases that last from seconds to many
minutes, so two sets of runs of one code version can disagree by more
than any useful regression bound.  The benchmark therefore samples a
fixed pure-Python reference loop between work items (every
``GAP_S`` of work, never inside a timed interval) and reports each timing
scaled to a host on which that loop runs ``NOMINAL_UNITS_PER_S`` units
per second::

    adjusted time = raw time * measured units/s / NOMINAL_UNITS_PER_S

The reference loop touches nothing of the program, so a program change
moves the adjusted figures as it would move raw ones on a host of fixed
speed.  Raw figures and the measured reference speed are printed too.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Reference units per second of the host the benchmark was defined on
#: (Intel Xeon, 2 vCPUs, CPython 3.11), interleaved with the workloads.
NOMINAL_UNITS_PER_S = 900.0
#: Seconds of work between two reference samples.
GAP_S = 0.025
#: Reference units per sample (about 1 ms each at the nominal speed).
UNITS_PER_SAMPLE = 2


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: str, value: int, nxt: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = nxt


def reference_unit() -> int:
    """A fixed amount of interpreter-bound work: heap, dict, string
    formatting, object allocation and attribute access."""
    heap: list[tuple[int, int]] = []
    table: dict[str, int] = {}
    head = None
    for i in range(600):
        heapq.heappush(heap, ((i * 7919) % 1021, i))
        key = "k%d" % (i % 97)
        table[key] = table.get(key, 0) + i
        head = _Node(key, i, head)
    total = 0
    while heap:
        total += heapq.heappop(heap)[0]
    while head is not None:
        total += len(head.key) + head.value
        head = head.next
    return total + len(table)


class HostSpeed:
    """Reference-loop samples taken between work items over one run."""

    def __init__(self) -> None:
        self.units = 0
        self.sampled_s = 0.0
        #: Time spent sampling; timed intervals subtract it.
        self.paused_s = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        """Run one reference sample now."""
        # Without the collector: a collection here would cost in proportion
        # to the program's heap, not to the host's speed.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for _ in range(UNITS_PER_SAMPLE):
            reference_unit()
        self._last = time.perf_counter()
        if enabled:
            gc.enable()
        spent = self._last - start
        self.units += UNITS_PER_SAMPLE
        self.sampled_s += spent
        self.paused_s += spent

    def tick(self) -> None:
        """Sample if ``GAP_S`` of work has passed since the last sample."""
        if time.perf_counter() - self._last >= GAP_S:
            self.sample()

    def units_per_s(self) -> float:
        """Measured reference speed (samples once if none was taken)."""
        if not self.units:
            self.sample()
        return self.units / self.sampled_s

    def time_scale(self) -> float:
        """Factor turning a raw duration into a host-adjusted one."""
        return self.units_per_s() / NOMINAL_UNITS_PER_S
