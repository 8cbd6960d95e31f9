"""Pure helpers of the benchmark: percentiles, schedules, span arithmetic.

Nothing here imports the program under test, so the rules the benchmark
reports by can be unit-tested on their own (``test_perfbench_helpers.py``).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

#: A percentile is only reported when at least this many samples lie
#: beyond it; below that the tail is one or two unlucky samples, not a
#: property of the system.
MIN_SAMPLES_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """Too few samples for the requested percentile."""


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` samples."""
    # Rounded first so that e.g. 99.9% of 10,000 is rank 9,990, not 9,991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile of ``n``."""
    if n <= 0:
        return 0
    return n - _rank(n, p)


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile, refusing an unsupported tail.

    Raises :class:`UnsupportedPercentile` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond the reported rank.
    """
    data = sorted(values)
    n = len(data)
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    beyond = samples_beyond(n, p)
    if beyond < MIN_SAMPLES_BEYOND:
        raise UnsupportedPercentile(
            f"p{p:g} of {n} samples has {beyond} beyond it; "
            f"needs >= {MIN_SAMPLES_BEYOND}"
        )
    return float(data[_rank(n, p) - 1])


# -- open-loop scheduling ------------------------------------------------------


def due_times(count: int, interval: float, start: float = 0.0) -> list[float]:
    """Fixed-rate schedule: item ``k`` is due at ``start + k * interval``.

    The schedule never depends on how fast the system answers, which is
    what makes the loop open.
    """
    if interval <= 0:
        raise ValueError(f"interval must be > 0, got {interval}")
    return [start + k * interval for k in range(count)]


def sealing_slots(sends, thresholds) -> list[int | None]:
    """Per threshold, the first due slot after which the fleet's frontier reaches it.

    ``sends`` lists ``(slot, connection, high)`` for every first send,
    ``high`` being the envelope's latest event time.  A worker's frontier
    is the latest event time it has seen; the fleet's is the minimum over
    every connection, ``-inf`` until each has sent.  A pane with end
    ``e`` may seal once that frontier reaches ``e + allowed lateness``,
    its threshold.  ``None`` marks a threshold no send reaches: that pane
    seals only when the workers drain.
    """
    highs: dict[int, float] = {}
    connections = {conn for _slot, conn, _high in sends}
    slots: list[int] = []
    frontier: list[float] = []  # non-decreasing, so it can be bisected
    for slot, conn, high in sorted(sends):
        highs[conn] = max(highs.get(conn, -math.inf), high)
        fleet = min(highs.values()) if len(highs) == len(connections) else -math.inf
        if slots and slots[-1] == slot:
            frontier[-1] = fleet
        else:
            slots.append(slot)
            frontier.append(fleet)
    out: list[int | None] = []
    for threshold in thresholds:
        i = bisect.bisect_left(frontier, threshold)
        out.append(slots[i] if i < len(slots) else None)
    return out


@dataclass(frozen=True)
class SendRecord:
    """When one envelope was due, got credit, went out and was acked."""

    due: float
    ready: float  # the sender reached it (>= due when the sender was on time)
    sent: float  # credit was available and the frame was written
    acked: float

    @property
    def lag(self) -> float:
        """How late the generator reached the item (no credit wait)."""
        return max(0.0, self.ready - self.due)

    @property
    def credit_wait(self) -> float:
        """How long a due item was held for lack of credit."""
        return max(0.0, self.sent - self.ready)

    @property
    def latency(self) -> float:
        """Due-to-ack: a stall charges everything queued behind it."""
        return self.acked - self.due


# -- spans ---------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One traced call: wall interval, thread-CPU interval, parent, envelope."""

    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    envelope: str | None = None


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, tuple[float, float]]:
    """Per span id: ``(self wall, self cpu)``.

    Self wall is the span's duration minus the part of it its direct
    children cover (union, so overlapping children count once); self cpu
    is its thread-CPU time minus its direct children's (children run on
    the same thread, nested inside the parent, so they never overlap).
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s.sid, ())
        wall = (s.end - s.start) - covered_length(
            ((k.start, k.end) for k in kids), s.start, s.end
        )
        cpu = (s.cpu_end - s.cpu_start) - sum(
            k.cpu_end - k.cpu_start for k in kids
        )
        out[s.sid] = (max(0.0, wall), max(0.0, cpu))
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    self_wall: float = 0.0
    self_cpu: float = 0.0


def layer_totals(spans) -> dict[str, LayerTotals]:
    """Self time and call count summed per span name."""
    selfs = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for s in spans:
        tot = out.setdefault(s.name, LayerTotals())
        wall, cpu = selfs[s.sid]
        tot.calls += 1
        tot.self_wall += wall
        tot.self_cpu += cpu
    return out


def unattributed(wall: float, layer_self_walls) -> float:
    """Wall time no layer on the blocking path claims as its own.

    Self times of spans on one thread never overlap, so their sum is at
    most the wall time; what is left is the event loop, sockets and
    everything else between layer calls.
    """
    return wall - sum(layer_self_walls)


# -- run-to-run spread ---------------------------------------------------------


def median(values) -> float:
    data = sorted(values)
    n = len(data)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return float(data[mid]) if n % 2 else (data[mid - 1] + data[mid]) / 2.0
