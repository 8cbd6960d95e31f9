"""Seeded inputs and exact references for the three benchmark workloads.

Every input is a pure function of ``--seed``.  The program under test
only ever sees already-privatized report envelopes; the truth each run
is checked against (which reports are on time, which window each
belongs to, how many stragglers are late) is decided here, by the
stream itself and never by arrival timing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from pbstats import sealing_slots
from repro.core import OptimalLocalHashing
from repro.core.timed import TimedReports, slice_report_batch
from repro.protocol.transport import pack_timed_reports

DOMAIN = 64
EPSILON = 2.0
ZIPF_EXPONENT = 1.1
DRIFT_STEPS = 16

# bulk: closed loop, one connection, big envelopes, no window.
BULK_ENVELOPE = 65_536
BULK_POOL_ENVELOPES = 32  # 2.1M distinct reports, re-sent round after round
BULK_CREDITS = 2

# small-envelopes: open loop at a fixed offered rate.
SMALL_ENVELOPE = 256
SMALL_RATE = 30_000.0  # reports/s: about a third of the capacity (85-100k/s on 2 cores)
SMALL_CONNECTIONS = 2
SMALL_HOURS = 400.0  # event-clock span: ~400 hourly windows per run
SMALL_PANE_HOURS = 1.0
SMALL_LATENESS = 0.5
SMALL_DISORDER = 0.2  # on-time reports lag their arrival by at most this
SMALL_STRAGGLER_SHARE = 0.005
SMALL_STRAGGLER_DELAY = (20.0, 30.0)  # hours behind arrival: surely late
SMALL_DUPLICATE_SHARE = 0.01
SMALL_DUPLICATE_OFFSET = 4  # a retry goes out this many own-slots later
SMALL_CHECKPOINT_EVERY = 8

# sessions: closed-loop replay of a bursty month into EventTimeCollector.
SESSION_ENVELOPE = 4_096
SESSION_DAYS = 30
SESSION_CENTERS = (8.0, 12.5, 18.0, 22.0)  # four daily app-open bursts
SESSION_WIDTH = 0.5
SESSION_REPORTS_PER_BURST = 6_000  # > one envelope: bursts never share one
SESSION_GAP = 1.0
SESSION_LATENESS = 2.0
SESSION_JITTER = 0.25  # on-time arrival lag, well inside the lateness
SESSION_STRAGGLER_SHARE = 0.01


def make_oracle() -> OptimalLocalHashing:
    return OptimalLocalHashing(DOMAIN, EPSILON)


def zipf_values(n: int, rng: np.random.Generator) -> np.ndarray:
    """Zipf(1.1) over the domain whose value identities rotate over time."""
    weights = np.arange(1, DOMAIN + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    values = rng.choice(DOMAIN, size=n, p=weights / weights.sum())
    shift = np.arange(n) // max(n // DRIFT_STEPS, 1)
    return ((values + shift) % DOMAIN).astype(np.int64)


def _privatize(oracle, values, rng) -> tuple[object, float]:
    """Privatize, returning the reports and the thread-CPU seconds spent."""
    c0 = time.thread_time()
    reports = oracle.privatize(values, rng=rng)
    return reports, time.thread_time() - c0


# -- bulk ----------------------------------------------------------------------


@dataclass
class BulkInputs:
    pool: list  # HashedReports envelopes, re-sent cyclically with fresh ids
    frames: list  # each pool envelope packed for the wire, once
    privatize_cpu: float

    def envelope(self, k: int):
        return f"r{k}", self.frames[k % len(self.frames)]


def bulk_inputs(seed: int) -> BulkInputs:
    rng = np.random.default_rng([seed, 1])
    n = BULK_ENVELOPE * BULK_POOL_ENVELOPES
    reports, cpu = _privatize(make_oracle(), zipf_values(n, rng), rng)
    pool = [
        slice_report_batch(reports, slice(i, i + BULK_ENVELOPE))
        for i in range(0, n, BULK_ENVELOPE)
    ]
    return BulkInputs(pool, [pack_timed_reports(env) for env in pool], cpu)


def bulk_reference(oracle, inputs: BulkInputs, sent: int):
    """One accumulator over exactly the envelopes sent, plus its fold time.

    Each pool envelope is absorbed once on this thread (the single-
    threaded baseline); envelope ``k`` of the run re-sent pool envelope
    ``k mod P``, and the algebra is exact, so merging the per-envelope
    accumulators in send order equals absorbing every sent report.
    """
    t0 = time.perf_counter()
    parts = [oracle.accumulator().absorb(env) for env in inputs.pool]
    fold_s = time.perf_counter() - t0
    total = oracle.accumulator()
    for k in range(sent):
        total.merge(parts[k % len(parts)])
    rows = sum(len(env) for env in inputs.pool)
    return total, rows, fold_s


# -- small-envelopes -----------------------------------------------------------


@dataclass
class SmallInputs:
    envelopes: list  # (envelope id, packed TimedReports) in stream order
    schedule: list  # per connection: [(due slot, envelope index, is retry)]
    reports: object  # every report, stream order
    pane: np.ndarray  # pane of each report
    on_time: np.ndarray  # bool per report
    sealing_slot: dict  # pane -> due slot whose envelope lets it seal
    stragglers: int
    retries: int
    interval: float  # seconds between consecutive due slots
    privatize_cpu: float


def small_inputs(seed: int, seconds: float) -> SmallInputs:
    rng = np.random.default_rng([seed, 2])
    n_env = math.ceil(SMALL_RATE * seconds / SMALL_ENVELOPE)
    n = n_env * SMALL_ENVELOPE
    arrival = SMALL_DISORDER + np.arange(n) * (SMALL_HOURS / n)
    event = arrival - rng.uniform(0.0, SMALL_DISORDER, n)
    low, high = SMALL_STRAGGLER_DELAY
    straggler = (rng.random(n) < SMALL_STRAGGLER_SHARE) & (arrival >= high + 1.0)
    event[straggler] = arrival[straggler] - rng.uniform(low, high, int(straggler.sum()))
    reports, cpu = _privatize(make_oracle(), zipf_values(n, rng), rng)
    envelopes = []
    for k in range(n_env):
        sl = slice(k * SMALL_ENVELOPE, (k + 1) * SMALL_ENVELOPE)
        timed = TimedReports(timestamps=event[sl], reports=slice_report_batch(reports, sl))
        envelopes.append((f"e{k}", pack_timed_reports(timed)))
    # Round-robin placement: envelope k goes to connection k mod C, due
    # in slot k.  About 1% are retried with the same id a few of their
    # own connection's slots later, the way phones retry.
    retried = rng.choice(n_env, size=round(SMALL_DUPLICATE_SHARE * n_env), replace=False)
    schedule: list[list] = [[] for _ in range(SMALL_CONNECTIONS)]
    for k in range(n_env):
        schedule[k % SMALL_CONNECTIONS].append((k, k, False))
    for k in sorted(int(x) for x in retried):
        slot = k + SMALL_CONNECTIONS * SMALL_DUPLICATE_OFFSET
        schedule[k % SMALL_CONNECTIONS].append((slot, k, True))
    for items in schedule:
        items.sort(key=lambda item: (item[0], item[2]))
    pane = np.floor(event / SMALL_PANE_HOURS).astype(np.int64)
    on_time = ~straggler
    # A pane seals once every worker's frontier passes its end plus the
    # lateness; the schedule fixes which send does that.  The last few
    # panes seal only when the workers drain and are not timed.
    highs = event.reshape(n_env, SMALL_ENVELOPE).max(axis=1)
    sends = [(k, k % SMALL_CONNECTIONS, float(highs[k])) for k in range(n_env)]
    panes = np.unique(pane[on_time]).tolist()
    ends = [(p + 1) * SMALL_PANE_HOURS + SMALL_LATENESS for p in panes]
    sealing_slot = {
        p: slot for p, slot in zip(panes, sealing_slots(sends, ends)) if slot is not None
    }
    return SmallInputs(
        envelopes=envelopes,
        schedule=schedule,
        reports=reports,
        pane=pane,
        on_time=on_time,
        sealing_slot=sealing_slot,
        stragglers=int(straggler.sum()),
        retries=len(retried),
        interval=SMALL_ENVELOPE / SMALL_RATE,
        privatize_cpu=cpu,
    )


def pane_references(oracle, reports, groups: np.ndarray, keep: np.ndarray) -> dict:
    """Batch absorb per group over the kept reports: ``{group: acc}``."""
    idx = np.flatnonzero(keep)
    order = idx[np.argsort(groups[idx], kind="stable")]
    keys = groups[order]
    cuts = np.flatnonzero(np.diff(keys)) + 1
    out = {}
    for segment in np.split(order, cuts):
        if segment.size:
            out[int(groups[segment[0]])] = oracle.accumulator().absorb(
                slice_report_batch(reports, np.sort(segment))
            )
    return out


# -- sessions ------------------------------------------------------------------


@dataclass
class SessionInputs:
    envelopes: list  # TimedReports, arrival order
    reports: object
    burst: np.ndarray  # burst of each report (arrival order)
    on_time: np.ndarray
    burst_start: dict  # burst -> earliest on-time event time (= session start)
    last_envelope: dict  # burst -> envelope index of its last on-time report
    stragglers: int
    privatize_cpu: float

    @property
    def num_reports(self) -> int:
        return int(self.burst.shape[0])


def _burst_origin(burst: np.ndarray) -> np.ndarray:
    centers = np.asarray(SESSION_CENTERS)
    per_day = len(SESSION_CENTERS)
    return (burst // per_day) * 24.0 + centers[burst % per_day] - SESSION_WIDTH / 2.0


def session_inputs(seed: int) -> SessionInputs:
    """A month of four daily bursts; each burst is one session window.

    Quiet stretches (>= 3.5 h) exceed gap + lateness (3 h), so burst b
    seals in the first envelope holding burst b+1.  A straggler of
    burst b arrives among burst b+2's reports, at least one whole burst
    (more than one envelope) after that seal: it is late by
    construction.  On-time reports arrive at most ``SESSION_JITTER``
    after they happened, long before their burst can seal.
    """
    rng = np.random.default_rng([seed, 3])
    bursts = SESSION_DAYS * len(SESSION_CENTERS)
    n = bursts * SESSION_REPORTS_PER_BURST
    burst = np.arange(n) % bursts
    event = _burst_origin(burst) + rng.uniform(0.0, SESSION_WIDTH, n)
    arrival = event + rng.uniform(0.0, SESSION_JITTER, n)
    straggler = (rng.random(n) < SESSION_STRAGGLER_SHARE) & (burst < bursts - 2)
    arrival[straggler] = _burst_origin(burst[straggler] + 2) + rng.uniform(
        0.0, SESSION_WIDTH, int(straggler.sum())
    )
    order = np.argsort(arrival, kind="stable")
    event, burst, straggler = event[order], burst[order], straggler[order]
    reports, cpu = _privatize(make_oracle(), zipf_values(n, rng), rng)
    envelopes = [
        TimedReports(
            timestamps=event[i : i + SESSION_ENVELOPE],
            reports=slice_report_batch(reports, slice(i, i + SESSION_ENVELOPE)),
        )
        for i in range(0, n, SESSION_ENVELOPE)
    ]
    on_time = ~straggler
    positions = np.flatnonzero(on_time)
    start = np.full(bursts, np.inf)
    np.minimum.at(start, burst[positions], event[positions])
    last = np.full(bursts, -1, dtype=np.int64)
    np.maximum.at(last, burst[positions], positions // SESSION_ENVELOPE)
    burst_start = {b: float(t) for b, t in enumerate(start)}
    last_envelope = {b: int(e) for b, e in enumerate(last)}
    return SessionInputs(
        envelopes=envelopes,
        reports=reports,
        burst=burst,
        on_time=on_time,
        burst_start=burst_start,
        last_envelope=last_envelope,
        stragglers=int(straggler.sum()),
        privatize_cpu=cpu,
    )
