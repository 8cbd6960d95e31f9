"""The repository benchmark: three seeded workloads against the aggregator stack.

Run from the repository root::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``bulk`` -- closed loop, one connection, 65,536-report OLH envelopes
  into one ingest worker plus the combiner; no window, no checkpoint.
* ``small-envelopes`` -- open loop at a fixed offered rate, 256-report
  envelopes over two connections to two ingest workers (round-robin),
  hourly event_tumbling windows, checkpoints every 8 ships, ~1% retries.
* ``sessions`` -- closed-loop, single-threaded replay of a bursty month
  in 4,096-report envelopes into ``EventTimeCollector`` session windows.

The service fleet runs in its own spawned process (``pbfleet.py``); the
load generator is this process.  Each process is pinned to its own CPU
and runs the decode kernels on one thread (``REPRO_KERNEL_THREADS=1``),
so the two never need more than two cores.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs an untraced pass and then a
traced pass, each for half of ``--seconds``, and prints the per-layer
metrics (``pblayers.py``).  Every
pass is checked against the benchmark's own exact reference; a failed
check prints ``"correct": false`` and exits 1.  The last line of standard output is
the result object; the line before it is the run's context (host,
versions, sample counts, the base of every ratio).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import platform
import shutil
import sys
import time
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
FLEET_TIMEOUT = 60.0  # every wait on the fleet is bounded: a wedged run fails, never hangs
WORKDIR = ".perfbench"
#: The generator (or the in-process streaming engine) runs on the first
#: CPU, the fleet on the second: a fixed placement, so the scheduler
#: cannot stack both on one core from one run to the next.
CPUS = sorted(os.sched_getaffinity(0))[:2]


class CheckFailed(AssertionError):
    """A correctness check of the benchmark's own reference failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def ms(seconds: float) -> float:
    return seconds * 1e3


def _tail(latencies) -> dict:
    """A latency tail for the context line, not gated.

    Nearest-rank p90 and p99, ``None`` where the sample is too small.
    Not end-to-end metrics: on small-envelopes a tail follows the host's
    scheduling hiccups, which move the seal p90 by up to 2x between the
    quarters of one run.
    """
    import pbstats as st

    def tail(p):
        try:
            return ms(st.percentile(latencies, p))
        except st.UnsupportedPercentile:
            return None

    return {"p90_ms": tail(90), "p99_ms": tail(99), "samples": len(latencies)}


# -- load generator: one client connection ------------------------------------


class Client:
    """One generator connection speaking the ingest wire protocol.

    Honours the credit window the worker advertises in its hello and
    checks that acks arrive in send order.  ``record`` lists are
    ``[due, ready, sent, acked]`` perf_counter stamps.
    """

    def __init__(self, reader, writer, credits: int) -> None:
        self.reader = reader
        self.writer = writer
        self.credit = asyncio.Semaphore(credits)
        self.inflight: deque = deque()
        self._reader_task = asyncio.ensure_future(self._read_acks())

    @classmethod
    async def open(cls, address) -> "Client":
        from repro.protocol import transport

        reader, writer = await asyncio.open_connection(*address)
        hello = await transport.read_message(reader)
        check(hello is not None and hello[0].get("type") == "hello", "no hello")
        return cls(reader, writer, int(hello[0]["credits"]))

    async def send(self, envelope_id: str, frame, record: list) -> None:
        """Write one envelope packed at set-up (``pack_timed_reports``)."""
        from repro.protocol import transport

        header, arrays = frame
        transport.write_message(
            self.writer, dict(header, type="reports", envelope=envelope_id), arrays
        )
        self.inflight.append((envelope_id, record))
        await self.writer.drain()

    async def _read_acks(self) -> None:
        from repro.protocol import transport

        while True:
            message = await transport.read_message(self.reader)
            check(message is not None, "worker closed the connection early")
            header = message[0]
            if header.get("type") == "eof_ack":
                return
            check(header.get("type") == "ack", f"unexpected reply {header!r}")
            envelope_id, record = self.inflight.popleft()
            check(header["envelope"] == envelope_id, "ack out of order")
            record[3] = time.perf_counter()
            self.credit.release()

    async def close(self) -> None:
        """Send eof; the worker acks everything before its eof_ack."""
        from repro.protocol import transport

        transport.write_message(self.writer, {"type": "eof"})
        await self.writer.drain()
        await asyncio.wait_for(self._reader_task, FLEET_TIMEOUT)
        self.writer.close()
        await self.writer.wait_closed()


class Fleet:
    """Handle on the spawned fleet process."""

    def __init__(self, cfg: dict) -> None:
        import pbfleet

        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=pbfleet.fleet_main, args=(child, cfg), daemon=True)
        self.process.start()
        child.close()
        self.addresses = self._receive("ready")

    def _receive(self, kind: str):
        if not self._conn.poll(FLEET_TIMEOUT):
            raise RuntimeError(f"fleet sent no {kind!r} within {FLEET_TIMEOUT}s")
        tag, body = self._conn.recv()
        if tag != kind:
            raise RuntimeError(f"fleet failed: {body}")
        return body

    def result(self) -> dict:
        try:
            return self._receive("result")
        finally:
            self.stop()

    def stop(self, wait: float = FLEET_TIMEOUT) -> None:
        self.process.join(timeout=wait)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self._conn.close()


async def _connect(addresses) -> list[Client]:
    return [await Client.open(address) for address in addresses]


async def _close_all(clients) -> None:
    await asyncio.gather(*(c.close() for c in clients))


def _shutdown_idle(fleet: Fleet) -> None:
    """Drain a fleet that served nothing (a discarded set-up repetition)."""

    async def drain():
        await _close_all(await _connect(fleet.addresses))

    asyncio.run(drain())
    fleet.result()


# -- service workloads ---------------------------------------------------------


def _fleet_cfg(workload: str, trace: bool, run_dir: str, tag: str) -> dict:
    import pbworkloads as w
    from repro.protocol.service import DEFAULT_CREDIT_WINDOW

    if workload == "bulk":
        cfg = {"workers": 1, "window": None, "credits": w.BULK_CREDITS, "checkpoint_path": None}
    else:
        cfg = {
            "workers": w.SMALL_CONNECTIONS,
            "window": (w.SMALL_PANE_HOURS, w.SMALL_LATENESS),
            "credits": DEFAULT_CREDIT_WINDOW,
            "checkpoint_path": os.path.join(run_dir, f"combiner-{tag}.ckpt"),
        }
    cfg.update(
        checkpoint_every=w.SMALL_CHECKPOINT_EVERY,
        trace=trace,
        trace_path=os.path.join(WORKDIR, "trace", f"{workload}-fleet.jsonl"),
        timeout=FLEET_TIMEOUT,
        cpu=CPUS[1] if len(CPUS) > 1 else None,
    )
    return cfg


def _set_up_service(workload: str, seed: int, seconds: float, run_dir: str):
    """Generate inputs and start a warmed fleet, several times; keep the last."""
    import pbworkloads as w

    times = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = w.bulk_inputs(seed) if workload == "bulk" else w.small_inputs(seed, seconds)
        fleet = Fleet(_fleet_cfg(workload, False, run_dir, f"setup{rep}"))
        times.append(time.perf_counter() - t0)
        if rep < SETUP_REPEATS - 1:
            _shutdown_idle(fleet)
    return inputs, fleet, times


async def _bulk_loop(addresses, inputs, seconds):
    (client,) = await _connect(addresses)
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while time.perf_counter() < deadline:
        ready = time.perf_counter()
        await client.credit.acquire()
        now = time.perf_counter()
        # Closed loop: the next envelope is due the moment credit frees
        # up, so it is timed from its send; the wait for that credit is
        # the generator's credit wait.
        record = [now, ready, now, None]
        records.append(record)
        envelope_id, frame = inputs.envelope(k)
        await client.send(envelope_id, frame, record)
        k += 1
    await client.close()
    return records


async def _open_loop(addresses, inputs):
    import pbstats as st

    clients = await _connect(addresses)
    slots = 1 + max(slot for items in inputs.schedule for slot, _k, _r in items)
    due_at = st.due_times(slots, inputs.interval, start=time.perf_counter() + 0.05)
    records: list[list] = []

    async def sender(client, items):
        for slot, k, _retry in items:
            due = due_at[slot]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record = [due, time.perf_counter(), None, None]
            records.append(record)
            await client.credit.acquire()
            record[2] = time.perf_counter()
            envelope_id, frame = inputs.envelopes[k]
            await client.send(envelope_id, frame, record)

    await asyncio.gather(*(sender(c, items) for c, items in zip(clients, inputs.schedule)))
    await _close_all(clients)
    return records, due_at


def _service_pass(workload, fleet, inputs, seconds):
    """Drive one measured pass: (records, fleet result, due time per slot)."""
    if workload == "bulk":
        loop = _bulk_loop(fleet.addresses, inputs, seconds)
    else:
        loop = _open_loop(fleet.addresses, inputs)
    try:
        outcome = asyncio.run(asyncio.wait_for(loop, seconds + FLEET_TIMEOUT))
    except BaseException:
        fleet.stop(wait=0)
        raise
    records, due_at = (outcome, None) if workload == "bulk" else outcome
    return records, fleet.result(), due_at


def _check_bulk(oracle, inputs, records, res):
    import numpy as np
    import pbworkloads as w

    sent = len(records)
    total, rows, fold_s = w.bulk_reference(oracle, inputs, sent)
    check(res["absorbed"] == sent * w.BULK_ENVELOPE, "absorbed != reports sent")
    check(res["late"] == 0 and res["lost"] == 0, "bulk lost or late reports")
    check(
        res["absorbed"] + res["late"] + res["lost"] == total.n_absorbed,
        "absorbed + late + lost != n",
    )
    check(
        np.array_equal(res["estimated_counts"], total.finalize()),
        "all-time estimate differs from one accumulator over the same reports",
    )
    return rows / fold_s


def _check_small(oracle, inputs, records, res):
    import numpy as np
    import pbworkloads as w

    t0 = time.perf_counter()
    refs = w.pane_references(oracle, inputs.reports, inputs.pane, inputs.on_time)
    fold_s = time.perf_counter() - t0
    n = inputs.pane.shape[0]
    check(res["lost"] == 0, f"{res['lost']} reports lost")
    check(res["late"] == inputs.stragglers, f"late {res['late']} != designed {inputs.stragglers}")
    check(res["absorbed"] + res["late"] + res["lost"] == n, "absorbed + late + lost != n")
    windows = {pane: (users, est) for pane, users, est in res["windows"]}
    check(set(windows) == set(refs), "emitted windows != panes with on-time reports")
    everything = oracle.accumulator()
    for pane, acc in refs.items():
        users, est = windows[pane]
        check(users == acc.n_absorbed, f"window {pane}: {users} users, expected {acc.n_absorbed}")
        check(np.array_equal(est, acc.finalize()), f"window {pane} differs from its batch")
        everything.merge(acc)
    check(np.array_equal(res["estimated_counts"], everything.finalize()), "all-time estimate differs")
    dups = sum(wk["duplicates"] for wk in res["workers"]) + res["combiner_duplicates"]
    check(dups == inputs.retries, f"{dups} duplicates dropped, {inputs.retries} retries sent")
    return int(inputs.on_time.sum()) / fold_s


def _service_metrics(workload, inputs, records, res, due_at):
    import pbstats as st

    check(all(r[3] is not None for r in records), "unacked envelopes")
    sends = sorted((st.SendRecord(*r) for r in records), key=lambda r: r.due)
    wall = res["t_result"] - min(r.sent for r in sends)
    acks = [r.latency for r in sends]
    if workload == "bulk":
        # No window: the all-time view is re-emitted at every merge, so
        # freshness is offer -> merged into the combiner's total.
        seals = [res["merged"][f"r{k}"] - r[0] for k, r in enumerate(records)]
    else:
        # From the due time of the send that let the pane seal: before
        # it, the schedule, not the program, holds the pane open.
        seals = [res["sealed"][pane] - due_at[slot] for pane, slot in inputs.sealing_slot.items()]
        check(min(seals) > 0, "a pane sealed before the send that lets it seal")
    metrics = {
        "users_per_s": res["absorbed"] / wall,
        "ack_p50_ms": ms(st.percentile(acks, 50)),
        "seal_p50_ms": ms(st.percentile(seals, 50)),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    samples = {
        "ack_tail": _tail(acks),
        "seal_tail": _tail(seals),
        # Where an ack's time goes: generator lateness, then send -> ack.
        "ack_split_p50_ms": {
            "lag": ms(st.median([r.lag for r in sends])),
            "sent_to_ack": ms(st.median([r.acked - r.sent for r in sends])),
        },
    }
    gen = {"lag": [r.lag for r in sends], "credit_wait": sum(r.credit_wait for r in sends)}
    return metrics, samples, gen, wall


def run_service(workload: str, seed: int, seconds: float, trace: bool, run_dir: str):
    import pbstats as st
    import pbworkloads as w

    oracle = w.make_oracle()
    inputs, fleet, setup_times = _set_up_service(workload, seed, seconds, run_dir)
    records, res, due_at = _service_pass(workload, fleet, inputs, seconds)
    checker = _check_bulk if workload == "bulk" else _check_small
    ref_rate = checker(oracle, inputs, records, res)
    metrics, samples, _gen, _wall = _service_metrics(workload, inputs, records, res, due_at)
    metrics["setup_s"] = st.median(setup_times)
    attempted = len(records)
    context = {
        "samples": samples,
        "setup_repeats": setup_times,
        "kernel_threads": res["kernel_threads"],
    }
    if not trace:
        return metrics, attempted, context

    from pbtrace import Tracer, install_layers

    fleet = Fleet(_fleet_cfg(workload, True, run_dir, "traced"))
    tracer = Tracer()
    install_layers(tracer)  # generator side: packing and framing
    try:
        records, tres, due_at = _service_pass(workload, fleet, inputs, seconds)
    finally:
        tracer.uninstall()
    checker(oracle, inputs, records, tres)
    tmetrics, _, tgen, twall = _service_metrics(workload, inputs, records, tres, due_at)
    layers = _per_layer(
        workload,
        tres["trace"],
        gen_layers=tracer.layers(),
        gen_counters=tracer.counters,
        gen=tgen,
        wall=twall,
        privatize_cpu=inputs.privatize_cpu,
        ref_rate=ref_rate,
        traced_ack=tmetrics["ack_p50_ms"],
        untraced_ack=metrics["ack_p50_ms"],
    )
    layers["service.envelopes"] = sum(wk["envelopes"] + wk["duplicates"] for wk in tres["workers"])
    layers["service.ships"] = tres["ships"]
    layers["service.duplicates"] = (
        sum(wk["duplicates"] for wk in tres["workers"]) + tres["combiner_duplicates"]
    )
    layers["service.reships"] = sum(wk["reships"] for wk in tres["workers"])
    layers["service.checkpoints"] = tres["checkpoints"]
    context["trace_samples"] = {"gen_lag": len(tgen["lag"])}
    return layers, attempted + len(records), context


# -- sessions ------------------------------------------------------------------


def _session_spec():
    import pbworkloads as w
    from repro.protocol import WindowSpec

    return WindowSpec.session(w.SESSION_GAP, allowed_lateness=w.SESSION_LATENESS)


def _sessions_setup(seed: int):
    import pbworkloads as w
    from repro.protocol import EventTimeCollector

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = w.session_inputs(seed)
        oracle = w.make_oracle()
        # Untimed warm-up pass: fills the kernel plan cache and the
        # collector's first-call paths.
        warm = EventTimeCollector(oracle, _session_spec(), user_model="disjoint_users")
        for env in inputs.envelopes[:8]:
            warm.absorb(env)
        warm.finish()
        times.append(time.perf_counter() - t0)
    return inputs, oracle, times


def _sessions_pass(oracle, inputs, seconds, tracer=None):
    """Replay the month until ``seconds`` have passed; whole replays only.

    Returns the replays, each ``(sends, emitted, result, seconds)``, and
    the plan-cache (hits, misses) of the traced replays.
    With a ``tracer``, replays alternate traced and untraced, from the
    first: the host's speed drifts by up to a third between passes a
    minute apart, so tracing overhead is measured between neighbouring
    replays.
    """
    from pbtrace import install_layers, plan_cache_since
    from repro.protocol import EventTimeCollector
    from repro.util.kernels import kernel_plan_cache

    replays = []
    hits = misses = 0
    deadline = time.perf_counter() + seconds
    while len(replays) < (1 if tracer is None else 2) or time.perf_counter() < deadline:
        traced = tracer is not None and len(replays) % 2 == 0
        if traced:
            cache_base = kernel_plan_cache.stats()
            install_layers(tracer)
        t_start = time.perf_counter()
        collector = EventTimeCollector(oracle, _session_spec(), user_model="disjoint_users")
        sends = []
        emitted = []
        seen = 0
        for env in inputs.envelopes:
            t0 = time.perf_counter()
            collector.absorb(env)
            t1 = time.perf_counter()
            sends.append((t0, t1))
            snapshots = collector.snapshots
            if len(snapshots) > seen:
                emitted.extend((s, t1) for s in snapshots[seen:])
                seen = len(snapshots)
        result = collector.finish()
        t_end = time.perf_counter()
        emitted.extend((s, t_end) for s in result.snapshots[seen:])
        replays.append((sends, emitted, result, t_end - t_start))
        if traced:
            tracer.uninstall()
            h, m = plan_cache_since(cache_base)
            hits, misses = hits + h, misses + m
    return replays, (hits, misses)


def _check_sessions(inputs, replays, refs):
    import numpy as np

    by_start = {t: b for b, t in inputs.burst_start.items()}
    for _sends, emitted, result, _seconds in replays:
        check(
            result.absorbed_reports + result.late_reports == inputs.num_reports,
            "absorbed + late != n",
        )
        check(
            result.late_reports == inputs.stragglers,
            f"late {result.late_reports} != designed {inputs.stragglers}",
        )
        check(len(emitted) == len(refs), f"{len(emitted)} sessions, expected {len(refs)}")
        for snap, _t in emitted:
            burst = by_start.get(snap.window_start)
            check(burst is not None, f"session at {snap.window_start} matches no burst")
            users, est = refs[burst]
            check(snap.window_users == users, f"burst {burst}: {snap.window_users} users")
            check(np.array_equal(snap.window_estimates, est), f"burst {burst} differs from its batch")


def _sessions_metrics(inputs, replays, peak_rss):
    import pbstats as st

    by_start = {t: b for b, t in inputs.burst_start.items()}
    acks = []
    seals = []
    rates = []
    for sends, emitted, result, seconds in replays:
        acks.extend(t1 - t0 for t0, t1 in sends)
        rates.append(result.absorbed_reports / seconds)
        for snap, t in emitted:
            seals.append(t - sends[inputs.last_envelope[by_start[snap.window_start]]][0])
    metrics = {
        # The median replay's, from its first send to its final result:
        # a scheduling hiccup of the host slows one replay, not the figure.
        "users_per_s": st.median(rates),
        "ack_p50_ms": ms(st.percentile(acks, 50)),
        "seal_p50_ms": ms(st.percentile(seals, 50)),
        "peak_rss_mb": peak_rss,
    }
    samples = {
        "ack_tail": _tail(acks),
        "seal_tail": _tail(seals),
        "replays": len(replays),
    }
    return metrics, samples, sum(len(r[0]) for r in replays)


def run_sessions(seed: int, seconds: float, trace: bool):
    import pbstats as st
    import pbworkloads as w
    from pbfleet import peak_rss_mb, reset_peak_rss

    inputs, oracle, setup_times = _sessions_setup(seed)

    def reference():
        t0 = time.perf_counter()
        accs = w.pane_references(oracle, inputs.reports, inputs.burst, inputs.on_time)
        fold_s = time.perf_counter() - t0
        return {b: (a.n_absorbed, a.finalize()) for b, a in accs.items()}, fold_s

    # Peak memory is the measured replay's: set-up's inputs and
    # temporaries are not the streaming engine's.
    reset_peak_rss()
    replays, _ = _sessions_pass(oracle, inputs, seconds)
    metrics, samples, attempted = _sessions_metrics(inputs, replays, peak_rss_mb())
    metrics["setup_s"] = st.median(setup_times)
    refs, fold_s = reference()
    _check_sessions(inputs, replays, refs)
    context = {"samples": samples, "setup_repeats": setup_times}
    if not trace:
        return metrics, attempted, context

    from pbtrace import Tracer

    tracer = Tracer()
    try:
        both, plan_cache = _sessions_pass(oracle, inputs, seconds, tracer)
    finally:
        tracer.uninstall()
    _check_sessions(inputs, both, refs)
    treplays = both[0::2]
    trace = tracer.summary(plan_cache)
    tmetrics, _, _ = _sessions_metrics(inputs, treplays, 0.0)
    umetrics, _, _ = _sessions_metrics(inputs, both[1::2], 0.0)
    tracer.write(os.path.join(WORKDIR, "trace", "sessions.jsonl"))
    layers = _per_layer(
        "sessions",
        trace,
        gen_layers={},
        gen_counters={},
        gen=None,
        wall=sum(seconds for *_, seconds in treplays),
        privatize_cpu=inputs.privatize_cpu,
        ref_rate=int(inputs.on_time.sum()) / fold_s,
        traced_ack=tmetrics["ack_p50_ms"],
        untraced_ack=umetrics["ack_p50_ms"],
    )
    layers["streaming.windows"] = sum(len(e) for _s, e, _r, _t in treplays)
    layers["streaming.coalesced"] = sum(r.coalesced_panes for _s, _e, r, _t in treplays)
    layers["streaming.late"] = sum(r.late_reports for _s, _e, r, _t in treplays)
    return layers, attempted + sum(len(s) for s, _e, _r, _t in both), context


# -- per-layer assembly --------------------------------------------------------


def _per_layer(workload, trace, *, gen_layers, gen_counters, gen, wall, privatize_cpu,
               ref_rate, traced_ack, untraced_ack) -> dict:
    """Every metric of ``pblayers.MOVES`` from one traced pass."""
    import pbstats as st
    from pblayers import MOVES

    layers = trace["layers"]
    counters = trace["counters"]

    def cpu(family):
        return layers.get(family, {}).get("cpu", 0.0)

    def wall_of(family):
        return layers.get(family, {}).get("wall", 0.0)

    def calls(family):
        return layers.get(family, {}).get("calls", 0)

    out = dict.fromkeys(MOVES, 0.0)
    if gen is not None and workload == "small-envelopes":
        out["gen.lag_p99_ms"] = ms(st.percentile(gen["lag"], 99))
    if gen is not None:
        out["gen.credit_wait_s"] = gen["credit_wait"]
    out["core.privatize_s"] = privatize_cpu
    out["core.absorb_s"] = cpu("core.absorb") + counters.get("core.absorb_pool_cpu_s", 0.0)
    out["core.absorb_wall_s"] = wall_of("core.absorb")
    out["core.absorb_calls"] = calls("core.absorb")
    out["core.absorb_rows"] = counters.get("core.absorb_rows", 0)
    out["kernels.hash_s"] = counters.get("kernels.hash_s", 0.0)
    out["kernels.accumulate_s"] = counters.get("kernels.accumulate_s", 0.0)
    hits, misses = trace["plan_cache"]
    out["kernels.plan_cache_lookups"] = hits + misses
    out["kernels.plan_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for family in (
        "core.serialize",
        "core.merge",
        "core.finalize",
        "core.ledger",
        "service.fold",
        "service.combine",
        "service.checkpoint",
        "streaming.absorb",
    ):
        out[f"{family}_s"] = cpu(family)
        out[f"{family}_wall_s"] = wall_of(family)
    out["service.fsync_wall_s"] = wall_of("service.fsync")
    out["core.serialize_bytes"] = counters.get("core.serialize_bytes", 0)
    out["core.ledger_charges"] = calls("core.ledger")
    out["service.checkpoint_bytes_last"] = counters.get("service.checkpoint_bytes_last", 0)
    # The wire codec runs on both ends: the fleet decodes what the
    # generator encoded, so both processes' codec time is counted.
    codec = gen_layers.get("transport.codec", {})
    out["transport.codec_s"] = cpu("transport.codec") + codec.get("cpu", 0.0)
    out["transport.codec_wall_s"] = wall_of("transport.codec") + codec.get("wall", 0.0)
    out["transport.frames"] = counters.get("transport.frames", 0) + gen_counters.get("transport.frames", 0)
    out["transport.bytes"] = counters.get("transport.bytes", 0) + gen_counters.get("transport.bytes", 0)
    out["ref.users_per_s"] = ref_rate
    out["wall_s"] = wall
    # The blocking path is the system-under-test's one event-loop (or
    # replay) thread: its layer self times never overlap.
    out["unattributed_s"] = st.unattributed(wall, [trace["self_wall"]])
    out["unattributed_share"] = out["unattributed_s"] / wall
    # Per-envelope latency, which every workload's program moves (an
    # open loop's throughput is its offered rate, whatever tracing costs).
    out["trace.untraced_ack_p50_ms"] = untraced_ack
    out["trace.overhead_pct"] = 100.0 * (traced_ack - untraced_ack) / untraced_ack
    return out


# -- entry point ---------------------------------------------------------------


def _context(workload: str, kernel_threads: int) -> dict:
    """Host and configuration; ``kernel_threads`` is the system under test's."""
    import numpy as np

    nproc = os.cpu_count() or 1
    connections = {"bulk": 1, "small-envelopes": 2, "sessions": 0}[workload]
    fleet_processes = 0 if workload == "sessions" else 1
    # The system under test (the fleet process, or this one for the
    # streaming engine) keeps up to ``kernel_threads`` threads busy.
    busy = connections + max(fleet_processes, 1) * kernel_threads
    return {
        "nproc": nproc,
        "kernel_threads": kernel_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "generator_connections": connections,
        "fleet_processes": fleet_processes,
        "oversubscribed": busy > nproc,
    }


WORKLOADS = ("bulk", "small-envelopes", "sessions")


def _stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process spawning the fleet started.

    Every fleet process is joined where it is used; the spawn start
    method also starts multiprocessing's resource tracker, which would
    otherwise outlive this process by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    # Inherited by the spawned fleet.  Two kernel threads beside the
    # event loop and the generator would need four cores.
    os.environ["REPRO_KERNEL_THREADS"] = "1"
    os.sched_setaffinity(0, CPUS[:1])
    run_dir = os.path.join(WORKDIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    units = {}
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        units[entry["name"]] = entry["unit"]
    trace = bool(args.trace)
    # A traced run makes two passes, untraced then traced, of half the
    # time each, so that every run measures for about --seconds.
    seconds = args.seconds / 2 if trace else args.seconds
    correct = True
    try:
        if args.workload == "sessions":
            values, attempted, info = run_sessions(args.seed, seconds, trace)
        else:
            values, attempted, info = run_service(args.workload, args.seed, seconds, trace, run_dir)
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        correct = False
        values, attempted, info = {}, 1, {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        _stop_resource_tracker()
    from repro.util.kernels import kernel_thread_count

    # The fleet reports its own; the streaming engine runs in this process.
    kernel_threads = info.pop("kernel_threads", kernel_thread_count())
    context = dict(
        _context(args.workload, kernel_threads), workload=args.workload, seed=args.seed, **info
    )
    print(json.dumps({"context": context}))
    wanted = [e["name"] for e in spec["per_layer" if trace else "end_to_end"]]
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in wanted
        if name in values
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0 if correct and len(metrics) == len(wanted) else 1


if __name__ == "__main__":
    sys.exit(main())
