"""The system under test for the service workloads, in its own process.

One spawned process runs the whole fleet on the inline backend: a
:class:`~repro.protocol.service.CombinerDaemon` plus N
:class:`~repro.protocol.service.IngestDaemon` s in one event loop.  The
load generator lives in another process, so it keeps its schedule when
the fleet slows down.  Both processes read ``perf_counter``, which is
the system-wide monotonic clock, so their timestamps compare directly.
"""

from __future__ import annotations

import asyncio
import os
import time


def reset_peak_rss() -> None:
    """Start a new peak-RSS window for this process (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """Peak resident set size since the last :func:`reset_peak_rss`, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _warm_up(oracle) -> None:
    """One untimed pass: fills the kernel plan cache and first-call paths.

    One absorb at each envelope size the workloads send, plus the
    serialize/merge/finalize round trip a ship and a seal take.
    """
    import numpy as np

    from repro.core.timed import slice_report_batch

    reports = oracle.privatize(np.zeros(65_536, dtype=np.int64), rng=0)
    big = oracle.accumulator().absorb(reports)
    small = oracle.accumulator().absorb(slice_report_batch(reports, slice(0, 256)))
    oracle.accumulator().from_bytes(big.to_bytes()).merge(small).finalize()


class _EmissionLog:
    """When each envelope was merged and each window sealed, seen from outside.

    Wraps the combiner core's entry points on the instance (the daemon
    calls ``self.core.receive``), so the times are taken the moment the
    core returns, in the fleet process.
    """

    def __init__(self, core) -> None:
        self.merged: dict[str, float] = {}
        self.sealed: dict[int, float] = {}
        self._core = core
        for name in ("receive", "drain"):
            setattr(core, name, self._observed(name, getattr(core, name)))

    def _observed(self, name, method):
        def observed(*args, **kwargs):
            result = method(*args, **kwargs)
            now = time.perf_counter()
            if name == "receive":
                for eid in args[0].envelope_ids:
                    self.merged.setdefault(eid, now)
            windows = self._core.sealed_windows
            for window in windows[len(self.sealed):]:
                self.sealed[window.pane] = now
            return result

        return observed


async def _serve(conn, cfg, oracle, tracer, cache_base):
    from repro.protocol import WindowSpec
    from repro.protocol.service import CombinerDaemon, IngestDaemon

    window = None
    if cfg["window"] is not None:
        size, lateness = cfg["window"]
        window = WindowSpec.event_tumbling(size, allowed_lateness=lateness)
    combiner = CombinerDaemon(
        oracle,
        cfg["workers"],
        window=window,
        checkpoint_path=cfg["checkpoint_path"],
        checkpoint_every_ships=cfg["checkpoint_every"],
    )
    log = _EmissionLog(combiner.core)
    await combiner.start()
    daemons = []
    tasks = []
    try:
        for worker in range(cfg["workers"]):
            daemon = IngestDaemon(
                oracle,
                worker,
                combiner.address,
                window=window,
                credit_window=cfg["credits"],
            )
            await daemon.start()
            daemons.append(daemon)
            tasks.append(asyncio.ensure_future(daemon.run()))
        conn.send(("ready", [d.address for d in daemons]))
        await combiner.wait_drained(timeout=cfg["timeout"])
        t_result = time.perf_counter()
        result = combiner.core.result()
        await asyncio.wait_for(asyncio.gather(*tasks), cfg["timeout"])
    finally:
        for task in tasks:
            task.cancel()
        for daemon in daemons:
            await daemon.close()
        await combiner.close()
    payload = {
        "t_result": t_result,
        "estimated_counts": result.estimated_counts,
        "windows": [(w.pane, w.users, w.estimated_counts) for w in result.windows],
        "absorbed": result.absorbed_reports,
        "late": result.late_reports,
        "lost": result.lost_reports,
        "combiner_duplicates": result.duplicate_envelopes,
        "ships": combiner.core.ships_received,
        "workers": [
            {
                "envelopes": w.envelopes,
                "duplicates": w.duplicate_envelopes,
                "reports": w.reports,
                "ships": w.ships,
                "reships": w.reships,
            }
            for w in result.workers
        ],
        "checkpoints": combiner.checkpoints,
        "checkpoint_bytes": combiner.checkpoint_bytes,
        "merged": log.merged,
        "sealed": log.sealed,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        from pbtrace import plan_cache_since

        tracer.uninstall()
        payload["trace"] = tracer.summary(plan_cache_since(cache_base))
        tracer.write(cfg["trace_path"])
    return payload


def fleet_main(conn, cfg) -> None:
    """Spawned-process entry point: warm up, serve one round, report."""
    from pbworkloads import make_oracle
    from repro.util.kernels import kernel_plan_cache, kernel_thread_count

    if cfg["cpu"] is not None:
        os.sched_setaffinity(0, [cfg["cpu"]])
    oracle = make_oracle()
    _warm_up(oracle)
    # Peak memory is the serving round's, not the warm-up's.
    reset_peak_rss()
    # Plan-cache lookups are counted for the measured round only.
    cache_base = kernel_plan_cache.stats()
    tracer = None
    if cfg["trace"]:
        from pbtrace import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
    try:
        payload = asyncio.run(_serve(conn, cfg, oracle, tracer, cache_base))
    except BaseException as exc:  # reported to the generator, then re-raised
        conn.send(("error", repr(exc)))
        raise
    payload["kernel_threads"] = kernel_thread_count()
    conn.send(("result", payload))
    conn.close()
