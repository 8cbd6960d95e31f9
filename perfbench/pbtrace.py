"""Span tracing from outside the program: wrap public calls, time them.

The benchmark never edits ``src/``.  A traced run installs wrappers
around the public functions and methods of each layer (accumulator
algebra, decode kernels, ledger, wire codec, service cores, streaming
collector); each wrapped call records a :class:`~pbstats.Span` with its
wall interval (``perf_counter``), its thread-CPU interval
(``thread_time``, which does not inflate when processes compete for the
two cores), its parent span and the envelope id it serves.  Spans stay
in memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

from pbstats import Span, layer_totals

#: Span name -> the per-layer metric family it is reported under.
LAYER_OF_SPAN = {
    "core.absorb": "core.absorb",
    "core.to_bytes": "core.serialize",
    "core.from_bytes": "core.serialize",
    "core.merge": "core.merge",
    "core.copy": "core.merge",
    "core.finalize": "core.finalize",
    "core.ledger_charge": "core.ledger",
    "core.ledger_reassign": "core.ledger",
    "transport.encode": "transport.codec",
    "transport.decode": "transport.codec",
    "transport.pack": "transport.codec",
    "transport.unpack": "transport.codec",
    "service.fold": "service.fold",
    "service.combine": "service.combine",
    "service.checkpoint": "service.checkpoint",
    "service.fsync": "service.fsync",
    "streaming.absorb": "streaming.absorb",
}


class Tracer:
    """In-memory span recorder plus the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, envelope=None):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        parent, parent_env = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        env = envelope if envelope is not None else parent_env
        stack.append((sid, env))
        t0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            c1 = time.thread_time()
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1, c0, c1, env))

    def wrap(self, owner, attr: str, name: str, *, envelope=None, after=None):
        """Replace ``owner.attr`` with a traced version.

        ``envelope(args)`` names the envelope a call serves;
        ``after(result, args)`` updates counters once the call returned.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            env = envelope(args) if envelope is not None else None
            result = tracer.call(name, original, args, kwargs, env)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -----------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer family: calls, self CPU and self wall seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, tot in layer_totals(self.spans).items():
            family = LAYER_OF_SPAN.get(name, name)
            agg = out.setdefault(family, {"calls": 0, "cpu": 0.0, "wall": 0.0})
            agg["calls"] += tot.calls
            agg["cpu"] += tot.self_cpu
            agg["wall"] += tot.self_wall
        return out

    def summary(self, plan_cache: tuple[int, int]) -> dict:
        """What a traced pass reports: layers, counters, self wall, plan-cache lookups.

        ``plan_cache`` is the (hits, misses) of the traced calls, as
        :func:`plan_cache_since` gives them.
        """
        layers = self.layers()
        return {
            "layers": layers,
            "counters": dict(self.counters),
            "self_wall": sum(agg["wall"] for agg in layers.values()),
            "plan_cache": plan_cache,
        }

    def write(self, path: str) -> None:
        """Dump every span as one JSON line (written once, at the end)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "cpu": s.cpu_end - s.cpu_start,
                            "envelope": s.envelope,
                        }
                    )
                    + "\n"
                )


def plan_cache_since(base: dict) -> tuple[int, int]:
    """Kernel plan-cache (hits, misses) since ``base = kernel_plan_cache.stats()``."""
    from repro.util.kernels import kernel_plan_cache

    stats = kernel_plan_cache.stats()
    return stats["hits"] - base["hits"], stats["misses"] - base["misses"]


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    import repro.protocol.service as service
    import repro.protocol.transport as transport
    from repro.core.budget import PrivacyLedger
    from repro.core.mechanism import Accumulator, PureAccumulator
    from repro.core.timed import batch_length
    from repro.protocol.streaming import EventTimeCollector
    from repro.util.kernels import kernel_timing_scope

    counters = tracer.counters
    original_absorb = PureAccumulator.__dict__["absorb"]

    def absorb(self, reports):
        with kernel_timing_scope() as timing:
            result = tracer.call("core.absorb", original_absorb, (self, reports), {})
        counters["core.absorb_rows"] += batch_length(reports)
        kernel = timing.hash_seconds + timing.accumulate_seconds
        counters["kernels.hash_s"] += timing.hash_seconds
        counters["kernels.accumulate_s"] += timing.accumulate_seconds
        if timing.worker_tiles and -1 not in timing.worker_tiles:
            # Tiles ran on kernel-pool threads: their CPU is not on the
            # calling thread's clock, so it is added to the layer's busy
            # time from the kernel's own thread-CPU report.
            counters["core.absorb_pool_cpu_s"] += kernel
        return result

    absorb.__wrapped__ = original_absorb
    PureAccumulator.absorb = absorb
    tracer._patches.append((PureAccumulator, "absorb", original_absorb))

    def add_bytes(key):
        def after(result, args):
            counters[key] += len(result)

        return after

    def add_payload_bytes(result, args):
        counters["core.serialize_bytes"] += len(args[1])

    tracer.wrap(Accumulator, "to_bytes", "core.to_bytes", after=add_bytes("core.serialize_bytes"))
    tracer.wrap(Accumulator, "from_bytes", "core.from_bytes", after=add_payload_bytes)
    tracer.wrap(PureAccumulator, "merge", "core.merge")
    tracer.wrap(Accumulator, "copy", "core.copy")
    tracer.wrap(PureAccumulator, "finalize", "core.finalize")
    tracer.wrap(PrivacyLedger, "charge", "core.ledger_charge")
    tracer.wrap(PrivacyLedger, "reassign_group", "core.ledger_reassign")

    def frame_out(result, args):
        counters["transport.frames"] += 1
        counters["transport.bytes"] += len(result)

    def frame_in(result, args):
        counters["transport.frames"] += 1
        counters["transport.bytes"] += len(args[0])

    # write_message/read_message look these up in the transport module;
    # the service imported (un)packing by name, so its binding is wrapped.
    tracer.wrap(transport, "encode_message", "transport.encode", after=frame_out)
    tracer.wrap(transport, "decode_message", "transport.decode", after=frame_in)
    tracer.wrap(transport, "pack_timed_reports", "transport.pack")
    tracer.wrap(service, "unpack_timed_reports", "transport.unpack")

    tracer.wrap(
        service.ShardFolder,
        "offer_batch",
        "service.fold",
        envelope=lambda args: "+".join(str(eid) for eid, _ in args[1]),
    )
    tracer.wrap(
        service.CombinerCore,
        "receive",
        "service.combine",
        envelope=lambda args: args[1].envelope_id,
    )

    def checkpoint_size(result, args):
        counters["service.checkpoint_bytes_last"] = len(result)

    tracer.wrap(service.CombinerCore, "to_checkpoint", "service.checkpoint", after=checkpoint_size)
    tracer.wrap(service.os, "fsync", "service.fsync")
    tracer.wrap(EventTimeCollector, "absorb", "streaming.absorb")
