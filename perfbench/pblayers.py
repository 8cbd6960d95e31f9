"""Per-layer metrics, and which end-to-end metric each should move where.

Written down before any measurement, so that a later change can claim
"layer X moved metric Y on workload Z" by these names.  A traced run
prints every metric below for every workload; a layer that a workload
does not exercise reads 0.  Units and directions are in
``BENCHMARK.json``, which lists the same names.
"""

from __future__ import annotations

#: name -> (end-to-end metric it moves, workloads)
MOVES: dict[str, tuple[str, str]] = {
    "gen.lag_p99_ms": ("ack tail (context line)", "small-envelopes"),
    "gen.credit_wait_s": ("ack tail (context line)", "small-envelopes"),
    "core.privatize_s": ("setup_s", "all"),
    "core.absorb_s": ("users_per_s; ack_p50_ms", "bulk (dominant); small-envelopes (minor)"),
    "core.absorb_wall_s": ("users_per_s; ack_p50_ms", "bulk (dominant); small-envelopes (minor)"),
    "core.absorb_calls": ("ack_p50_ms", "small-envelopes"),
    "core.absorb_rows": ("users_per_s", "bulk"),
    "kernels.hash_s": ("users_per_s", "bulk; sessions"),
    "kernels.accumulate_s": ("users_per_s", "bulk; sessions"),
    "kernels.plan_cache_hit_ratio": ("users_per_s", "bulk; sessions"),
    "kernels.plan_cache_lookups": ("users_per_s", "bulk; sessions"),
    "core.serialize_s": ("ack_p50_ms", "small-envelopes"),
    "core.serialize_wall_s": ("ack_p50_ms", "small-envelopes"),
    "core.serialize_bytes": ("ack_p50_ms", "small-envelopes"),
    "core.merge_s": ("ack_p50_ms", "small-envelopes"),
    "core.merge_wall_s": ("ack_p50_ms", "small-envelopes"),
    "core.finalize_s": ("seal_p50_ms; seal tail (context line)", "sessions; small-envelopes"),
    "core.finalize_wall_s": ("seal_p50_ms; seal tail (context line)", "sessions; small-envelopes"),
    "core.ledger_s": ("seal_p50_ms; users_per_s", "sessions"),
    "core.ledger_wall_s": ("seal_p50_ms; users_per_s", "sessions"),
    "core.ledger_charges": ("seal_p50_ms; users_per_s", "sessions"),
    "transport.codec_s": ("ack_p50_ms", "small-envelopes"),
    "transport.codec_wall_s": ("ack_p50_ms", "small-envelopes"),
    "transport.frames": ("ack_p50_ms", "small-envelopes"),
    "transport.bytes": ("ack_p50_ms", "small-envelopes"),
    "service.fold_s": ("ack_p50_ms", "small-envelopes"),
    "service.fold_wall_s": ("ack_p50_ms", "small-envelopes"),
    "service.combine_s": ("ack_p50_ms", "small-envelopes"),
    "service.combine_wall_s": ("ack_p50_ms", "small-envelopes"),
    "service.envelopes": ("ack_p50_ms", "small-envelopes"),
    "service.ships": ("ack_p50_ms", "small-envelopes"),
    "service.duplicates": ("ack_p50_ms", "small-envelopes"),
    "service.reships": ("ack_p50_ms", "small-envelopes"),
    "service.checkpoint_s": ("ack tail (context line)", "small-envelopes"),
    "service.checkpoint_wall_s": ("ack tail (context line)", "small-envelopes"),
    "service.checkpoints": ("ack tail (context line)", "small-envelopes"),
    "service.checkpoint_bytes_last": ("ack tail (context line)", "small-envelopes"),
    "service.fsync_wall_s": ("ack tail (context line)", "small-envelopes"),
    "streaming.absorb_s": ("users_per_s; seal_p50_ms", "sessions"),
    "streaming.absorb_wall_s": ("users_per_s; seal_p50_ms", "sessions"),
    "streaming.windows": ("seal_p50_ms", "sessions"),
    "streaming.coalesced": ("users_per_s", "sessions"),
    "streaming.late": ("users_per_s", "sessions"),
    "ref.users_per_s": ("users_per_s (ceiling)", "all"),
    "wall_s": ("users_per_s", "all"),
    "unattributed_s": ("users_per_s; ack_p50_ms", "all"),
    "unattributed_share": ("users_per_s; ack_p50_ms", "all"),
    "trace.overhead_pct": ("(trace cost)", "all"),
    "trace.untraced_ack_p50_ms": ("(base of trace.overhead_pct)", "all"),
}
