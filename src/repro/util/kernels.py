"""Fused decode kernels: the aggregator-side hot path, tiled and branch-free.

Every E14–E17 profile says the same thing: privatization is cheap and
*decoding* is the bottleneck.  The naive aggregator path for local
hashing — ``hash_cross`` + ``==`` + ``.sum`` — spends its time in two
places the hardware hates:

1. **Two uint64 divisions per cell.**  The affine hash
   ``((a·x + b) mod p) mod g`` over the Mersenne prime ``p = 2³¹ − 1``
   compiles to two hardware ``div`` instructions per (report, candidate)
   pair, each tens of cycles and unpipelined.
2. **Materialized intermediates.**  The ``(n, d)`` int64 hash matrix,
   the bool comparison matrix and several uint64 temporaries each cost a
   full write+read of main memory per chunk — and when several shard
   threads decode at once, those multi-MB temporaries evict each other
   from the shared cache, which is why summed decode time *grows* with
   shard count under the thread backend.

This module replaces both:

* :func:`mersenne_reduce` — branch-free shift-add reduction modulo the
  Mersenne prime (``2³¹ ≡ 1 (mod p)`` makes ``x mod p`` two fold steps
  plus one conditional subtract; no division).
* :func:`mod_magic` / :func:`apply_mod` — exact division-free ``mod g``
  for 31-bit dividends via the Granlund–Montgomery multiply-shift magic
  number (the same trick compilers emit for constant divisors).
* :class:`FusedSupportKernel` — the fused hash→compare→accumulate
  support-count kernel.  It tiles (reports × candidates) into blocks of
  at most 2¹⁶ cells over *preallocated* scratch — ~1.2 MB of planes,
  resident in one core's L2, which the dozen passes of the tile loop
  then hit instead of the last-level cache — evaluates the affine hash
  in place, compares against each report's value and tallies matches
  into a uint8 plane that is reduced into int64 counts every 255 tiles
  — the ``(n, d)`` matrix is never materialized.  When ``g`` is a power
  of two (OLH at ε = 2 has ``g = 8``; BLH has ``g = 2``) ``mod g`` is
  one mask, and the Mersenne reduction's per-cell conditional subtract
  becomes a per-tile check (see :meth:`FusedSupportKernel._count_span`).
  Report tiles optionally fan out across a shared thread pool (the
  inner loops are pure NumPy and release the GIL), with each task
  accumulating into its own partial counts vector; integer addition is
  associative, so the result is bit-identical regardless of thread
  count or schedule.
* :func:`hadamard_support_counts` — bit-sliced Hadamard candidate
  decoding: report index bit-planes and ±1 signs are packed into machine
  words (:func:`repro.util.wht.pack_bit_planes`), the popcount parity
  ``popcount(j & v) mod 2`` becomes an XOR of planes selected by each
  candidate's bits, and the signed dot contracts via two
  ``np.bitwise_count`` popcounts — 64 reports per word op, replacing the
  int64 matmul NumPy won't BLAS-accelerate (the matmul tier survives as
  :func:`_matmul_hadamard_support_counts` for benchmarking).
* :func:`column_support_counts` — tiled integer column sums for the
  dense unary (SUE/OUE) support path.

All kernels are integer arithmetic end to end, so their outputs are
**bit-identical** to the reference implementations by construction; the
property suite pins this for every registered oracle.

Kernel plans and caching
------------------------
Streaming consumers (``EventTimeCollector`` panes, ``RepeatedCollector``
rounds, ``collect_group`` chunks) decode many small report batches
against the *same* candidate set.  The candidate-side setup — premixed
candidates + mod-``g`` magic for local hashing, packed candidate bit
masks for Hadamard — is captured in reusable *plans*
(:class:`FusedSupportKernel`, :class:`HadamardCandidatePlan`) and cached
in the process-wide :data:`kernel_plan_cache`, keyed by the oracle's
config fingerprint plus :func:`candidate_digest`.  Plans are immutable
(their arrays are marked read-only) and hold **no per-batch scratch** —
scratch lives in a per-thread pool below — so cache entries are safe to
share across threads, accumulators, ``copy()`` and serialization
round-trips.  The cache is LRU-bounded (``REPRO_KERNEL_PLAN_CACHE``
caps the entry count; ``0`` disables caching entirely).

Scheduling
----------
Tile tasks fan out across a process-wide pool of daemon workers.  The
pool is *core-affine* by default: report spans are deterministic
(``linspace`` bounds), and span ``k`` is always dispatched to worker
``k``, so repeated decodes of the same population hit the same worker —
and thus the same warm core caches — instead of being round-robin
scattered.  ``REPRO_KERNEL_AFFINITY=0`` opts out (rotating dispatch).
Per-worker tile counts are reported through :class:`KernelTiming` so
``ShardStats`` can surface the placement.

Timing
------
:func:`kernel_timing_scope` opens a thread-local scope that every kernel
invocation reports into, split into *hash* seconds (affine evaluation +
reductions) and *accumulate* seconds (compare + count).  The sharded
pipeline wraps each shard's ``absorb`` in a scope so ``ShardStats`` can
say where decode time goes.  Stages are timed on the per-thread CPU
clock (``time.thread_time``), which does not advance while the OS has a
thread descheduled: when many shard threads share cores, wall-clock
decode attribution inflates with the number of concurrent shards (each
shard's wall time includes everyone else's time slices) while these
numbers stay flat — they measure the CPU the kernels actually consumed.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.util.wht import pack_bit_planes, pack_sign_mask

__all__ = [
    "MERSENNE_P",
    "mersenne_reduce",
    "mod_magic",
    "apply_mod",
    "FusedSupportKernel",
    "HadamardCandidatePlan",
    "hadamard_support_counts",
    "column_support_counts",
    "KernelTiming",
    "kernel_timing_scope",
    "kernel_thread_count",
    "kernel_affinity_enabled",
    "KernelPlanCache",
    "kernel_plan_cache",
    "plan_cache_capacity",
    "candidate_digest",
]

#: The Mersenne prime 2³¹ − 1 underlying the affine hash family.
MERSENNE_P = np.uint64(2**31 - 1)

_U31 = np.uint64(31)
_ZERO = np.uint64(0)

# ---------------------------------------------------------------------------
# branch-free modular arithmetic
# ---------------------------------------------------------------------------


def mersenne_reduce(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x mod (2³¹ − 1)`` for any uint64 input, without division.

    Because ``2³¹ ≡ 1 (mod p)``, splitting ``x = hi·2³¹ + lo`` gives
    ``x ≡ hi + lo``.  Two fold steps bring any 64-bit value under
    ``p + 8`` (first fold: < 2³⁴; second: ≤ p + 7) and one conditional
    subtract lands in ``[0, p)`` — the canonical residue, bit-identical
    to ``x % p``.

    ``out`` may alias ``x`` (the common in-place use); one temporary the
    shape of ``x`` is allocated for the low halves unless the caller
    tiles through preallocated scratch (see :class:`FusedSupportKernel`).
    """
    x = np.asarray(x, dtype=np.uint64)
    if out is None:
        out = x.copy()
    elif out is not x:
        np.copyto(out, x)
    _mersenne_fold_into(out, np.empty_like(out))
    np.subtract(out, MERSENNE_P, out=out, where=out >= MERSENNE_P)
    return out


def _mersenne_fold_into(x: np.ndarray, lo: np.ndarray) -> None:
    """The two shift-add folds of :func:`mersenne_reduce`, in place.

    Leaves ``x`` congruent to its input modulo p and below ``2p`` (at
    most ``p + 7``), so one conditional subtract
    (:func:`_mersenne_fixup_into`) finishes the reduction.  ``lo``
    (uint64) is caller-owned scratch the shape of ``x``.
    """
    np.bitwise_and(x, MERSENNE_P, out=lo)
    np.right_shift(x, _U31, out=x)
    np.add(x, lo, out=x)
    np.bitwise_and(x, MERSENNE_P, out=lo)
    np.right_shift(x, _U31, out=x)
    np.add(x, lo, out=x)


def _mersenne_fixup_into(x: np.ndarray, mask: np.ndarray) -> None:
    """Subtract p from the folded cells at or above p (``mask``: bool scratch)."""
    np.greater_equal(x, MERSENNE_P, out=mask)
    np.subtract(x, MERSENNE_P, out=x, where=mask)


#: Largest divisor/dividend bound for the multiply-shift magic: the
#: Granlund–Montgomery proof below needs dividends < 2³¹ (which the
#: Mersenne reduction guarantees) and the multiplier to fit so that
#: ``x·m < 2⁶³`` (no uint64 overflow).
_MAGIC_MAX = 1 << 31


def mod_magic(divisor: int) -> tuple[np.uint64, np.uint64]:
    """Multiply-shift magic ``(m, s)`` with ``x // d == (x·m) >> s``.

    Exact for every dividend ``x < 2³¹`` (Granlund–Montgomery: with
    ``l = ⌈log₂ d⌉`` and ``m = ⌊2^(31+l)/d⌋ + 1``, the error term
    ``m·d − 2^(31+l)`` lies in ``(0, d] ⊆ (0, 2^l]``, which is the exact
    condition of their round-up theorem).  ``x·m ≤ (2³¹−1)·(2³²+1) < 2⁶³``
    so the uint64 product never overflows.
    """
    d = int(divisor)
    if not 1 <= d < _MAGIC_MAX:
        raise ValueError(f"divisor must be in [1, 2^31), got {divisor}")
    l = max(1, (d - 1).bit_length())
    return np.uint64((1 << (31 + l)) // d + 1), np.uint64(31 + l)


def apply_mod(
    x: np.ndarray, divisor: int, magic: tuple[np.uint64, np.uint64] | None = None
) -> np.ndarray:
    """``x mod divisor`` for uint64 ``x < 2³¹`` via the multiply-shift magic.

    Falls back to hardware ``%`` when the divisor is out of magic range.
    Dividends at or above 2³¹ are **rejected**: the Granlund–Montgomery
    round-up proof only covers 31-bit dividends, and beyond it the
    multiply-shift quietly returns wrong residues.  Every internal caller
    reduces modulo the Mersenne prime first (so dividends are < p < 2³¹
    by construction); the guard is for everyone else.

    Returns a fresh array; the fused kernels inline the same three
    operations over scratch instead.
    """
    x = np.asarray(x, dtype=np.uint64)
    d = int(divisor)
    if not 1 <= d < _MAGIC_MAX:
        return x % np.uint64(d)
    if x.size and int(x.max()) >= _MAGIC_MAX:
        raise ValueError(
            "apply_mod dividends must be < 2^31 for the multiply-shift "
            "magic (reduce mod p first); use hardware % for wider values"
        )
    m, s = magic if magic is not None else mod_magic(d)
    q = (x * m) >> s
    return x - q * np.uint64(d)


def _apply_mod_into(
    x: np.ndarray, g: np.uint64, m: np.uint64, s: np.uint64, q: np.ndarray
) -> None:
    """In-place ``x mod g`` over caller scratch ``q`` (shape of ``x``)."""
    np.multiply(x, m, out=q)
    np.right_shift(q, s, out=q)
    np.multiply(q, g, out=q)
    np.subtract(x, q, out=x)


# ---------------------------------------------------------------------------
# timing scopes
# ---------------------------------------------------------------------------


#: Per-thread CPU clock for kernel stage timing: unlike ``perf_counter``
#: it does not advance while the OS has the thread descheduled, so stage
#: timings stay schedule-independent when many shard threads share cores
#: (summing tile tasks' thread time = total CPU the kernel consumed).
_thread_clock = getattr(time, "thread_time", time.perf_counter)


@dataclass
class KernelTiming:
    """Accumulated decode-kernel compute time, split by kernel stage.

    ``hash_seconds`` covers affine evaluation + modular reductions;
    ``accumulate_seconds`` covers compare + count (or gather + sum).
    Both sum the per-thread CPU clock across tile tasks: schedule- and
    contention-independent, unlike wall time around the kernel call.

    ``worker_tiles`` maps pool-worker slot → number of tiles that worker
    processed for this scope (slot ``-1`` is inline execution on the
    calling thread).  Under affinity scheduling the histogram shows each
    worker pinned to its span; under scatter it spreads.
    """

    hash_seconds: float = 0.0
    accumulate_seconds: float = 0.0
    worker_tiles: dict[int, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(
        self,
        hash_seconds: float,
        accumulate_seconds: float,
        *,
        worker: int | None = None,
        tiles: int = 0,
    ) -> None:
        with self._lock:
            self.hash_seconds += hash_seconds
            self.accumulate_seconds += accumulate_seconds
            if worker is not None and tiles:
                self.worker_tiles[worker] = (
                    self.worker_tiles.get(worker, 0) + tiles
                )


_scope_local = threading.local()


def _active_timing() -> KernelTiming | None:
    return getattr(_scope_local, "timing", None)


@contextmanager
def kernel_timing_scope():
    """Collect kernel stage timings from every kernel call in this thread.

    Scopes nest: the innermost active scope receives the timings.  Tile
    tasks fanned out to the shared pool report back into the scope that
    was active at the *call site*, so a shard thread wrapping ``absorb``
    sees its own kernels' time even when the tiles ran elsewhere.
    """
    timing = KernelTiming()
    previous = _active_timing()
    _scope_local.timing = timing
    try:
        yield timing
    finally:
        _scope_local.timing = previous


# ---------------------------------------------------------------------------
# kernel plan cache
# ---------------------------------------------------------------------------

_PLAN_CACHE_ENV = "REPRO_KERNEL_PLAN_CACHE"
_PLAN_CACHE_DEFAULT = 64


def plan_cache_capacity() -> int:
    """Entry cap for the process-wide kernel plan cache.

    ``REPRO_KERNEL_PLAN_CACHE`` overrides (``0`` disables caching);
    unparsable values fall back to the default of
    ``_PLAN_CACHE_DEFAULT`` entries.  Plans are small — premixed
    candidates plus packed bit masks, a few hundred KB at heavy-hitter
    scale — so the default cap bounds the cache at tens of MB worst
    case.
    """
    env = os.environ.get(_PLAN_CACHE_ENV, "").strip()
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return _PLAN_CACHE_DEFAULT


def candidate_digest(values: np.ndarray) -> bytes:
    """Content digest of a candidate array, for plan-cache keys.

    Hashes dtype, shape and raw bytes with blake2b: two candidate sets
    collide only if they are byte-identical, so a cached plan can never
    be served for a different candidate list.
    """
    arr = np.ascontiguousarray(values)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.digest()


class KernelPlanCache:
    """Process-wide LRU cache of candidate-side decode plans.

    Keys are ``(kind, *config fingerprint parts, candidate digest)``
    tuples built by the oracles; values are immutable plan objects
    (:class:`FusedSupportKernel`, :class:`HadamardCandidatePlan`).
    Because plans hold no per-batch scratch and their arrays are
    read-only, entries are shared freely across threads and
    accumulators — ``copy()`` and ``to_bytes()`` round-trips never see
    the cache at all (nothing cache-related is ever stored on an
    accumulator).

    ``get`` builds outside the lock on a miss: a concurrent builder may
    do duplicate work, but the critical section stays tiny and the
    first-stored plan wins (both builds are deterministic and
    equivalent).
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple, build):
        capacity = plan_cache_capacity()
        if capacity <= 0:
            with self._lock:
                self.misses += 1
            return build()
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
        value = build()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return existing
            self.misses += 1
            self._entries[key] = value
            while len(self._entries) > capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


#: The process-wide plan cache all oracles share.
kernel_plan_cache = KernelPlanCache()


# ---------------------------------------------------------------------------
# shared tile pool (core-affine)
# ---------------------------------------------------------------------------

_AFFINITY_ENV = "REPRO_KERNEL_AFFINITY"
_worker_slot = threading.local()


def kernel_affinity_enabled() -> bool:
    """Whether tile dispatch is core-affine (sticky span → worker).

    On by default; ``REPRO_KERNEL_AFFINITY=0`` (or ``false``/``off``/
    ``no``) switches to rotating round-robin dispatch.
    """
    env = os.environ.get(_AFFINITY_ENV, "").strip().lower()
    return env not in {"0", "false", "off", "no"}


def _current_worker_slot() -> int:
    """Pool-worker slot of the calling thread (``-1`` = not a worker)."""
    return getattr(_worker_slot, "idx", -1)


class _KernelPool:
    """Daemon worker threads with one task queue per worker.

    Unlike ``ThreadPoolExecutor``'s single shared queue, per-worker
    queues let the dispatcher *choose* which worker runs a task — the
    mechanism behind core-affine span scheduling.  Workers never submit
    work themselves, so queue order alone can't deadlock.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._queues = [queue.SimpleQueue() for _ in range(size)]
        self._rotor = 0
        self._rotor_lock = threading.Lock()
        for idx in range(size):
            thread = threading.Thread(
                target=self._worker,
                args=(idx,),
                name=f"repro-kernel-{idx}",
                daemon=True,
            )
            thread.start()

    def _worker(self, idx: int) -> None:
        _worker_slot.idx = idx
        q = self._queues[idx]
        while True:
            item = q.get()
            if item is None:
                return
            future, fn = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(fn())
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                future.set_exception(exc)

    def submit(self, slot: int, fn) -> Future:
        future: Future = Future()
        self._queues[slot % self.size].put((future, fn))
        return future

    def next_scatter_slot(self) -> int:
        with self._rotor_lock:
            slot = self._rotor
            self._rotor = (self._rotor + 1) % self.size
            return slot

    def shutdown(self) -> None:
        """Stop workers after they drain already-queued tasks."""
        for q in self._queues:
            q.put(None)


_pool_lock = threading.Lock()
_pool: _KernelPool | None = None
_pool_size = 0


def kernel_thread_count() -> int:
    """Worker count for the shared tile pool.

    ``REPRO_KERNEL_THREADS`` overrides; the default is the CPU count.
    A value of 1 makes every kernel run inline (no pool, no overhead) —
    the right call on single-core machines and under test.
    """
    env = os.environ.get("REPRO_KERNEL_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def _submit_to_shared_pool(threads: int, calls) -> list:
    """Submit tile tasks to one process-wide pool; returns their futures.

    Sharing one pool (instead of a pool per shard) is what keeps
    within-shard tile parallelism from oversubscribing the machine when
    the sharded pipeline's own thread backend is already fanning shards
    out: total in-flight tile tasks are bounded by the pool size.

    Dispatch is core-affine by default: ``calls[k]`` goes to worker
    ``k mod size``.  Report spans are deterministic (``linspace``
    bounds over the same population), so span ``k`` of every decode of
    that population lands on the same worker and reuses its warm core
    caches — and its thread-local scratch, already sized for the span.
    With ``REPRO_KERNEL_AFFINITY=0`` dispatch degrades to a rotating
    scatter (the pre-affinity behavior).

    Submission happens *inside* the pool lock: when a caller asks for
    more workers than the current pool has, the pool is replaced under
    the same lock — already-queued tasks still run to completion (each
    worker drains its queue before exiting) and no caller can race a
    submit against the swap.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < threads:
            if _pool is not None:
                _pool.shutdown()
            _pool = _KernelPool(threads)
            _pool_size = threads
        if kernel_affinity_enabled():
            return [_pool.submit(slot, fn) for slot, fn in enumerate(calls)]
        return [_pool.submit(_pool.next_scatter_slot(), fn) for fn in calls]


# ---------------------------------------------------------------------------
# per-thread scratch pool
# ---------------------------------------------------------------------------

#: Kernel scratch lives on the *thread*, not the kernel: plans stay
#: immutable (and therefore cacheable/copy-safe), repeated small absorbs
#: stop re-allocating tile buffers, and no two tasks can share a buffer
#: because a task runs on exactly one thread.  Buffers grow to the
#: largest tile a thread has seen and are bounded by the tile geometry:
#: the fused kernel's tiles are ≤ ``_FUSED_TILE_CELLS`` cells (~1.2 MB
#: for its four planes); a thread that also runs the bit-sliced Hadamard
#: decode grows the two uint64 planes it shares to ≤ ``_TILE_CELLS``
#: cells (~8.5 MB per thread worst case).
_scratch_local = threading.local()


def _scratch(name: str, cells: int, dtype=np.uint64) -> np.ndarray:
    """This thread's ``name`` buffer, grown to at least ``cells`` items."""
    buf = getattr(_scratch_local, name, None)
    if buf is None or buf.shape[0] < cells:
        buf = np.empty(cells, dtype=dtype)
        setattr(_scratch_local, name, buf)
    return buf[:cells]


# ---------------------------------------------------------------------------
# the fused support-count kernel (OLH / BLH)
# ---------------------------------------------------------------------------

#: Tile geometry of the Hadamard kernel tiers: blocks of at most
#: ``_TILE_CELLS`` cells keep their uint64 scratch planes inside the
#: last-level cache instead of streaming temporaries through main memory.
_TILE_CELLS = 1 << 19
_MAX_TILE_REPORTS = 1 << 14
#: Tile geometry of :class:`FusedSupportKernel`: the four scratch planes
#: of a ``_FUSED_TILE_CELLS``-cell tile (~1.2 MB) fit one core's 2 MB L2.
_FUSED_TILE_CELLS = 1 << 16
#: Tiles whose matches the fused kernel's uint8 tally absorbs before it
#: is reduced into the int64 counts (each tile adds at most 1 per cell).
_TALLY_TILES = 255
#: Below this many (report × candidate) cells a kernel call runs inline
#: even when a pool is available — dispatch would cost more than it buys.
_MIN_PARALLEL_CELLS = 1 << 21


class FusedSupportKernel:
    """Fused hash→compare→accumulate support counting for local hashing.

    One instance is built per candidate list: the candidates are premixed
    into the prime field once, the mod-``g`` magic is precomputed, and
    every :meth:`support_counts` call streams report tiles through
    pooled per-thread scratch.  For value ``v`` and report ``(s, y)`` the
    kernel counts ``h_s(v) == y`` matches — exactly the quantity
    ``_LocalHashing.support_counts_for`` used to extract from the
    materialized ``hash_cross`` matrix, bit for bit.

    Tiles hold at most ``_FUSED_TILE_CELLS`` (2¹⁶) cells — at most 256
    candidates by up to 16,384 reports — so the hash, fold, match and
    tally planes (~1.2 MB) stay resident in one core's 2 MB L2: the tile
    loop makes a dozen passes over them, and every pass after the first
    is an L2 hit instead of a trip to the last-level cache.

    The range ``g`` picks the ``mod g`` path once, from the oracle's
    configuration: a power of two (``g & (g − 1) == 0``) reduces with a
    single ``bitwise_and(g − 1)``; any other ``g`` uses the exact
    multiply-shift magic (:func:`mod_magic`).

    Instances are immutable decode *plans*: the candidate array is
    marked read-only and no per-batch state is ever stored on the
    object, so one instance can be cached in :data:`kernel_plan_cache`
    and shared across threads and accumulators.

    Parameters
    ----------
    premixed_candidates:
        Candidate values already premixed into ``[0, p)`` (the caller
        owns the splitmix bijection; see ``repro.util.hashing``).
    range_size:
        The hash range ``g``.
    threads:
        Tile-pool fan-out; ``None`` uses :func:`kernel_thread_count`.
    """

    def __init__(
        self,
        premixed_candidates: np.ndarray,
        range_size: int,
        *,
        threads: int | None = None,
    ) -> None:
        x = np.ascontiguousarray(premixed_candidates, dtype=np.uint64)
        if x.ndim != 1:
            raise ValueError(f"candidates must be 1-D, got shape {x.shape}")
        if x is premixed_candidates or np.shares_memory(x, premixed_candidates):
            x = x.copy()
        x.setflags(write=False)
        g = int(range_size)
        if g < 1:
            raise ValueError(f"range_size must be >= 1, got {range_size}")
        if g >= _MAGIC_MAX:
            raise ValueError(
                f"range_size must be < 2^31 for the fused kernel, got {range_size}"
            )
        self._x = x
        self._g = np.uint64(g)
        self._magic, self._shift = mod_magic(g)
        self._pow2 = g & (g - 1) == 0
        self._threads = threads
        d = max(1, x.shape[0])
        self._tile_candidates = min(d, 256)
        self._tile_reports = max(
            1, min(_MAX_TILE_REPORTS, _FUSED_TILE_CELLS // self._tile_candidates)
        )

    @property
    def num_candidates(self) -> int:
        return int(self._x.shape[0])

    def support_counts(
        self, a: np.ndarray, b: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Per-candidate match counts for reports ``((a, b), values)``.

        ``a``/``b`` are the affine hash parameters of each report's seed
        (derived once per batch by the caller) and ``values`` the
        perturbed hashed values in ``[0, g)``.  Returns float64 counts —
        integers below 2⁵³, so float addition downstream stays exact.
        """
        a = np.ascontiguousarray(a, dtype=np.uint64)
        b = np.ascontiguousarray(b, dtype=np.uint64)
        y = np.ascontiguousarray(values, dtype=np.uint64)
        if a.shape != b.shape or a.shape != y.shape or a.ndim != 1:
            raise ValueError("a, b and values must be aligned 1-D arrays")
        d = self.num_candidates
        counts = np.zeros(d, dtype=np.int64)
        n = a.shape[0]
        if n and self._x.size:
            timing = _active_timing()
            threads = (
                self._threads if self._threads is not None else kernel_thread_count()
            )
            total_cells = n * d
            if threads > 1 and total_cells >= _MIN_PARALLEL_CELLS:
                spans = self._report_spans(n, threads)
                futures = _submit_to_shared_pool(
                    threads,
                    [
                        lambda lo=lo, hi=hi: self._count_span(
                            a, b, y, lo, hi, timing
                        )
                        for lo, hi in spans
                    ],
                )
                for future in futures:
                    counts += future.result()
            else:
                counts += self._count_span(a, b, y, 0, n, timing)
        return counts.astype(np.float64)

    @staticmethod
    def _report_spans(n: int, threads: int) -> list[tuple[int, int]]:
        """Contiguous report spans, one per tile task (schedule-free math:
        integer partial counts sum identically in any order)."""
        tasks = min(threads, max(1, n // _MAX_TILE_REPORTS))
        bounds = np.linspace(0, n, tasks + 1, dtype=np.int64)
        return [
            (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]

    def _count_span(
        self,
        a: np.ndarray,
        b: np.ndarray,
        y: np.ndarray,
        lo: int,
        hi: int,
        timing: KernelTiming | None,
    ) -> np.ndarray:
        """Count matches for reports ``[lo, hi)`` over all candidates.

        Layout: candidates are the leading axis of every tile, and the
        loop walks one candidate block across all report tiles.  Each
        tile's matches are added into a uint8 tally plane (one byte add
        per cell) that is reduced into the int64 counts once per
        ``_TALLY_TILES`` tiles and at the end of the block — a tile adds
        at most one per cell, so the tally cannot overflow.

        Power-of-two ``g``: after the two Mersenne folds every cell is
        congruent to ``a·x + b`` mod p and below 2p (for in-field
        parameters ``a, x, b < p`` it is at most p, and equals p exactly
        when the hash is ≡ 0 — about 2 cells in 2³¹).  So instead of a
        per-cell compare and masked subtract, the tile's maximum is
        checked and the exact masked fix-up runs only on a tile that
        holds a cell ≥ p; every tile then leaves the reduction with the
        canonical residue, and ``bitwise_and(g − 1)`` is its ``mod g``.

        Scratch comes from the per-thread pool — repeated small absorbs
        (streaming panes) reuse the same buffers call after call, and
        under affinity scheduling each worker's buffers are already
        sized for its sticky span.
        """
        x = self._x
        d = x.shape[0]
        tile_r = min(self._tile_reports, hi - lo)
        tile_c = min(self._tile_candidates, d)
        cells = tile_c * tile_r
        block = _scratch("block", cells).reshape(tile_c, tile_r)
        scratch = _scratch("quotient", cells).reshape(tile_c, tile_r)
        match = _scratch("match", cells, bool).reshape(tile_c, tile_r)
        tally = _scratch("tally", cells, np.uint8).reshape(tile_c, tile_r)
        tally.fill(0)
        counts = np.zeros(d, dtype=np.int64)
        hash_s = 0.0
        acc_s = 0.0
        tiles = 0
        for c0 in range(0, d, tile_c):
            c1 = min(c0 + tile_c, d)
            xc = x[c0:c1, None]
            plane = tally[: c1 - c0]
            pending = 0
            for r0 in range(lo, hi, tile_r):
                r1 = min(r0 + tile_r, hi)
                w = r1 - r0
                h = block[: c1 - c0, :w]
                q = scratch[: c1 - c0, :w]
                eq = match[: c1 - c0, :w]
                t0 = _thread_clock()
                # h = ((a·x + b) mod p) mod g, entirely in scratch:
                np.multiply(xc, a[None, r0:r1], out=h)
                np.add(h, b[None, r0:r1], out=h)
                _mersenne_fold_into(h, q)
                if self._pow2:
                    if h.max() >= MERSENNE_P:
                        _mersenne_fixup_into(h, eq)
                    np.bitwise_and(h, self._g - np.uint64(1), out=h)
                else:
                    _mersenne_fixup_into(h, eq)
                    _apply_mod_into(h, self._g, self._magic, self._shift, q)
                t1 = _thread_clock()
                np.equal(h, y[None, r0:r1], out=eq)
                np.add(plane[:, :w], eq.view(np.uint8), out=plane[:, :w])
                pending += 1
                if pending == _TALLY_TILES or r1 == hi:
                    counts[c0:c1] += plane.sum(axis=1, dtype=np.int64)
                    plane.fill(0)
                    pending = 0
                t2 = _thread_clock()
                hash_s += t1 - t0
                acc_s += t2 - t1
                tiles += 1
        if timing is not None:
            timing.add(
                hash_s, acc_s, worker=_current_worker_slot(), tiles=tiles
            )
        return counts


# ---------------------------------------------------------------------------
# Hadamard candidate decoding (bit-sliced)
# ---------------------------------------------------------------------------

#: Default report-segment length for the bit-sliced decode.  Dots are
#: additive over report segments, so segmenting bounds the packed-plane
#: footprint (≤ 64 planes × seg/64 words ≈ 8 MB at the default) without
#: changing a single output bit.
_HAD_SEGMENT_REPORTS = 1 << 20


class HadamardCandidatePlan:
    """Candidate-side plan for the bit-sliced Hadamard decode.

    Precomputes, per candidate set: the union of index bits any
    candidate inspects (``bit_positions``) and, for each such bit, the
    boolean mask of candidates that have it set (``bit_masks``) — the
    XOR-selection table of the decode loop.  Arrays are read-only and
    the plan holds no scratch, so instances cache and share safely
    (:data:`kernel_plan_cache`).
    """

    def __init__(self, candidates: np.ndarray) -> None:
        cand = np.ascontiguousarray(candidates, dtype=np.uint64)
        if cand.ndim != 1:
            raise ValueError(f"candidates must be 1-D, got shape {cand.shape}")
        if cand is candidates or np.shares_memory(cand, candidates):
            cand = cand.copy()
        cand.setflags(write=False)
        self.candidates = cand
        union = int(np.bitwise_or.reduce(cand)) if cand.size else 0
        self.bit_positions = tuple(
            t for t in range(64) if (union >> t) & 1
        )
        shifts = np.array(self.bit_positions, dtype=np.uint64)
        masks = (
            (cand[None, :] >> shifts[:, None]) & np.uint64(1)
        ).astype(bool)
        masks.setflags(write=False)
        self.bit_masks = masks  # (num bits, num candidates)

    @property
    def num_candidates(self) -> int:
        return int(self.candidates.shape[0])


def hadamard_support_counts(
    indices: np.ndarray,
    bits: np.ndarray,
    candidates: np.ndarray | HadamardCandidatePlan,
    *,
    tile_reports: int = _HAD_SEGMENT_REPORTS,
) -> np.ndarray:
    """Per-candidate Hadamard support counts, bit-sliced and integer-exact.

    ``C_v = n/2 + ½ Σ_i b_i·H[j_i, v]`` with ``H[j, v] = (−1)^popcount(j & v)``.
    Instead of materializing parities and contracting with an int64
    matmul (the previous tier, kept as
    :func:`_matmul_hadamard_support_counts`), the kernel bit-slices:

    1. Pack bit-plane ``t`` of the report indices into uint64 words —
       64 reports per word (:func:`repro.util.wht.pack_bit_planes`),
       only for bits some candidate actually inspects.
    2. For each candidate ``v``, ``parity_i = popcount(j_i & v) mod 2``
       is the XOR of the planes of ``v``'s set bits — one masked
       ``bitwise_xor`` per active bit per candidate block.
    3. With ``pos`` the packed mask of ``b_i = +1`` reports and
       ``sum_b = Σ b_i``, two ``np.bitwise_count`` popcounts finish the
       signed dot: ``Σ b_i·H[j_i, v] = sum_b − 4·popcount(parity ∧ pos)
       + 2·popcount(parity)``.

    Everything is integer arithmetic on word-packed lanes; the dot
    values are integers with magnitude ≤ n < 2⁵³, so the final float
    expression is bit-identical to the reference's per-candidate float
    dot (and to the retained matmul tier).  Dots are additive over
    report segments, so ``tile_reports`` bounds peak memory without
    affecting output.

    ``candidates`` may be a raw array or a prebuilt (possibly cached)
    :class:`HadamardCandidatePlan`.
    """
    idx = np.ascontiguousarray(indices, dtype=np.uint64)
    signed_bits = np.ascontiguousarray(bits, dtype=np.int64)
    if idx.shape != signed_bits.shape or idx.ndim != 1:
        raise ValueError("indices and bits must be aligned 1-D arrays")
    if isinstance(candidates, HadamardCandidatePlan):
        plan = candidates
    else:
        plan = HadamardCandidatePlan(candidates)
    n = idx.shape[0]
    d = plan.num_candidates
    dots = np.zeros(d, dtype=np.int64)
    if n and d:
        timing = _active_timing()
        hash_s = 0.0
        acc_s = 0.0
        tiles = 0
        seg_len = max(1, int(tile_reports))
        for s0 in range(0, n, seg_len):
            s1 = min(s0 + seg_len, n)
            h_s, a_s, t_s = _bitsliced_segment(
                idx[s0:s1], signed_bits[s0:s1], plan, dots
            )
            hash_s += h_s
            acc_s += a_s
            tiles += t_s
        if timing is not None:
            timing.add(
                hash_s, acc_s, worker=_current_worker_slot(), tiles=tiles
            )
    return n / 2.0 + 0.5 * dots.astype(np.float64)


def _bitsliced_segment(
    idx: np.ndarray,
    signed_bits: np.ndarray,
    plan: HadamardCandidatePlan,
    dots: np.ndarray,
) -> tuple[float, float, int]:
    """Accumulate one report segment's signed dots into ``dots``.

    Returns (hash seconds, accumulate seconds, tile count).  The *hash*
    stage is the transform side — plane packing and the sign mask; the
    *accumulate* stage is the XOR/popcount contraction.
    """
    n = idx.shape[0]
    d = plan.num_candidates
    t0 = _thread_clock()
    # Bits no report in this segment has set contribute parity 0 for
    # every candidate: skip their planes entirely.
    seg_union = int(np.bitwise_or.reduce(idx))
    used = [
        k for k, t in enumerate(plan.bit_positions) if (seg_union >> t) & 1
    ]
    num_pos = int((signed_bits > 0).sum())
    sum_b = 2 * num_pos - n
    if not used:
        # Every active parity is even: H contributes +1 throughout.
        dots += sum_b
        return _thread_clock() - t0, 0.0, 1
    pos = pack_sign_mask(signed_bits > 0)
    planes = pack_bit_planes(idx, [plan.bit_positions[k] for k in used])
    t1 = _thread_clock()
    words = planes.shape[1]
    tile_c = max(1, min(d, _TILE_CELLS // words))
    parity = _scratch("block", tile_c * words).reshape(tile_c, words)
    counted = _scratch("quotient", tile_c * words).reshape(
        tile_c, words
    )
    tiles = 0
    for c0 in range(0, d, tile_c):
        c1 = min(c0 + tile_c, d)
        par = parity[: c1 - c0]
        cnt = counted[: c1 - c0]
        par[:] = 0
        for j, k in enumerate(used):
            np.bitwise_xor(
                par,
                planes[j][None, :],
                out=par,
                where=plan.bit_masks[k, c0:c1, None],
            )
        np.bitwise_count(par, out=cnt)
        pc_all = cnt.sum(axis=1, dtype=np.int64)
        np.bitwise_and(par, pos[None, :], out=par)
        np.bitwise_count(par, out=par)
        pc_pos = par.sum(axis=1, dtype=np.int64)
        # Σ b_i·(1 − 2·parity_i) over the segment, per candidate.
        dots[c0:c1] += sum_b - 4 * pc_pos + 2 * pc_all
        tiles += 1
    return t1 - t0, _thread_clock() - t1, tiles


def _matmul_hadamard_support_counts(
    indices: np.ndarray,
    bits: np.ndarray,
    candidates: np.ndarray,
    *,
    tile_reports: int = _MAX_TILE_REPORTS,
) -> np.ndarray:
    """The previous kernel tier: popcount-parity tiles + int64 matmul.

    Retained as the mid-tier comparison point for the E18 bit-sliced
    sweep (it is itself bit-identical to the per-candidate reference,
    which stays on the oracle as ``_reference_support_counts_for``).
    """
    idx = np.ascontiguousarray(indices, dtype=np.uint64)
    cand = np.ascontiguousarray(candidates, dtype=np.uint64)
    signed_bits = np.ascontiguousarray(bits, dtype=np.int64)
    if idx.shape != signed_bits.shape or idx.ndim != 1:
        raise ValueError("indices and bits must be aligned 1-D arrays")
    n = idx.shape[0]
    d = cand.shape[0]
    dots = np.zeros(d, dtype=np.int64)
    if n and d:
        timing = _active_timing()
        hash_s = 0.0
        acc_s = 0.0
        tile_c = min(d, 4096)
        tile_r = max(1, min(tile_reports, n, _TILE_CELLS // tile_c))
        block = np.empty((tile_r, tile_c), dtype=np.uint64)
        parity = np.empty(block.shape, dtype=np.int64)
        for r0 in range(0, n, tile_r):
            r1 = min(r0 + tile_r, n)
            w = r1 - r0
            seg = signed_bits[r0:r1]
            seg_total = seg.sum()
            for c0 in range(0, d, tile_c):
                c1 = min(c0 + tile_c, d)
                t0 = _thread_clock()
                b_blk = block[:w, : c1 - c0]
                np.bitwise_and(idx[r0:r1, None], cand[None, c0:c1], out=b_blk)
                np.bitwise_count(b_blk, out=b_blk)
                np.bitwise_and(b_blk, np.uint64(1), out=b_blk)
                p_blk = parity[:w, : c1 - c0]
                np.copyto(p_blk, b_blk, casting="unsafe")
                t1 = _thread_clock()
                # Σ b_i·(1 − 2·parity) = Σ b_i − 2·(b @ parity)
                dots[c0:c1] += seg_total - 2 * (seg @ p_blk)
                t2 = _thread_clock()
                hash_s += t1 - t0
                acc_s += t2 - t1
        if timing is not None:
            timing.add(hash_s, acc_s)
    return n / 2.0 + 0.5 * dots.astype(np.float64)


# ---------------------------------------------------------------------------
# dense unary support counting
# ---------------------------------------------------------------------------


def column_support_counts(
    reports: np.ndarray, *, tile_rows: int = 1 << 15
) -> np.ndarray:
    """Column sums of a dense 0/1 report matrix, accumulated in int64.

    The unary (SUE/OUE) support path: summing uint8 rows into an int64
    accumulator tile by tile avoids the per-element float64 conversion
    of ``arr.sum(axis=0, dtype=float64)`` while producing exactly the
    same integers (counts ≤ n < 2⁵³).
    """
    arr = np.asarray(reports)
    if arr.ndim != 2:
        raise ValueError(f"reports must be 2-D, got shape {arr.shape}")
    timing = _active_timing()
    t0 = _thread_clock()
    counts = np.zeros(arr.shape[1], dtype=np.int64)
    for r0 in range(0, arr.shape[0], tile_rows):
        counts += arr[r0 : r0 + tile_rows].sum(axis=0, dtype=np.int64)
    if timing is not None:
        timing.add(0.0, _thread_clock() - t0)
    return counts.astype(np.float64)
