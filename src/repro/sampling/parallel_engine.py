"""Real multicore RRR sampling: a self-healing shared-memory process pool.

Everything above this module so far *modeled* parallel time; this module
actually uses the cores.  The design follows the shared-memory scaling
recipe of Ripples/HBMax (read-only CSR + embarrassingly parallel sample
blocks + partitioned counting), adapted to a Python substrate where the
unit of parallelism must be a *process* (the GIL rules out threads for
NumPy-dispatch-bound kernels):

* The graph's reverse-CSR arrays (``in_indptr``/``in_indices``/
  ``in_probs``) — plus, for LT, the precomputed per-vertex cumulative
  weight table — are placed in :mod:`multiprocessing.shared_memory`
  **once** at engine construction.  Workers attach zero-copy NumPy views;
  no graph bytes are pickled per task.
* **Output arena** — results travel the same way.  The parent reserves a
  shared-memory *output arena* (sized from the requested θ, with a
  growable-segment escape hatch) and assigns every submitted block a
  disjoint *extent* ``(segment, offset, capacity)`` from a parent-side
  cursor — no shared allocator lock exists that a SIGKILLed worker could
  die holding.  The worker writes the block's payload
  ``[flat int32 | pad to 8 | sizes int64 | edges int64]`` directly into
  its extent and returns only a tiny descriptor
  ``(wrote_arena, flat_len, num_samples, checksum, sample_s, write_s,
  fused, inline)``; the parent lands the block by passing zero-copy
  NumPy views over the extent straight into ``append_batch``.  A block
  that outgrows its extent rides back inline (counted in
  ``stats.arena_overflows``) and bumps the parent's bytes-per-sample
  estimate so follow-on segments are sized honestly.
* **Fused counting** — each worker keeps a running per-vertex bincount
  over the blocks it produced, in its own row of a shared counters
  matrix (rows are assigned once per worker process via a shared
  slot counter; rows never alias).  When the books balance —
  every incidence of the queried flat array was produced by a fused
  block, and nothing is in flight — ``count_partitioned`` merges the
  ``w`` partial counters with one column sum instead of re-shipping the
  flat buffers.  Any event that could desynchronize rows from the
  landed collection (a crash, a speculative duplicate, a deadline
  abandonment, a worker without a row) *invalidates* the fused state
  and the call falls back to the partitioned/serial path — exact either
  way, by construction.
* **Adaptive chunking** — with no explicit ``chunk_size`` the engine
  starts with small probe blocks and grows them geometrically toward a
  target block latency (:data:`ADAPTIVE_TARGET_BLOCK_SECONDS`), driven
  by the worker-reported per-block sampling time.  Blocks are planned
  lazily behind a bounded submission window, so the policy can react
  while the run is still in flight.  Chunking affects scheduling only —
  never the bytes.

Supervision
-----------
Sample ``j`` is a pure function of ``(graph, model, seed, j)``, so no
state of a dead worker is needed to reproduce its work bit-exactly.  The
one landing loop of :meth:`ParallelSamplingEngine.sample_into` builds on
that; each mechanism is a constructor argument, and every one that costs
anything in a fault-free run is off by default:

Crash → rebuild → replay (``crash_budget=3``)
    On ``BrokenProcessPool`` (a worker SIGKILLed, OOM-killed, or
    segfaulted) or a wedged-pool timeout, the engine rebuilds the pool
    and resubmits exactly the blocks that have not landed yet.  Replay
    costs nothing until a worker dies.  ``crash_budget=0`` is fail-fast:
    the first death raises :class:`CrashBudgetExhaustedError`, a
    :class:`WorkerCrashError`.  Capped exponential backoff separates
    consecutive rebuilds.
Spare pools (``spares=0``)
    Pre-spawned idle pools already attached to the shared CSR, promoted
    on crash so healing costs a promotion, not fork + shm-reattach.
Straggler speculation (``straggler_factor=None``)
    With a factor set, the engine keeps a running median of block
    service times; when the head block overstays ``factor x median``
    (with a floor), a speculative duplicate is submitted and the first
    checksum-valid result lands.  Both executions sample the same
    counter-addressed streams, so the race cannot change the output.
Run deadline (``deadline=None``)
    Budget expiry raises :class:`DeadlineExceededError` carrying the
    landed prefix size; the ``imm`` driver converts that into a
    ``DegradedResult`` whose ``theta_effective``/``epsilon_effective``
    are recomputed exactly the way the MPI shrink policy recomputes
    them.
Checkpoint / resume (``checkpoint_dir=None``, ``resume_from=None``)
    Every landed block is spilled through the write-ahead
    :class:`~repro.sampling.checkpoint.BlockCheckpointSink`; a killed
    process restarts with ``resume_from=`` and reloads the certified
    prefix instead of re-sampling it.
Real fault injection (``fault_plan=None``)
    The :class:`~repro.mpi.faults.FaultPlan` grammar that drives the
    simulated MPI runtime drives *real* OS events here: ``crash:r@N``
    SIGKILLs a live worker pid when the engine is about to land its
    ``N``-th block (victim index ``r``), ``switch:lo-hi@N`` kills the
    whole group at once, and ``straggler:b xF`` makes block ``b``'s
    first execution sleep ``F x straggler_sleep`` seconds inside the
    worker.  Phase-addressed and collective-only events (transient,
    corrupt, oom) have no process-pool analog and are rejected.

Determinism contract
--------------------
The parent lands blocks in index order — from a resumed checkpoint, the
in-process sampler (``workers=1``) or the pool — so the produced
collection is **bit-identical** to the serial and batched engines for
every worker count, chunk policy, start method, and mix of crashes,
stragglers and resumes.  ``repro-imm validate`` enforces this, and seven
mutation hooks exist so the mutation suite can prove the oracle would
catch the characteristic failure modes:

``_mutate_land_order="reversed"``
    the parent lands blocks in reverse index order (a completion-order
    landing bug's deterministic stand-in);
``_mutate_stream_offset=True``
    workers sample local ``[0, hi-lo)`` indices instead of the global
    block (the classic lost-offset bug).  The mutation deliberately
    leaves the protocol checksum computed from the *received* indices,
    modeling a bug inside the sampling call itself — the engine's own
    checksum handshake (:func:`repro.rng.streams.stream_checksum`)
    already rejects disagreements at the protocol layer.
``_mutate_arena_overlap=True``
    workers write their payload 8 bytes past the assigned extent start
    (the classic extent-stitching off-by-one): the parent's zero-copy
    views then read bytes that belong to the shifted layout, so the
    landed collection is corrupt — only the oracle's bitwise comparison
    (or the landing-time invariants it hardens) can see it.
``_mutate_fused_drop=True``
    the worker producing the block that contains global sample index 0
    skips accumulating it into its counter row but still reports the
    block as fused — the fused merge silently under-counts and only the
    oracle's ``engine.count-partitioned`` comparison can see it.
``_mutate_replay_overlap=True``
    crash recovery re-lands the last already-landed block;
``_mutate_resume_skip=True``
    resume drops the first sample past the checkpoint cursor;
``_mutate_spec_order=True``
    a speculative win lands behind its successor block.

Cleanup discipline
------------------
The parent owns every shared-memory segment — CSR, counters, and all
arena segments: ``close()`` (idempotent, also invoked by ``__exit__``,
``__del__``, and every error path) shuts the pool and the spares down
and unlinks all segments.  Pool workers share the parent's
``resource_tracker`` process (its fd rides along under both ``fork`` and
``spawn``), and the tracker's cache is a set — so a worker's attach-time
re-registration is a no-op and the parent's single unlink-time
unregistration leaves the cache clean.  Workers must therefore *not*
unregister segments themselves (that would race the parent's cleanup);
the test suite asserts the net effect — no ``resource_tracker`` warnings
or "leaked shared_memory" messages — by scanning a subprocess's stderr.

Failure modes raise typed errors, never hang: a pool that keeps dying
past the crash budget surfaces as :class:`CrashBudgetExhaustedError`
(via the executor's broken-pool detection or the per-block
``task_timeout``), an expired run deadline as
:class:`DeadlineExceededError`, and a stream-addressing disagreement as
:class:`EngineProtocolError`.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
import statistics
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from multiprocessing import get_context
from multiprocessing import shared_memory as _shm
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..rng.streams import fold_stream_seeds, stream_checksum, stream_seeds_array
from .batched import BatchedRRRSampler
from .checkpoint import BlockCheckpointSink, CheckpointError
from .collection import RRRCollection
from .rrr import in_edge_cumweights

if TYPE_CHECKING:  # repro.mpi imports repro.sampling at package import
    from ..mpi.faults import FaultPlan

__all__ = [
    "ParallelSamplingEngine",
    "ParallelEngineError",
    "WorkerCrashError",
    "EngineProtocolError",
    "CrashBudgetExhaustedError",
    "DeadlineExceededError",
    "EngineStats",
    "AdaptiveChunkPolicy",
    "build_sampling_engine",
]

_log = logging.getLogger(__name__)

#: Below this many incidences, the *partitioned* counting path stays
#: serial — the pickle+IPC round trip costs more than the bincount it
#: would save.  The fused merge has no per-element IPC at all, so it
#: applies regardless of this threshold.
PARALLEL_COUNT_THRESHOLD = 1 << 15

#: Floor for the first arena segment when no override is given.
ARENA_MIN_BYTES = 1 << 20
#: Ceiling for the first arena segment (growth covers anything larger).
ARENA_MAX_INITIAL_BYTES = 256 << 20
#: Hard cap on arena segments per engine; past it blocks ride inline.
ARENA_MAX_SEGMENTS = 64
#: Starting guess for arena sizing, refined from landed blocks.  RRR
#: payloads are heavy-tailed (soc-LiveJournal1 IC blocks run ~1.5 KiB
#: per sample), and the first submission window (2*workers+2 blocks) is
#: reserved before any landed-block feedback exists, so guess generously
#: to keep that window out of the inline-overflow path.  shm pages are
#: only committed when actually written, so an oversized extent tail
#: costs address space, not memory.
ARENA_BYTES_PER_SAMPLE_GUESS = 4096

#: Counters matrix budget: above this the fused-counting rows are not
#: allocated and ``count_partitioned`` always uses the legacy paths.
FUSED_COUNTER_MAX_BYTES = 64 << 20

#: Adaptive chunking: target per-block sampling latency (seconds) ...
ADAPTIVE_TARGET_BLOCK_SECONDS = 0.25
#: ... smallest probe block ...
ADAPTIVE_PROBE_FLOOR = 32
#: ... per-step geometric growth cap.
ADAPTIVE_GROWTH = 2.0

#: Per-landed-block IPC budget (bytes) the regression harness gates on:
#: a descriptor is a handful of scalars; payload bytes sneaking back
#: into the result pickle blow straight through this.
DESCRIPTOR_BYTE_BUDGET = 512


def _align8(nbytes: int) -> int:
    return (nbytes + 7) & ~7


def _extent_need(flat_len: int, num_samples: int) -> int:
    """Bytes one block payload occupies in its extent."""
    return _align8(flat_len * 4) + 16 * num_samples


class ParallelEngineError(RuntimeError):
    """Base class for process-pool sampling-engine failures."""


class WorkerCrashError(ParallelEngineError):
    """A worker died (or timed out) mid-block; the engine is closed."""


class EngineProtocolError(ParallelEngineError):
    """Parent and worker disagree on a block's stream identities."""


class CrashBudgetExhaustedError(WorkerCrashError):
    """The pool kept dying past the per-run crash budget.

    Raised only after cleanup: shared memory is unlinked, spare pools
    shut down, and checkpoint temporaries removed (the checkpoint run
    directory itself survives — it is the resume vehicle).  With
    ``crash_budget=0`` this is the fail-fast error of the first death.
    """

    def __init__(self, budget: int, reason: str) -> None:
        super().__init__(
            f"worker pool failed past its crash budget of {budget} "
            f"(last: {reason}); shared memory unlinked, any checkpoint "
            "directory left consistent for resume"
        )
        self.budget = budget
        self.reason = reason


class DeadlineExceededError(ParallelEngineError):
    """The overall run deadline expired mid-θ.

    The collection holds the landed in-order prefix (``landed_total``
    samples); drivers convert this into a ``DegradedResult`` with
    honestly recomputed ``theta_effective``/``epsilon_effective``.
    """

    def __init__(self, landed_total: int, deadline: float | None) -> None:
        super().__init__(
            f"run deadline ({deadline}s) expired with {landed_total} samples "
            "landed; the collection holds a valid in-order prefix"
        )
        self.landed_total = landed_total
        self.deadline = deadline


@dataclass
class EngineStats:
    """Operational counters of one engine instance: the work it routed,
    the per-phase cost breakdown the regression harness records (arena
    writes, landing, counting merges, IPC descriptor bytes), and
    everything it did to stay alive."""

    blocks_landed: int = 0
    tasks_submitted: int = 0
    #: ``count_partitioned`` calls that degraded to a serial bincount
    #: because a worker crashed or timed out mid-count.
    count_fallbacks: int = 0
    #: Arena bookkeeping: segments allocated, bytes reserved across
    #: them, and blocks that outgrew their extent and rode back inline.
    arena_segments: int = 0
    arena_bytes: int = 0
    arena_overflows: int = 0
    #: Per-phase seconds (workers' sampling + arena writes are summed
    #: across workers; landing/merge are parent wall-clock).
    sample_seconds: float = 0.0
    arena_write_seconds: float = 0.0
    landing_seconds: float = 0.0
    count_merge_seconds: float = 0.0
    #: Fused-counting life cycle: merges served from the worker rows,
    #: and events that forced the fallback path.
    fused_count_merges: int = 0
    fused_invalidations: int = 0
    #: Total pickled bytes of every result the parent consumed — the
    #: IPC payload the arena exists to keep descriptor-sized.
    ipc_descriptor_bytes: int = 0
    #: Adaptive chunking: first probe size and last size of the most
    #: recent ``sample_into`` call (equal when a static chunk is used).
    chunk_initial: int = 0
    chunk_final: int = 0
    #: Recovery: pool failures seen, rebuilds, spare promotions and
    #: spawns, blocks re-run after a failure, and backoff slept.
    crashes_observed: int = 0
    rebuilds: int = 0
    promotions: int = 0
    spares_spawned: int = 0
    blocks_replayed: int = 0
    backoff_seconds: float = 0.0
    speculative_launched: int = 0
    speculative_wins: int = 0
    #: Fault-plan events actually delivered.
    injected_crashes: int = 0
    injected_sleeps: int = 0
    #: Checkpoint/resume and deadline accounting.
    resumed_samples: int = 0
    checkpoint_bytes: int = 0
    checkpoint_seconds: float = 0.0
    deadline_expired: bool = False

    def as_dict(self) -> dict:
        return {
            key: round(value, 6) if isinstance(value, float) else value
            for key, value in asdict(self).items()
        }


class AdaptiveChunkPolicy:
    """Probe-then-grow block sizing toward a target block latency.

    Starts with small probe blocks (fast feedback, fine-grained load
    balance while the per-sample cost is unknown), then grows the block
    size geometrically toward :data:`ADAPTIVE_TARGET_BLOCK_SECONDS`
    using the worker-reported sampling seconds of landed blocks.  Sizes
    are monotone non-decreasing (no oscillation) and capped at an even
    ``total / workers`` split so late planning still spans the pool.

    Scheduling only: the landed bytes are independent of every size this
    policy ever picks.
    """

    def __init__(
        self,
        total: int,
        workers: int,
        *,
        floor: int = ADAPTIVE_PROBE_FLOOR,
        target_seconds: float = ADAPTIVE_TARGET_BLOCK_SECONDS,
        growth: float = ADAPTIVE_GROWTH,
    ) -> None:
        if total < 0 or workers < 1:
            raise ValueError("need total >= 0 and workers >= 1")
        self.cap = max(1, math.ceil(total / workers))
        probe = max(floor, total // (16 * workers))
        self.size = max(1, min(self.cap, probe))
        self.initial = self.size
        self.target_seconds = target_seconds
        self.growth = growth

    def next_size(self) -> int:
        return self.size

    def observe(self, num_samples: int, seconds: float) -> None:
        """Feed one landed block's (size, worker sampling seconds)."""
        if num_samples <= 0 or seconds <= 0.0:
            return
        want = int(num_samples / seconds * self.target_seconds)
        grown = int(self.size * self.growth)
        self.size = min(self.cap, max(self.size, min(want, grown)))


# ---------------------------------------------------------------------------
# worker-side code (module-level so every start method can pickle it)
# ---------------------------------------------------------------------------

#: Per-worker state installed by :func:`_worker_init`.
_WORKER: dict | None = None


def _worker_init(payload: dict) -> None:
    """Pool initializer: attach the shared CSR and build the sampler.

    Attaching re-registers each segment with the resource tracker the
    worker shares with the parent — a set-insert no-op.  Ownership stays
    with the parent (create + unlink); workers only hold views.

    When the payload carries a counters matrix, the worker claims one
    row via the shared slot counter (bounded acquire: a worker that
    cannot get a slot simply produces unfused blocks — never deadlocks
    the pool).
    """
    global _WORKER
    views: dict[str, np.ndarray] = {}
    segments: list[_shm.SharedMemory] = []
    for key, (name, shape, dtype) in payload["arrays"].items():
        seg = _shm.SharedMemory(name=name)
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
        arr.flags.writeable = False  # the CSR is read-only by contract
        views[key] = arr
        segments.append(seg)
    # The sampler only touches the in-direction and ``n``; aliasing the
    # out-direction to the same arrays satisfies the CSRGraph constructor
    # without shipping bytes the kernels never read.
    graph = CSRGraph(
        payload["n"],
        views["in_indptr"],
        views["in_indices"],
        views["in_probs"],
        views["in_indptr"],
        views["in_indices"],
        views["in_probs"],
    )
    sampler = BatchedRRRSampler(
        graph, payload["model"], max_cohort=payload["max_cohort"]
    )
    if "lt_cum" in views:
        sampler._lt_cum = views["lt_cum"]  # shared, bit-equal to a local build
    counter_row = None
    counters = payload.get("counters")
    slot_counter = payload.get("slot_counter")
    if counters is not None and slot_counter is not None:
        name, rows, n = counters
        slot = -1
        lock = slot_counter.get_lock()
        if lock.acquire(timeout=5.0):
            try:
                slot = slot_counter.value
                slot_counter.value = slot + 1
            finally:
                lock.release()
        if 0 <= slot < rows:
            seg = _shm.SharedMemory(name=name)
            segments.append(seg)
            matrix = np.ndarray((rows, n), dtype=np.int64, buffer=seg.buf)
            counter_row = matrix[slot]
    _WORKER = {
        "sampler": sampler,
        "segments": segments,
        "arena": {},  # arena segment name -> attached SharedMemory
        "counter_row": counter_row,
    }


def _attach_arena(name: str) -> _shm.SharedMemory:
    assert _WORKER is not None
    seg = _WORKER["arena"].get(name)
    if seg is None:
        seg = _shm.SharedMemory(name=name)
        _WORKER["arena"][name] = seg
    return seg


def _sample_block(
    sampler: BatchedRRRSampler, indices: np.ndarray, seed: int, edge_flip: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of global indices as ``(flat, sizes, edges)``: cohorts of
    at most ``max_cohort`` samples, concatenated in index order.  Pool
    workers and the in-process (``workers=1``) path both call this."""
    flats, sizes, edges = [], [], []
    for lo in range(0, len(indices), sampler.max_cohort):
        v, s, e = sampler.sample_cohort(
            indices[lo : lo + sampler.max_cohort], seed, edge_flip=edge_flip
        )
        flats.append(v)
        sizes.append(s)
        edges.append(e)
    return (
        np.concatenate(flats) if flats else np.empty(0, dtype=np.int32),
        np.concatenate(sizes) if sizes else np.empty(0, dtype=np.int64),
        np.concatenate(edges) if edges else np.empty(0, dtype=np.int64),
    )


def _worker_block(
    indices: np.ndarray,
    seed: int,
    edge_flip: str,
    extent: tuple[str, int, int] | None,
    mutate_offset: bool,
    mutate_overlap: bool,
    mutate_fused_drop: bool,
    sleep_s: float = 0.0,
) -> tuple:
    """Sample one block of global indices into its arena extent.

    Returns the block *descriptor* ``(wrote_arena, flat_len,
    num_samples, checksum, sample_s, write_s, fused, inline)`` — a
    handful of scalars when the payload fit the extent, or the payload
    itself in ``inline`` when it did not (the parent then grows its
    sizing estimate).
    """
    if sleep_s > 0.0:  # injected straggler: the worker stalls, then answers
        time.sleep(sleep_s)
    assert _WORKER is not None, "worker initializer did not run"
    checksum = stream_checksum(seed, indices)
    first_index = int(indices[0]) if len(indices) else -1
    if mutate_offset:
        indices = indices - indices[0]  # the injected lost-offset bug
    t0 = time.perf_counter()
    flat, size_arr, edge_arr = _sample_block(
        _WORKER["sampler"], indices, seed, edge_flip
    )
    sample_s = time.perf_counter() - t0
    counter_row = _WORKER.get("counter_row")
    fused = counter_row is not None
    if fused and not (mutate_fused_drop and first_index == 0):
        counter_row += np.bincount(flat, minlength=len(counter_row))
    t1 = time.perf_counter()
    flat_len, ns = len(flat), len(size_arr)
    need = _extent_need(flat_len, ns)
    wrote = False
    if extent is not None and need <= extent[2]:
        seg = _attach_arena(extent[0])
        off = extent[1] + (8 if mutate_overlap else 0)
        np.ndarray(flat_len, dtype=np.int32, buffer=seg.buf, offset=off)[:] = flat
        off_sz = off + _align8(flat_len * 4)
        np.ndarray(ns, dtype=np.int64, buffer=seg.buf, offset=off_sz)[:] = size_arr
        np.ndarray(
            ns, dtype=np.int64, buffer=seg.buf, offset=off_sz + ns * 8
        )[:] = edge_arr
        wrote = True
    write_s = time.perf_counter() - t1
    inline = None if wrote else (flat, size_arr, edge_arr)
    return (wrote, flat_len, ns, checksum, sample_s, write_s, fused, inline)


def _worker_count(block: np.ndarray, minlength: int) -> np.ndarray:
    """Private bincount of one contiguous block of the incidence array."""
    return np.bincount(block, minlength=minlength)


def _worker_ping() -> int:
    """Identify the answering worker (used to pre-spawn and enumerate)."""
    return os.getpid()


# ---------------------------------------------------------------------------
# parent-side engine
# ---------------------------------------------------------------------------


class ParallelSamplingEngine:
    """Process-pool RRR sampling over a shared-memory CSR.

    Drop-in alternative to :class:`BatchedRRRSampler` for the batch
    drivers: it exposes the same ``sample_into`` interface (and
    :func:`~repro.sampling.sampler.sample_batch` accepts it as
    ``sampler=``), plus the ``count_partitioned`` selection kernel.  The
    output is bit-identical to the serial sampler under any mix of worker
    crashes, stragglers, and resumes — only wall-clock and ``stats``
    change.

    Parameters
    ----------
    graph, model:
        The input graph and diffusion model.
    workers:
        Pool size.  ``workers=1`` degenerates to the in-process batched
        sampler — no pool, no shared memory, no IPC (the deadline and
        checkpoint still apply).
    chunk_size:
        Samples per fan-out block.  ``None`` (the default) enables
        :class:`AdaptiveChunkPolicy` — probe blocks growing toward a
        target block latency.  An explicit size pins static blocks
        (tests and the oracle use this to address block ordinals).
        Results never depend on it.
    max_cohort:
        Forwarded to every worker's :class:`BatchedRRRSampler`.
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"`` or ``None`` for the
        platform default.  Output is bit-identical across all of them.
    task_timeout:
        Seconds without a block landing before the pool counts as
        wedged (a failure against the crash budget).  ``None`` waits
        forever.
    arena_bytes:
        Size of the *first* output-arena segment.  ``None`` sizes it
        from the first call's sample count; tests pass tiny values to
        force the growable-segment path.
    spares:
        Pre-spawned warm standby pools (each ``workers`` wide) promoted
        on crash; a promoted spare is replaced after the rebuild.  ``0``
        respawns cold on every rebuild.
    crash_budget:
        Pool failures healed per engine lifetime; one more raises
        :class:`CrashBudgetExhaustedError`.  ``0`` is fail-fast.
    backoff_base, backoff_cap:
        Capped exponential backoff (seconds) between consecutive
        rebuilds: ``min(cap, base * 2**rebuilds)``.
    deadline:
        Overall wall-clock budget (seconds) for the engine's lifetime;
        expiry raises :class:`DeadlineExceededError` at the next block
        boundary.  ``None`` disables.
    straggler_factor, straggler_floor, straggler_min_history:
        Speculative re-execution triggers once the head block has waited
        ``max(floor, factor x running-median-service-time)`` seconds and
        at least ``min_history`` blocks have landed.
        ``straggler_factor=None`` disables speculation.
    checkpoint_dir, resume_from:
        Spill landed blocks to / reload a certified prefix from a
        :class:`BlockCheckpointSink` run directory.  Passing the same
        path for both (or an existing directory as ``checkpoint_dir``)
        continues it in place.
    fault_plan:
        :class:`~repro.mpi.faults.FaultPlan` (or its CLI grammar) driving
        *real* injection: SIGKILL and in-worker sleeps, addressed by
        global landed-block ordinal.
    straggler_sleep:
        Base seconds one injected straggler factor unit sleeps.
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: DiffusionModel | str,
        *,
        workers: int,
        chunk_size: int | None = None,
        max_cohort: int | None = None,
        start_method: str | None = None,
        task_timeout: float | None = 300.0,
        arena_bytes: int | None = None,
        spares: int = 0,
        crash_budget: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        deadline: float | None = None,
        straggler_factor: float | None = None,
        straggler_floor: float = 0.25,
        straggler_min_history: int = 5,
        straggler_sleep: float = 0.3,
        checkpoint_dir: str | Path | None = None,
        resume_from: str | Path | None = None,
        fault_plan: FaultPlan | str | None = None,
        _mutate_land_order: str | None = None,
        _mutate_stream_offset: bool = False,
        _mutate_arena_overlap: bool = False,
        _mutate_fused_drop: bool = False,
        _mutate_replay_overlap: bool = False,
        _mutate_resume_skip: bool = False,
        _mutate_spec_order: bool = False,
    ) -> None:
        # close() runs on every error path below; it needs these first.
        self._closed = False
        self._segments: list[_shm.SharedMemory] = []
        self._pool: ProcessPoolExecutor | None = None
        self._spares: deque[ProcessPoolExecutor] = deque()
        self._sink: BlockCheckpointSink | None = None
        self._resume: BlockCheckpointSink | None = None
        #: Pools replaced by :meth:`rebuild_pool` whose worker processes
        #: may not have exited yet.  A surviving worker of a broken pool
        #: can still be executing an abandoned block — writing to its
        #: arena extent and attach-registering segments with the
        #: resource tracker — so arena cursors must not rewind and
        #: segments must not unlink until these are reaped.
        self._retired_pools: list[ProcessPoolExecutor] = []
        self._arena: list[dict] = []  # {"seg", "size", "cursor"} per segment
        if workers < 1:
            raise ValueError("need at least one worker")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if arena_bytes is not None and arena_bytes < 1:
            raise ValueError("arena_bytes must be positive")
        if spares < 0:
            raise ValueError("spares must be >= 0")
        if crash_budget < 0:
            raise ValueError("crash_budget must be >= 0")
        self.graph = graph
        self.model = DiffusionModel.parse(model)
        self.workers = workers
        self.chunk_size = chunk_size
        self.task_timeout = task_timeout
        self.spares = spares
        self.crash_budget = crash_budget
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.deadline = deadline
        self.straggler_factor = straggler_factor
        self.straggler_floor = straggler_floor
        self.straggler_min_history = straggler_min_history
        self.straggler_sleep = straggler_sleep
        self._mutate_land_order = _mutate_land_order
        self._mutate_stream_offset = _mutate_stream_offset
        self._mutate_arena_overlap = _mutate_arena_overlap
        self._mutate_fused_drop = _mutate_fused_drop
        self._mutate_replay_overlap = _mutate_replay_overlap
        self._mutate_resume_skip = _mutate_resume_skip
        self._mutate_spec_order = _mutate_spec_order
        self._compile_fault_plan(fault_plan)
        self._payload: dict | None = None
        self._mp_ctx = None
        self.stats = EngineStats()
        # -- output arena state (all parent-side; no shared locks) ----------
        self._arena_override = arena_bytes
        self._arena_active = 0
        self._arena_hint = 0  # samples the current call wants room for
        self._bytes_per_sample = ARENA_BYTES_PER_SAMPLE_GUESS
        self._inflight: set[Future] = set()
        # -- fused-counting state -------------------------------------------
        self._counter_matrix: np.ndarray | None = None
        self._fused_valid = False
        self._fused_incidences = 0
        self._fused_parent: np.ndarray | None = None
        # -- supervision state ----------------------------------------------
        self._deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        self._service_times: deque[float] = deque(maxlen=63)
        self._fault_clock = 0  # global ordinal of the next block to land
        self._need_spare = 0
        self._checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self._resume_dir = Path(resume_from) if resume_from else None
        self._sink_seed: int | None = None
        # LT: one cumulative-weight table, built once and shared with
        # every worker (bit-equal to what each would build locally).
        self._lt_cum = (
            in_edge_cumweights(graph) if self.model is DiffusionModel.LT else None
        )
        self._local = BatchedRRRSampler(graph, self.model, max_cohort=max_cohort)
        if self._lt_cum is not None:
            self._local._lt_cum = self._lt_cum
        if workers == 1:
            return  # in-process degenerate mode: nothing else to set up
        arrays = {
            "in_indptr": graph.in_indptr,
            "in_indices": graph.in_indices,
            "in_probs": graph.in_probs,
        }
        if self._lt_cum is not None:
            arrays["lt_cum"] = self._lt_cum
        spec: dict[str, tuple[str, tuple, str]] = {}
        try:
            self._mp_ctx = get_context(start_method)
            for key, arr in arrays.items():
                seg = _shm.SharedMemory(create=True, size=max(1, arr.nbytes))
                self._segments.append(seg)
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                view[:] = arr
                spec[key] = (seg.name, tuple(arr.shape), arr.dtype.str)
            self._payload = {
                "arrays": spec,
                "n": graph.n,
                "model": self.model.value,
                "max_cohort": self._local.max_cohort,
            }
            # One counter row per worker of the first pool and of every
            # pre-spawned spare.  Workers of pools spawned after a crash
            # find no free row and produce unfused blocks, so counting
            # after a recovery takes the exact fallback paths.
            rows = workers * (1 + spares)
            if rows * graph.n * 8 <= FUSED_COUNTER_MAX_BYTES:
                seg = _shm.SharedMemory(create=True, size=max(1, rows * graph.n * 8))
                self._segments.append(seg)
                self._counter_matrix = np.ndarray(
                    (rows, graph.n), dtype=np.int64, buffer=seg.buf
                )
                self._counter_matrix[:] = 0
                self._payload["counters"] = (seg.name, rows, graph.n)
                # Workers claim rows through this shared cursor; it is
                # pickled only through the spawning context's initargs.
                self._payload["slot_counter"] = self._mp_ctx.Value("i", 0)
                self._fused_valid = True
            self._pool = self.spawn_pool()
            for _ in range(spares):
                self._spares.append(self.spawn_pool(warm=True))
                self.stats.spares_spawned += 1
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the pool and the spares down, close the checkpoint sinks,
        and unlink every shared segment (idempotent).

        This covers the CSR segments, the fused-counters matrix, and
        every output-arena segment — on success paths and on every
        typed-error path alike.
        """
        if self._closed:
            return
        self._closed = True
        # wait=True: a freshly spawned spare may still be running its
        # shm-attach initializer, and unlinking segments under it races
        # the resource-tracker registration (stale entries at shutdown).
        # Idle spares join immediately, so this costs nothing.
        for pool in self._spares:
            pool.shutdown(wait=True, cancel_futures=True)
        self._spares.clear()
        for sink in {id(s): s for s in (self._sink, self._resume)}.values():
            if sink is not None:
                sink.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        # Retired (replaced) pools' survivors may still touch the arena;
        # join them before any segment goes away.
        self._reap_retired_pools(wait=True)
        self._counter_matrix = None  # view dies before its segment
        for rec in self._arena:
            self._segments.append(rec["seg"])
        self._arena = []
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []

    def __enter__(self) -> "ParallelSamplingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _require_open(self) -> None:
        if self._closed:
            raise ParallelEngineError("engine is closed")

    # -- pool lifecycle (the recovery primitives) ---------------------------

    def spawn_pool(self, *, warm: bool = False) -> ProcessPoolExecutor:
        """A fresh worker pool attached to this engine's shared segments.

        The pool is *not* installed — it is returned for the caller to
        hold (pre-spawned spares are kept this way) or to
        pass to :meth:`rebuild_pool`.  ``warm=True`` forces the worker
        processes to actually start (and run the shm-attach initializer)
        before returning, so a later promotion costs no fork.
        """
        if self._payload is None:
            raise ParallelEngineError("single-worker engine has no pool to spawn")
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._mp_ctx,
            initializer=_worker_init,
            initargs=(self._payload,),
        )
        if warm:
            # One submit makes the executor fork all max_workers at once;
            # waiting on it guarantees at least one initializer finished.
            pool.submit(_worker_ping).result()
        return pool

    def rebuild_pool(self, pool: ProcessPoolExecutor | None = None) -> None:
        """Replace the current (possibly broken) pool.

        The dead pool is shut down without touching the shared segments —
        ownership of those never moves — and ``pool`` (or a freshly
        spawned one) is installed in its place.  Outstanding futures of
        the old pool are cancelled; the caller re-submits whatever it
        still needs (deterministic replay makes that safe).  A rebuild
        always invalidates the fused counters: the dead worker may have
        accumulated blocks that never landed.
        """
        self._require_open()
        if self._payload is None:
            raise ParallelEngineError("single-worker engine has no pool to rebuild")
        self._invalidate_fused("pool rebuild")
        old, self._pool = self._pool, None
        if old is not None:
            # wait=False keeps recovery responsive (a wedged straggler in
            # the dead pool must not stall the rebuild), so the old pool
            # is retired instead of forgotten: its survivors may still be
            # running abandoned blocks against the arena.
            old.shutdown(wait=False, cancel_futures=True)
            self._retired_pools.append(old)
        self._pool = pool if pool is not None else self.spawn_pool()

    # -- output arena (parent-assigned extents, no shared locks) -------------

    def _maybe_reset_arena(self, hint_samples: int) -> None:
        """Rewind the arena cursors for a fresh call, if quiescent.

        Extents are handed out monotonically within a call; between
        calls the whole arena is reusable **unless** futures are still
        in flight (a speculative loser, an abandoned post-deadline
        block) — those may still write to their extents, so the cursors
        stay put and the arena simply keeps growing forward.
        """
        self._arena_hint = max(self._arena_hint, hint_samples)
        if self._inflight or not self._reap_retired_pools(wait=False):
            return
        for rec in self._arena:
            rec["cursor"] = 0
        self._arena_active = 0

    def _reap_retired_pools(self, *, wait: bool) -> bool:
        """Drop retired pools whose workers have all exited.

        ``wait=True`` joins them (used by :meth:`close` before segments
        unlink); ``wait=False`` only polls, so callers can fall back to
        growing the arena forward instead of blocking recovery.  Returns
        ``True`` when no retired worker process remains alive.
        """
        still_live: list[ProcessPoolExecutor] = []
        for pool in self._retired_pools:
            if wait:
                pool.shutdown(wait=True, cancel_futures=True)
                continue
            procs = getattr(pool, "_processes", None) or {}
            if any(p.is_alive() for p in procs.values()):
                still_live.append(pool)
        self._retired_pools = still_live
        return not still_live

    def _new_arena_segment(self, min_bytes: int) -> dict | None:
        if len(self._arena) >= ARENA_MAX_SEGMENTS:
            return None
        if not self._arena:
            if self._arena_override is not None:
                size = max(self._arena_override, min_bytes)
            else:
                size = min(
                    ARENA_MAX_INITIAL_BYTES,
                    max(
                        ARENA_MIN_BYTES,
                        min_bytes,
                        2 * self._arena_hint * self._bytes_per_sample,
                    ),
                )
        else:
            size = max(2 * self._arena[-1]["size"], 4 * min_bytes)
        seg = _shm.SharedMemory(create=True, size=max(1, size))
        rec = {"seg": seg, "size": size, "cursor": 0}
        self._arena.append(rec)
        self.stats.arena_segments = len(self._arena)
        self.stats.arena_bytes += size
        return rec

    def _reserve_extent(self, num_samples: int):
        """Assign a disjoint arena extent for a block of ``num_samples``.

        Parent-side bump allocation only: no lock exists for a killed
        worker to die holding.  Returns ``None`` when the arena is at
        its segment cap — the block then rides back inline.
        """
        cap = _align8(self._bytes_per_sample * max(1, num_samples) + 64)
        i = self._arena_active
        while True:
            if i >= len(self._arena):
                rec = self._new_arena_segment(cap)
                if rec is None:
                    return None
                i = len(self._arena) - 1
            rec = self._arena[i]
            if rec["cursor"] + cap <= rec["size"]:
                off = rec["cursor"]
                rec["cursor"] = off + cap
                self._arena_active = i
                return (i, off, cap)
            i += 1

    def _note_block_size(self, num_samples: int, need: int) -> None:
        """Refine the bytes-per-sample estimate from a landed block."""
        if num_samples > 0:
            observed = math.ceil(1.5 * need / num_samples)
            if observed > self._bytes_per_sample:
                self._bytes_per_sample = observed

    # -- fused-counting bookkeeping ------------------------------------------

    def _invalidate_fused(self, reason: str) -> None:
        if self._fused_valid:
            self._fused_valid = False
            self.stats.fused_invalidations += 1
            _log.debug("fused counters invalidated: %s", reason)

    def _maybe_reset_fused(self, collection, sample_indices: np.ndarray) -> None:
        """Re-arm fused counting at a fresh collection epoch.

        Valid only when the books can be balanced from scratch: nothing
        in flight (so no worker can still accumulate a stale block), an
        empty target collection, and a run starting at global index 0.
        The rows are zeroed — including any stale rows of dead workers —
        and accumulation restarts in lockstep with the landings.
        """
        if (
            self._counter_matrix is None
            or self._inflight
            or len(collection) != 0
            or (len(sample_indices) > 0 and int(sample_indices[0]) != 0)
        ):
            return
        self._counter_matrix[:] = 0
        self._fused_incidences = 0
        self._fused_parent = None
        self._fused_valid = True

    def _note_parent_landing(self, flat: np.ndarray) -> None:
        """Account a block the *parent* landed (e.g. a resumed prefix):
        its incidences live in a parent-side row, not a worker row."""
        if self._counter_matrix is None:
            return
        if self._fused_parent is None:
            self._fused_parent = np.zeros(self.graph.n, dtype=np.int64)
        self._fused_parent += np.bincount(flat, minlength=self.graph.n)
        self._fused_incidences += len(flat)

    # -- fault-plan translation ---------------------------------------------

    def _compile_fault_plan(self, plan) -> None:
        """Map the MPI fault grammar onto real process-pool events.

        ``crash``/``switch`` become SIGKILLs of live worker pids fired
        when the engine is about to land the addressed block ordinal;
        ``straggler`` becomes an in-worker sleep on that block's first
        execution (replays and speculative copies run clean — the sleep
        models a slow worker, not slow work).
        """
        self._kill_events: list[dict] = []
        self._sleep_factors: dict[int, float] = {}
        self._slept_blocks: set[int] = set()
        self.fault_plan = plan
        if plan is None:
            return
        # Imported here, not at module top: repro.mpi's package __init__
        # reaches back into repro.sampling (circular at import time).
        from ..mpi.faults import FaultPlan, RankCrash, Straggler, SwitchOutage

        if isinstance(plan, str):
            plan = self.fault_plan = FaultPlan.parse(plan)
        for event in plan.events:
            if isinstance(event, RankCrash):
                if event.at_call is None:
                    raise ValueError(
                        "phase-addressed crashes have no process-pool analog; "
                        "address the block ordinal: crash:<victim>@<block>"
                    )
                self._kill_events.append(
                    {"at": event.at_call, "ranks": (event.rank,), "fired": False}
                )
            elif isinstance(event, SwitchOutage):
                self._kill_events.append(
                    {"at": event.at_call, "ranks": event.ranks, "fired": False}
                )
            elif isinstance(event, Straggler):
                self._sleep_factors[event.rank] = (
                    self._sleep_factors.get(event.rank, 1.0) * event.factor
                )
            else:
                raise ValueError(
                    f"{type(event).__name__} events only exist in the simulated "
                    "MPI runtime; the pool supports crash/switch/straggler"
                )

    def _sleep_for_block(self, ordinal: int) -> float:
        factor = self._sleep_factors.get(ordinal)
        if factor is None or ordinal in self._slept_blocks:
            return 0.0
        self._slept_blocks.add(ordinal)
        self.stats.injected_sleeps += 1
        return self.straggler_sleep * factor

    def _fire_due_kills(self, ordinal: int) -> bool:
        """SIGKILL real worker pids for every kill event now due.

        Returns True when at least one kill was delivered so the caller
        can wait for the pool break instead of racing run completion —
        on a fast run every block may already be computed by the time
        the kill lands, and the executor would only notice the corpse
        at close().
        """
        fired = False
        for event in self._kill_events:
            if event["fired"] or ordinal < event["at"]:
                continue
            event["fired"] = True
            pids = sorted(self._pool._processes.keys())
            if not pids:
                continue
            victims = {pids[r % len(pids)] for r in event["ranks"]}
            for pid in victims:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):  # pragma: no cover
                    continue
                self.stats.injected_crashes += 1
                fired = True
            _log.warning(
                "injected SIGKILL of worker pid(s) %s at block %d",
                sorted(victims),
                ordinal,
            )
        return fired

    def _await_pool_break(self, timeout: float = 10.0) -> None:
        """Block until the executor notices an injected worker death.

        The victim pid is really dead, so the management thread is
        guaranteed to flag the pool broken (it waits on the process
        sentinels); pausing here makes injected crashes exercise the
        recovery path deterministically.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._pool is None or getattr(self._pool, "_broken", False):
                return
            time.sleep(0.005)

    # -- checkpoint plumbing -------------------------------------------------

    def _ensure_sinks(self, seed: int) -> None:
        """Open checkpoint/resume sinks lazily, bound to the run's seed."""
        if self._checkpoint_dir is None and self._resume_dir is None:
            return
        if self._sink_seed is not None:
            if seed != self._sink_seed:
                raise CheckpointError(
                    f"checkpoint is bound to seed {self._sink_seed}, "
                    f"this call uses seed {seed}"
                )
            return
        ident = dict(n=self.graph.n, model=self.model.value, seed=seed)
        if self._checkpoint_dir is not None:
            self._sink = BlockCheckpointSink(self._checkpoint_dir, **ident)
        if self._resume_dir is not None:
            if (
                self._checkpoint_dir is not None
                and self._resume_dir.resolve() == self._checkpoint_dir.resolve()
            ):
                self._resume = self._sink  # continue the same run directory
            else:
                self._resume = BlockCheckpointSink(
                    self._resume_dir, readonly=True, **ident
                )
        elif self._sink is not None and self._sink.landed > 0:
            # checkpoint_dir pointed at an existing run: implicit resume
            self._resume = self._sink
        self._sink_seed = seed

    def _refresh_checkpoint_stats(self) -> None:
        self.stats.checkpoint_bytes = self._sink.bytes_written
        self.stats.checkpoint_seconds = self._sink.write_seconds

    def _land_resumed(
        self,
        collection: RRRCollection,
        sample_indices: np.ndarray,
        per_sample: np.ndarray,
    ) -> int:
        """Satisfy the certified prefix of this call from the resume
        spill; returns how many samples it landed."""
        src = self._resume
        first = int(sample_indices[0])
        if src is None or src.landed <= first:
            return 0
        hi = min(src.landed, first + len(sample_indices))
        flat, sizes, edges = src.load_range(first, hi)
        collection.append_batch(flat, sizes)
        # The prefix never passed through a worker: account it in the
        # parent-side fused row so the books can still balance.
        self._note_parent_landing(np.asarray(flat))
        pos = hi - first
        per_sample[:pos] = edges
        self.stats.resumed_samples += pos
        if self._sink is not None and self._sink is not src:
            self._sink.append_block(sample_indices[:pos], flat, sizes, edges)
            self._refresh_checkpoint_stats()
        return pos

    # -- degradation / exhaustion endpoints ----------------------------------

    def _check_deadline(self, landed_total: int) -> None:
        if self._deadline_at is not None and time.monotonic() >= self._deadline_at:
            self._degrade(landed_total)

    def _degrade(self, landed_total: int) -> None:
        """Deadline expired: surface the typed error (engine stays open —
        the driver owns the close, and the collection's landed prefix is
        exactly what ``DegradedResult`` will account for).

        Abandoned in-flight blocks may still have been accumulated by
        their workers without ever landing, so the fused counters are
        invalidated — the degraded run counts via the fallback paths.
        """
        self._invalidate_fused("deadline degradation abandoned in-flight blocks")
        self.stats.deadline_expired = True
        _log.warning(
            "run deadline (%ss) expired with %d samples landed; degrading",
            self.deadline,
            landed_total,
        )
        raise DeadlineExceededError(landed_total, self.deadline)

    def _exhausted(self, reason: str) -> None:
        """Crash budget gone: clean everything up, then raise typed."""
        self.close()  # spares down, sinks consistent, shm unlinked
        raise CrashBudgetExhaustedError(self.crash_budget, reason)

    # -- block submission / materialization ----------------------------------

    def submit_block(
        self,
        block: np.ndarray,
        seed: int,
        edge_flip: str = "stream",
        *,
        sleep_s: float = 0.0,
    ) -> Future:
        """Fan one block of global sample indices out to the pool.

        Low-level primitive of the landing loop (and of its speculative
        re-execution).  The block is assigned an output-arena extent
        here; the returned future resolves to the block *descriptor* —
        pass it to :meth:`_materialize` to obtain the zero-copy
        ``(flat, sizes, edges)`` views plus checksum.
        """
        self._require_open()
        if self._pool is None:
            raise ParallelEngineError("single-worker engine has no pool")
        self.stats.tasks_submitted += 1
        extent = self._reserve_extent(len(block))
        wire = (
            None
            if extent is None
            else (self._arena[extent[0]]["seg"].name, extent[1], extent[2])
        )
        fut = self._pool.submit(
            _worker_block,
            block,
            seed,
            edge_flip,
            wire,
            self._mutate_stream_offset,
            self._mutate_arena_overlap,
            self._mutate_fused_drop,
            sleep_s,
        )
        fut._arena_extent = extent
        self._inflight.add(fut)
        fut.add_done_callback(self._inflight.discard)
        return fut

    def _materialize(self, fut: Future, timeout: float | None = None):
        """Resolve a block future into ``(flat, sizes, edges, checksum,
        sample_s)`` — zero-copy views over the block's arena extent, or
        the inline payload on overflow (which also grows the sizing
        estimate for future extents)."""
        desc = fut.result(timeout=timeout)
        wrote, flat_len, ns, checksum, sample_s, write_s, fused, inline = desc
        st = self.stats
        st.ipc_descriptor_bytes += len(pickle.dumps(desc, protocol=-1))
        st.sample_seconds += sample_s
        st.arena_write_seconds += write_s
        if not fused:
            self._invalidate_fused("worker produced an unfused block")
        elif flat_len:
            self._fused_incidences += flat_len
        self._note_block_size(ns, _extent_need(flat_len, ns))
        if wrote:
            seg_idx, off, _cap = fut._arena_extent
            buf = self._arena[seg_idx]["seg"].buf
            flat = np.ndarray(flat_len, dtype=np.int32, buffer=buf, offset=off)
            off_sz = off + _align8(flat_len * 4)
            sizes = np.ndarray(ns, dtype=np.int64, buffer=buf, offset=off_sz)
            edges = np.ndarray(
                ns, dtype=np.int64, buffer=buf, offset=off_sz + ns * 8
            )
        else:
            st.arena_overflows += 1
            flat, sizes, edges = inline
        return flat, sizes, edges, checksum, sample_s

    def worker_pids(self) -> list[int]:
        """Live worker pids of the current pool (spawning it if lazy).

        Real fault injection needs actual victims: a ``crash`` fault
        sends SIGKILL to one of these.  ``ProcessPoolExecutor`` starts
        all workers on the first submit, so after one ping the private
        ``_processes`` map is fully populated.
        """
        self._require_open()
        if self._pool is None:
            return []
        self._pool.submit(_worker_ping).result()
        return sorted(self._pool._processes.keys())

    # -- sampling ------------------------------------------------------------

    def sample_into(
        self,
        collection: RRRCollection,
        sample_indices: np.ndarray,
        seed: int,
        *,
        edge_flip: str = "stream",
        chunk_size: int | None = None,
    ) -> np.ndarray:
        """Generate the given global sample indices into ``collection``.

        Same contract as :meth:`BatchedRRRSampler.sample_into`; returns
        the per-sample examined-edge counts aligned with
        ``sample_indices``.  Blocks land strictly in index order, so the
        collection is bit-identical to the serial engines' output.  The
        loop survives worker deaths (replay, within the crash budget),
        overstaying blocks (speculation) and process kills
        (checkpoint/resume), and honours the run deadline; each of those
        costs a fault-free block nothing when it is switched off.
        """
        self._require_open()
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        per_sample = np.empty(len(sample_indices), dtype=np.int64)
        if len(sample_indices) == 0:
            return per_sample
        self._check_deadline(len(collection))
        self._ensure_sinks(seed)
        self._maybe_reset_fused(collection, sample_indices)
        self._maybe_reset_arena(len(sample_indices))
        pos = self._land_resumed(collection, sample_indices, per_sample)
        if self._mutate_resume_skip and 0 < pos < len(sample_indices):
            per_sample[pos] = 0  # the injected cursor-skip bug
            pos += 1
        indices = sample_indices[pos:]
        total = len(indices)
        if total == 0:
            return per_sample
        pooled = self._pool is not None
        # In process there is no load to balance: one cohort per block,
        # exactly the batched sampler's own landing granularity.
        chunk = chunk_size or self.chunk_size or (
            None if pooled else self._local.max_cohort
        )
        policy = (
            None if chunk is not None else AdaptiveChunkPolicy(total, self.workers)
        )
        self.stats.chunk_initial = chunk if chunk is not None else policy.initial
        # Batched checksum handshake: every block's expected checksum is a
        # fold over one vectorized stream-seed pass; the worker's answer
        # rides back in its descriptor — no separate round trip.
        seeds_arr = stream_seeds_array(seed, indices) if pooled else None
        base = self._fault_clock  # global ordinal of blocks[0]
        # Planned-but-unlanded block bound.  In process there is nothing
        # to overlap, so each block is planned after the previous landed.
        window = 2 * self.workers + 2 if pooled else 1
        blocks: list[np.ndarray] = []
        expected: list[int] = []
        primary: list[Future | None] = []
        spec: list[Future | None] = []
        planned = 0  # samples planned into blocks so far
        next_land = 0
        held: list[tuple] = []  # _mutate_land_order stash
        last_landed: tuple | None = None  # _mutate_replay_overlap stash
        # Per-submission watchdog: the clock is refreshed only by
        # *progress* (a block landing), so a hung block cannot consume
        # ``i x task_timeout`` by restarting the clock at every wait.
        task_deadline = (
            time.monotonic() + self.task_timeout
            if self.task_timeout is not None
            else None
        )

        def plan_more() -> None:
            """Lazily extend the block plan behind the submission window.

            With an adaptive policy the next block's size reflects every
            block landed so far.  Planning is append-only, so replay and
            fault addressing by block ordinal stay stable.
            """
            nonlocal planned
            while planned < total and len(blocks) - next_land < window:
                size = chunk if chunk is not None else policy.next_size()
                stop = min(total, planned + size)
                blocks.append(indices[planned:stop])
                if pooled:
                    expected.append(fold_stream_seeds(seeds_arr[planned:stop]))
                primary.append(None)
                spec.append(None)
                # the policy's settled size, not the clipped tail block
                self.stats.chunk_final = size
                planned = stop

        def land(bi: int, flat, sizes, edges, sample_s: float) -> None:
            nonlocal pos, next_land, last_landed
            t0 = time.perf_counter()
            if self._mutate_land_order == "reversed":
                held.append((flat.copy(), sizes.copy()))  # landed at the end
            else:
                collection.append_batch(flat, sizes, total=len(flat))
            self.stats.landing_seconds += time.perf_counter() - t0
            per_sample[pos : pos + len(edges)] = edges
            pos += len(edges)
            if self._sink is not None:
                self._sink.append_block(blocks[bi], flat, sizes, edges)
                self._refresh_checkpoint_stats()
            if self._mutate_replay_overlap:
                # arena extents are recycled between calls: stash a
                # private copy, not the zero-copy landing views
                last_landed = (flat.copy(), sizes.copy())
            if policy is not None:
                policy.observe(len(blocks[bi]), sample_s)
            self.stats.blocks_landed += 1
            self._fault_clock += 1
            primary[bi] = spec[bi] = None
            next_land = max(next_land, bi + 1)

        def usable(fut: Future | None) -> bool:
            return fut is not None and fut.done() and fut.exception() is None

        def submit(bi: int, *, clean: bool = False) -> Future:
            sleep_s = 0.0
            if self._sleep_factors and not clean:
                sleep_s = self._sleep_for_block(base + bi)
            return self.submit_block(blocks[bi], seed, edge_flip, sleep_s=sleep_s)

        def submit_new() -> None:
            """Submit planned blocks that have no primary execution yet."""
            for bi in range(next_land, len(blocks)):
                if primary[bi] is None:
                    primary[bi] = submit(bi)

        def resubmit_lost() -> None:
            """After a rebuild: re-run every un-landed block whose result
            is gone.

            Completed futures survive a pool break with their results —
            those blocks are not re-run; everything else is replayed
            deterministically into *fresh* arena extents (same indices,
            same streams, same bytes).
            """
            for bi in range(next_land, len(blocks)):
                if not usable(primary[bi]):
                    if primary[bi] is not None:
                        self.stats.blocks_replayed += 1
                    primary[bi] = submit(bi)
                if spec[bi] is not None and not usable(spec[bi]):
                    spec[bi] = None
            while self._need_spare > 0:  # replace promoted spares
                self._need_spare -= 1
                try:
                    self._spares.append(self.spawn_pool(warm=True))
                    self.stats.spares_spawned += 1
                except Exception as exc:  # pragma: no cover - fork pressure
                    _log.warning("could not replenish spare pool: %s", exc)
                    break

        def recover(reason: str) -> None:
            self.stats.crashes_observed += 1
            _log.warning(
                "worker pool failure (%s): crash %d against budget %d",
                reason,
                self.stats.crashes_observed,
                self.crash_budget,
            )
            if self.stats.crashes_observed > self.crash_budget:
                self._exhausted(reason)
            delay = min(self.backoff_cap, self.backoff_base * (2**self.stats.rebuilds))
            if delay > 0:
                time.sleep(delay)
                self.stats.backoff_seconds += delay
            promoted = None
            if self._spares:
                promoted = self._spares.popleft()
                self.stats.promotions += 1
                self._need_spare += 1
            self.rebuild_pool(promoted)
            self.stats.rebuilds += 1
            if self._mutate_replay_overlap and last_landed is not None:
                # the injected replay-overlap bug: recovery re-lands the
                # block that already landed before the crash
                collection.append_batch(*last_landed)

        def await_head(bi: int):
            """Wait for block ``bi``'s first checksum-valid result.

            Returns ``(flat, sizes, edges, sample_s)``, or ``None`` after
            a recovery (the caller resubmits what was lost).
            """
            nonlocal task_deadline
            wait_start = time.monotonic()
            while True:
                cands = [f for f in (primary[bi], spec[bi]) if f is not None]
                now = time.monotonic()
                waits = []
                if self._deadline_at is not None:
                    waits.append(self._deadline_at - now)
                if task_deadline is not None:
                    waits.append(task_deadline - now)
                spec_at = None
                if (
                    spec[bi] is None
                    and self.straggler_factor is not None
                    and len(self._service_times) >= self.straggler_min_history
                ):
                    spec_at = wait_start + max(
                        self.straggler_floor,
                        self.straggler_factor * statistics.median(self._service_times),
                    )
                    waits.append(spec_at - now)
                timeout = max(0.0, min(waits)) if waits else None
                done, _ = _futures_wait(
                    cands, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    now = time.monotonic()
                    if self._deadline_at is not None and now >= self._deadline_at:
                        self._degrade(len(collection))
                    if spec_at is not None and now >= spec_at:
                        # Whichever copy loses still accumulated its
                        # samples into a worker counter row — the fused
                        # books cannot balance after a duplicate.
                        self._invalidate_fused("speculative duplicate launched")
                        try:
                            spec[bi] = submit(bi, clean=True)
                        except BrokenProcessPool:
                            recover("speculative submission hit a broken pool")
                            return None
                        self.stats.speculative_launched += 1
                        continue
                    if task_deadline is not None and now >= task_deadline:
                        recover(f"no progress for {self.task_timeout}s (pool wedged)")
                        task_deadline = time.monotonic() + self.task_timeout
                        return None
                    continue  # woke before any of our own deadlines
                # Prefer a cleanly completed candidate; the checksum check
                # below decides whether it may land.
                winner = next((f for f in done if f.exception() is None), None)
                if winner is None:
                    exc = next(iter(done)).exception()
                    if isinstance(exc, (BrokenProcessPool, OSError)):
                        recover(f"worker died mid-block ({type(exc).__name__})")
                        return None
                    self.close()
                    raise exc
                flat, sizes, edges, checksum, sample_s = self._materialize(winner)
                if checksum != expected[bi]:
                    # first *checksum-valid* result wins: drop this
                    # candidate and keep waiting on the other, if any
                    self._invalidate_fused("checksum-invalid candidate dropped")
                    if winner is spec[bi]:
                        spec[bi] = None
                    else:
                        primary[bi], spec[bi] = spec[bi], None
                    if primary[bi] is None:
                        self.close()
                        raise EngineProtocolError(
                            f"block {bi} stream-checksum mismatch from every "
                            "candidate: workers did not sample the indices sent"
                        )
                    continue
                if winner is spec[bi]:
                    self.stats.speculative_wins += 1
                if self.straggler_factor is not None:
                    self._service_times.append(time.monotonic() - wait_start)
                return flat, sizes, edges, sample_s

        need_resubmit = False
        while next_land < len(blocks) or planned < total:
            plan_more()
            bi = next_land
            if not pooled:
                self._check_deadline(len(collection))
                t0 = time.perf_counter()
                flat, sizes, edges = _sample_block(
                    self._local, blocks[bi], seed, edge_flip
                )
                land(bi, flat, sizes, edges, time.perf_counter() - t0)
                continue
            try:
                if need_resubmit:
                    resubmit_lost()
                    need_resubmit = False
                else:
                    submit_new()
            except BrokenProcessPool:
                recover("submission hit a broken pool")
                need_resubmit = True
                continue
            if self._kill_events and self._fire_due_kills(base + bi):
                self._await_pool_break()
                recover("injected worker kill broke the pool")
                need_resubmit = True
                continue
            got = await_head(bi)
            if got is None:
                need_resubmit = True
                continue
            if (
                self._mutate_spec_order
                and spec[bi] is not None  # a speculative copy raced
                and bi + 1 < len(blocks)
                and self._sink is None
                and usable(primary[bi + 1])
            ):
                # the injected race bug: the speculative win lands
                # *behind* its successor block
                flat2, sizes2, edges2, _, sample_s2 = self._materialize(
                    primary[bi + 1]
                )
                land(bi + 1, flat2, sizes2, edges2, sample_s2)
            land(bi, *got)
            if task_deadline is not None:  # progress resets the watchdog
                task_deadline = time.monotonic() + self.task_timeout
        for flat, sizes in reversed(held):
            collection.append_batch(flat, sizes)
        return per_sample

    # -- selection counting kernel -------------------------------------------

    def _fused_total(self, incidences: int, minlength: int) -> np.ndarray | None:
        """The fused-counter merge, when the books balance: every one of
        ``incidences`` was accumulated block by block in a counter row
        since the epoch began, and nothing is in flight."""
        if not (
            self._pool is not None
            and self._fused_valid
            and self._counter_matrix is not None
            and minlength == self.graph.n
            and incidences == self._fused_incidences
            and not self._inflight
        ):
            return None
        t0 = time.perf_counter()
        total = self._counter_matrix.sum(axis=0)
        if self._fused_parent is not None:
            total = total + self._fused_parent
        self.stats.count_merge_seconds += time.perf_counter() - t0
        self.stats.fused_count_merges += 1
        return total

    def count_partitioned(self, flat: np.ndarray, minlength: int) -> np.ndarray:
        """Partitioned replacement for ``np.bincount(flat, minlength)``.

        Three paths, exact and bit-identical by construction:

        1. **Fused merge** — when every incidence of ``flat`` was
           accumulated block-by-block in the workers' counter rows (the
           books balance: same incidence total, no crash/speculation/
           abandonment since the epoch began, nothing in flight), the
           answer is one column sum of the ``w`` partial counters —
           no flat bytes cross a process boundary at all.
        2. **Partitioned ship** — otherwise, ``flat`` is split into
           ``workers`` contiguous blocks, each bincounted in a worker,
           summed in the parent (integer addition is exact).
        3. **Serial** — no pool, small arrays, or a crash mid-count
           (logged and counted in ``stats.count_fallbacks``; the broken
           pool is left for the next sampling call to rebuild).
        """
        self._require_open()
        flat = np.asarray(flat)
        fused = self._fused_total(len(flat), minlength)
        if fused is not None:
            return fused
        if self._pool is None or len(flat) < PARALLEL_COUNT_THRESHOLD:
            return np.bincount(flat, minlength=minlength)
        bounds = np.linspace(0, len(flat), self.workers + 1, dtype=np.int64)
        try:
            futures = [
                self._pool.submit(_worker_count, flat[lo:hi], minlength)
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            self.stats.tasks_submitted += len(futures)
            total = np.zeros(minlength, dtype=np.int64)
            deadline = (
                time.monotonic() + self.task_timeout
                if self.task_timeout is not None
                else None
            )
            for fut in futures:
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                total += fut.result(timeout=remaining)
                if deadline is not None:
                    deadline = time.monotonic() + self.task_timeout
        except (BrokenProcessPool, _FuturesTimeout) as exc:
            self.stats.count_fallbacks += 1
            _log.warning(
                "partitioned counting degraded to serial bincount after %s "
                "(fallback #%d); result is exact either way",
                type(exc).__name__,
                self.stats.count_fallbacks,
            )
            return np.bincount(flat, minlength=minlength)
        return total

    def count_collection(self, collection, minlength: int) -> np.ndarray:
        """Counting kernel for coded layouts: fused-histogram merge.

        The fused per-worker counter rows riding the descriptor protocol
        already *are* the global frequency histogram of every landed
        incidence, so when the books balance (same conditions as
        :meth:`count_partitioned` path 1, with the incidence total read
        off the collection instead of a flat array) the compressed
        layout's counting pass is one column sum — no decode, no flat
        bytes.  Otherwise the collection counts off its own coded
        stream; both paths are exact integer counts, bit-identical to a
        serial bincount of the original ids.
        """
        self._require_open()
        fused = self._fused_total(collection.total_entries, minlength)
        return fused if fused is not None else collection.counters()


def build_sampling_engine(
    graph: CSRGraph,
    model: DiffusionModel | str,
    *,
    workers: int,
    start_method: str | None = None,
    supervisor_opts: dict | None = None,
) -> ParallelSamplingEngine:
    """Engine factory shared by the ``imm``/``imm_sweep`` drivers.

    ``supervisor_opts`` passes through any :class:`ParallelSamplingEngine`
    keyword (``spares``, ``deadline``, ``checkpoint_dir``, ``resume_from``,
    ``fault_plan``, crash-budget and straggler knobs, ...).
    """
    return ParallelSamplingEngine(
        graph,
        model,
        workers=workers,
        start_method=start_method,
        **(supervisor_opts or {}),
    )
