"""Parallel mining runtime: sharded support counting through mining sessions.

The level-wise miners spend nearly all their time in per-(pattern,
transaction) support checks.  This package is the execution subsystem that
scales that hot path without ever changing mining output:

* :class:`~repro.runtime.base.MiningRuntime` — the substrate interface
  the miners program against (register transactions, mining sessions that
  answer per-level support over global tids, aggregated stats).
* :class:`~repro.runtime.base.SerialRuntime` — single-engine reference
  implementation; the default everywhere, and the only runtime that also
  keeps the pattern-by-pattern full search the embedding-store path is
  checked against.
* :class:`~repro.runtime.shards.ShardedEngine` — K shards, each owning
  its transactions' indexes and verdict cache.  It runs one
  configuration: weighted tid placement
  (:class:`~repro.runtime.planner.PlacementPolicy`), the flat-buffer
  wire (:mod:`~repro.runtime.wire`, shipped through shared memory on the
  process backend), and stateful :class:`~repro.runtime.shards.
  ShardedSession` levels, where shards keep each level's patterns
  resident and derived candidates ship as small deltas.
* :class:`~repro.runtime.pool.WorkerPool` — the backend abstraction:
  ``serial`` (inline, deterministic debugging) and ``process``
  (``multiprocessing`` workers speaking the CompactGraph wire format).
* :mod:`~repro.runtime.faults` — the deterministic fault-injection
  harness (``REPRO_FAULTS`` / ``--faults``) that drives the sharded
  engine's supervision layer: dead or hung workers are detected via
  deadline polling (``REPRO_WORKER_TIMEOUT``), respawned with a fixed
  retry budget and exponential backoff, deterministically rebuilt, and
  the in-flight level replayed — with an in-process degraded mode as
  the last resort, so output never changes.

Pick a runtime with :func:`create_runtime`, or set ``REPRO_WORKERS`` /
``REPRO_BACKEND`` / ``REPRO_KERNEL`` to switch a whole run (or CI job)
without code changes.
"""

from __future__ import annotations

from repro.graphs.engine import KERNEL_ENV, KERNELS, MatchEngine, resolve_kernel
from repro.runtime.base import (
    BACKENDS,
    SESSION_TELEMETRY_KEYS,
    DelegatingSession,
    LevelRequest,
    MiningRuntime,
    MiningSession,
    SerialRuntime,
    merge_stats,
    resolve_backend,
    resolve_workers,
)
from repro.runtime.bitsets import (
    bits_of,
    bits_to_buffer,
    buffer_to_bits,
    pack_bits,
    popcount,
    tids_from_buffer,
    tids_of,
    unpack_bits,
)
from repro.runtime.planner import (
    BatchSupportPlanner,
    PlacementPolicy,
    ShardSessionBatch,
    wire_cost,
)
from repro.runtime.faults import (
    FAULTS_ENV,
    FaultClause,
    FaultInjector,
    FaultPlan,
    SimulatedWorkerDeath,
    resolve_faults,
)
from repro.runtime.pool import (
    WORKER_TIMEOUT_ENV,
    ProcessBackend,
    SerialBackend,
    WorkerCorruption,
    WorkerDeath,
    WorkerError,
    WorkerPool,
    make_pool,
    resolve_worker_timeout,
)
from repro.runtime.shards import ShardedEngine, ShardedSession, ShardWorker
from repro.runtime.wire import (
    BLOB_OP,
    SHM_OP,
    WireFormatError,
    decode_message,
    encode_message,
    resolve_wire,
)

__all__ = [
    "BACKENDS",
    "BLOB_OP",
    "FAULTS_ENV",
    "KERNELS",
    "KERNEL_ENV",
    "SESSION_TELEMETRY_KEYS",
    "SHM_OP",
    "WORKER_TIMEOUT_ENV",
    "BatchSupportPlanner",
    "PlacementPolicy",
    "WireFormatError",
    "DelegatingSession",
    "FaultClause",
    "FaultInjector",
    "FaultPlan",
    "LevelRequest",
    "MiningRuntime",
    "MiningSession",
    "ProcessBackend",
    "SerialBackend",
    "SerialRuntime",
    "ShardSessionBatch",
    "ShardWorker",
    "ShardedEngine",
    "ShardedSession",
    "SimulatedWorkerDeath",
    "WorkerCorruption",
    "WorkerDeath",
    "WorkerError",
    "WorkerPool",
    "bits_of",
    "bits_to_buffer",
    "buffer_to_bits",
    "create_runtime",
    "make_pool",
    "merge_stats",
    "pack_bits",
    "popcount",
    "decode_message",
    "encode_message",
    "resolve_backend",
    "resolve_faults",
    "resolve_kernel",
    "resolve_wire",
    "resolve_worker_timeout",
    "resolve_workers",
    "tids_from_buffer",
    "tids_of",
    "unpack_bits",
    "wire_cost",
]


def create_runtime(
    workers: int | None = None,
    backend: str | None = None,
    engine: MatchEngine | None = None,
    kernel: str | None = None,
) -> MiningRuntime:
    """The runtime implied by a ``workers`` knob.

    ``workers`` of ``0`` or ``1`` (or unset, with no ``REPRO_WORKERS`` in
    the environment) selects the serial runtime, optionally wrapping a
    caller-supplied *engine*; ``workers >= 2`` builds a
    :class:`ShardedEngine` with that many shards on *backend* (defaulting
    to ``process``, or ``REPRO_BACKEND``).

    *kernel* picks the support-kernel backend (``"python"`` or
    ``"vectorized"``, defaulting to ``REPRO_KERNEL`` or ``"python"``) and
    applies to every engine the runtime owns — shard engines included.

    *engine* applies to the serial case only: a sharded runtime owns one
    engine (label table, indexes, verdict cache) per shard by design, so
    a caller-supplied engine — and any caches warmed in it — is not used
    when sharding is selected.  Passing both *engine* and a conflicting
    *kernel* raises.
    """
    workers = resolve_workers(workers)
    if workers <= 1:
        return SerialRuntime(engine=engine, kernel=kernel)
    return ShardedEngine(shards=workers, backend=backend, kernel=kernel)
