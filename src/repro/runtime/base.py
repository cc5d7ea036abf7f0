"""The mining-runtime abstraction and its serial reference implementation.

A :class:`MiningRuntime` is what the level-wise miners talk to when they
need support counts: it owns the registered transaction corpus (however it
is physically laid out — one engine, K in-process shards, K worker
processes) and answers batched per-level support queries over global
transaction ids.  :class:`SerialRuntime` is the degenerate single-engine
case and reproduces the pre-runtime behaviour exactly — same engine calls,
same verdict-cache traffic, same results — so it is both the default and
the determinism oracle for the sharded implementations.

Worker counts come from an explicit setting or, when unset, from the
``REPRO_WORKERS`` environment variable (``0`` / ``1`` mean serial); the
process/serial choice of the sharded runtime likewise falls back to
``REPRO_BACKEND``.  That lets a CI matrix run the whole test suite against
the process backend without touching any call site.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.graphs.engine import EmbeddingTask, MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.runtime.bitsets import bits_of, tids_of

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"
#: Environment variable supplying the default sharded backend.
BACKEND_ENV = "REPRO_BACKEND"
#: Backends understood by the sharded runtime's worker pool.
BACKENDS = ("serial", "process")


def resolve_workers(workers: int | None = None) -> int:
    """Validate *workers*, falling back to ``REPRO_WORKERS`` when ``None``.

    ``0`` and ``1`` both mean "serial" (no sharding); anything negative or
    non-integer is rejected.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 0
        try:
            workers = int(raw)
        except ValueError as error:
            raise ValueError(f"{WORKERS_ENV}={raw!r} is not an integer") from error
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    return workers


def resolve_backend(backend: str | None = None) -> str:
    """Validate *backend*, falling back to ``REPRO_BACKEND`` when ``None``."""
    if backend is None:
        backend = os.environ.get(BACKEND_ENV, "").strip() or "process"
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def merge_stats(snapshots: Iterable[dict[str, int]]) -> dict[str, int]:
    """Key-wise sum of engine stat snapshots (the shard aggregation rule)."""
    merged: dict[str, int] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            merged[key] = merged.get(key, 0) + value
    return merged


@dataclass
class LevelRequest:
    """One candidate of an incremental per-level support batch.

    ``tid_bits`` is the candidate's scan set as a *global-tid bitset* —
    for a derived candidate, the intersection of its parents' supporting
    sets.  ``uid`` / ``parent_uid`` / ``extension`` address the engine's
    embedding store (see :class:`~repro.graphs.engine.EmbeddingTask`);
    anchors are engine-local (shard-local under a sharded runtime), so a
    request ships only these small tokens, never embeddings.

    ``extension_labels`` carries the one extension edge's labels — ``(edge
    label, new-vertex label or None)`` — which is everything a shard that
    already holds the parent pattern needs to rebuild this candidate
    without receiving its full wire form (the mining-session delta
    protocol).  Requests without derivation info leave it ``None`` and
    always ship in full.
    """

    pattern: LabeledGraph
    tid_bits: int
    key: object = None
    uid: object = None
    parent_uid: object = None
    extension: tuple[int, int, bool] | None = None
    extension_labels: tuple | None = None


#: Counter keys every :class:`MiningSession` reports per level (see
#: :meth:`MiningSession.take_telemetry`).  ``wire_bytes`` and
#: ``planning_seconds`` are parent-side costs of shipping the level;
#: ``patterns_full`` / ``patterns_delta`` split shipped candidates by
#: protocol (a candidate sent to two shards counts twice);
#: ``store_hits`` counts resident-parent reconstructions as *observed by
#: the shards* and reported on level replies — it equals
#: ``patterns_delta`` whenever the parent's residency model and the
#: shard stores agree, so the pair is a protocol-consistency
#: cross-check; and ``evictions`` counts per-shard pattern-store entries
#: retired (miner-driven and shard-capacity evictions on one ruler; the
#: serial runtime's session, having no store, reports zero).
#: ``shard_scan_max`` / ``shard_scan_min`` expose the level's placement
#: skew: the largest and smallest per-shard scan workload (candidate
#: tids assigned to the shard, summed over the level's requests; an idle
#: shard counts zero).  A corpus whose heavy transactions pile onto one
#: shard shows a wide max/min gap here — the signal the power-law stress
#: scenario asserts on.  Serial runtimes have no shards and report zero.
SESSION_TELEMETRY_KEYS = (
    "wire_bytes",
    "planning_seconds",
    "patterns_full",
    "patterns_delta",
    "store_hits",
    "evictions",
    "shard_scan_max",
    "shard_scan_min",
    # Placement balance (see repro.runtime.planner.PlacementPolicy): the
    # largest and smallest cumulative scan weight any shard has been
    # assigned by the placement policy as of this level.  Recording the
    # running balance per level keeps rebalancing decisions reproducible
    # and auditable from telemetry alone.  Zero on serial runtimes.
    "placement_weight_max",
    "placement_weight_min",
    # Recovery counters (see repro.runtime.shards): worker respawns the
    # supervisor performed while serving this level and level replays it
    # re-dispatched to rebuilt workers.  Zero on every healthy level and
    # on runtimes without a supervisor.
    "worker_restarts",
    "level_replays",
)


def zero_telemetry() -> dict[str, float]:
    """A fresh all-zero session telemetry record."""
    return {key: 0 for key in SESSION_TELEMETRY_KEYS}


class MiningSession(ABC):
    """A stateful, multi-level mining conversation with one runtime.

    A level-wise miner opens one session per mining run and drives every
    level through it.  The session is what lets a runtime keep per-level
    state alive between calls — resident shard-side pattern stores, delta
    shipping of derived candidates, deferred evictions.  Sessions never
    change mining output: every runtime's :meth:`support_level` returns
    exactly what :class:`SerialRuntime`'s does.
    """

    #: Whether :meth:`support_level` requests benefit from carrying
    #: precomputed verdict-cache keys.  Keys only feed the engine-side
    #: verdict LRU of the pure-python kernel; the vectorized kernel and
    #: the sharded session protocol never consult them, and a miner that
    #: checks this flag can skip the per-candidate canonicalisation that
    #: producing a key costs.  Keys are an optimisation either way —
    #: sending ``key=False`` (uncacheable) is always correct.
    wants_keys: bool = True

    def __init__(self) -> None:
        self._telemetry = zero_telemetry()

    @abstractmethod
    def support_level(
        self,
        requests: Sequence[LevelRequest],
        min_support: int | None = None,
    ) -> list[int]:
        """Per-request supporting-tid *bitsets* for one mining level.

        Requests carry global-tid bitsets and embedding-store derivations,
        answers come back as global-tid bitsets (shard results merge with
        ``|``).  *min_support* arms per-pattern early abort — a request
        whose support provably cannot reach it may return a partial
        bitset, always of population below the threshold.  Requests whose
        patterns survive are counted exactly; together with the exactness
        of extension-vs-search verdicts this keeps every runtime's mining
        output identical to the serial full-search reference.  A session
        is free to answer through resident state instead of shipping each
        request whole.
        """

    @abstractmethod
    def evict(self, uids: Iterable[object]) -> None:
        """Retire *uids*: stored anchors and any resident pattern state.

        Implementations may defer the actual cleanup (e.g. piggyback it
        on the next level shipment) — retired uids are never referenced
        again, so laziness costs memory, never correctness.
        """

    def take_telemetry(self) -> dict[str, float]:
        """Counters accumulated since the last call, then reset.

        Always contains exactly :data:`SESSION_TELEMETRY_KEYS`; a session
        with nothing to report returns zeros.
        """
        taken = self._telemetry
        self._telemetry = zero_telemetry()
        return taken

    def close(self) -> None:
        """Flush deferred cleanup and end the session; idempotent."""

    def __enter__(self) -> "MiningSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DelegatingSession(MiningSession):
    """:class:`SerialRuntime`'s session: every call delegates directly.

    One engine is one "shard": each request counts as one full shipment,
    and nothing crosses a wire.
    """

    def __init__(self, runtime: "SerialRuntime") -> None:
        super().__init__()
        self._runtime = runtime

    @property
    def wants_keys(self) -> bool:
        # The runtime knows whether its engine's kernel consults the
        # verdict cache (see ``SerialRuntime.wants_verdict_keys``).
        return self._runtime.wants_verdict_keys

    def support_level(
        self,
        requests: Sequence[LevelRequest],
        min_support: int | None = None,
    ) -> list[int]:
        supports = self._runtime.batch_support_level(requests, min_support)
        self._telemetry["patterns_full"] += len(requests)
        return supports

    def evict(self, uids: Iterable[object]) -> None:
        self._runtime.drop_anchors(uids)


class MiningRuntime(ABC):
    """Execution substrate for TID-based support counting.

    Transactions are registered once and addressed by the *global* ids the
    runtime hands back; how they are distributed across shards or
    processes is the runtime's business.  All implementations must return
    identical support sets for identical inputs — parallelism is never
    allowed to change mining output.
    """

    @abstractmethod
    def add_transactions(self, transactions: Sequence[LabeledGraph]) -> list[int]:
        """Register *transactions*; returns their global tids."""

    @abstractmethod
    def release_transactions(self, tids: Iterable[int]) -> None:
        """Drop the references held for *tids* (tids are never reused)."""

    @abstractmethod
    def open_session(self) -> MiningSession:
        """Open a mining session for one level-wise run.

        The caller owns the session and must
        :meth:`MiningSession.close` it.
        """

    @abstractmethod
    def stats(self) -> dict[str, int]:
        """Aggregated engine counters across every shard, plus runtime info."""

    def close(self) -> None:
        """Release any workers / OS resources; idempotent."""

    def __enter__(self) -> "MiningRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialRuntime(MiningRuntime):
    """Single-engine runtime: the default, and the reference for the others.

    Level queries go through the engine's embedding store exactly as a
    sharded session's shards answer them, so it is the determinism oracle
    for :class:`~repro.runtime.shards.ShardedEngine`.  It alone also keeps
    the pattern-by-pattern full search (:meth:`batch_support`,
    :meth:`support`): the reference the embedding-store path is checked
    against.
    """

    def __init__(
        self, engine: MatchEngine | None = None, kernel: str | None = None
    ) -> None:
        if engine is not None and kernel is not None and engine.kernel != kernel:
            raise ValueError(
                f"engine already resolved kernel {engine.kernel!r}; "
                f"cannot override with {kernel!r}"
            )
        self.engine = engine if engine is not None else MatchEngine(kernel=kernel)

    @property
    def wants_verdict_keys(self) -> bool:
        """Whether level requests should carry verdict-cache keys.

        Only the pure-python kernel probes the verdict LRU; under the
        vectorized kernel keys would be computed and then ignored, so
        sessions report them unwanted and the miner skips the
        canonicalisation (see :attr:`MiningSession.wants_keys`).
        """
        return self.engine.kernel == "python"

    def add_transactions(self, transactions: Sequence[LabeledGraph]) -> list[int]:
        return self.engine.add_transactions(transactions)

    def release_transactions(self, tids: Iterable[int]) -> None:
        self.engine.release_transactions(tids)

    def batch_support(
        self,
        patterns: Sequence[LabeledGraph],
        tid_lists: Sequence[Sequence[int]] | None = None,
    ) -> list[frozenset[int]]:
        """Per-pattern supporting tids, searched from scratch pattern by pattern.

        ``tid_lists[i]`` restricts pattern ``i`` to those tids; ``None``
        scans every live transaction for every pattern.  This is the
        full-search reference the embedding-store path is checked against
        (``FSGMiner(use_embedding_store=False)``).
        """
        if tid_lists is not None and len(tid_lists) != len(patterns):
            raise ValueError("tid_lists must align with patterns")
        return [
            self.engine.support(
                pattern, None if tid_lists is None else tid_lists[position]
            )
            for position, pattern in enumerate(patterns)
        ]

    def support(
        self, pattern: LabeledGraph, tids: Sequence[int] | None = None
    ) -> frozenset[int]:
        """Supporting tids of a single pattern."""
        return self.engine.support(pattern, tids)

    def batch_support_level(
        self,
        requests: Sequence[LevelRequest],
        min_support: int | None = None,
    ) -> list[int]:
        """Per-request supporting-tid bitsets for one mining level.

        What :meth:`DelegatingSession.support_level` answers with; see
        :meth:`MiningSession.support_level` for the semantics.
        """
        tasks = [
            EmbeddingTask(
                pattern=request.pattern,
                tids=tids_of(request.tid_bits),
                key=request.key,
                uid=request.uid,
                parent_uid=request.parent_uid,
                extension=request.extension,
                abort_below=min_support,
            )
            for request in requests
        ]
        return [bits_of(tids) for tids in self.engine.support_with_embeddings(tasks)]

    def drop_anchors(self, uids: Iterable[object]) -> None:
        """Forget the engine's stored embeddings for *uids*."""
        self.engine.drop_anchors(uids)

    def open_session(self) -> MiningSession:
        return DelegatingSession(self)

    def stats(self) -> dict[str, int]:
        snapshot = self.engine.stats_snapshot()
        snapshot["shards"] = 1
        # Nothing ever crosses a wire here; report the session-protocol
        # counters as explicit zeros so stat consumers see stable keys
        # whichever runtime produced the run.
        snapshot["wire_bytes_shipped"] = 0
        snapshot["patterns_shipped_full"] = 0
        snapshot["patterns_shipped_delta"] = 0
        snapshot["session_store_evictions"] = 0
        # No workers, no supervisor: recovery counters are stable zeros.
        snapshot["worker_restarts"] = 0
        snapshot["level_replays"] = 0
        snapshot["worker_degradations"] = 0
        return snapshot
