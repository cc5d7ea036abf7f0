"""Benchmark: sharded support-counting scaling curve + wire differential.

Mines the same >= 400-transaction corpus along two axes —

* **Scaling curve** — for each worker count (default 1, 2, 4) and both
  sharded backends: ``serial`` (inline workers; isolates the cost of
  sharding itself — planning, encoding, delta-session levels against
  resident shard stores — with zero parallelism) and ``process``
  (``multiprocessing`` workers with the shared-memory blob transport;
  adds real parallelism on multi-core hosts).  Every mode is compared against the plain
  :class:`~repro.runtime.base.SerialRuntime` baseline and records its
  ``wire_bytes_shipped``.
* **Wire differential** — one more sharded mine that also prices every
  logical message the engine posts with
  :func:`~repro.runtime.planner.wire_cost`, i.e. what shipping it pickled
  would cost.  The flat-buffer wire must ship at least
  :data:`WIRE_RATIO_FLOOR` times fewer bytes than that pickle baseline,
  with identical output — byte counts are deterministic, so a shrinking
  ratio is a codec regression, not noise.  The pricing run is untimed,
  so the pickling it does never slows the scaling curve.

Every run starts from a cold engine so no verdict cache leaks between
modes, and the mined (pattern, support) multisets are compared across
all modes.  Results land in ``BENCH_parallel.json``.  The process exits
non-zero when any mode diverges from the serial output, when the wire
ratio drops below the floor, or when a genuinely multi-core host fails
to get *any* parallel payoff from the process backend (best process
speedup < 1.0 despite ``cpu_count > 1``).  A 1-core host cannot fail
the speedup gate — there the process backend measures IPC overhead, and
the report says so instead of pretending otherwise.

Run with::

    PYTHONPATH=src python benchmarks/bench_parallel_support.py [n_transactions] [worker_counts]

where ``worker_counts`` is comma-separated (default ``1,2,4``).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import bench_env  # noqa: E402

from repro.graphs.labeled_graph import LabeledGraph  # noqa: E402
from repro.mining.fsg.miner import FSGMiner
from repro.runtime import ShardedEngine, wire_cost

DEFAULT_TRANSACTIONS = 400
DEFAULT_WORKER_COUNTS = (1, 2, 4)
MIN_SUPPORT = 0.05
MAX_EDGES = 4
#: Minimum pickle-vs-buffer byte ratio the flat wire must sustain.
WIRE_RATIO_FLOOR = 3.0
#: Worker count the wire differential runs at.
WIRE_SHARDS = 2


def build_corpus(n_transactions: int, seed: int = 20050405) -> list[LabeledGraph]:
    """Random small transaction graphs over a shared label alphabet.

    Shapes mimic the paper's partitioned workload: a few dozen vertices,
    sparse edges, a handful of vertex / edge labels so patterns recur
    across many transactions.
    """
    rng = random.Random(seed)
    vertex_labels = ["depot", "hub", "stop"]
    edge_labels = [f"w{i}" for i in range(4)]
    corpus: list[LabeledGraph] = []
    for index in range(n_transactions):
        n_vertices = rng.randint(8, 14)
        graph = LabeledGraph(name=f"t{index}")
        for v in range(n_vertices):
            graph.add_vertex(f"v{v}", rng.choice(vertex_labels))
        n_edges = rng.randint(n_vertices, n_vertices + 6)
        added = 0
        while added < n_edges:
            a, b = rng.sample(range(n_vertices), 2)
            if graph.has_edge(f"v{a}", f"v{b}"):
                continue
            graph.add_edge(f"v{a}", f"v{b}", rng.choice(edge_labels))
            added += 1
        corpus.append(graph)
    return corpus


def mine(corpus, runtime=None):
    miner = FSGMiner(min_support=MIN_SUPPORT, max_edges=MAX_EDGES, runtime=runtime)
    start = time.perf_counter()
    result = miner.mine(corpus)
    elapsed = time.perf_counter() - start
    signature = sorted(
        (pattern.pattern.n_vertices, pattern.pattern.n_edges, pattern.support)
        for pattern in result.patterns
    )
    return elapsed, len(result.patterns), signature


def mine_sharded(corpus, *, workers: int, backend: str):
    runtime = ShardedEngine(shards=workers, backend=backend)
    try:
        elapsed, count, signature = mine(corpus, runtime=runtime)
        shipped = runtime.wire_bytes_shipped
    finally:
        runtime.close()
    return elapsed, count, signature, shipped


def wire_differential(corpus):
    """A sharded mine's output, bytes shipped, and pickle-priced bytes."""
    runtime = ShardedEngine(shards=WIRE_SHARDS, backend="serial")
    pickled = 0
    post = runtime._post

    def priced_post(shard, message):
        nonlocal pickled
        pickled += wire_cost(message)
        post(shard, message)

    runtime._post = priced_post
    try:
        _, _, signature = mine(corpus, runtime=runtime)
        shipped = runtime.wire_bytes_shipped
    finally:
        runtime.close()
    return signature, shipped, pickled


def main() -> None:
    n_transactions = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_TRANSACTIONS
    worker_counts = (
        tuple(int(part) for part in sys.argv[2].split(","))
        if len(sys.argv) > 2
        else DEFAULT_WORKER_COUNTS
    )
    cpu_count = os.cpu_count() or 1
    corpus = build_corpus(n_transactions)
    n_edges = sum(graph.n_edges for graph in corpus)
    print(
        f"corpus: {n_transactions} transactions, {n_edges} edges; "
        f"worker counts {list(worker_counts)}; cpu_count={cpu_count}"
    )

    serial_s, n_patterns, serial_signature = mine(corpus)
    print(f"serial baseline     {serial_s:8.2f}s   {n_patterns} frequent patterns")

    divergent: list[str] = []
    scaling: list[dict] = []
    for workers in worker_counts:
        for backend in ("serial", "process"):
            elapsed, count, signature, shipped = mine_sharded(
                corpus, workers=workers, backend=backend
            )
            label = f"sharded-{backend}-w{workers}"
            if signature != serial_signature:
                divergent.append(label)
                print(f"ERROR: {label} changed mining output", file=sys.stderr)
            speedup = serial_s / elapsed
            scaling.append(
                {
                    "workers": workers,
                    "backend": backend,
                    "seconds": round(elapsed, 3),
                    "speedup": round(speedup, 2),
                    "wire_bytes_shipped": shipped,
                }
            )
            print(
                f"{label:22s} {elapsed:8.2f}s   speedup {speedup:.2f}x   "
                f"wire_bytes={shipped}"
            )

    # Wire differential: same corpus, same shard count, every posted
    # message also priced as a pickle.
    priced_signature, buffer_bytes, pickle_bytes = wire_differential(corpus)
    if priced_signature != serial_signature:
        divergent.append("sharded-serial-priced")
        print("ERROR: pickle-priced run changed mining output", file=sys.stderr)
    wire_ratio = pickle_bytes / buffer_bytes
    print(
        f"wire differential (K={WIRE_SHARDS}): buffer={buffer_bytes} "
        f"pickle={pickle_bytes} ratio={wire_ratio:.2f}x (floor {WIRE_RATIO_FLOOR}x)"
    )

    process_speedups = [
        row["speedup"] for row in scaling if row["backend"] == "process"
    ]
    batched_speedups = [
        row["speedup"] for row in scaling if row["backend"] == "serial"
    ]
    report = {
        "env": bench_env(),
        "n_transactions": n_transactions,
        "total_edges": n_edges,
        "worker_counts": list(worker_counts),
        "cpu_count": cpu_count,
        "min_support": MIN_SUPPORT,
        "max_edges": MAX_EDGES,
        "n_patterns": n_patterns,
        "serial_seconds": round(serial_s, 3),
        "scaling": scaling,
        "wire": {
            "shards": WIRE_SHARDS,
            "wire_bytes_buffer": buffer_bytes,
            "wire_bytes_pickle": pickle_bytes,
            "ratio": round(wire_ratio, 2),
            "ratio_floor": WIRE_RATIO_FLOOR,
        },
        "speedup_batched": max(batched_speedups),
        "speedup_process": max(process_speedups),
        "outputs_identical": not divergent,
    }
    if divergent:
        report["divergent_modes"] = divergent
    if cpu_count == 1:
        report["note"] = (
            "host has 1 CPU: the process backend is core-bound and its "
            "speedups measure IPC overhead on top of the sharding cost, "
            "not parallelism; run on a multi-core host for the real curve"
        )
        print(f"note: {report['note']}")
    out = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} (cpu_count={cpu_count})")

    failures = list(divergent)
    if wire_ratio < WIRE_RATIO_FLOOR:
        failures.append(f"wire ratio {wire_ratio:.2f}x below {WIRE_RATIO_FLOOR}x floor")
        print(f"ERROR: {failures[-1]}", file=sys.stderr)
    if cpu_count > 1 and max(process_speedups) < 1.0:
        failures.append(
            f"multi-core host ({cpu_count} CPUs) but best process speedup "
            f"{max(process_speedups):.2f}x < 1.0"
        )
        print(f"ERROR: {failures[-1]}", file=sys.stderr)
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
