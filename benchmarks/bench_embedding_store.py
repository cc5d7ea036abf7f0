"""Benchmark: incremental embedding-store support counting vs. full search.

Mines the same corpus as ``bench_parallel_support`` (>= 400 transactions
at the default size) four ways —

* ``serial-full`` — :class:`~repro.runtime.base.SerialRuntime` with the
  embedding store disabled: pattern-major from-scratch search, the
  reference output and the baseline the embedding store is measured
  against;
* ``embedding-serial`` — the embedding store on the serial runtime:
  level-(k+1) support answered by extending stored level-k anchors by
  one edge, parents' TID bitsets intersected, early abort armed;
* ``embedding-sharded-serial`` / ``embedding-sharded-process`` — the
  same through K shard-local embedding stores (inline / multiprocessing).

Every run starts from a cold engine, and the mined pattern multisets —
including exact supporting-TID sets — are compared across all modes.
Results land in ``BENCH_embedding.json`` with per-level timing
breakdowns; the process exits non-zero when any mode diverges or when
the embedding path fails to beat the serial full search, so the CI smoke
job fails loudly instead of uploading a regression.

Run with::

    PYTHONPATH=src python benchmarks/bench_embedding_store.py [n_transactions] [workers]
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_parallel_support import MAX_EDGES, MIN_SUPPORT, build_corpus  # noqa: E402
from conftest import bench_env  # noqa: E402

from repro.mining.fsg.miner import FSGMiner  # noqa: E402
from repro.runtime import ShardedEngine  # noqa: E402

DEFAULT_TRANSACTIONS = 400
DEFAULT_WORKERS = 4


def mine(corpus, use_store: bool, runtime=None):
    miner = FSGMiner(
        min_support=MIN_SUPPORT,
        max_edges=MAX_EDGES,
        runtime=runtime,
        use_embedding_store=use_store,
    )
    start = time.perf_counter()
    result = miner.mine(corpus)
    elapsed = time.perf_counter() - start
    signature = sorted(
        (
            entry.pattern.n_vertices,
            entry.pattern.n_edges,
            tuple(sorted(entry.supporting_transactions)),
        )
        for entry in result.patterns
    )
    levels = {str(level): round(seconds, 3) for level, seconds in result.level_seconds.items()}
    return elapsed, len(result.patterns), signature, levels


def main() -> None:
    n_transactions = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_TRANSACTIONS
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_WORKERS
    corpus = build_corpus(n_transactions)
    n_edges = sum(graph.n_edges for graph in corpus)
    print(f"corpus: {n_transactions} transactions, {n_edges} edges; workers={workers}")

    timings: dict[str, float] = {}
    level_timings: dict[str, dict[str, float]] = {}
    divergent: list[str] = []
    reference_signature = None

    def record(label, elapsed, count, signature, levels):
        nonlocal reference_signature
        timings[label] = elapsed
        level_timings[label] = levels
        if reference_signature is None:
            reference_signature = signature
        elif signature != reference_signature:
            divergent.append(label)
            print(f"ERROR: {label} changed mining output", file=sys.stderr)
        print(f"{label:26s} {elapsed:8.2f}s   {count} frequent patterns")

    record("serial-full", *mine(corpus, use_store=False))
    for label, backend in (
        ("embedding-sharded-serial", "serial"),
        ("embedding-sharded-process", "process"),
    ):
        runtime = ShardedEngine(shards=workers, backend=backend)
        try:
            record(label, *mine(corpus, use_store=True, runtime=runtime))
        finally:
            runtime.close()
    record("embedding-serial", *mine(corpus, use_store=True))

    baseline = timings["serial-full"]
    best_embedding = min(
        timings[label] for label in timings if label.startswith("embedding")
    )
    cpu_count = os.cpu_count() or 1
    report = {
        "env": bench_env(),
        "n_transactions": n_transactions,
        "total_edges": n_edges,
        "workers": workers,
        "cpu_count": cpu_count,
        "min_support": MIN_SUPPORT,
        "max_edges": MAX_EDGES,
        "n_patterns": len(reference_signature),
        "seconds": {key: round(value, 3) for key, value in timings.items()},
        "level_seconds": level_timings,
        "speedup_vs_serial_full": round(baseline / timings["embedding-serial"], 2),
        "speedup_best_vs_serial_full": round(baseline / best_embedding, 2),
        "outputs_identical": not divergent,
    }
    if divergent:
        report["divergent_modes"] = divergent
    if cpu_count < workers:
        report["note"] = (
            f"host has {cpu_count} CPU(s) for {workers} workers: sharded modes "
            "pay planning/IPC overhead without parallel payoff here, so "
            "embedding-serial is the representative single-box number"
        )
        print(f"note: {report['note']}")
    print(
        f"embedding-serial is {report['speedup_vs_serial_full']}x the "
        f"serial-full baseline ({baseline:.2f}s -> {timings['embedding-serial']:.2f}s)"
    )
    out = Path(__file__).resolve().parent.parent / "BENCH_embedding.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if divergent:
        raise SystemExit(1)
    if timings["embedding-serial"] >= baseline:
        print(
            "ERROR: embedding store is not faster than serial full search",
            file=sys.stderr,
        )
        raise SystemExit(1)


if __name__ == "__main__":
    main()
