"""Benchmark: the numpy columnar match kernel vs. the pure-python oracle.

Mines the same >= 400-transaction corpus as ``bench_parallel_support``
three ways —

* ``embedding-serial-python`` — the embedding store on the serial
  runtime with the pure-python kernel: PR 4's configuration, and the
  differential oracle for the vectorized path;
* ``embedding-serial-vectorized`` — the same mining run with
  ``kernel="vectorized"``: whole-level anchor-extension passes over the
  columnar transaction arena (:mod:`repro.graphs.vectorized`);
* ``embedding-sharded-vectorized`` — the vectorized kernel inside K
  inline shard workers, demonstrating the kernel composes with the
  sharded runtime.

Every run starts from a cold engine and the mined pattern multisets —
including exact supporting-TID sets — are compared across all modes.
Timed modes take the best of ``--reps`` repetitions (wall-clock on this
box drifts run to run; the minimum is the stable statistic).  Results
land in ``BENCH_vectorized.json``; the process exits non-zero when any
mode diverges or the vectorized kernel fails to beat the python kernel,
so the CI smoke job fails loudly instead of uploading a regression.

Speedups reported:

* ``speedup_vs_python_kernel`` — vectorized vs. the in-run python
  kernel on identical configuration (the regression guard: must be > 1);
* ``speedup_vs_recorded_embedding_serial`` — vectorized vs. PR 4's
  recorded ``embedding-serial`` seconds from ``BENCH_embedding.json``
  (the >= 1.5x acceptance number; this PR's shared-path optimisations —
  memoized refinement/canonical codes, incremental compact derivation —
  sped the in-run python kernel too, so the recorded artifact is the
  honest PR 4 reference).

Run with::

    PYTHONPATH=src python benchmarks/bench_vectorized_kernel.py [n_transactions] [workers] [reps]
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
DEFAULT_REPS = 3


def mine(corpus, kernel: str, runtime=None):
    miner = FSGMiner(
        min_support=MIN_SUPPORT,
        max_edges=MAX_EDGES,
        runtime=runtime,
        kernel=kernel if runtime is None else None,
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
    return elapsed, len(result.patterns), signature


def best_of(reps: int, label: str, runner):
    """Run *runner* `reps` times; the minimum elapsed is the statistic.

    Every repetition's signature must match (a divergent repetition is a
    bug, not noise), so the signature of the last run is returned.
    """
    best = None
    for _ in range(max(1, reps)):
        elapsed, count, signature = runner()
        if best is None:
            best = (elapsed, count, signature)
        elif signature != best[2]:
            print(f"ERROR: {label} diverged between repetitions", file=sys.stderr)
            raise SystemExit(1)
        elif elapsed < best[0]:
            best = (elapsed, count, signature)
    return best


def main() -> None:
    n_transactions = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_TRANSACTIONS
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_WORKERS
    reps = int(sys.argv[3]) if len(sys.argv) > 3 else DEFAULT_REPS
    corpus = build_corpus(n_transactions)
    n_edges = sum(graph.n_edges for graph in corpus)
    print(f"corpus: {n_transactions} transactions, {n_edges} edges; workers={workers}, reps={reps}")

    timings: dict[str, float] = {}
    divergent: list[str] = []
    reference_signature = None

    def record(label, elapsed, count, signature):
        nonlocal reference_signature
        timings[label] = elapsed
        if reference_signature is None:
            reference_signature = signature
        elif signature != reference_signature:
            divergent.append(label)
            print(f"ERROR: {label} changed mining output", file=sys.stderr)
        print(f"{label:28s} {elapsed:8.3f}s   {count} frequent patterns")

    def sharded(kernel):
        runtime = ShardedEngine(shards=workers, backend="serial", kernel=kernel)
        try:
            return mine(corpus, kernel, runtime=runtime)
        finally:
            runtime.close()

    record(
        "embedding-serial-python",
        *best_of(reps, "embedding-serial-python", lambda: mine(corpus, "python")),
    )
    record(
        "embedding-serial-vectorized",
        *best_of(reps, "embedding-serial-vectorized", lambda: mine(corpus, "vectorized")),
    )
    record(
        "embedding-sharded-vectorized",
        *best_of(reps, "embedding-sharded-vectorized", lambda: sharded("vectorized")),
    )

    vectorized = timings["embedding-serial-vectorized"]
    python_kernel = timings["embedding-serial-python"]

    # The recorded PR 4 number is only comparable on the same corpus.
    recorded_path = Path(__file__).resolve().parent.parent / "BENCH_embedding.json"
    recorded_embedding_serial = None
    if recorded_path.exists():
        try:
            recorded = json.loads(recorded_path.read_text())
            if recorded.get("n_transactions") == n_transactions:
                recorded_embedding_serial = recorded["seconds"]["embedding-serial"]
        except (KeyError, ValueError):
            recorded_embedding_serial = None

    report = {
        "env": bench_env(),
        "n_transactions": n_transactions,
        "total_edges": n_edges,
        "workers": workers,
        "reps": reps,
        "cpu_count": os.cpu_count() or 1,
        "min_support": MIN_SUPPORT,
        "max_edges": MAX_EDGES,
        "n_patterns": len(reference_signature),
        "seconds": {key: round(value, 3) for key, value in timings.items()},
        "speedup_vs_python_kernel": round(python_kernel / vectorized, 2),
        "outputs_identical": not divergent,
    }
    if recorded_embedding_serial:
        report["recorded_embedding_serial_seconds"] = recorded_embedding_serial
        report["speedup_vs_recorded_embedding_serial"] = round(
            recorded_embedding_serial / vectorized, 2
        )
    if divergent:
        report["divergent_modes"] = divergent

    print(
        f"vectorized kernel is {report['speedup_vs_python_kernel']}x the python kernel "
        f"({python_kernel:.2f}s -> {vectorized:.2f}s)"
    )
    if recorded_embedding_serial:
        print(
            f"vs PR 4's recorded embedding-serial ({recorded_embedding_serial:.2f}s): "
            f"{report['speedup_vs_recorded_embedding_serial']}x"
        )
    out = Path(__file__).resolve().parent.parent / "BENCH_vectorized.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if divergent:
        raise SystemExit(1)
    if vectorized >= python_kernel:
        print("ERROR: vectorized kernel is not faster than the python kernel", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
