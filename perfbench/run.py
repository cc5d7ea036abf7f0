"""One benchmark for the mining stack: named workloads, end-to-end and per-layer metrics.

Each workload runs as a closed loop: one client, and each job starts when
the previous one returns.  Every job's output is checked.  The untraced
run (``--trace 0``) prints the end-to-end metrics; the traced run
(``--trace 1``) runs half its time untraced and half under a
``repro.obs.Tracer`` and prints the per-layer split.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 17, "failed": 0, "metrics": {...}}

Run from the repository root::

    python3 perfbench/run.py --workload fsg-400 --seed 20050405 --seconds 20 --trace 0

Workloads, metrics and their bounds are declared in ``BENCHMARK.json``;
``perfbench/layers.py`` records which end-to-end metric each per-layer
metric should move.  The command refuses to run while any ``REPRO_*``
override is set, and exits non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import time
from pathlib import Path

import layers as L
from measure import (
    ProcessMeter,
    load_average,
    mean,
    median,
    shm_segments,
    steal_s,
    stop_children,
    tail,
)

ROOT = Path(__file__).resolve().parents[1]

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 9
#: Fewest timed jobs in an untraced run, so ``job_s_tail`` has ten
#: samples beyond it.
MIN_JOBS = 11
#: Fewest jobs in each half of a traced run.
MIN_TRACED_JOBS = 3

END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "edges_per_s": "1/s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
}


def add_paths() -> None:
    """Make the program (``src``), the bench corpus and this directory importable."""
    for path in (ROOT / "benchmarks", ROOT / "src", Path(__file__).resolve().parent):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20050405)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """One workload run: set-up, checked jobs, and the numbers they give."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.meter = ProcessMeter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.run_failures: list[str] = []
        self.setup_s: list[float] = []
        self.build_s: list[float] = []
        self.spawn_s: list[float] = []
        self.close_s: list[float] = []
        self.notes: dict[str, str] = {}
        self.runtime = None

    def set_up(self) -> None:
        for _ in range(SETUP_REPEATS):
            self.close_runtime()
            gc.collect()
            started = time.perf_counter()
            self.workload.build(self.seed)
            built = time.perf_counter()
            self.runtime = self.workload.open_runtime()
            opened = time.perf_counter()
            self.setup_s.append(opened - started)
            self.build_s.append(built - started)
            if self.runtime is not None:
                self.spawn_s.append(opened - built)
        self.run_failures += self.workload.prepare(self.runtime)

    def close_runtime(self) -> None:
        if self.runtime is not None:
            started = time.perf_counter()
            self.runtime.close()
            self.close_s.append(time.perf_counter() - started)
            self.runtime = None

    def _record(self, job, output) -> None:
        problems = self.workload.check(job, output)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += problems

    def loop(self, seconds: float, minimum: int, passes: int, traced=None):
        """Closed-loop jobs for *seconds*, or the workload's fixed job count.

        *minimum* bounds a time-bounded loop's job count from below,
        *passes* a fixed one's number of passes over its job list.
        """
        workload = self.workload
        fixed = workload.fixed_jobs(seconds, minimum_passes=passes)
        times, cpus, edges, splits = [], [], 0, []
        deadline = time.perf_counter() + seconds
        for job in workload.jobs():
            # Start every job from the same collector state, outside the timing.
            gc.collect()
            if traced is None:
                cpu = self.meter.cpu_s()
                elapsed, output = workload.execute(job, self.runtime)
                cpus.append(self.meter.cpu_s() - cpu)
            else:
                elapsed, output, split = workload.execute_traced(job, self.runtime, traced)
                splits.append((elapsed, split))
            self.meter.sample()
            self._record(job, output)
            times.append(elapsed)
            edges += workload.job_edges(job)
            done = len(times) >= fixed if fixed else (
                time.perf_counter() >= deadline and len(times) >= minimum
            )
            if done:
                return times, cpus, edges, splits

    def finish(self) -> None:
        self.close_runtime()
        leaked = shm_segments()
        if leaked:
            self.run_failures.append(f"shared-memory segments left behind: {leaked}")
        if self.run_failures:
            # A failed run-level check (reference oracle, residue) puts
            # every job's output in doubt.
            self.failed = self.attempted
            self.failures = self.run_failures + self.failures


def end_to_end(run: Run, seconds: float) -> dict:
    times, cpus, edges, _ = run.loop(seconds, MIN_JOBS, passes=2)
    run.finish()
    value, percentile, beyond = tail(times)
    run.notes = {
        "job_s_tail": f"p{percentile:.0f} of {len(times)} jobs, {beyond} beyond",
        "setup_s": f"median of {len(run.setup_s)} set-ups",
    }
    return {
        "setup_s": median(run.setup_s),
        "job_s_p50": median(times),
        "job_s_tail": value,
        "edges_per_s": edges / sum(times),
        "cpu_s_per_job": sum(cpus) / len(cpus),
        "peak_rss_mb": run.meter.peak_rss_mb(),
    }


def per_layer(run: Run, seconds: float) -> dict:
    from repro.obs import Tracer, activate

    untraced, _, _, _ = run.loop(seconds / 2, MIN_TRACED_JOBS, passes=1)
    tracer = Tracer()
    if run.runtime is not None:
        run.runtime.enable_tracing(tracer)
    with activate(tracer):
        traced, _, _, jobs = run.loop(seconds / 2, MIN_TRACED_JOBS, passes=1, traced=tracer)
    run.finish()
    metrics = {
        name: mean([split.get(name, 0.0) for _, split in jobs]) for name in L.PER_LAYER
    }
    metrics["datasets.build_s"] = median(run.build_s)
    metrics["runtime.spawn_s"] = median(run.spawn_s)
    metrics["runtime.close_s"] = median(run.close_s)
    metrics["obs.trace_overhead"] = median(traced) / median(untraced) - 1.0
    metrics["unaccounted_s"] = mean([elapsed - split["accounted_s"] for elapsed, split in jobs])
    run.notes = {
        "obs.trace_overhead": f"{len(traced)} traced vs {len(untraced)} untraced jobs",
        "traced job mean": f"{mean(traced):.4f} s",
    }
    return metrics


def environment(workload, load_before, load_after, steal: float) -> dict:
    """bench_env's stamp, with the workload's own resolved configuration.

    The load averages bracket the run; *steal* is the CPU time the
    hypervisor took from this host during it.
    """
    from conftest import bench_env

    config = workload.config()
    stamp = bench_env(scenario=None)
    stamp.update(
        kernel=config["kernel"],
        backend=config["backend"],
        wire=config["wire"],
        workers=config["shards"],
        workload=workload.name,
        seed=workload.seed,
        config=config,
        nproc=len(os.sched_getaffinity(0)),
        load_avg_before=load_before,
        load_avg_after=load_after,
        steal_s=steal,
    )
    return stamp


def main(argv=None) -> int:
    args = _parse(argv)
    overrides = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if overrides:
        print(f"refusing to run with REPRO_* overrides set: {overrides}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    add_paths()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    nproc = len(os.sched_getaffinity(0))
    if workload.shards > nproc:
        print(f"{workload.shards} workers exceed nproc={nproc}", file=sys.stderr)
        return 2

    # A SIGTERM unwinds through the finally below, so the workers and the
    # resource tracker are stopped on that path too.  Forked workers get
    # the default action back: the runtime's close escalates through it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    load_before, steal_before = load_average(), steal_s()
    run = Run(workload, args.seed)
    try:
        run.set_up()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.seconds)
    finally:
        run.close_runtime()
        stop_children()
    load_after, steal = load_average(), steal_s() - steal_before

    units = {name: spec[0] for name, spec in L.PER_LAYER.items()} if args.trace else END_TO_END
    print(f"workload {workload.name}  seed {args.seed}  closed loop, 1 client")
    for name, value in metrics.items():
        note = f"-> {L.PER_LAYER[name][2]}" if args.trace else run.notes.get(name, "")
        if workload.name in L.PREDICTED_ZERO.get(name, ()) and value != 0:
            note = "PREDICTED ZERO HERE " + note
        print(f"  {name:28s} {value:14.6f} {units[name]:6s} {note}")
    for name, note in run.notes.items():
        if name not in metrics:
            print(f"  {name:28s} {note}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_ratio':28s} {ratio:14.6f} {'1':6s} {run.failed} of {run.attempted} jobs")
    for failure in run.failures[:20]:
        print(f"  FAILED: {failure}")
    print("env " + json.dumps(environment(workload, load_before, load_after, steal), sort_keys=True))

    correct = run.failed == 0 and run.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
