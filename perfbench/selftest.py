"""Self-test of the benchmark at a tiny size.

Runs ``run.main`` in this process on a 60-transaction corpus (at
``min_support`` 0.1) and two cheap scenarios, and checks that

* every metric ``BENCHMARK.json`` names is printed, with its unit, for
  every workload, untraced and traced, and predicted zeros read zero;
* a corrupted job result (one support off by one) raises ``failed_ratio``
  above 0 and makes the command exit non-zero;
* a planted ``/dev/shm/repro_shm_*`` segment is caught;
* the command refuses to run while a ``REPRO_*`` override is set.

Run from the repository root::

    python3 perfbench/selftest.py

Exits non-zero when any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run

run.add_paths()

import layers as L  # noqa: E402
from measure import SHM_DIR, SHM_PREFIX  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.5"


def shrink() -> None:
    W.N_TRANSACTIONS = 60
    W.MIN_SUPPORT = 0.1  # still three levels, so the level-3 kill lands
    W.SCENARIOS = ("label-skew", "streaming-mobility-head")
    run.SETUP_REPEATS = 2
    run.MIN_JOBS = 3
    run.MIN_TRACED_JOBS = 2


def invoke(workload: str, trace: int, seed: int = W.DEFAULT_SEED) -> tuple[int, str, dict | None]:
    """Exit code, full output and parsed last line of one benchmark run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
        )
    text = out.getvalue()
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return code, text, result


def check_metrics(workload: str, trace: int, code: int, result) -> list[str]:
    problems = []
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if code != 0 or not result or not result["correct"]:
        return [f"{workload} trace={trace}: exit {code}, result {result}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
    printed = result["metrics"]
    if set(printed) != set(declared):
        problems.append(
            f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(printed) ^ set(declared))}"
        )
    for name, entry in printed.items():
        if entry["unit"] != declared.get(name) or not isinstance(entry["value"], float):
            problems.append(f"{workload} trace={trace}: {name} printed as {entry}")
        if trace and workload in L.PREDICTED_ZERO.get(name, ()) and entry["value"] != 0:
            problems.append(f"{workload}: {name} reads {entry['value']}, predicted 0")
    if trace and workload == "fsg-400-k2-kill":
        if printed["runtime.worker_restarts"]["value"] != 1.0:
            problems.append(f"{workload}: {printed['runtime.worker_restarts']} restarts per job")
    return problems


def test_every_metric() -> list[str]:
    problems = []
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        for trace in (0, 1):
            code, _, result = invoke(workload, trace)
            problems += check_metrics(workload, trace, code, result)
    return problems


def test_corrupted_support() -> list[str]:
    execute = W.FSGWorkload.execute

    def corrupted(self, job, runtime):
        seconds, (engine, result, recovery) = execute(self, job, runtime)
        result.patterns[0].support += 1
        return seconds, (engine, result, recovery)

    W.FSGWorkload.execute = corrupted
    try:
        code, text, result = invoke("fsg-400", 0)
    finally:
        W.FSGWorkload.execute = execute
    if code == 0 or not result or result["correct"] or result["failed"] == 0:
        return [f"corrupted support not caught: exit {code}, result {result}"]
    ratio = next(
        float(line.split()[1]) for line in text.splitlines() if line.split()[:1] == ["failed_ratio"]
    )
    if ratio <= 0:
        return [f"corrupted support: failed_ratio {ratio}"]
    return []


def test_planted_segment() -> list[str]:
    prepare = W.FSGWorkload.prepare
    # A POSIX shared-memory segment is a file under /dev/shm; planting it
    # as one keeps it out of multiprocessing's resource tracker, which the
    # benchmark stops on its way out.
    planted = SHM_DIR / f"{SHM_PREFIX}selftest{os.getpid()}"

    def plant(self, runtime):
        planted.write_bytes(bytes(64))
        return prepare(self, runtime)

    W.FSGWorkload.prepare = plant
    try:
        code, text, result = invoke("fsg-400-k2", 0)
    finally:
        W.FSGWorkload.prepare = prepare
        planted.unlink(missing_ok=True)
    if code == 0 or not result or result["correct"] or "shared-memory" not in text:
        return [f"planted /dev/shm segment not caught: exit {code}, result {result}"]
    return []


def test_override_refused() -> list[str]:
    os.environ["REPRO_KERNEL"] = "vectorized"
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code, text, _ = invoke("fsg-400", 0)
    finally:
        del os.environ["REPRO_KERNEL"]
    if code == 0 or text.strip():
        return [f"REPRO_KERNEL override not refused: exit {code}"]
    return []


def main() -> int:
    shrink()
    failures = []
    for test in (test_every_metric, test_corrupted_support, test_planted_segment, test_override_refused):
        problems = test()
        print(f"{'FAIL' if problems else 'ok  '} {test.__name__}", file=sys.stderr)
        for problem in problems:
            print(f"     {problem}", file=sys.stderr)
        failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
