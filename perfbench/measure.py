"""Process-level measurements: CPU, peak memory, shared-memory residue, order statistics.

Everything here reads the operating system's own accounting (``/proc``,
``getrusage``) from outside the mining stack, so nothing under ``src/``
has to cooperate.  Worker processes are found as the children of this
process; a worker reaped mid-run (a killed shard) moves from the live
``/proc`` view into ``RUSAGE_CHILDREN``, so CPU totals stay continuous.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import time
from pathlib import Path

#: Where the sharded runtime's shared-memory transport creates segments.
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_shm_"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def shm_segments() -> list[str]:
    """Names of the runtime's shared-memory segments currently present."""
    if not SHM_DIR.is_dir():
        return []
    return sorted(path.name for path in SHM_DIR.glob(SHM_PREFIX + "*"))


def _children() -> list[int]:
    """Process ids of this process's children, whichever thread started them."""
    pids = []
    for task in Path("/proc/self/task").glob("*"):
        try:
            pids += [int(pid) for pid in (task / "children").read_text().split()]
        except OSError:
            pass
    return pids


def _wait(pid: int, deadline: float) -> bool:
    """Reap child *pid* if it ends before *deadline*; ``True`` once it is gone."""
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The runtime reaps its own workers on close.  What outlives it is
    multiprocessing's resource tracker, which the first shared-memory
    segment starts and which otherwise ends only after this process
    does.  Any other child still present is sent SIGTERM, then SIGKILL
    after *grace_s*; the tracker is stopped last, once no worker can
    hold its pipe open.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    others = [pid for pid in _children() if pid != tracker._pid]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in others:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        others = [pid for pid in others if not _wait(pid, deadline)]
    tracker._stop()


def _child_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live (or zombie) child."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _child_peak_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class ProcessMeter:
    """CPU and peak-memory accounting for this process plus its workers.

    ``cpu_s`` is monotone across the whole run: this process's CPU time,
    plus every reaped child (``RUSAGE_CHILDREN``), plus every live
    child's ``/proc`` counters.  ``sample`` records the summed peak
    resident set of the live children; ``peak_rss_mb`` adds the largest
    such sum to this process's own peak.  Summing per-process peaks
    counts copy-on-write pages once per process, an upper bound that is
    stable from run to run.
    """

    def __init__(self) -> None:
        self._children_peak_kb = 0

    @staticmethod
    def cpu_s() -> float:
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        live = sum(_child_cpu_s(pid) for pid in _children())
        return time.process_time() + reaped.ru_utime + reaped.ru_stime + live

    def sample(self) -> None:
        peak = sum(_child_peak_kb(pid) for pid in _children())
        self._children_peak_kb = max(self._children_peak_kb, peak)

    def peak_rss_mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + self._children_peak_kb) / 1024.0


def steal_s() -> float:
    """CPU time the hypervisor gave other guests, summed over this host's CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return 0.0
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


def load_average() -> float | None:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  With ten or fewer
    samples no such percentile exists; the smallest sample is returned
    with every other sample counted beyond it.
    """
    ordered = sorted(values)
    index = max(len(ordered) - 11, 0)
    beyond = len(ordered) - 1 - index
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
