"""The per-layer metrics of the traced run, and which end-to-end metric each should move.

Layer names follow the packages under ``src/repro``.  Times come from the
spans the program already emits (``fsg.*``, ``shard.*``,
``runtime.recovery``) or from timing calls into a layer's public
functions; counts come from counters the program already returns.
Every metric is reported per job (mean over the traced jobs), except
set-up times (median over the set-up repeats) and the ratios.
"""

from __future__ import annotations

from collections import defaultdict

#: name -> (unit, better, prediction).  A prediction names the end-to-end
#: metric the layer metric should move and on which workloads; "0 on X"
#: means the metric must read zero there.
PER_LAYER = {
    "datasets.build_s": ("s", "lower", "setup_s on all workloads"),
    "fsg.ingest_s": ("s", "lower", "job_s_p50 on the FSG workloads"),
    "fsg.seed_s": ("s", "lower", "job_s_p50 on the FSG workloads"),
    "fsg.candidates_s": (
        "s",
        "lower",
        "job_s_p50 and edges_per_s on fsg-400 and fsg-400-k2; barely scenarios",
    ),
    "fsg.support_s": ("s", "lower", "job_s_p50 on fsg-400 and fsg-400-k2"),
    "fsg.level_other_s": ("s", "lower", "job_s_p50 on the FSG workloads"),
    "fsg.candidates": (
        "count",
        "lower",
        "job_s_p50 and edges_per_s on fsg-400 and fsg-400-k2; barely scenarios",
    ),
    "fsg.patterns": ("count", "higher", "fixed by correctness on every workload"),
    "fsg.survivor_ratio": ("ratio", "higher", "fsg.support_s on the FSG workloads"),
    "graphs.searches": ("count", "lower", "fsg.support_s, so job_s_p50 on fsg-400"),
    "graphs.early_rejects": ("count", "lower", "fsg.support_s, so job_s_p50 on fsg-400"),
    "graphs.verdict_hit_ratio": (
        "ratio",
        "higher",
        "fsg.support_s, so job_s_p50 on fsg-400",
    ),
    "graphs.anchor_extensions": (
        "count",
        "higher",
        "fsg.support_s on fsg-400; stored anchors move peak_rss_mb",
    ),
    "graphs.anchor_fallbacks": ("count", "lower", "fsg.support_s, so job_s_p50 on fsg-400"),
    "graphs.indexes_built": ("count", "lower", "fsg.support_s, so job_s_p50 on fsg-400"),
    "runtime.spawn_s": ("s", "lower", "setup_s on the k2 workloads; 0 on fsg-400, scenarios"),
    "runtime.close_s": ("s", "lower", "setup_s on the k2 workloads; 0 on fsg-400, scenarios"),
    "runtime.shard_busy_s": (
        "s",
        "lower",
        "job_s_p50 and cpu_s_per_job on fsg-400-k2; 0 on fsg-400, scenarios",
    ),
    "runtime.parent_s": (
        "s",
        "lower",
        "job_s_p50 and cpu_s_per_job on fsg-400-k2; 0 on fsg-400, scenarios",
    ),
    "runtime.planning_s": (
        "s",
        "lower",
        "job_s_p50 and cpu_s_per_job on fsg-400-k2; 0 on fsg-400, scenarios",
    ),
    "runtime.wire_bytes": (
        "B",
        "lower",
        "job_s_p50 and cpu_s_per_job on fsg-400-k2; 0 on fsg-400, scenarios",
    ),
    "runtime.shard_skew": (
        "ratio",
        "lower",
        "job_s_tail before job_s_p50 on fsg-400-k2; 0 on fsg-400, scenarios",
    ),
    "runtime.recovery_s": (
        "s",
        "lower",
        "job_s_p50 and job_s_tail on fsg-400-k2-kill; 0 elsewhere",
    ),
    "runtime.worker_restarts": (
        "count",
        "lower",
        "job_s_p50 and job_s_tail on fsg-400-k2-kill; 0 elsewhere",
    ),
    "runtime.level_replays": (
        "count",
        "lower",
        "job_s_p50 and job_s_tail on fsg-400-k2-kill; 0 elsewhere",
    ),
    "runtime.worker_degradations": (
        "count",
        "lower",
        "job_s_p50 and job_s_tail on fsg-400-k2-kill; 0 elsewhere",
    ),
    "subdue.mine_s": (
        "s",
        "lower",
        "job_s_tail and edges_per_s on scenarios; 0 on the FSG workloads",
    ),
    "subdue.evaluated": (
        "count",
        "lower",
        "job_s_tail and edges_per_s on scenarios; 0 on the FSG workloads",
    ),
    "partitioning.mine_s": ("s", "lower", "edges_per_s on scenarios; 0 elsewhere"),
    "patterns.recall_s": ("s", "lower", "scenarios only; 0 elsewhere"),
    "scenarios.fingerprint_s": ("s", "lower", "scenarios only; 0 elsewhere"),
    "obs.trace_overhead": ("ratio", "lower", "traced / untraced job_s_p50 - 1, per workload"),
    "unaccounted_s": ("s", "lower", "traced job time no timed layer covers, per workload"),
}

#: Per-layer metrics that must read exactly zero on a workload, and the
#: workloads they must read zero on.
_FSG = ("fsg-400", "fsg-400-k2", "fsg-400-k2-kill")
_SERIAL = ("fsg-400", "scenarios")
_RUNTIME_ZERO = {
    name: _SERIAL
    for name in (
        "runtime.spawn_s",
        "runtime.close_s",
        "runtime.shard_busy_s",
        "runtime.parent_s",
        "runtime.planning_s",
        "runtime.wire_bytes",
        "runtime.shard_skew",
    )
}
_RECOVERY_ZERO = {
    name: ("fsg-400", "fsg-400-k2", "scenarios")
    for name in (
        "runtime.recovery_s",
        "runtime.worker_restarts",
        "runtime.level_replays",
        "runtime.worker_degradations",
    )
}
PREDICTED_ZERO = {
    **_RUNTIME_ZERO,
    **_RECOVERY_ZERO,
    "subdue.mine_s": _FSG,
    "subdue.evaluated": _FSG,
    "partitioning.mine_s": _FSG,
    "patterns.recall_s": _FSG,
    "scenarios.fingerprint_s": _FSG,
}

#: Worker span names the sharded runtime stamps with a mining level.
_LEVELED_SHARD_SPANS = ("shard.slevel", "shard.level", "shard.batch")


def zero_layers() -> dict[str, float]:
    """One job's layer record with every accumulated quantity at zero."""
    return defaultdict(float)


def add_fsg_spans(layers: dict, spans) -> None:
    """Fold one FSG run's ``fsg.*`` spans into *layers*.

    ``fsg.ingest_s`` is ``fsg.mine`` minus its levels (add, compaction,
    release); ``fsg.seed_s`` is level 1; ``fsg.level_other_s`` is what
    the later levels spend outside candidate generation and support
    counting (telemetry, bookkeeping).
    """
    mine = seed = later = candidates = support = 0.0
    for span in spans:
        if span.name == "fsg.mine":
            mine += span.duration
        elif span.name == "fsg.level":
            if span.attrs.get("level") == 1:
                seed += span.duration
            else:
                later += span.duration
        elif span.name == "fsg.candidates":
            candidates += span.duration
        elif span.name == "fsg.support":
            support += span.duration
            layers["_support_candidates"] += span.attrs.get("candidates", 0)
            layers["_support_survivors"] += span.attrs.get("survivors", 0)
    layers["fsg.ingest_s"] += mine - seed - later
    layers["fsg.seed_s"] += seed
    layers["fsg.candidates_s"] += candidates
    layers["fsg.support_s"] += support
    layers["fsg.level_other_s"] += later - candidates - support
    layers["_fsg_mine_s"] += mine


def add_fsg_result(layers: dict, result) -> None:
    """Counts the miner returns: candidates, patterns, session telemetry."""
    layers["fsg.candidates"] += result.candidates_generated
    layers["fsg.patterns"] += len(result.patterns)
    totals = result.session_totals()
    layers["runtime.planning_s"] += totals.get("planning_seconds", 0.0)
    layers["runtime.wire_bytes"] += totals.get("wire_bytes", 0)
    layers["_scan_max"] += totals.get("shard_scan_max", 0)
    layers["_scan_min"] += totals.get("shard_scan_min", 0)


#: The match-engine counters behind the ``graphs.*`` metrics.
_ENGINE_COUNTERS = (
    "searches",
    "early_rejects",
    "anchor_extensions",
    "anchor_fallbacks",
    "indexes_built",
    "verdict_hits",
    "verdict_misses",
)


def engine_counters(tracer) -> dict[str, float]:
    """Engine counter totals the tracer has absorbed, over every worker."""
    return {key: tracer.metrics.counter_total(key) for key in _ENGINE_COUNTERS}


def add_engine_stats(layers: dict, before: dict, after: dict) -> None:
    """Match-engine counter deltas between two snapshots."""
    for key in _ENGINE_COUNTERS:
        layers[f"graphs.{key}"] += after.get(key, 0) - before.get(key, 0)


def add_shard_spans(layers: dict, spans) -> None:
    """The slowest shard's busy time per support level, summed over levels.

    Only levels 2 and up count, the levels ``fsg.support`` spans cover, so
    ``runtime.parent_s = fsg.support_s - runtime.shard_busy_s`` is the
    parent's share of those levels: plan, encode, transport wait, decode
    and merge.
    """
    busy: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        level = span.attrs.get("level")
        if span.name in _LEVELED_SHARD_SPANS and level is not None and level >= 2:
            busy[level][span.worker] += span.duration
    layers["runtime.shard_busy_s"] += sum(max(shards.values()) for shards in busy.values())
    layers["runtime.recovery_s"] += sum(
        span.duration for span in spans if span.name == "runtime.recovery"
    )


def finish(layers: dict, sharded: bool) -> dict[str, float]:
    """Derived metrics of one job's layer record."""
    out = {key: value for key, value in layers.items() if not key.startswith("_")}
    hits = out.pop("graphs.verdict_hits", 0)
    misses = out.pop("graphs.verdict_misses", 0)
    out["graphs.verdict_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    candidates = layers["_support_candidates"]
    out["fsg.survivor_ratio"] = (
        layers["_support_survivors"] / candidates if candidates else 0.0
    )
    out["runtime.parent_s"] = (
        out.get("fsg.support_s", 0.0) - out.get("runtime.shard_busy_s", 0.0)
        if sharded
        else 0.0
    )
    scan_min = layers["_scan_min"]
    out["runtime.shard_skew"] = layers["_scan_max"] / scan_min if scan_min else 0.0
    # Job time the timed layers cover: the FSG spans plus the outer stage
    # timers; the rest of a traced job is unaccounted.
    out["accounted_s"] = layers["_fsg_mine_s"] + sum(
        layers[name]
        for name in (
            "partitioning.mine_s",
            "subdue.mine_s",
            "patterns.recall_s",
            "scenarios.fingerprint_s",
        )
    )
    return out
