"""The four named workloads: inputs from a seed, one job, its correctness check.

Every workload pins its configuration — match kernel, runtime backend,
shard count, wire and fault plan — explicitly, so no ``REPRO_*`` default
can change what it measures.

* The FSG workloads mine the 400-transaction bench corpus
  (``benchmarks/bench_parallel_support.build_corpus`` at seed 20050405)
  with ``min_support`` 0.05 and ``max_edges`` 4.  A job is one
  ``FSGMiner.mine`` with a fresh match engine.
* ``scenarios`` runs the golden scenarios through ``run_scenario``, one
  job per scenario, at their builder seed.

At seed 20050405 the inputs are exactly those, and the scenarios must
match their golden digests.  Any other seed renames them isomorphically:
it permutes the vertex and edge label alphabets, the transaction order
and the vertex names.  The structure, and so the mining work, is the
same at every seed, so timings compare across seeds; the bytes the
program sees, every canonical code, tid and digest change, and the
invariant and legacy-matcher checks take the golden digests' place.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

from bench_parallel_support import MAX_EDGES, MIN_SUPPORT, build_corpus

from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.miner import FSGMiner
from repro.mining.subdue.evaluation import EvaluationPrinciple
from repro.mining.subdue.miner import SubdueMiner
from repro.partitioning.structural import StructuralMiningConfig, mine_single_graph
from repro.patterns.recall import measure_recall
from repro.runtime import ShardedEngine, resolve_backend, resolve_kernel, resolve_wire
from repro.scenarios import (
    ScenarioData,
    ScenarioOutcome,
    check_invariants,
    check_legacy_oracle,
    corpus_fingerprint,
    iter_scenarios,
    load_golden,
    pattern_code,
    run_scenario,
)

# The payload assembly of run_scenario; the traced scenarios job calls the
# stages one by one and must rebuild the identical payload.
from repro.scenarios.harness import (
    _fsg_payload,
    _recall_payload,
    _structural_payload,
    _subdue_payload,
)

import layers as L

#: The seed of the golden digests and of the bench corpus itself.
DEFAULT_SEED = 20050405
N_TRANSACTIONS = 400
KERNEL = "python"
WIRE = "buffer"
PLACEMENT = "weighted"
SESSION_PROTOCOL = "delta"
#: Kills shard 1 on its third level message; re-armed before every job.
KILL_PLAN = "kill:shard=1,level=3"
#: Scenario names run by the scenarios workload (``None``: all registered).
SCENARIOS: tuple[str, ...] | None = None
#: Wall-clock of one scenarios pass on a 2-CPU host; sizes the fixed number
#: of passes a run makes, so the job mix never depends on program speed.
#: A 20 s run makes 3 passes: with 13 scenarios, job_s_tail (ten jobs
#: beyond it) is then the middle of one scenario's three samples, not the
#: boundary between two scenarios, where noise picks which one it reads.
NOMINAL_PASS_S = 6.5


def _permutation(labels, rng: random.Random) -> dict:
    """A random bijection of *labels* mapping each label to one of its own type."""
    groups: dict[type, list] = {}
    for label in sorted(labels, key=repr):
        groups.setdefault(type(label), []).append(label)
    mapping = {}
    for group in groups.values():
        mapping.update(zip(group, rng.sample(group, len(group))))
    return mapping


class Relabelling:
    """One random isomorphic renaming, applied consistently to many graphs.

    Vertex and edge label alphabets are permuted and vertices get fresh
    names.  Insertion order is kept, so order-driven choices such as the
    random partition seeds of structural mining pick the same positions
    and the work stays the same as at the default seed.
    """

    def __init__(self, graphs, rng: random.Random) -> None:
        self.rng = rng
        self.vertex_labels = _permutation(
            {g.vertex_label(v) for g in graphs for v in g.vertices()}, rng
        )
        self.edge_labels = _permutation({e.label for g in graphs for e in g.edges()}, rng)

    def __call__(self, graph: LabeledGraph) -> LabeledGraph:
        vertices = list(graph.vertices())
        numbers = self.rng.sample(range(len(vertices)), len(vertices))
        names = {vertex: f"n{k}" for vertex, k in zip(vertices, numbers)}
        copy = LabeledGraph(name=graph.name)
        for vertex in vertices:
            copy.add_vertex(names[vertex], self.vertex_labels[graph.vertex_label(vertex)])
        for edge in graph.edges():
            copy.add_edge(names[edge.source], names[edge.target], self.edge_labels[edge.label])
        return copy

    def shuffled(self, graphs: list[LabeledGraph]) -> list[LabeledGraph]:
        """Renamed copies of *graphs*, in a random order."""
        return [self(graphs[i]) for i in self.rng.sample(range(len(graphs)), len(graphs))]


def bench_corpus(seed: int) -> list[LabeledGraph]:
    corpus = build_corpus(N_TRANSACTIONS, DEFAULT_SEED)
    if seed == DEFAULT_SEED:
        return corpus
    return Relabelling(corpus, random.Random(seed)).shuffled(corpus)


def scenario_data(scenario, seed: int) -> ScenarioData:
    data = scenario.build()
    if seed == DEFAULT_SEED:
        return data
    truth = [planted.pattern for planted in data.ground_truth]
    rename = Relabelling([*data.transactions, data.host, *truth], random.Random(seed))
    return ScenarioData(
        transactions=rename.shuffled(data.transactions),
        host=rename(data.host),
        ground_truth=[
            dataclasses.replace(planted, pattern=rename(planted.pattern))
            for planted in data.ground_truth
        ],
    )


def fsg_rows(engine: MatchEngine, result) -> list[tuple]:
    """The (code, support, tids) set a correct job must reproduce."""
    return sorted(
        (pattern_code(engine, e.pattern), e.support, tuple(sorted(e.supporting_transactions)))
        for e in result.patterns
    )


def pinned_config(shards: int, faults: str) -> dict:
    """A workload's configuration, resolved the way the runtime resolves it."""
    return {
        "kernel": resolve_kernel(KERNEL),
        "runtime": "sharded" if shards else "serial",
        "backend": resolve_backend("process") if shards else None,
        "shards": shards,
        "wire": resolve_wire(WIRE) if shards else None,
        "placement": PLACEMENT if shards else None,
        "faults": faults or None,
    }


class FSGWorkload:
    """FSG over the bench corpus, on the serial runtime or K=2 process shards."""

    def __init__(self, name: str, shards: int, faults: str = "") -> None:
        self.name = name
        self.shards = shards
        self.faults = faults

    def fixed_jobs(self, seconds: float, minimum_passes: int) -> None:
        """Time-bounded: jobs run until the run's seconds have passed."""
        return None

    def config(self) -> dict:
        return pinned_config(self.shards, self.faults)

    def build(self, seed: int) -> None:
        self.seed = seed
        self.corpus = bench_corpus(seed)
        self.edges = sum(graph.n_edges for graph in self.corpus)

    def open_runtime(self):
        if not self.shards:
            return None
        return ShardedEngine(
            shards=self.shards,
            backend="process",
            session_protocol=SESSION_PROTOCOL,
            kernel=KERNEL,
            faults=self.faults,
            wire=WIRE,
            placement=PLACEMENT,
        )

    def _miner(self, engine, runtime) -> FSGMiner:
        return FSGMiner(
            min_support=MIN_SUPPORT, max_edges=MAX_EDGES, engine=engine, runtime=runtime
        )

    def prepare(self, runtime) -> list[str]:
        """Serial reference, legacy-matcher recount, and a warm-up job."""
        engine = MatchEngine(kernel=KERNEL)
        reference = self._miner(engine, None).mine(self.corpus)
        self.expected = fsg_rows(engine, reference)
        outcome = ScenarioOutcome(scenario=self.name, payload={}, fsg_result=reference)
        failures = check_legacy_oracle(outcome, self.corpus)
        if runtime is not None:
            _, output = self.execute(None, runtime)
            failures += self.check(None, output)
        return failures

    def jobs(self):
        return itertools.repeat(None)

    def job_edges(self, job) -> int:
        return self.edges

    def execute(self, job, runtime):
        engine = MatchEngine(kernel=KERNEL)
        if self.faults:
            # A fresh injector per job lands the kill at level 3 of every
            # job; the engine arms plans only at construction and on
            # respawn, so the benchmark calls its arming step directly.
            runtime._arm_faults(runtime.faults)
        before = runtime.recovery_counts if runtime is not None else {}
        started = time.perf_counter()
        result = self._miner(engine, runtime).mine(self.corpus)
        seconds = time.perf_counter() - started
        after = runtime.recovery_counts if runtime is not None else {}
        recovery = {key: after[key] - before[key] for key in after}
        return seconds, (engine, result, recovery)

    def check(self, job, output) -> list[str]:
        """Same patterns as the serial run; exactly the recoveries the plan causes."""
        engine, result, recovery = output
        failures = []
        if fsg_rows(engine, result) != self.expected:
            failures.append(f"{self.name}: patterns differ from the serial run")
        if self.shards:
            kills = 1 if self.faults else 0
            want = {"worker_restarts": kills, "level_replays": kills, "worker_degradations": 0}
            if recovery != want:
                failures.append(f"{self.name}: recovery {recovery}, expected {want}")
        return failures

    def execute_traced(self, job, runtime, tracer):
        # Engine counters as the miner and the shards report them to the
        # tracer: shard deltas ride on every reply, so work a killed shard
        # finished still counts after its respawn resets its own counters.
        counters_before = L.engine_counters(tracer)
        tracer.take_spans()
        seconds, output = self.execute(job, runtime)
        _, result, recovery = output
        if runtime is not None:
            runtime.drain_worker_spans()
        layers = L.zero_layers()
        for key, value in recovery.items():
            layers[f"runtime.{key}"] += value
        spans = tracer.take_spans()
        L.add_fsg_spans(layers, spans)
        L.add_shard_spans(layers, spans)
        L.add_fsg_result(layers, result)
        L.add_engine_stats(layers, counters_before, L.engine_counters(tracer))
        return seconds, output, L.finish(layers, bool(self.shards))


class ScenarioWorkload:
    """The golden scenarios through ``run_scenario``, one job per scenario."""

    name = "scenarios"
    shards = 0

    def config(self) -> dict:
        return pinned_config(0, "")

    def fixed_jobs(self, seconds: float, minimum_passes: int) -> int:
        passes = max(minimum_passes, int(seconds / NOMINAL_PASS_S))
        return passes * len(self.scenarios)

    def build(self, seed: int) -> None:
        self.seed = seed
        self.scenarios = list(iter_scenarios(SCENARIOS))
        self.data = {scenario.name: scenario_data(scenario, seed) for scenario in self.scenarios}

    def open_runtime(self):
        # run_scenario pins its own serial runtime.
        return None

    def prepare(self, runtime) -> list[str]:
        """Golden digests at the default seed; a builder determinism check."""
        self.digests = {}
        if self.seed == DEFAULT_SEED:
            self.digests = {name: entry["digest"] for name, entry in load_golden().items()}
        failures = []
        for scenario in self.scenarios:
            rebuilt = scenario_data(scenario, self.seed)
            if corpus_fingerprint(rebuilt) != corpus_fingerprint(self.data[scenario.name]):
                failures.append(f"{scenario.name}: builder is not deterministic")
        return failures

    def jobs(self):
        return itertools.cycle(self.scenarios)

    def job_edges(self, scenario) -> int:
        data = self.data[scenario.name]
        return sum(graph.n_edges for graph in data.transactions) + data.host.n_edges

    def execute(self, scenario, runtime):
        started = time.perf_counter()
        outcome = run_scenario(scenario, data=self.data[scenario.name])
        return time.perf_counter() - started, outcome

    def check(self, scenario, outcome) -> list[str]:
        """Golden digest at the default seed; else oracles once, then a stable digest."""
        expected = self.digests.get(scenario.name)
        if expected is None:
            failures = check_invariants(outcome)
            failures += check_legacy_oracle(outcome, self.data[scenario.name].transactions)
            self.digests[scenario.name] = outcome.digest
            return failures
        if outcome.digest != expected:
            return [f"{scenario.name}: digest {outcome.digest[:12]} != {expected[:12]}"]
        return []

    def execute_traced(self, scenario, runtime, tracer):
        """The stages run_scenario calls, each timed on its own."""
        params = scenario.params
        built = self.data[scenario.name]
        engine = MatchEngine()
        layers = L.zero_layers()
        tracer.take_spans()
        started = time.perf_counter()

        fsg = FSGMiner(
            min_support=params.fsg_min_support, max_edges=params.fsg_max_edges, engine=engine
        ).mine(built.transactions)
        L.add_fsg_spans(layers, tracer.take_spans())
        L.add_fsg_result(layers, fsg)

        stage = time.perf_counter()
        structural = mine_single_graph(
            built.host,
            StructuralMiningConfig(
                k=params.structural_k,
                repetitions=params.structural_repetitions,
                min_support=params.structural_min_support,
                max_pattern_edges=params.structural_max_edges,
                seed=scenario.seed,
                workers=0,
            ),
            engine=engine,
        )
        layers["partitioning.mine_s"] += time.perf_counter() - stage

        stage = time.perf_counter()
        subdue = SubdueMiner(
            beam_width=params.subdue_beam,
            max_best=params.subdue_max_best,
            max_substructure_edges=params.subdue_max_edges,
            limit=params.subdue_limit,
            principle=EvaluationPrinciple.MDL,
            engine=engine,
        ).mine(built.host)
        layers["subdue.mine_s"] += time.perf_counter() - stage
        layers["subdue.evaluated"] += subdue.evaluated

        stage = time.perf_counter()
        payload = {
            "scenario": scenario.name,
            "n_transactions": len(built.transactions),
            "host": {"n_vertices": built.host.n_vertices, "n_edges": built.host.n_edges},
            "corpus": sorted(pattern_code(engine, graph) for graph in built.transactions),
            "fsg": _fsg_payload(engine, fsg),
            "subdue": _subdue_payload(engine, subdue),
            "structural": _structural_payload(engine, structural),
        }
        layers["scenarios.fingerprint_s"] += time.perf_counter() - stage

        if built.ground_truth:
            stage = time.perf_counter()
            report = measure_recall(
                built.ground_truth,
                fsg.patterns,
                partial_fraction=params.recall_partial_fraction,
                engine=engine,
            )
            payload["recall"] = _recall_payload(report)
            layers["patterns.recall_s"] += time.perf_counter() - stage
        seconds = time.perf_counter() - started
        # Spans of the FSG runs inside structural partitioning belong to
        # partitioning.mine_s, not to the fsg.* layers.
        tracer.take_spans()
        L.add_engine_stats(layers, {}, engine.stats_snapshot())
        outcome = ScenarioOutcome(scenario=scenario.name, payload=payload, fsg_result=fsg)
        return seconds, outcome, L.finish(layers, sharded=False)


WORKLOADS = {
    "fsg-400": lambda: FSGWorkload("fsg-400", shards=0),
    "fsg-400-k2": lambda: FSGWorkload("fsg-400-k2", shards=2),
    "fsg-400-k2-kill": lambda: FSGWorkload("fsg-400-k2-kill", shards=2, faults=KILL_PLAN),
    "scenarios": ScenarioWorkload,
}
