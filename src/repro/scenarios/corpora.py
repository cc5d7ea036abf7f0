"""The built-in scenario corpora.

Each builder below is a pure function of its seed producing a
:class:`~repro.scenarios.base.ScenarioData`.  The set deliberately spans
the shapes that have historically broken graph miners:

* ``dense-uniform`` — densely connected transactions over a tiny label
  alphabet, the worst case for embedding enumeration;
* ``sparse-chains`` — tree/path transactions, the best case for early
  rejection;
* ``label-skew`` — one dominant label with a long rare tail, stressing
  candidate-bucket filtering;
* ``heavy-multigraph`` — corpora born as multigraphs with parallel edges
  and collapsed through :meth:`LabeledMultiGraph.simplify`;
* ``temporal-drift`` — the label distribution drifts across the corpus,
  so early and late transactions support different patterns;
* ``planted-patterns`` — a single graph assembled from known motifs and
  re-partitioned into transactions, with recall ground truth;
* ``adversarial-isomorphs`` — near-isomorphic symmetric graphs (uniform
  stars and rings, some too symmetric to canonicalise) that stress
  candidate deduplication;
* ``transportation-od`` — the paper's own synthetic OD dataset at a tiny
  scale, partitioned into graph transactions;
* ``messy-mobility`` — a multi-source mobility feed with synonym zone
  names, missing values, and coordinate/timestamp outliers, forced
  through schema cleaning and attribute binning *before* graph
  construction, so the digest covers the whole ingest pipeline;
* ``stress-powerlaw`` — power-law transaction sizes and label skew, so
  per-shard scan work is visibly unbalanced unless placement weighs
  transactions by size;
* ``stress-nearclique`` — uniform near-cliques whose symmetry defeats
  canonicalisation, forcing the invariant fallback on the digest path;
* ``stress-windows`` — overlapping temporal windows (stride < window)
  of the paper's OD data, so the same trip supports several
  transactions;
* ``streaming-mobility-head`` — the head of the 100k streaming corpus
  (see :mod:`repro.scenarios.streaming`), putting the streaming
  generator under the full differential gate at a mineable size.
"""

from __future__ import annotations

import random
from datetime import timedelta

from repro.datasets.generator import (
    GeneratorConfig,
    MobilityConfig,
    TransportationDataGenerator,
    generate_messy_mobility_records,
    mobility_zone_directory,
)
from repro.datasets.schema import TransactionDataset, clean_mobility_records
from repro.partitioning.windows import partition_by_window, window_graphs
from repro.graphs.builders import build_od_graph
from repro.graphs.labeled_graph import LabeledGraph, LabeledMultiGraph
from repro.graphs.motifs import chain, cycle, hub_and_spoke
from repro.partitioning.split_graph import PartitionStrategy, split_graph
from repro.patterns.planted import PlantedGraphSpec, build_planted_graph
from repro.scenarios.base import (
    MiningParams,
    Scenario,
    ScenarioData,
    register,
    stitch_transactions,
)
from repro.scenarios.streaming import StreamingMobilityCorpus


def _random_graph(
    rng: random.Random,
    name: str,
    n_vertices: int,
    n_edges: int,
    vertex_labels: list[str],
    edge_labels: list[str],
) -> LabeledGraph:
    """A random simple directed graph with labels drawn uniformly."""
    graph = LabeledGraph(name=name)
    for v in range(n_vertices):
        graph.add_vertex(f"v{v}", rng.choice(vertex_labels))
    attempts = 0
    while graph.n_edges < n_edges and attempts < n_edges * 10:
        attempts += 1
        a, b = rng.sample(range(n_vertices), 2)
        if graph.has_edge(f"v{a}", f"v{b}"):
            continue
        graph.add_edge(f"v{a}", f"v{b}", rng.choice(edge_labels))
    return graph


def _build_dense_uniform(seed: int) -> ScenarioData:
    rng = random.Random(seed)
    transactions = []
    for index in range(22):
        n_vertices = rng.randint(6, 8)
        n_edges = min(n_vertices * (n_vertices - 1), int(n_vertices * 2.2))
        transactions.append(
            _random_graph(
                rng, f"dense{index}", n_vertices, n_edges, ["depot", "stop"], ["x", "y"]
            )
        )
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


def _build_sparse_chains(seed: int) -> ScenarioData:
    rng = random.Random(seed)
    transactions = []
    for index in range(28):
        n_vertices = rng.randint(5, 9)
        graph = LabeledGraph(name=f"sparse{index}")
        labels = ["depot", "hub", "stop"]
        graph.add_vertex("v0", rng.choice(labels))
        for v in range(1, n_vertices):
            graph.add_vertex(f"v{v}", rng.choice(labels))
            # Attach to a random earlier vertex: always a tree.
            parent = rng.randrange(v)
            graph.add_edge(f"v{parent}", f"v{v}", rng.choice(["x", "y"]))
        transactions.append(graph)
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


def _skewed_choice(rng: random.Random, hot: str, rare: list[str], hot_probability: float) -> str:
    if rng.random() < hot_probability:
        return hot
    return rng.choice(rare)


def _build_label_skew(seed: int) -> ScenarioData:
    rng = random.Random(seed)
    rare_vertex = [f"rare{i}" for i in range(5)]
    rare_edge = [f"e{i}" for i in range(4)]
    transactions = []
    for index in range(24):
        n_vertices = rng.randint(5, 8)
        graph = LabeledGraph(name=f"skew{index}")
        for v in range(n_vertices):
            graph.add_vertex(f"v{v}", _skewed_choice(rng, "hot", rare_vertex, 0.75))
        n_edges = n_vertices + rng.randint(0, 3)
        attempts = 0
        while graph.n_edges < n_edges and attempts < n_edges * 10:
            attempts += 1
            a, b = rng.sample(range(n_vertices), 2)
            if graph.has_edge(f"v{a}", f"v{b}"):
                continue
            graph.add_edge(f"v{a}", f"v{b}", _skewed_choice(rng, "w", rare_edge, 0.8))
        transactions.append(graph)
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


def _build_heavy_multigraph(seed: int) -> ScenarioData:
    rng = random.Random(seed)
    transactions = []
    for index in range(20):
        n_vertices = rng.randint(4, 7)
        multigraph = LabeledMultiGraph(name=f"multi{index}")
        for v in range(n_vertices):
            multigraph.add_vertex(f"v{v}", rng.choice(["port", "yard"]))
        for _ in range(n_vertices + rng.randint(1, 4)):
            a, b = rng.sample(range(n_vertices), 2)
            # Several parallel trips per lane; simplify() keeps the most
            # common label, which is the corpus the miners actually see.
            for _ in range(rng.randint(1, 4)):
                multigraph.add_edge(f"v{a}", f"v{b}", rng.choice(["am", "pm"]))
        transactions.append(multigraph.simplify())
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


def _build_temporal_drift(seed: int) -> ScenarioData:
    rng = random.Random(seed)
    transactions = []
    n_transactions = 28
    for index in range(n_transactions):
        # The edge alphabet drifts from {early, mid} to {mid, late} across
        # the corpus, so the frequent set depends on both regimes.
        progress = index / (n_transactions - 1)
        edge_labels = ["early", "mid"] if progress < 0.5 else ["mid", "late"]
        n_vertices = rng.randint(5, 8)
        transactions.append(
            _random_graph(
                rng,
                f"drift{index}",
                n_vertices,
                n_vertices + rng.randint(0, 3),
                ["site"],
                edge_labels,
            )
        )
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


def _build_planted_patterns(seed: int) -> ScenarioData:
    spec = PlantedGraphSpec(background_edges=30, seed=seed)
    spec.add("hub4", hub_and_spoke(4, edge_labels=["d", "d", "d", "d"]), copies=6)
    spec.add("chain3", chain(3, edge_labels=["p", "q", "p"]), copies=6)
    spec.add("cycle3", cycle(3, edge_labels=["r", "r", "r"]), copies=5)
    planted = build_planted_graph(spec)
    transactions = split_graph(
        planted.graph, 10, strategy=PartitionStrategy.BREADTH_FIRST, seed=seed
    )
    return ScenarioData(
        transactions=transactions,
        host=planted.graph,
        ground_truth=planted.ground_truth,
    )


def _build_adversarial_isomorphs(seed: int) -> ScenarioData:
    rng = random.Random(seed)
    transactions: list[LabeledGraph] = []

    def star(prefix: str, n_spokes: int, twist: bool) -> LabeledGraph:
        graph = LabeledGraph(name=f"{prefix}-star{n_spokes}")
        graph.add_vertex(f"{prefix}h", "hub")
        for spoke in range(n_spokes):
            graph.add_vertex(f"{prefix}s{spoke}", "spoke")
            graph.add_edge(f"{prefix}h", f"{prefix}s{spoke}", "e")
        if twist:
            # One extra edge between two spokes: near-isomorphic to the
            # plain star but not isomorphic.
            graph.add_edge(f"{prefix}s0", f"{prefix}s1", "e")
        return graph

    for index in range(6):
        transactions.append(star(f"a{index}", 6, twist=False))
        transactions.append(star(f"b{index}", 6, twist=True))
    # Uniform 9-spoke stars defeat canonicalisation (9! orderings), so
    # everything fingerprinting them — candidate dedup, SUBDUE reporting,
    # outcome payloads — must fall back to invariant + isomorphism
    # checks.  They outnumber the 6-spoke population so SUBDUE's MDL
    # search reports the full 9-edge star among its best substructures.
    for index in range(8):
        transactions.append(star(f"c{index}", 9, twist=index % 2 == 1))
    # Uniform rings whose rotations are automorphisms.
    for index in range(6):
        ring = cycle(5, vertex_label="spoke", edge_labels=["e"] * 5, prefix=f"r{index}")
        if index % 3 == 0:
            ring.add_edge(f"r{index}_0", f"r{index}_2", "e")
        transactions.append(ring)
    rng.shuffle(transactions)
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


def _build_transportation_od(seed: int) -> ScenarioData:
    generator = TransportationDataGenerator(GeneratorConfig(scale=0.002, seed=seed))
    dataset = generator.generate()
    host = build_od_graph(dataset, edge_attribute="GROSS_WEIGHT", vertex_labeling="uniform")
    transactions = split_graph(
        host, 14, strategy=PartitionStrategy.BREADTH_FIRST, seed=seed
    )
    return ScenarioData(transactions=transactions, host=host)


def _build_messy_mobility(seed: int) -> ScenarioData:
    """Dirty multi-source feed → clean → bin → window → transactions.

    Everything upstream of graph construction runs inside the builder, so
    the scenario digest pins the cleaning and discretisation behaviour:
    a regression in synonym resolution, imputation, or binning changes
    the corpus fingerprint even if mining itself is untouched.
    """
    config = MobilityConfig(seed=seed)
    zones = mobility_zone_directory(config)
    records = generate_messy_mobility_records(config, zones)
    dataset, _report = clean_mobility_records(
        records, zones, observation_window=config.window, name="messy-mobility"
    )
    transactions = window_graphs(
        partition_by_window(dataset, window_days=7, edge_attribute="GROSS_WEIGHT")
    )
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


def _build_stress_powerlaw(seed: int) -> ScenarioData:
    """Power-law transaction sizes over a skewed label alphabet.

    A handful of giant transactions and a long tail of tiny ones: placed
    by arrival order alone, the giants land on whichever shards their
    tids hit, so per-shard scan workloads diverge — the shape the
    ``shard_scan_max`` / ``shard_scan_min`` telemetry exists to expose.
    """
    rng = random.Random(seed)
    rare_vertex = [f"cold{i}" for i in range(6)]
    transactions = []
    for index in range(24):
        # Cubic power law: mostly 3-5 vertices, occasionally up to ~18.
        n_vertices = 3 + int(15 * (rng.random() ** 3))
        graph = LabeledGraph(name=f"power{index}")
        for v in range(n_vertices):
            graph.add_vertex(f"v{v}", _skewed_choice(rng, "hub", rare_vertex, 0.7))
        n_edges = min(n_vertices * (n_vertices - 1), int(n_vertices * 1.8))
        attempts = 0
        while graph.n_edges < n_edges and attempts < n_edges * 10:
            attempts += 1
            a, b = rng.sample(range(n_vertices), 2)
            if graph.has_edge(f"v{a}", f"v{b}"):
                continue
            graph.add_edge(f"v{a}", f"v{b}", _skewed_choice(rng, "w", ["x", "y"], 0.8))
        transactions.append(graph)
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


def _build_stress_nearclique(seed: int) -> ScenarioData:
    """Uniform near-cliques: symmetry stress for canonicalisation.

    The full bidirectional K9 cliques have a single colour class of nine
    vertices (9! candidate orderings), so canonicalising them raises
    :class:`CanonicalizationError` and the digest path must take the
    invariant fallback; the K9 variants with three directed edges removed
    refine into three classes of three (216 orderings) and canonicalise
    cheaply, pinning both sides of the boundary in one corpus.
    """
    rng = random.Random(seed)

    def clique(prefix: str, n: int, dropped: tuple[tuple[int, int], ...]) -> LabeledGraph:
        graph = LabeledGraph(name=f"{prefix}K{n}")
        for v in range(n):
            graph.add_vertex(f"{prefix}v{v}", "site")
        for a in range(n):
            for b in range(n):
                if a != b and (a, b) not in dropped:
                    graph.add_edge(f"{prefix}v{a}", f"{prefix}v{b}", "e")
        return graph

    transactions: list[LabeledGraph] = []
    for index in range(4):
        # Too symmetric to canonicalise: single colour class, 9! orderings.
        transactions.append(clique(f"full{index}_", 9, dropped=()))
    for index in range(4):
        # Three dropped directed edges split the refinement into three
        # colour classes of three — canonicalisable, but only just.
        transactions.append(clique(f"near{index}_", 9, dropped=((0, 1), (2, 3), (4, 5))))
    for index in range(8):
        dropped = ((0, 1),) if index % 2 else ()
        transactions.append(clique(f"k5_{index}_", 5, dropped=dropped))
    rng.shuffle(transactions)
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


def _build_stress_windows(seed: int) -> ScenarioData:
    """Overlapping temporal windows: stride (3 days) < window (7 days).

    Each trip of the OD dataset is active in up to three consecutive
    windows, so window transactions share edges — support counts reflect
    the overlap, not just the raw data.  The dataset is clipped to six
    weeks to keep the corpus small enough for the differential gate.
    """
    generator = TransportationDataGenerator(GeneratorConfig(scale=0.002, seed=seed))
    dataset = generator.generate()
    first_date, _ = dataset.date_range()
    cutoff = first_date + timedelta(days=41)
    clipped = TransactionDataset(
        transactions=[t for t in dataset.transactions if t.req_pickup_dt <= cutoff],
        name="stress-windows",
    )
    transactions = window_graphs(
        partition_by_window(
            clipped, window_days=7, stride_days=3, edge_attribute="GROSS_WEIGHT"
        )
    )
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


def _build_streaming_head(seed: int) -> ScenarioData:
    """The first 32 transactions of the 100k streaming corpus.

    ``StreamingMobilityCorpus.transaction`` is a pure function of
    ``(seed, tid)`` independent of corpus length, so this head is
    byte-identical to the head of the full production corpus — the
    differential gate here covers the exact generator the slow-lane
    streaming check samples at scale.
    """
    corpus = StreamingMobilityCorpus(n_transactions=32, seed=seed)
    transactions = corpus.head(32)
    return ScenarioData(transactions=transactions, host=stitch_transactions(transactions))


register(
    Scenario(
        name="dense-uniform",
        description="densely connected transactions over a two-label alphabet",
        builder=_build_dense_uniform,
        tags=("synthetic", "dense"),
        params=MiningParams(fsg_min_support=4, fsg_max_edges=2, subdue_max_edges=2),
    )
)
register(
    Scenario(
        name="sparse-chains",
        description="random tree/path transactions (sparse, easily rejected)",
        builder=_build_sparse_chains,
        tags=("synthetic", "sparse"),
        params=MiningParams(fsg_min_support=3, fsg_max_edges=3),
    )
)
register(
    Scenario(
        name="label-skew",
        description="one dominant vertex/edge label with a rare tail",
        builder=_build_label_skew,
        tags=("synthetic", "skew"),
        params=MiningParams(fsg_min_support=4, fsg_max_edges=2, subdue_max_edges=2),
    )
)
register(
    Scenario(
        name="heavy-multigraph",
        description="parallel-edge multigraph corpora collapsed via simplify()",
        builder=_build_heavy_multigraph,
        tags=("synthetic", "multigraph"),
        params=MiningParams(fsg_min_support=3, fsg_max_edges=3),
    )
)
register(
    Scenario(
        name="temporal-drift",
        description="edge-label distribution drifts across the corpus",
        builder=_build_temporal_drift,
        tags=("synthetic", "temporal"),
        params=MiningParams(fsg_min_support=4, fsg_max_edges=2, subdue_max_edges=2),
    )
)
register(
    Scenario(
        name="planted-patterns",
        description="known motifs planted in one graph, re-partitioned; recall ground truth",
        builder=_build_planted_patterns,
        tags=("planted", "recall"),
        params=MiningParams(
            fsg_min_support=2,
            fsg_max_edges=4,
            structural_k=8,
            structural_min_support=2,
            structural_max_edges=3,
        ),
    )
)
register(
    Scenario(
        name="adversarial-isomorphs",
        description="near-isomorphic symmetric stars/rings; some defeat canonicalisation",
        builder=_build_adversarial_isomorphs,
        tags=("adversarial", "symmetry"),
        params=MiningParams(fsg_min_support=4, fsg_max_edges=3, subdue_max_edges=3),
    )
)
register(
    Scenario(
        name="transportation-od",
        description="the paper's synthetic OD dataset at tiny scale, partitioned",
        builder=_build_transportation_od,
        tags=("paper", "od"),
        params=MiningParams(
            fsg_min_support=3,
            fsg_max_edges=2,
            structural_k=6,
            structural_min_support=2,
            structural_max_edges=2,
            subdue_max_edges=2,
            subdue_limit=60,
        ),
    )
)
register(
    Scenario(
        name="messy-mobility",
        description="dirty multi-source mobility feed cleaned and binned before graphing",
        builder=_build_messy_mobility,
        tags=("messy", "ingest", "mobility"),
        params=MiningParams(
            fsg_min_support=7,
            fsg_max_edges=2,
            structural_k=5,
            structural_min_support=2,
            structural_max_edges=2,
            subdue_max_edges=2,
            subdue_limit=50,
        ),
    )
)
register(
    Scenario(
        name="stress-powerlaw",
        description="power-law transaction sizes and label skew pressuring shard balance",
        builder=_build_stress_powerlaw,
        tags=("stress", "skew"),
        params=MiningParams(fsg_min_support=4, fsg_max_edges=2, subdue_max_edges=2),
    )
)
register(
    Scenario(
        name="stress-nearclique",
        description="uniform near-cliques forcing the canonicalisation fallback",
        builder=_build_stress_nearclique,
        tags=("stress", "symmetry"),
        params=MiningParams(
            fsg_min_support=6,
            fsg_max_edges=2,
            structural_k=4,
            structural_max_edges=2,
            subdue_beam=2,
            subdue_max_edges=2,
            subdue_limit=40,
        ),
    )
)
register(
    Scenario(
        name="stress-windows",
        description="overlapping temporal windows (stride < window) of the OD dataset",
        builder=_build_stress_windows,
        tags=("stress", "temporal", "windows"),
        params=MiningParams(
            fsg_min_support=8,
            fsg_max_edges=2,
            structural_k=5,
            structural_min_support=2,
            structural_max_edges=2,
            subdue_max_edges=2,
            subdue_limit=40,
        ),
    )
)
register(
    Scenario(
        name="streaming-mobility-head",
        description="head of the 100k streaming corpus under the full differential gate",
        builder=_build_streaming_head,
        tags=("streaming", "mobility"),
        params=MiningParams(fsg_min_support=2, fsg_max_edges=2, subdue_max_edges=2),
    )
)
