"""Independent checks of SUBDUE: what it reports must be re-derivable.

The golden digests prove SUBDUE's output is *stable*; these tests check
that it is *right*, by re-deriving every reported fact another way:

* each instance of each reported substructure is a real embedding in the
  host, and the instances counted are pairwise vertex-disjoint;
* the reported MDL value equals the one computed from the materialized
  rewrite (:func:`compress_instances` plus :func:`description_length`),
  float for float — the miner itself only counts, never rewrites;
* grouping extended instances by construction (alignment keys) gives the
  same classes, in the same order, as classifying every instance on its
  own;
* a golden scenario's SUBDUE result does not depend on the hash seed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.engine import MatchEngine
from repro.graphs.isomorphism import legacy_are_isomorphic
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.subdue.compression import compress_instances
from repro.mining.subdue.evaluation import (
    EvaluationPrinciple,
    _compression_stats,
    mdl_value,
    size_value,
)
from repro.mining.subdue.expansion import expand_substructure, initial_substructures
from repro.mining.subdue.mdl import description_length, graph_size
from repro.mining.subdue.miner import SubdueMiner
from repro.mining.subdue.substructure import (
    Instance,
    Substructure,
    instance_pattern,
    select_non_overlapping,
)
from repro.obs import Tracer, activate
from repro.scenarios import get_scenario, scenario_names

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# The oracle: statistics and values from the materialized rewrite
# ----------------------------------------------------------------------
def materialized_stats(host: LabeledGraph, instances: list[Instance]):
    """The compressed graph and the evaluation counts read off it."""
    compressed = compress_instances(host, instances)
    replacements = set(compressed.vertices()) - set(host.vertices())
    assert len(replacements) == len(instances)
    internal_edges = sum(instance.n_edges for instance in instances)
    merged_edges = max(0, (host.n_edges - internal_edges) - compressed.n_edges)
    boundary = sum(
        1
        for edge in compressed.edges()
        if edge.source in replacements or edge.target in replacements
    )
    return compressed, {
        "compressed_vertices": compressed.n_vertices,
        "compressed_edges": compressed.n_edges,
        "n_instances": len(instances),
        "internal_edges": internal_edges,
        "covered_vertices": sum(len(instance.vertices) for instance in instances),
        "merged_edges": merged_edges,
        "boundary_edges": boundary + merged_edges,
    }


def _alphabets(host: LabeledGraph) -> tuple[int, int]:
    return (
        max(1, len(host.vertex_label_counts())),
        max(1, len(host.edge_label_counts())),
    )


def oracle_mdl(host: LabeledGraph, substructure: Substructure) -> float:
    """MDL value recomputed from scratch on the materialized rewrite."""
    n_vertex_labels, n_edge_labels = _alphabets(host)
    pattern = substructure.pattern
    compressed, stats = materialized_stats(host, select_non_overlapping(substructure.instances))
    per_edge_bits = 2.0 * math.log2(max(2, compressed.n_vertices)) + math.log2(max(2, n_edge_labels))
    denominator = (
        description_length(pattern, n_vertex_labels, n_edge_labels)
        + description_length(compressed, n_vertex_labels + 1, n_edge_labels)
        + stats["merged_edges"] * per_edge_bits
        + stats["boundary_edges"] * math.log2(max(2, pattern.n_vertices))
        + stats["covered_vertices"] * math.log2(max(2, host.n_vertices))
    )
    if denominator <= 0:
        return 0.0
    return description_length(host, n_vertex_labels, n_edge_labels) / denominator


def oracle_size(host: LabeledGraph, substructure: Substructure) -> float:
    """Size value recomputed from scratch on the materialized rewrite."""
    compressed, stats = materialized_stats(host, select_non_overlapping(substructure.instances))
    denominator = graph_size(substructure.pattern) + graph_size(compressed) + stats["merged_edges"]
    if denominator <= 0:
        return 0.0
    return graph_size(host) / denominator


def positional_pattern(host: LabeledGraph, instance: Instance) -> tuple:
    """The instance's pattern written over its aligned positions."""
    position = {vertex: index for index, vertex in enumerate(instance.order)}
    assert len(position) == len(instance.order) and set(position) == set(instance.vertices)
    return (
        tuple(host.vertex_label(vertex) for vertex in instance.order),
        frozenset((position[e.source], position[e.target], e.label) for e in instance.edges),
    )


def assert_real_embedding(host: LabeledGraph, instance: Instance) -> None:
    for edge in instance.edges:
        assert host.has_edge(edge.source, edge.target), edge
        assert host.edge_label(edge.source, edge.target) == edge.label, edge
    endpoints = {v for edge in instance.edges for v in (edge.source, edge.target)}
    assert endpoints == set(instance.vertices)


# ----------------------------------------------------------------------
# Every golden scenario host: reported substructures re-derived
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_runs():
    """SUBDUE over each golden scenario host, with the harness's parameters."""
    runs = {}
    for name in scenario_names():
        scenario = get_scenario(name)
        params = scenario.params
        host = scenario.build().host
        result = SubdueMiner(
            beam_width=params.subdue_beam,
            max_best=params.subdue_max_best,
            max_substructure_edges=params.subdue_max_edges,
            limit=params.subdue_limit,
            principle=EvaluationPrinciple.MDL,
            engine=MatchEngine(),
        ).mine(host)
        runs[name] = (host, result)
    return runs


class TestGoldenHostOracle:
    @pytest.mark.parametrize("name", scenario_names())
    def test_reported_substructures_rederive(self, name, golden_runs):
        host, result = golden_runs[name]
        assert result.best, f"{name}: SUBDUE reported nothing"
        for substructure in result.best:
            instances = substructure.instances
            # The representative is checked with the legacy matcher, which
            # shares no code with the engine grouping used.
            first = instance_pattern(host, instances[0])
            assert legacy_are_isomorphic(first, substructure.pattern)
            reference = positional_pattern(host, instances[0])
            for instance in instances:
                assert_real_embedding(host, instance)
                # Equal positional patterns make the aligned order itself
                # an isomorphism onto the representative instance.
                assert positional_pattern(host, instance) == reference

            chosen = substructure.non_overlapping()
            assert len(chosen) == substructure.n_non_overlapping >= 2
            covered = [v for instance in chosen for v in instance.vertices]
            assert len(covered) == len(set(covered)), "counted instances overlap"

            assert substructure.value == oracle_mdl(host, substructure)


# ----------------------------------------------------------------------
# Counts-based statistics equal the materialized rewrite's
# ----------------------------------------------------------------------
@st.composite
def hosts_with_disjoint_instances(draw):
    """A random host (self-loops allowed) and vertex-disjoint instances in it."""
    n_vertices = draw(st.integers(min_value=1, max_value=9))
    names = [f"v{index}" for index in range(n_vertices)]
    if draw(st.booleans()):
        # A host vertex named like the rewrite's first replacement vertex.
        names[0] = "SUB_0"
    host = LabeledGraph(name="random")
    for name in names:
        host.add_vertex(name, draw(st.sampled_from(["a", "b"])))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_vertices - 1),
                st.integers(0, n_vertices - 1),
                st.integers(0, 2),
            ),
            max_size=24,
        )
    )
    for source, target, label in edges:
        host.add_edge(names[source], names[target], label)
    owners = draw(st.lists(st.integers(-1, 3), min_size=n_vertices, max_size=n_vertices))
    groups: dict[int, list[str]] = {}
    for name, owner in zip(names, owners):
        if owner >= 0:
            groups.setdefault(owner, []).append(name)
    instances = []
    for _, members in sorted(groups.items()):
        inside = [
            edge for edge in host.edges() if edge.source in members and edge.target in members
        ]
        chosen = draw(st.lists(st.sampled_from(inside), unique=True)) if inside else []
        instances.append(Instance(vertices=frozenset(members), edges=frozenset(chosen)))
    return host, instances


def _substructure_of(host: LabeledGraph, instances: list[Instance]) -> Substructure:
    pattern = instance_pattern(host, instances[0]) if instances else LabeledGraph()
    return Substructure(pattern=pattern, instances=instances)


class TestCountsEqualMaterialized:
    @settings(max_examples=300, deadline=None)
    @given(hosts_with_disjoint_instances())
    def test_stats_mdl_and_size_match_the_rewrite(self, case):
        host, instances = case
        substructure = _substructure_of(host, instances)
        assert len(substructure.non_overlapping()) == len(instances)
        _, expected = materialized_stats(host, substructure.non_overlapping())
        assert _compression_stats(host, substructure) == expected
        assert mdl_value(host, substructure) == oracle_mdl(host, substructure)
        assert mdl_value(host, substructure, engine=MatchEngine()) == oracle_mdl(host, substructure)
        assert size_value(host, substructure) == oracle_size(host, substructure)

    def test_merged_backward_and_cross_instance_edges(self):
        # Two instances {a,b} and {c,d}; x is outside.  a->x and b->x merge
        # into one compressed edge, x->c enters an instance, b->c and d->a
        # join the two instances in both directions, b->a is a backward
        # edge inside an instance that the pattern does not cover, and the
        # self-loop x->x touches no instance.
        host = LabeledGraph(name="mixed")
        for vertex in "abcdx":
            host.add_vertex(vertex, "p")
        for source, target, label in [
            ("a", "b", 1), ("c", "d", 1), ("b", "a", 2), ("a", "x", 3),
            ("b", "x", 3), ("x", "c", 3), ("b", "c", 4), ("d", "a", 4), ("x", "x", 5),
        ]:
            host.add_edge(source, target, label)
        instances = [
            Instance.from_vertex("a").extended_with(next(e for e in host.incident_edges("a") if e.target == "b")),
            Instance.from_vertex("c").extended_with(next(e for e in host.incident_edges("c") if e.target == "d")),
        ]
        substructure = _substructure_of(host, instances)
        stats = _compression_stats(host, substructure)
        compressed, expected = materialized_stats(host, substructure.non_overlapping())
        assert stats == expected
        assert compressed.has_edge("x", "x")
        # R0->x, x->R1, R0->R1, R1->R0 and x->x; b->a and the second of
        # a->x/b->x are merged away.
        assert stats["compressed_edges"] == 5
        assert stats["merged_edges"] == 2
        assert mdl_value(host, substructure) == oracle_mdl(host, substructure)
        assert size_value(host, substructure) == oracle_size(host, substructure)


# ----------------------------------------------------------------------
# Grouping by construction == classifying every instance
# ----------------------------------------------------------------------
def _unaligned(substructure: Substructure) -> Substructure:
    """The same substructure with no alignment: children classify one by one."""
    return Substructure(pattern=substructure.pattern, instances=substructure.instances)


def _pattern_form(pattern: LabeledGraph) -> tuple:
    return (
        sorted((str(v), str(pattern.vertex_label(v))) for v in pattern.vertices()),
        sorted((str(e.source), str(e.target), str(e.label)) for e in pattern.edges()),
    )


def assert_same_grouping(host, keyed_parents, plain_parents, engine, depth: int) -> int:
    """Expand both sides *depth* levels; return the number of classes compared."""
    compared = 0
    for keyed_parent, plain_parent in zip(keyed_parents, plain_parents):
        keyed = expand_substructure(host, keyed_parent, engine=engine)
        plain = expand_substructure(host, plain_parent, engine=engine)
        assert len(keyed) == len(plain)
        for by_key, by_test in zip(keyed, plain):
            assert by_key.instances == by_test.instances
            assert _pattern_form(by_key.pattern) == _pattern_form(by_test.pattern)
            assert by_key.invariant() == by_test.invariant()
            assert by_key.alignment is not None and by_test.alignment is None
            reference = positional_pattern(host, by_key.instances[0])
            for instance in by_key.instances:
                assert positional_pattern(host, instance) == reference
        compared += len(keyed)
        if depth > 1:
            compared += assert_same_grouping(host, keyed, plain, engine, depth - 1)
    return compared


def _symmetric_hosts() -> dict[str, LabeledGraph]:
    hosts: dict[str, LabeledGraph] = {}
    star = LabeledGraph(name="stars")
    for copy in range(2):
        for spoke in range(5):
            star.add_edge(f"h{copy}", f"s{copy}_{spoke}", spoke % 2)
    hosts["stars"] = star
    cycle = LabeledGraph(name="cycle")
    for index in range(6):
        cycle.add_edge(f"c{index}", f"c{(index + 1) % 6}", 0)
    hosts["cycle"] = cycle
    both_ways = LabeledGraph(name="two-way-cycle")
    for index in range(5):
        both_ways.add_edge(f"c{index}", f"c{(index + 1) % 5}", 0)
        both_ways.add_edge(f"c{(index + 1) % 5}", f"c{index}", 1)
    hosts["two-way-cycle"] = both_ways
    clique = LabeledGraph(name="near-clique")
    for source in range(5):
        for target in range(5):
            if source != target and (source, target) != (0, 1):
                clique.add_edge(f"k{source}", f"k{target}", 0)
    hosts["near-clique"] = clique
    for graph in hosts.values():
        for vertex in graph.vertices():
            graph.add_vertex(vertex, "place")
    return hosts


@st.composite
def small_hosts(draw):
    n_vertices = draw(st.integers(min_value=2, max_value=7))
    host = LabeledGraph(name="random")
    for index in range(n_vertices):
        host.add_vertex(f"v{index}", draw(st.sampled_from(["a", "a", "b"])))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_vertices - 1),
                st.integers(0, n_vertices - 1),
                st.integers(0, 1),
            ),
            max_size=12,
        )
    )
    for source, target, label in edges:
        host.add_edge(f"v{source}", f"v{target}", label)
    return host


class TestGroupingByConstruction:
    @pytest.mark.parametrize("name", sorted(_symmetric_hosts()))
    def test_symmetric_shapes_match_per_instance_grouping(self, name):
        host = _symmetric_hosts()[name]
        engine = MatchEngine()
        seeds = initial_substructures(host, engine=engine)
        compared = assert_same_grouping(
            host, seeds, [_unaligned(seed) for seed in seeds], engine, depth=3
        )
        assert compared > 0

    def test_different_descriptors_share_a_class(self):
        # In a directed cycle every seed vertex extends forward ("f") and
        # backward ("r"): two keys, one single-edge class.  The second key
        # joins through one isomorphism test and is re-ordered so that
        # every instance's edge runs position 0 -> position 1.
        host = _symmetric_hosts()["cycle"]
        engine = MatchEngine()
        (seed,) = initial_substructures(host, engine=engine)
        with activate(Tracer()) as tracer:
            (one_edge,) = expand_substructure(host, seed, engine=engine)
        assert tracer.metrics.counter_total("subdue.instances") == 6
        assert tracer.metrics.counter_total("subdue.keys") == 2
        assert tracer.metrics.counter_total("subdue.isomorphism_tests") == 1
        directions = {
            (edge.source, edge.target) == instance.order
            for instance in one_edge.instances
            for edge in instance.edges
        }
        assert directions == {True}
        (paths,) = expand_substructure(host, one_edge, engine=engine)
        assert paths.n_instances == 6

    @settings(max_examples=120, deadline=None)
    @given(small_hosts())
    def test_random_hosts_match_per_instance_grouping(self, host):
        engine = MatchEngine()
        seeds = initial_substructures(host, engine=engine)
        assert_same_grouping(host, seeds, [_unaligned(seed) for seed in seeds], engine, depth=3)


# ----------------------------------------------------------------------
# Hash-seed independence in fresh interpreters
# ----------------------------------------------------------------------
_SUBDUE_SCRIPT = """\
import json
from repro.graphs.engine import MatchEngine
from repro.mining.subdue.miner import SubdueMiner
from repro.scenarios import get_scenario
from repro.scenarios.harness import _subdue_payload

scenario = get_scenario("stress-nearclique")
params = scenario.params
engine = MatchEngine()
result = SubdueMiner(
    beam_width=params.subdue_beam,
    max_best=params.subdue_max_best,
    max_substructure_edges=params.subdue_max_edges,
    limit=params.subdue_limit,
    engine=engine,
).mine(scenario.build().host)
print(json.dumps({
    "payload": _subdue_payload(engine, result),
    "evaluated": result.evaluated,
    "instances": [
        [sorted(map(str, instance.vertices)) for instance in substructure.instances]
        for substructure in result.best
    ],
}))
"""


def test_golden_subdue_result_is_hash_seed_independent():
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        completed = subprocess.run(
            [sys.executable, "-c", _SUBDUE_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            cwd=str(REPO_ROOT),
        )
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0]["payload"]
