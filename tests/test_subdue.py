"""Tests for the SUBDUE-style substructure discovery system."""

from __future__ import annotations

import pytest

from repro.graphs.labeled_graph import Edge, LabeledGraph
from repro.graphs.motifs import chain, hub_and_spoke
from repro.mining.subdue.compression import compress_graph, compress_instances, compression_ratio
from repro.mining.subdue.evaluation import (
    EvaluationPrinciple,
    evaluate,
    mdl_value,
    set_cover_value,
    size_value,
)
from repro.mining.subdue.expansion import expand_instance, expand_substructure, initial_substructures
from repro.mining.subdue.mdl import description_length, graph_size
from repro.mining.subdue.miner import SubdueMiner
from repro.mining.subdue.substructure import (
    Instance,
    Substructure,
    group_instances_by_pattern,
    instance_pattern,
    select_non_overlapping,
)


def _repeated_star_graph(copies: int = 4, spokes: int = 3) -> LabeledGraph:
    """A host graph containing several disjoint copies of the same star, connected by bridges."""
    host = LabeledGraph(name="repeated-stars")
    previous_hub = None
    for copy in range(copies):
        hub = f"hub{copy}"
        host.add_vertex(hub, "place")
        for spoke in range(spokes):
            leaf = f"leaf{copy}_{spoke}"
            host.add_vertex(leaf, "place")
            host.add_edge(hub, leaf, 1)
        if previous_hub is not None:
            host.add_edge(previous_hub, hub, 9)
        previous_hub = hub
    return host


class TestSubstructure:
    def test_instance_from_vertex(self):
        instance = Instance.from_vertex("a")
        assert instance.vertices == frozenset({"a"})
        assert instance.n_edges == 0

    def test_instance_extension_and_overlap(self, triangle_graph):
        edge = next(iter(triangle_graph.edges()))
        instance = Instance.from_vertex(edge.source).extended_with(edge)
        assert instance.n_edges == 1
        assert instance.overlaps(Instance.from_vertex(edge.target))

    def test_instance_pattern_preserves_labels(self, triangle_graph):
        edges = list(triangle_graph.edges())
        instance = Instance(
            vertices=frozenset({edges[0].source, edges[0].target}), edges=frozenset({edges[0]})
        )
        pattern = instance_pattern(triangle_graph, instance)
        assert pattern.n_edges == 1
        assert pattern.vertex_label(edges[0].source) == "place"

    def test_select_non_overlapping(self):
        host = _repeated_star_graph(copies=2)
        instances = [
            Instance(vertices=frozenset({"hub0", "leaf0_0"}), edges=frozenset()),
            Instance(vertices=frozenset({"hub0", "leaf0_1"}), edges=frozenset()),
            Instance(vertices=frozenset({"hub1", "leaf1_0"}), edges=frozenset()),
        ]
        disjoint = select_non_overlapping(instances)
        assert len(disjoint) == 2

    def test_group_instances_by_pattern(self):
        host = _repeated_star_graph(copies=2, spokes=2)
        all_edges = list(host.edges())
        instances = [
            Instance(vertices=frozenset({e.source, e.target}), edges=frozenset({e}))
            for e in all_edges
        ]
        groups = group_instances_by_pattern(host, instances)
        # Two pattern classes: the star edge (label 1) and the bridge edge (label 9).
        assert len(groups) == 2
        assert {g.n_instances for g in groups} == {4, 1}


class TestExpansion:
    def test_initial_substructures_one_per_label(self):
        host = _repeated_star_graph()
        seeds = initial_substructures(host)
        assert len(seeds) == 1
        assert seeds[0].n_instances == host.n_vertices

    def test_initial_substructures_multiple_labels(self, triangle_graph):
        relabeled = triangle_graph.relabel_vertices({"a": "depot"})
        seeds = initial_substructures(relabeled)
        assert len(seeds) == 2

    def test_expand_instance_adds_one_edge(self):
        host = _repeated_star_graph()
        instance = Instance.from_vertex("hub0")
        extensions = expand_instance(host, instance)
        assert all(ext.n_edges == 1 for ext in extensions)
        assert len(extensions) == 4  # 3 spokes + 1 bridge to hub1

    def test_expand_substructure_groups_by_pattern(self):
        host = _repeated_star_graph()
        seeds = initial_substructures(host)
        level1 = expand_substructure(host, seeds[0])
        labels = sorted(
            next(iter(sub.pattern.edges())).label for sub in level1
        )
        assert labels == [1, 9]


class TestMdlAndSize:
    def test_description_length_grows_with_graph(self):
        assert description_length(hub_and_spoke(5)) > description_length(hub_and_spoke(2))

    def test_description_length_empty_graph(self):
        assert description_length(LabeledGraph()) == 0.0

    def test_graph_size(self):
        assert graph_size(chain(3)) == 4 + 3

    def test_compression_with_frequent_substructure_beats_rare_one(self):
        host = _repeated_star_graph(copies=4, spokes=3)
        star = hub_and_spoke(3, edge_labels=[1, 1, 1])
        frequent_instances = []
        for copy in range(4):
            vertices = {f"hub{copy}"} | {f"leaf{copy}_{s}" for s in range(3)}
            edges = {e for e in host.edges() if e.source == f"hub{copy}" and e.label == 1}
            frequent_instances.append(Instance(vertices=frozenset(vertices), edges=frozenset(edges)))
        frequent = Substructure(pattern=star, instances=frequent_instances)
        rare = Substructure(pattern=star, instances=frequent_instances[:1])
        assert mdl_value(host, frequent) > mdl_value(host, rare)
        assert size_value(host, frequent) > size_value(host, rare)

    def test_set_cover_value(self):
        star = Substructure(pattern=hub_and_spoke(2, edge_labels=[1, 1]), instances=[])
        positives = [hub_and_spoke(3, edge_labels=[1, 1, 1])]
        negatives = [chain(2, edge_labels=[2, 2])]
        assert set_cover_value(star, positives, negatives) == pytest.approx(1.0)

    def test_set_cover_requires_examples(self):
        star = Substructure(pattern=hub_and_spoke(2), instances=[])
        with pytest.raises(ValueError):
            set_cover_value(star, [], [])

    def test_evaluate_dispatch(self):
        host = _repeated_star_graph()
        seeds = initial_substructures(host)
        substructure = expand_substructure(host, seeds[0])[0]
        for principle in (EvaluationPrinciple.MDL, EvaluationPrinciple.SIZE):
            assert evaluate(host, substructure, principle) > 0


class TestCompression:
    def test_compress_replaces_instances(self):
        host = _repeated_star_graph(copies=3, spokes=2)
        star = hub_and_spoke(2, edge_labels=[1, 1])
        instances = []
        for copy in range(3):
            vertices = {f"hub{copy}", f"leaf{copy}_0", f"leaf{copy}_1"}
            edges = {e for e in host.edges() if e.source == f"hub{copy}" and e.label == 1}
            instances.append(Instance(vertices=frozenset(vertices), edges=frozenset(edges)))
        substructure = Substructure(pattern=star, instances=instances)
        compressed = compress_graph(host, substructure)
        # Each 3-vertex instance becomes one SUB vertex; bridges survive.
        assert compressed.n_vertices == 3
        assert compressed.n_edges == 2
        assert all(compressed.vertex_label(v) == "SUB" for v in compressed.vertices())

    def test_host_vertex_named_like_a_replacement_stays_separate(self):
        # A host vertex called SUB_0 — what compressing twice with the
        # default label produces — must not merge into replacement 0, and
        # its edges must not count as boundary edges.
        host = LabeledGraph(name="named")
        for vertex in ["a", "b", "c", "d", "SUB_0"]:
            host.add_vertex(vertex, "place")
        for source, target, label in [
            ("a", "b", 1), ("c", "d", 1), ("b", "SUB_0", 2), ("SUB_0", "c", 2), ("a", "c", 3),
        ]:
            host.add_edge(source, target, label)
        first = Instance.from_vertex("a").extended_with(Edge("a", "b", 1))
        second = Instance.from_vertex("c").extended_with(Edge("c", "d", 1))
        substructure = Substructure(pattern=instance_pattern(host, first), instances=[first, second])

        compressed = compress_graph(host, substructure)
        assert compressed.n_vertices == 3 and compressed.n_edges == 3
        assert compressed.vertex_label("SUB_0") == "place"
        replacements = set(compressed.vertices()) - {"SUB_0"}
        assert {compressed.vertex_label(v) for v in replacements} == {"SUB"}
        # Host vertex -> replacement 1, replacement 0 -> host vertex, and
        # replacement 0 -> replacement 1.
        assert compressed.has_edge("SUB_0", "SUB_1")
        # Before the fix the rewrite read 2 vertices / 1 edge and MDL 1.105.
        assert mdl_value(host, substructure) == pytest.approx(0.9310135026288094, abs=1e-12)
        assert SubdueMiner().mine(compressed).best == []

    def test_compress_instances_rejects_overlap(self, star_graph):
        overlapping = [
            Instance(vertices=frozenset({"hub", "s0"}), edges=frozenset()),
            Instance(vertices=frozenset({"hub", "s1"}), edges=frozenset()),
        ]
        with pytest.raises(ValueError):
            compress_instances(star_graph, overlapping)

    def test_compression_ratio(self):
        host = _repeated_star_graph(copies=2, spokes=2)
        ratio = compression_ratio(host, chain(1))
        assert ratio > 1.0


class TestSubdueMiner:
    def test_finds_repeated_star(self):
        host = _repeated_star_graph(copies=4, spokes=3)
        miner = SubdueMiner(beam_width=4, max_best=3, max_substructure_edges=3, principle=EvaluationPrinciple.SIZE)
        result = miner.mine(host)
        assert len(result.best) >= 1
        top = result.top()
        assert top.n_non_overlapping >= 2
        assert top.value > 0

    def test_mdl_and_size_both_run(self):
        host = _repeated_star_graph(copies=3, spokes=2)
        for principle in (EvaluationPrinciple.MDL, EvaluationPrinciple.SIZE):
            result = SubdueMiner(principle=principle, max_substructure_edges=2, limit=100).mine(host)
            assert result.evaluated > 0
            assert result.elapsed_seconds >= 0

    def test_limit_bounds_evaluations(self):
        host = _repeated_star_graph(copies=4, spokes=4)
        result = SubdueMiner(limit=5, max_substructure_edges=4).mine(host)
        assert result.evaluated <= 5

    def test_min_instances_filters_singletons(self):
        host = chain(5, edge_labels=[1, 2, 3, 4, 5])
        result = SubdueMiner(min_instances=2, max_substructure_edges=2).mine(host)
        assert all(sub.n_non_overlapping >= 2 for sub in result.best)

    def test_hierarchical_mining_compresses(self):
        host = _repeated_star_graph(copies=4, spokes=3)
        miner = SubdueMiner(beam_width=4, max_best=2, max_substructure_edges=3, principle=EvaluationPrinciple.SIZE)
        passes = miner.mine_hierarchical(host, passes=2)
        assert 1 <= len(passes) <= 2

    def test_hierarchical_requires_positive_passes(self):
        with pytest.raises(ValueError):
            SubdueMiner().mine_hierarchical(LabeledGraph(), passes=0)

    def test_empty_graph(self):
        result = SubdueMiner().mine(LabeledGraph())
        assert result.best == []
