"""Tests for the labeled directed graph data structures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.labeled_graph import Edge, LabeledGraph, LabeledMultiGraph


class TestLabeledGraphConstruction:
    def test_add_vertex_and_label(self):
        graph = LabeledGraph()
        graph.add_vertex("a", "city")
        assert graph.has_vertex("a")
        assert graph.vertex_label("a") == "city"

    def test_add_edge_creates_missing_endpoints(self):
        graph = LabeledGraph()
        graph.add_edge("a", "b", 7)
        assert graph.has_vertex("a") and graph.has_vertex("b")
        assert graph.edge_label("a", "b") == 7

    def test_readding_edge_overwrites_label(self):
        graph = LabeledGraph()
        graph.add_edge("a", "b", 1)
        graph.add_edge("a", "b", 2)
        assert graph.n_edges == 1
        assert graph.edge_label("a", "b") == 2

    def test_edges_are_directed(self, triangle_graph):
        assert triangle_graph.has_edge("a", "b")
        assert not triangle_graph.has_edge("b", "a")

    def test_counts(self, triangle_graph):
        assert triangle_graph.n_vertices == 3
        assert triangle_graph.n_edges == 3
        assert len(triangle_graph) == 3

    def test_remove_edge(self, triangle_graph):
        triangle_graph.remove_edge("a", "b")
        assert not triangle_graph.has_edge("a", "b")
        assert triangle_graph.n_edges == 2

    def test_remove_missing_edge_raises(self, triangle_graph):
        with pytest.raises(KeyError):
            triangle_graph.remove_edge("b", "a")

    def test_remove_vertex_removes_incident_edges(self, triangle_graph):
        triangle_graph.remove_vertex("b")
        assert triangle_graph.n_vertices == 2
        assert triangle_graph.n_edges == 1
        assert triangle_graph.has_edge("c", "a")


class TestLabeledGraphQueries:
    def test_degrees(self, star_graph):
        assert star_graph.out_degree("hub") == 4
        assert star_graph.in_degree("hub") == 0
        assert star_graph.degree("hub") == 4
        assert star_graph.in_degree("s0") == 1

    def test_successors_predecessors_neighbours(self, triangle_graph):
        assert list(triangle_graph.successors("a")) == ["b"]
        assert list(triangle_graph.predecessors("a")) == ["c"]
        assert triangle_graph.neighbours("a") == {"b", "c"}

    def test_incident_edges(self, triangle_graph):
        incident = triangle_graph.incident_edges("a")
        assert Edge("a", "b", 1) in incident
        assert Edge("c", "a", 3) in incident
        assert len(incident) == 2

    def test_label_histograms(self, star_graph):
        assert star_graph.vertex_label_counts() == {"place": 5}
        assert star_graph.edge_label_counts() == {0: 4}

    def test_contains(self, triangle_graph):
        assert "a" in triangle_graph
        assert "z" not in triangle_graph


class TestLabeledGraphDerivation:
    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.remove_edge("a", "b")
        assert triangle_graph.has_edge("a", "b")
        assert not clone.has_edge("a", "b")

    def test_subgraph_keeps_internal_edges_only(self, triangle_graph):
        sub = triangle_graph.subgraph(["a", "b"])
        assert sub.n_vertices == 2
        assert sub.n_edges == 1
        assert sub.has_edge("a", "b")

    def test_edge_subgraph(self, triangle_graph):
        sub = triangle_graph.edge_subgraph([Edge("a", "b", 1)])
        assert sub.n_vertices == 2 and sub.n_edges == 1

    def test_relabel_vertices(self, triangle_graph):
        relabeled = triangle_graph.relabel_vertices({"a": "origin"})
        assert relabeled.vertex_label("a") == "origin"
        assert relabeled.vertex_label("b") == "place"
        assert triangle_graph.vertex_label("a") == "place"

    def test_with_uniform_vertex_labels(self, triangle_graph):
        uniform = triangle_graph.with_uniform_vertex_labels("x")
        assert set(uniform.vertex_label_counts()) == {"x"}

    def test_networkx_round_trip(self, triangle_graph):
        nx_graph = triangle_graph.to_networkx()
        back = LabeledGraph.from_networkx(nx_graph)
        assert back.n_vertices == 3 and back.n_edges == 3
        assert back.edge_label("b", "c") == 2


_VERTICES = st.sampled_from(["a", "b", "c", "d"])
_OPERATIONS = st.lists(
    st.one_of(
        # add_edge on a fresh pair, or an overwrite of an existing one
        # (self-loops included).
        st.tuples(st.just("add"), _VERTICES, _VERTICES, st.integers(0, 2)),
        st.tuples(st.just("remove"), _VERTICES, _VERTICES),
        st.tuples(st.just("remove_vertex"), _VERTICES),
        st.tuples(st.just("copy")),
        st.tuples(st.just("subgraph"), st.frozensets(_VERTICES)),
        st.tuples(st.just("edge_subgraph"), st.integers(0, 3)),
    ),
    max_size=30,
)


class TestEdgeCounter:
    """``n_edges`` is a kept counter; it must track the adjacency exactly."""

    @settings(max_examples=150, deadline=None)
    @given(_OPERATIONS)
    def test_n_edges_matches_edge_iteration(self, operations):
        graph = LabeledGraph()
        for operation in operations:
            kind = operation[0]
            if kind == "add":
                graph.add_edge(operation[1], operation[2], operation[3])
            elif kind == "remove":
                if graph.has_edge(operation[1], operation[2]):
                    graph.remove_edge(operation[1], operation[2])
            elif kind == "remove_vertex":
                graph.remove_vertex(operation[1])
            elif kind == "copy":
                graph = graph.copy()
            elif kind == "subgraph":
                graph = graph.subgraph(operation[1])
            else:
                graph = graph.edge_subgraph(list(graph.edges())[operation[1] :])
            assert graph.n_edges == len(list(graph.edges()))


class TestLabeledMultiGraph:
    def test_parallel_edges_counted(self):
        multi = LabeledMultiGraph()
        multi.add_edge("a", "b", 1)
        multi.add_edge("a", "b", 2)
        assert multi.n_edges == 2
        assert multi.n_simple_edges == 1
        assert multi.parallel_labels("a", "b") == [1, 2]

    def test_simplify_keeps_most_common_label(self):
        multi = LabeledMultiGraph()
        for label in (1, 2, 2):
            multi.add_edge("a", "b", label)
        simple = multi.simplify()
        assert simple.n_edges == 1
        assert simple.edge_label("a", "b") == 2

    def test_simplify_first_label_choice(self):
        multi = LabeledMultiGraph()
        for label in (3, 1, 1):
            multi.add_edge("a", "b", label)
        assert multi.simplify(label_choice="first").edge_label("a", "b") == 3

    def test_simplify_invalid_choice(self):
        with pytest.raises(ValueError):
            LabeledMultiGraph().simplify(label_choice="random")

    def test_degrees_count_distinct_lanes(self):
        multi = LabeledMultiGraph()
        multi.add_edge("a", "b", 1)
        multi.add_edge("a", "b", 2)
        multi.add_edge("a", "c", 1)
        assert multi.out_degree("a") == 2
        assert multi.in_degree("b") == 1
