"""Tests for the incremental embedding store and bitset TID algebra.

The store answers level-(k+1) support queries by extending stored
level-k embeddings; everything here verifies the one property that
matters — anchors change wall-clock, never verdicts — plus the cap /
budget / lifecycle plumbing that keeps the store bounded.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs.engine import EmbeddingTask, MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.miner import FSGMiner
from repro.runtime import LevelRequest, SerialRuntime, ShardedEngine
from repro.runtime.bitsets import (
    bits_of,
    is_contiguous,
    popcount,
    shift_bits,
    tids_of,
    translate_bits,
)


def _random_corpus(seed: int, n: int = 40) -> list[LabeledGraph]:
    rng = random.Random(seed)
    vertex_labels = ["a", "b", "c"]
    edge_labels = ["x", "y"]
    corpus: list[LabeledGraph] = []
    for index in range(n):
        graph = LabeledGraph(name=f"t{index}")
        n_vertices = rng.randint(5, 9)
        for vertex in range(n_vertices):
            graph.add_vertex(f"v{vertex}", rng.choice(vertex_labels))
        n_edges = rng.randint(n_vertices, n_vertices + 5)
        added = 0
        while added < n_edges:
            source, target = rng.sample(range(n_vertices), 2)
            if graph.has_edge(f"v{source}", f"v{target}"):
                continue
            graph.add_edge(f"v{source}", f"v{target}", rng.choice(edge_labels))
            added += 1
        corpus.append(graph)
    return corpus


def _signature(result):
    return sorted(
        (
            entry.pattern.n_vertices,
            entry.pattern.n_edges,
            tuple(sorted(entry.supporting_transactions)),
        )
        for entry in result.patterns
    )


def _edge_pattern() -> LabeledGraph:
    pattern = LabeledGraph(name="parent")
    pattern.add_vertex("p0", "a")
    pattern.add_vertex("p1", "b")
    pattern.add_edge("p0", "p1", "x")
    return pattern


def _extended_pattern() -> LabeledGraph:
    """The parent plus one forward edge ``p1 -y-> p2(c)``."""
    pattern = _edge_pattern()
    pattern.add_vertex("p2", "c")
    pattern.add_edge("p1", "p2", "y")
    return pattern


class TestBitsets:
    def test_round_trip_and_popcount(self):
        tids = [0, 3, 17, 64, 130]
        bits = bits_of(tids)
        assert tids_of(bits) == tids
        assert popcount(bits) == len(tids)
        assert bits_of([]) == 0 and tids_of(0) == []

    def test_set_algebra_matches_frozensets(self):
        first, second = {1, 4, 9, 70}, {4, 9, 12}
        assert tids_of(bits_of(first) & bits_of(second)) == sorted(first & second)
        assert tids_of(bits_of(first) | bits_of(second)) == sorted(first | second)

    def test_shift_and_translate(self):
        bits = bits_of([2, 5])
        assert tids_of(shift_bits(bits, 10)) == [12, 15]
        assert tids_of(shift_bits(shift_bits(bits, 10), -10)) == [2, 5]
        assert tids_of(translate_bits(bits, {2: 40, 5: 3})) == [3, 40]
        assert is_contiguous([7, 8, 9]) and not is_contiguous([7, 9])
        assert is_contiguous([])


class TestMiningEquivalence:
    @pytest.mark.parametrize("seed", [11, 29])
    def test_store_on_equals_store_off_serial(self, seed):
        corpus = _random_corpus(seed)
        on = FSGMiner(min_support=0.15, max_edges=4, use_embedding_store=True).mine(corpus)
        off = FSGMiner(min_support=0.15, max_edges=4, use_embedding_store=False).mine(corpus)
        assert _signature(on) == _signature(off)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_store_on_equals_store_off_sharded(self, shards):
        corpus = _random_corpus(5)
        reference = FSGMiner(
            min_support=0.15, max_edges=4, use_embedding_store=False
        ).mine(corpus)
        runtime = ShardedEngine(shards=shards, backend="serial")
        try:
            sharded = FSGMiner(min_support=0.15, max_edges=4, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        assert _signature(sharded) == _signature(reference)

    def test_tiny_caps_force_fallback_but_not_divergence(self):
        # anchor_cap=1 overflows every multi-embedding anchor set and
        # anchor_budget=3 spills almost everything; support must not care.
        corpus = _random_corpus(17)
        engine = MatchEngine(anchor_cap=1, anchor_budget=3)
        runtime = SerialRuntime(engine=engine)
        capped = FSGMiner(min_support=0.15, max_edges=3, engine=engine, runtime=runtime).mine(corpus)
        reference = FSGMiner(min_support=0.15, max_edges=3, use_embedding_store=False).mine(corpus)
        assert _signature(capped) == _signature(reference)
        assert engine.stats.anchor_fallbacks > 0

    def test_anchors_are_retired_after_the_run(self):
        engine = MatchEngine()
        runtime = SerialRuntime(engine=engine)
        FSGMiner(min_support=0.2, max_edges=3, engine=engine, runtime=runtime).mine(
            _random_corpus(23)
        )
        assert engine.anchor_load == 0


class TestExtensionPaths:
    def _host(self) -> LabeledGraph:
        """Two disjoint a-x->b edges; only the second continues b-y->c."""
        host = LabeledGraph(name="host")
        for name, label in [
            ("u0", "a"), ("u1", "b"), ("u2", "a"), ("u3", "b"), ("u4", "c"),
        ]:
            host.add_vertex(name, label)
        host.add_edge("u0", "u1", "x")
        host.add_edge("u2", "u3", "x")
        host.add_edge("u3", "u4", "y")
        return host

    def test_capped_anchor_miss_falls_back_to_full_search(self):
        # With anchor_cap=1 only the first a-x->b embedding (u0, u1) is
        # stored, and it does not extend by y; the incomplete anchor set
        # must trigger the fallback, which finds the (u2, u3, u4) match.
        engine = MatchEngine(anchor_cap=1)
        (tid,) = engine.add_transactions([self._host()])
        parent, child = _edge_pattern(), _extended_pattern()
        assert engine.support_with_embeddings(
            [EmbeddingTask(pattern=parent, tids=[tid], uid="parent")]
        ) == [[tid]]
        before = engine.stats.anchor_fallbacks
        result = engine.support_with_embeddings(
            [
                EmbeddingTask(
                    pattern=child,
                    tids=[tid],
                    uid="child",
                    parent_uid="parent",
                    extension=(1, 2, True),
                )
            ]
        )
        assert result == [[tid]]
        assert engine.stats.anchor_fallbacks > before
        assert engine.support(child, [tid]) == frozenset({tid})

    def test_complete_anchor_miss_is_a_definitive_no(self):
        # With a roomy cap the parent's anchor set is complete, so a
        # child that extends nowhere is rejected without any search.
        host = self._host()
        host.remove_edge("u3", "u4")
        engine = MatchEngine(anchor_cap=8)
        (tid,) = engine.add_transactions([host])
        parent, child = _edge_pattern(), _extended_pattern()
        engine.support_with_embeddings(
            [EmbeddingTask(pattern=parent, tids=[tid], uid="parent")]
        )
        before = engine.stats.anchor_fallbacks
        result = engine.support_with_embeddings(
            [
                EmbeddingTask(
                    pattern=child,
                    tids=[tid],
                    uid="child",
                    parent_uid="parent",
                    extension=(1, 2, True),
                )
            ]
        )
        assert result == [[]]
        assert engine.stats.anchor_fallbacks == before
        assert engine.stats.anchor_complete_rejects > 0

    def test_early_abort_returns_partial_below_threshold(self):
        corpus = [self._host() for _ in range(6)]
        engine = MatchEngine()
        tids = engine.add_transactions(corpus)
        impossible = LabeledGraph(name="absent")
        impossible.add_vertex("q0", "c")
        impossible.add_vertex("q1", "a")
        impossible.add_edge("q0", "q1", "x")
        (hits,) = engine.support_with_embeddings(
            [EmbeddingTask(pattern=impossible, tids=tids, abort_below=4)]
        )
        assert len(hits) < 4
        assert engine.stats.support_aborts >= 1

    def test_mutated_transaction_invalidates_anchors(self):
        # Regression: anchors must honour the same version discipline as
        # the verdict LRU.  Seed complete parent anchors, then mutate the
        # registered transaction so a *new* parent embedding (absent from
        # the stale anchors) is the only one that extends; a stale
        # complete-set reject here would be a wrong definitive "no" — and
        # would poison the verdict cache for plain support() too.
        host = LabeledGraph(name="mutating")
        host.add_vertex("a", "a")
        host.add_vertex("b", "b")
        host.add_edge("a", "b", "x")
        engine = MatchEngine()
        (tid,) = engine.add_transactions([host])
        parent, child = _edge_pattern(), _extended_pattern()
        engine.support_with_embeddings(
            [EmbeddingTask(pattern=parent, tids=[tid], uid="parent")]
        )
        host.add_vertex("a2", "a")
        host.add_vertex("b2", "b")
        host.add_vertex("c", "c")
        host.add_edge("a2", "b2", "x")
        host.add_edge("b2", "c", "y")
        result = engine.support_with_embeddings(
            [
                EmbeddingTask(
                    pattern=child,
                    tids=[tid],
                    uid="child",
                    parent_uid="parent",
                    extension=(1, 2, True),
                )
            ]
        )
        assert result == [[tid]]
        assert engine.support(child, [tid]) == frozenset({tid})

    def test_release_transactions_evicts_anchors(self):
        engine = MatchEngine()
        (tid,) = engine.add_transactions([self._host()])
        engine.support_with_embeddings(
            [EmbeddingTask(pattern=_edge_pattern(), tids=[tid], uid="parent")]
        )
        assert engine.anchor_load > 0
        engine.release_transactions([tid])
        assert engine.anchor_load == 0

    def test_drop_anchors_frees_budget(self):
        engine = MatchEngine()
        (tid,) = engine.add_transactions([self._host()])
        engine.support_with_embeddings(
            [EmbeddingTask(pattern=_edge_pattern(), tids=[tid], uid="parent")]
        )
        load = engine.anchor_load
        assert load > 0
        engine.drop_anchors(["parent", "never-stored"])
        assert engine.anchor_load == 0


class TestRuntimeLevelAPI:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_level_bitsets_match_serial(self, shards):
        corpus = _random_corpus(31, n=24)
        parent, child = _edge_pattern(), _extended_pattern()

        def level_bits(runtime):
            tids = runtime.add_transactions(corpus)
            bits = bits_of(tids)
            session = runtime.open_session()
            try:
                (parent_bits,) = session.support_level(
                    [LevelRequest(pattern=parent, tid_bits=bits, uid=("r", 0))]
                )
                (child_bits,) = session.support_level(
                    [
                        LevelRequest(
                            pattern=child,
                            tid_bits=parent_bits,
                            uid=("r", 1),
                            parent_uid=("r", 0),
                            extension=(1, 2, True),
                        )
                    ]
                )
            finally:
                session.close()
                runtime.release_transactions(tids)
            return parent_bits, child_bits

        serial = level_bits(SerialRuntime())
        runtime = ShardedEngine(shards=shards, backend="serial")
        try:
            sharded = level_bits(runtime)
        finally:
            runtime.close()
        assert serial == sharded
        assert popcount(serial[1]) <= popcount(serial[0])
