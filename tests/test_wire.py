"""Tests for the flat-buffer wire codec and shared-memory transport.

The wire is a pure transport optimisation, so the load-bearing property
is *losslessness*: ``decode_message(encode_message(m)) == m`` for every
message the sharded runtime ships, with types preserved exactly (a
``True`` must not come back as ``1``), and sharded mining output must be
identical to the serial runtime's whichever transport carries the
messages.  The
shared-memory transport adds a lifecycle property: whatever happens to a
worker — clean reply, SIGKILL mid-level, close with messages in flight —
no ``/dev/shm`` segment may outlive the pool.
"""

from __future__ import annotations

import glob
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.compact import CompactGraph, LabelTable
from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.miner import FSGMiner
from repro.runtime import (
    BLOB_OP,
    PlacementPolicy,
    ShardedEngine,
    decode_message,
    encode_message,
    resolve_wire,
    wire_cost,
)
from repro.runtime import pool
from repro.runtime.pool import ProcessBackend, resolve_shm_threshold
from repro.runtime.wire import (
    WireFormatError,
    decode_graph_wire,
    encode_graph_wire,
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def random_corpus(seed: int, size: int = 12) -> list[LabeledGraph]:
    rng = random.Random(seed)
    corpus = []
    for index in range(size):
        graph = LabeledGraph(name=f"t{index}")
        n_vertices = rng.randint(4, 8)
        for v in range(n_vertices):
            graph.add_vertex(f"v{v}", rng.choice(["A", "B", "C"]))
        added = 0
        while added < n_vertices:
            a, b = rng.sample(range(n_vertices), 2)
            if graph.has_edge(f"v{a}", f"v{b}"):
                continue
            graph.add_edge(f"v{a}", f"v{b}", rng.choice(["x", "y"]))
            added += 1
        corpus.append(graph)
    return corpus


def mining_signature(result):
    engine = MatchEngine()
    return sorted(
        (
            engine.canonical_code(entry.pattern),
            entry.support,
            tuple(sorted(entry.supporting_transactions)),
        )
        for entry in result.patterns
    )


def serial_signature(corpus):
    return mining_signature(FSGMiner(min_support=2, max_edges=3).mine(corpus))


def mine_with(corpus, *, shards=2, backend="serial"):
    """Mine on a sharded runtime: (signature, bytes shipped, pickle bytes).

    Every logical message the engine posts is also priced with
    :func:`wire_cost` — what pickling it would have shipped — so the
    flat-buffer byte count can be checked against the pickle baseline.
    """
    runtime = ShardedEngine(shards=shards, backend=backend)
    pickled = 0
    post = runtime._post

    def priced_post(shard, message):
        nonlocal pickled
        pickled += wire_cost(message)
        post(shard, message)

    runtime._post = priced_post
    try:
        mined = FSGMiner(min_support=2, max_edges=3, runtime=runtime).mine(corpus)
        shipped = runtime.wire_bytes_shipped
    finally:
        runtime.close()
    return mining_signature(mined), shipped, pickled


def own_shm_residue() -> list[str]:
    """Shared-memory segments created by this process and not unlinked."""
    return glob.glob(f"/dev/shm/repro_shm_{os.getpid()}_*")


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------
class TestKnobResolution:
    def test_resolve_wire_default_and_env(self):
        # "buffer" is the default and only wire; None is rejected too,
        # since there is no environment fallback.
        assert resolve_wire() == "buffer"
        assert resolve_wire("buffer") == "buffer"
        for other in ("pickle", "msgpack", None):
            with pytest.raises(ValueError, match="wire"):
                resolve_wire(other)
            with pytest.raises(ValueError, match="wire"):
                ShardedEngine(shards=2, backend="serial", wire=other)

    def test_resolve_placement_default_and_env(self):
        # Weighted placement is the default and only policy; None is
        # rejected too, since there is no environment fallback.
        corpus = random_corpus(5, size=6)
        policy = PlacementPolicy(3)
        expected = [policy.place(graph.n_edges) for graph in corpus]
        runtime = ShardedEngine(shards=3, backend="serial")
        try:
            tids = runtime.add_transactions(corpus)
            assert [runtime.locate(tid)[0] for tid in tids] == expected
        finally:
            runtime.close()
        for other in ("roundrobin", "hash", None):
            with pytest.raises(ValueError, match="placement"):
                ShardedEngine(shards=3, backend="serial", placement=other)

    def test_resolve_shm_threshold(self, monkeypatch):
        assert resolve_shm_threshold(None) == pool.DEFAULT_SHM_THRESHOLD
        assert resolve_shm_threshold(4096) == 4096
        assert resolve_shm_threshold(0) is None  # <= 0 disables shm transport
        assert resolve_shm_threshold(-5) is None
        # The default is read at call time, so tests can lower it.
        monkeypatch.setattr(pool, "DEFAULT_SHM_THRESHOLD", 0)
        assert resolve_shm_threshold(None) is None


# ----------------------------------------------------------------------
# Graph buffers
# ----------------------------------------------------------------------
@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    sequential = draw(st.booleans())
    ids = [f"v{i}" if sequential else f"stop_{i}_x" for i in range(n)]
    graph = LabeledGraph(name=draw(st.sampled_from(["g", "t42", "graph-α"])))
    for index, vid in enumerate(ids):
        graph.add_vertex(vid, draw(st.sampled_from(["A", "B", "C"])))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    for a, b in chosen:
        graph.add_edge(ids[a], ids[b], draw(st.sampled_from(["x", "y"])))
    return graph


class TestGraphBuffer:
    @settings(max_examples=60, deadline=None)
    @given(graph=labeled_graphs())
    def test_to_buffer_round_trips(self, graph):
        table = LabelTable()
        compact = CompactGraph.from_labeled(graph, table)
        clone = CompactGraph.from_buffer(compact.to_buffer(), table)
        assert clone.to_wire() == compact.to_wire()

    def test_empty_graph_round_trips(self):
        table = LabelTable()
        compact = CompactGraph.from_labeled(LabeledGraph(name="empty"), table)
        clone = CompactGraph.from_buffer(compact.to_buffer(), table)
        assert clone.to_wire() == compact.to_wire()
        assert clone.n_vertices == 0

    def test_zero_padded_ids_survive_via_generic_mode(self):
        # "v01" must not collapse to sequential mode (int() would strip
        # the padding on decode); the generic id path keeps it verbatim.
        wire = ("g", (0, 1), [(0, 1, 2)], ("v01", "v02"))
        assert decode_graph_wire(encode_graph_wire(wire)) == wire

    def test_tombstone_wire_round_trips(self):
        # The shared released-slot placeholder the engine re-adds during
        # rebuild; it must stay inside the codec's type universe so
        # recovery traffic keeps the flat wire.
        wire = ("\x00released\x00", (17,), [], ("t",))
        assert decode_graph_wire(encode_graph_wire(wire)) == wire
        assert encode_message(("add", [wire])) is not None

    def test_id_label_count_mismatch_is_rejected(self):
        with pytest.raises(WireFormatError):
            encode_graph_wire(("g", (0,), [], ("a", "b")))

    def test_header_validation(self):
        buffer = encode_graph_wire(("g", (0,), [], ("v0",)))
        with pytest.raises(WireFormatError):
            decode_graph_wire(b"XX" + buffer[2:])  # bad magic
        with pytest.raises(WireFormatError):
            decode_graph_wire(buffer[:2] + b"\x7f" + buffer[3:])  # bad version
        with pytest.raises(WireFormatError):
            decode_graph_wire(buffer + b"\x00")  # trailing bytes


# ----------------------------------------------------------------------
# Message codec
# ----------------------------------------------------------------------
class TestMessageCodec:
    @settings(max_examples=60, deadline=None)
    @given(tids=st.sets(st.integers(min_value=0, max_value=5000), max_size=40))
    def test_release_tid_lists_round_trip(self, tids):
        message = ("release", sorted(tids))
        assert decode_message(encode_message(message)) == message

    def test_tids_crossing_word_boundaries(self):
        # Deltas that straddle the 64-tid bitset word edges and the
        # varint 7-bit payload edge.
        message = ("release", [0, 63, 64, 65, 127, 128, 129, 16383, 16384])
        assert decode_message(encode_message(message)) == message

    def test_slevel_columns_round_trip(self):
        uids = [(7, i) for i in range(50)]
        parent_uids = [None] + [(7, i // 2) for i in range(49)]
        extensions = [(i % 3, i % 5, bool(i % 2)) for i in range(50)]
        bounds = [None if i % 4 == 0 else 10 for i in range(50)]
        evictions = [(7, i) for i in range(0, 20, 2)]
        payloads = [
            ("w", ("g0", (0, 1), [(0, 1, 3)], ("v0", "v1")), b"\x01\x00"),
            ("d", 3, ("w", 2), b"\xff\x00\x80"),
        ]
        message = ("slevel", evictions, payloads, uids, parent_uids, extensions, bounds)
        decoded = decode_message(encode_message(message))
        assert decoded == message
        # Lists stay lists, tuples stay tuples.
        assert type(decoded[2][0][1]) is tuple
        assert type(decoded[3]) is list

    def test_level_message_round_trips(self):
        # The retired "level" op has no codec; the engine still posts
        # such a message losslessly, pickled and priced at wire_cost.
        wires = [("g0", (0,), [], ("v0",)), ("g1", (1, 2), [(0, 1, 0)], ("v0", "v1"))]
        tid_lists = [[1, 5, 9], []]
        message = (
            "level",
            wires,
            tid_lists,
            ["k0", "k1"],
            [(3, 0), (3, 1)],
            [None, (3, 0)],
            [None, (0, 2, True)],
            [4, None],
        )
        assert encode_message(message) is None
        runtime = ShardedEngine(shards=2, backend="serial")
        sent = []
        try:
            runtime._pool.send = lambda shard, shipped: sent.append((shard, shipped))
            before = runtime.wire_bytes_shipped
            runtime._post(1, message)
            assert sent == [(1, message)]
            assert runtime.wire_bytes_shipped - before == wire_cost(message)
        finally:
            del runtime._pool.send
            runtime.close()

    def test_interned_columns_preserve_types(self):
        # 1 == True == 1.0 hash-equal; the interner must not conflate
        # them or decode returns the wrong type.
        items = [1, True, 1.0, 0, False, None] * 5
        message = ("sevict", items)
        decoded = decode_message(encode_message(message))
        assert decoded == message
        assert [type(v) for v in decoded[1]] == [type(v) for v in items]

    def test_uid_columns_with_mixed_run_tokens(self):
        # Different first elements defeat intpair mode; the fallback
        # modes must still round-trip exactly.
        message = ("sevict", [(1, 5), (2, 6), (-1, 3), None])
        assert decode_message(encode_message(message)) == message

    def test_encode_falls_back_to_none(self):
        assert encode_message(("unknown_op", [1])) is None
        # Ops the engine does not send have no codec.
        assert encode_message(("drop_anchors", [(3, 0)])) is None
        # Nor does the retired sessionless "batch" op, and its old op
        # code no longer decodes as anything.
        wire = ("g0", (0,), [], ("v0",))
        assert encode_message(("batch", [wire], [[1, 2]], [None])) is None
        release = encode_message(("release", [1, 2]))
        with pytest.raises(WireFormatError, match="unknown op code 4"):
            decode_message(release[:3] + b"\x04" + release[4:])
        assert encode_message("not a tuple") is None
        assert encode_message(()) is None
        assert encode_message(("release", [3, 1, 2])) is None  # unsorted
        assert encode_message(("labels", [{"a": 1}])) is None  # dict outside universe
        assert encode_message(("add", [("g", (0,), [], ("a", "b"))])) is None

    def test_decode_rejects_corruption(self):
        buffer = encode_message(("release", [1, 2, 3, 1000000]))
        with pytest.raises(WireFormatError):
            decode_message(b"XX" + buffer[2:])
        with pytest.raises(WireFormatError):
            decode_message(buffer[:2] + b"\x7f" + buffer[3:])
        with pytest.raises(WireFormatError):
            decode_message(buffer[:3] + b"\xff" + buffer[4:])  # unknown op code
        with pytest.raises(WireFormatError):
            decode_message(buffer + b"\x00")  # trailing bytes
        with pytest.raises(WireFormatError):
            decode_message(buffer[:-1])  # truncated varint


# ----------------------------------------------------------------------
# Sharded mining equality and bytes against the pickle baseline
# ----------------------------------------------------------------------
class TestMiningEquality:
    def test_buffer_matches_serial_runtime(self):
        corpus = random_corpus(41)
        buffer_sig, buffer_bytes, pickle_bytes = mine_with(corpus)
        assert buffer_sig == serial_signature(corpus)
        assert 0 < buffer_bytes < pickle_bytes

    @pytest.mark.slow
    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_buffer_matches_serial_runtime_matrix(self, shards, backend):
        corpus = random_corpus(43, size=14)
        buffer_sig, buffer_bytes, pickle_bytes = mine_with(
            corpus, shards=shards, backend=backend
        )
        assert buffer_sig == serial_signature(corpus)
        assert 0 < buffer_bytes < pickle_bytes


# ----------------------------------------------------------------------
# Shared-memory transport lifecycle
# ----------------------------------------------------------------------
def _echo_factory():
    def handler(message):
        return ("ok", len(message))

    return handler


class TestShmTransport:
    def test_process_mining_over_shm_matches_serial(self, monkeypatch):
        # A 1-byte threshold forces every blob through a segment.
        monkeypatch.setattr(pool, "DEFAULT_SHM_THRESHOLD", 1)
        corpus = random_corpus(47)
        serial_sig, serial_bytes, _ = mine_with(corpus, backend="serial")
        process_sig, process_bytes, _ = mine_with(corpus, backend="process")
        assert process_sig == serial_sig
        assert process_bytes == serial_bytes  # accounting is transport-independent
        assert not own_shm_residue()

    def test_sigkill_mid_level_leaves_no_residue(self, monkeypatch):
        # The leak regression behind supervision: a worker SIGKILLed
        # while segments are in flight must not leave /dev/shm residue
        # once recovery (respawn + replay) finishes.
        monkeypatch.setattr(pool, "DEFAULT_SHM_THRESHOLD", 1)
        corpus = random_corpus(53)
        reference = mining_signature(FSGMiner(min_support=2, max_edges=3).mine(corpus))
        runtime = ShardedEngine(shards=2, backend="process", faults="kill:shard=1,level=2")
        try:
            mined = FSGMiner(min_support=2, max_edges=3, runtime=runtime).mine(corpus)
            stats = runtime.stats()
        finally:
            runtime.close()
        assert mining_signature(mined) == reference
        assert stats["worker_restarts"] >= 1
        assert not own_shm_residue()

    def test_close_purges_unconsumed_segments(self):
        backend = ProcessBackend(1, _echo_factory, shm_threshold=1)
        try:
            backend.send(0, (BLOB_OP, "noop", bytes(4096)))
            assert own_shm_residue()  # segment exists while the send is in flight
        finally:
            backend.close()
        assert not own_shm_residue()

    def test_respawn_purges_unconsumed_segments(self):
        backend = ProcessBackend(1, _echo_factory, shm_threshold=1)
        try:
            backend.send(0, (BLOB_OP, "noop", bytes(4096)))
            assert own_shm_residue()
            backend.respawn(0)
            assert not own_shm_residue()
            # The respawned worker still serves plain traffic.
            backend.send(0, ("ping",))
            assert backend.recv(0) == ("ok", 1)
        finally:
            backend.close()

    def test_segments_unlinked_on_reply(self):
        backend = ProcessBackend(1, _echo_factory, shm_threshold=1)
        try:
            backend.send(0, (BLOB_OP, "noop", b"payload bytes"))
            reply = backend.recv(0)
            assert reply == ("ok", 3)  # worker saw the rehydrated 3-tuple
            assert not own_shm_residue()
        finally:
            backend.close()
