"""Substructures and their instances in a host graph.

A *substructure* is a small pattern graph together with the list of its
*instances* — concrete occurrences inside the host graph, each identified
by the host vertices and edges it covers.  SUBDUE grows substructures by
extending every instance by one incident edge and re-grouping the extended
instances by the pattern they form.

Grouping knows most isomorphisms *by construction*: every instance of a
grouped substructure carries its host vertices in an order aligned to one
positional pattern, so two children made by the same extension (same
parent, same positions, same labels) are isomorphic without a test — see
:func:`group_instances_by_pattern`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphs.canonical import graph_invariant
from repro.graphs.engine import MatchEngine, default_engine
from repro.graphs.labeled_graph import Edge, LabeledGraph, VertexId
from repro.obs.tracer import get_tracer


@dataclass(frozen=True)
class Instance:
    """One concrete occurrence of a substructure inside the host graph.

    ``order`` lists the instance's host vertices by pattern position: the
    vertex at position ``i`` plays the part of the substructure's
    position-``i`` vertex.  It is empty for a hand-built instance, and it
    is not part of equality — two instances covering the same host
    vertices and edges are the same occurrence however they are aligned.
    """

    vertices: frozenset[VertexId]
    edges: frozenset[Edge]
    order: tuple[VertexId, ...] = field(default=(), compare=False, repr=False)

    @classmethod
    def from_vertex(cls, vertex: VertexId) -> "Instance":
        """A single-vertex instance (the starting point of the search)."""
        return cls(vertices=frozenset([vertex]), edges=frozenset(), order=(vertex,))

    def extended_with(self, edge: Edge) -> "Instance":
        """A new instance including *edge* and its endpoints.

        An endpoint new to the instance takes the next position.
        """
        source, target = edge.source, edge.target
        vertices = self.vertices
        order = self.order
        if source not in vertices:
            order += (source,)
        if target not in vertices and target != source:
            order += (target,)
        return Instance(
            vertices=vertices | {source, target},
            edges=self.edges | {edge},
            order=order,
        )

    def overlaps(self, other: "Instance") -> bool:
        """Whether the two instances share any vertex."""
        return bool(self.vertices & other.vertices)

    @property
    def n_edges(self) -> int:
        """Number of edges covered by the instance."""
        return len(self.edges)


def instance_key(instance: Instance) -> tuple:
    """A total order over instances independent of hash seed.

    Instances live in frozensets whose iteration order follows the
    process hash seed; everything that turns instances into an ordered
    choice (greedy non-overlap selection, expansion, truncation) sorts by
    this key first so SUBDUE output is identical across interpreter runs.
    """
    return (
        len(instance.edges),
        sorted((str(e.source), str(e.label), str(e.target)) for e in instance.edges),
        sorted(str(v) for v in instance.vertices),
    )


def instance_pattern(host: LabeledGraph, instance: Instance) -> LabeledGraph:
    """The pattern graph an instance represents (host labels preserved)."""
    pattern = LabeledGraph(name="substructure")
    for vertex in sorted(instance.vertices, key=str):
        pattern.add_vertex(vertex, host.vertex_label(vertex))
    for edge in sorted(instance.edges, key=lambda e: (str(e.source), str(e.target), str(e.label))):
        pattern.add_edge(edge.source, edge.target, edge.label)
    return pattern


def select_non_overlapping(instances: list[Instance]) -> list[Instance]:
    """Greedy maximal set of vertex-disjoint instances.

    The paper's experiments disallow overlapping patterns, so substructure
    value is computed from vertex-disjoint instances only.  Candidates are
    visited in :func:`instance_key` order, so the selection (and with it
    every instance count and MDL value) does not depend on the hash seed.
    """
    chosen: list[Instance] = []
    used: set[VertexId] = set()
    for instance in sorted(instances, key=instance_key):
        if instance.vertices & used:
            continue
        chosen.append(instance)
        used |= instance.vertices
    return chosen


@dataclass
class Substructure:
    """A pattern graph plus its instances in the host graph.

    ``instances`` should be *rebound* (assigned a new list), not mutated
    in place: the non-overlapping selection is cached against the list
    object itself (the kept reference also pins it, so a recycled
    allocation can never false-match).  Callers that must mutate in
    place call :meth:`invalidate` afterwards.  ``pattern`` is not mutated
    once built: its invariant is computed once and kept.

    ``alignment`` is set when every instance's ``order`` is aligned to
    one positional pattern; it is the key that expansion extends into
    its children's keys.  ``None`` (a hand-built substructure) makes
    every child classify on its own.  Rebinding ``instances`` to a
    subset of the grouped instances (as the miner's truncation does)
    keeps the alignment valid; rebinding them to any other instances
    must reset it to ``None``.
    """

    pattern: LabeledGraph
    instances: list[Instance] = field(default_factory=list)
    value: float = 0.0
    alignment: object = field(default=None, repr=False, compare=False)
    _invariant: str | None = field(default=None, repr=False, compare=False)
    _non_overlap_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_instances(self) -> int:
        """Number of (possibly overlapping) instances found."""
        return len(self.instances)

    def non_overlapping(self) -> list[Instance]:
        """The greedy vertex-disjoint selection, computed once per instance list.

        Candidate filtering, evaluation, and compression all need the
        same selection, and the sort inside :func:`select_non_overlapping`
        is the hottest per-candidate work — so the result is cached and
        recomputed whenever :attr:`instances` is rebound to another list
        (the miner truncates by assigning a new, shorter one).
        """
        if self._non_overlap_cache is None or self._non_overlap_cache[0] is not self.instances:
            self._non_overlap_cache = (self.instances, select_non_overlapping(self.instances))
        return self._non_overlap_cache[1]

    def invalidate(self) -> None:
        """Drop the cached non-overlapping selection after an in-place mutation."""
        self._non_overlap_cache = None

    @property
    def n_non_overlapping(self) -> int:
        """Number of vertex-disjoint instances (the count SUBDUE reports)."""
        return len(self.non_overlapping())

    @property
    def n_edges(self) -> int:
        """Edges in the pattern graph."""
        return self.pattern.n_edges

    @property
    def n_vertices(self) -> int:
        """Vertices in the pattern graph."""
        return self.pattern.n_vertices

    def invariant(self) -> str:
        """Isomorphism-invariant fingerprint of the pattern.

        Grouping hands over the invariant it bucketed the pattern by;
        otherwise it is computed on first use.
        """
        if self._invariant is None:
            self._invariant = graph_invariant(self.pattern)
        return self._invariant

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Substructure(vertices={self.n_vertices}, edges={self.n_edges}, "
            f"instances={self.n_instances}, value={self.value:.4f})"
        )


def _realigned(instance: Instance, inverse: tuple[int, ...]) -> Instance:
    """*instance* with ``order`` permuted: new position ``j`` takes old ``inverse[j]``."""
    order = instance.order
    return Instance(instance.vertices, instance.edges, tuple(order[k] for k in inverse))


def _alignment_inverse(
    engine: MatchEngine, group: Substructure, pattern: LabeledGraph, instance: Instance
) -> tuple[int, ...]:
    """The permutation carrying *instance*'s positions onto *group*'s.

    *pattern* (the instance's pattern) is known to be isomorphic to the
    class representative; the isomorphism found maps each instance
    vertex to the representative vertex whose position it takes.
    """
    mapping = engine.find_embedding(pattern, group.pattern)
    position = {vertex: index for index, vertex in enumerate(group.instances[0].order)}
    inverse = [0] * len(instance.order)
    for index, vertex in enumerate(instance.order):
        inverse[position[mapping[vertex]]] = index
    return tuple(inverse)


def group_instances_by_pattern(
    host: LabeledGraph,
    instances: list[Instance],
    engine: MatchEngine | None = None,
    keys: list | None = None,
) -> list[Substructure]:
    """Group raw instances into substructures by pattern isomorphism.

    Instances whose patterns are isomorphic (labels included) belong to
    the same substructure.  Classes come out bucket by bucket in
    first-seen order of their invariant, and instances in input order.

    *keys*, parallel to *instances*, are alignment keys: two instances
    with equal keys have isomorphic patterns whose ``order`` tuples are
    already aligned position for position (expansion keys a child by its
    parent's alignment plus an extension descriptor).  Only the first
    instance of each key is *classified*: its pattern is built, bucketed
    by the cheap invariant and confirmed by an exact isomorphism test
    against the bucket's representatives.  Later instances of the key
    join that class with no graph built.  A ``None`` key, or no *keys*
    at all, classifies the instance on its own.

    The result is the same as classifying every instance: the
    representatives of one bucket are pairwise non-isomorphic, so an
    instance isomorphic to an earlier one of its key can only belong to
    that instance's class.  An instance that joins a class through the
    test is re-ordered onto the representative's positions, so a class
    whose every member is keyed stays aligned, and its key becomes the
    substructure's :attr:`~Substructure.alignment`.
    """
    if engine is None:
        engine = default_engine()
    buckets: dict[str, list[Substructure]] = {}
    by_key: dict[object, tuple[Substructure, tuple[int, ...] | None]] = {}
    n_classified = 0
    n_tests = 0
    for position, instance in enumerate(instances):
        key = keys[position] if keys is not None else None
        if key is not None:
            known = by_key.get(key)
            if known is not None:
                group, inverse = known
                group.instances.append(instance if inverse is None else _realigned(instance, inverse))
                continue
        n_classified += 1
        pattern = instance_pattern(host, instance)
        invariant = graph_invariant(pattern)
        bucket = buckets.setdefault(invariant, [])
        inverse = None
        for group in bucket:
            n_tests += 1
            if engine.are_isomorphic(group.pattern, pattern):
                if key is None:
                    group.alignment = None
                elif group.alignment is not None:
                    inverse = _alignment_inverse(engine, group, pattern, instance)
                    instance = _realigned(instance, inverse)
                group.instances.append(instance)
                break
        else:
            group = Substructure(
                pattern=pattern, instances=[instance], alignment=key, _invariant=invariant
            )
            bucket.append(group)
        if key is not None:
            by_key[key] = (group, inverse)

    metrics = get_tracer().metrics
    metrics.counter("subdue.instances", len(instances))
    metrics.counter("subdue.keys", n_classified)
    metrics.counter("subdue.isomorphism_tests", n_tests)
    return [group for bucket in buckets.values() for group in bucket]
