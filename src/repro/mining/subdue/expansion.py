"""Substructure expansion: growing candidates by one edge at a time.

SUBDUE's search expands every instance of the current substructure by one
edge incident on the instance, then re-groups the extended instances by
the pattern they form.  Working at the instance level (rather than
re-running subgraph isomorphism against the whole host graph) keeps each
expansion step proportional to the number of instances times the local
edge density.

Every extension is described position-wise against the parent's aligned
vertex order, so children made the same way share a key and are grouped
without an isomorphism test (see
:func:`~repro.mining.subdue.substructure.group_instances_by_pattern`):

* ``("f", pos, edge label, new vertex label)`` — an edge out of position
  ``pos`` to a new vertex;
* ``("r", pos, edge label, new vertex label)`` — an edge from a new
  vertex into position ``pos``;
* ``("b", pos_src, pos_tgt, edge label)`` — an edge between two
  positions already in the instance.

The new vertex of an ``"f"`` or ``"r"`` extension takes the next
position.
"""

from __future__ import annotations

from typing import Iterator

from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.subdue.substructure import (
    Instance,
    Substructure,
    group_instances_by_pattern,
)


def initial_substructures(
    host: LabeledGraph, engine: MatchEngine | None = None
) -> list[Substructure]:
    """One single-vertex substructure per distinct vertex label.

    Each substructure's instances are all host vertices carrying that
    label; these seed the beam search.  With *engine*, the seed vertex
    groups come straight from the host index's label buckets instead of a
    fresh scan.
    """
    by_label: dict[object, list[Instance]] = {}
    if engine is not None:
        index = engine.index_of(host)
        compact = index.compact
        for label_id, bucket in index.by_label.items():
            label = compact.table.label(label_id)
            by_label[label] = [
                Instance.from_vertex(compact.vertex_ids[vertex]) for vertex in bucket
            ]
    else:
        for vertex in host.vertices():
            by_label.setdefault(host.vertex_label(vertex), []).append(
                Instance.from_vertex(vertex)
            )
    substructures: list[Substructure] = []
    for label, instances in by_label.items():
        pattern = LabeledGraph(name=f"seed-{label}")
        pattern.add_vertex("p0", label)
        substructures.append(
            Substructure(pattern=pattern, instances=instances, alignment=(label,))
        )
    return substructures


def _extensions(host: LabeledGraph, instance: Instance) -> Iterator[tuple[Instance, tuple]]:
    """Each one-edge extension of *instance* with its extension descriptor."""
    vertices = instance.vertices
    position = {vertex: index for index, vertex in enumerate(instance.order)}
    inner: set = set()
    for vertex in sorted(vertices, key=str):
        for edge in host.incident_edges(vertex):
            source, target = edge.source, edge.target
            if source not in vertices:
                descriptor = ("r", position.get(target), edge.label, host.vertex_label(source))
            elif target not in vertices:
                descriptor = ("f", position.get(source), edge.label, host.vertex_label(target))
            else:
                # Both endpoints inside: the edge may be covered already,
                # or be met a second time from its other endpoint.
                if edge in instance.edges or edge in inner:
                    continue
                inner.add(edge)
                descriptor = ("b", position.get(source), position.get(target), edge.label)
            yield instance.extended_with(edge), descriptor


def expand_instance(host: LabeledGraph, instance: Instance) -> list[Instance]:
    """All one-edge extensions of *instance* using edges incident on it."""
    return [extended for extended, _ in _extensions(host, instance)]


def expand_substructure(
    host: LabeledGraph,
    substructure: Substructure,
    engine: MatchEngine | None = None,
) -> list[Substructure]:
    """Expand every instance by one edge and re-group by pattern.

    Duplicate instances (identical edge sets reached from different parent
    instances) are merged before grouping; the first one reached keeps
    its key.  Children of an aligned substructure are keyed by its
    alignment plus their extension descriptor; children of an unaligned
    one are classified one by one.
    """
    alignment = substructure.alignment
    extended: dict[tuple[frozenset, frozenset], tuple[Instance, tuple | None]] = {}
    for instance in substructure.instances:
        for new_instance, descriptor in _extensions(host, instance):
            identity = (new_instance.vertices, new_instance.edges)
            if identity not in extended:
                key = None if alignment is None else (alignment, descriptor)
                extended[identity] = (new_instance, key)
    if not extended:
        return []
    instances = [instance for instance, _ in extended.values()]
    keys = [key for _, key in extended.values()]
    return group_instances_by_pattern(host, instances, engine=engine, keys=keys)
