"""Evaluation principles for candidate substructures (MDL, Size, Set-Cover).

SUBDUE 5.1 offers three ways to score a candidate substructure S against a
host graph G:

* **MDL** — ``DL(G) / (DL(S) + DL(G | S))`` where ``DL`` is the
  description length and ``G | S`` is G with S's instances collapsed;
  larger is better (more compression).
* **Size** — the same ratio computed with the simpler ``vertices + edges``
  size measure.
* **Set-Cover** — for supervised settings with positive and negative
  example graphs: the fraction of positive examples containing S plus
  negative examples not containing S.  The paper notes this principle does
  not apply to the transportation data (there are no negative examples);
  it is implemented for completeness and tested on toy data.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

from repro.graphs.engine import MatchEngine
from repro.graphs.isomorphism import has_embedding
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.subdue.mdl import counts_description_length, description_length, graph_size
from repro.mining.subdue.substructure import Substructure


def _host_label_counts(
    host: LabeledGraph, engine: MatchEngine | None
) -> tuple[int, int]:
    """(#vertex labels, #edge labels) of *host*, from the engine index if any.

    The host's label alphabet is fixed for a whole mining run, so reading
    it off the precomputed index avoids an O(V + E) recount per candidate
    evaluation.
    """
    if engine is not None:
        index = engine.index_of(host)
        return (
            max(1, len(index.vertex_label_hist)),
            max(1, len(index.edge_label_hist)),
        )
    return (
        max(1, len(host.vertex_label_counts())),
        max(1, len(host.edge_label_counts())),
    )


def _compression_stats(host: LabeledGraph, substructure: Substructure) -> dict[str, int]:
    """Count what collapsing the substructure's instances would leave of the host.

    The counts are those of the rewrite in
    :mod:`repro.mining.subdue.compression` applied to the non-overlapping
    instances, read off the edges incident on covered vertices instead of
    a rewritten copy of the host:

    * an edge inside one instance is absorbed;
    * an edge leaving an instance becomes an edge of its replacement
      vertex, and edges that land on the same ordered pair of
      replacement/outside vertices merge into one;
    * every other edge survives unchanged.

    The compressed graph is a simple graph, so boundary edges from several
    instance vertices to the same outside vertex merge into one edge.
    Those merged edges still have to be described in a lossless encoding,
    so the evaluation functions add them back explicitly.
    """
    instances = substructure.non_overlapping()
    owner: dict = {}
    for index, instance in enumerate(instances):
        for vertex in instance.vertices:
            owner[vertex] = index
    touched = 0
    # Compressed edges with a replacement endpoint, one set per shape so
    # an instance index can never be mistaken for a host vertex.
    leaving: set = set()
    entering: set = set()
    between: set = set()
    for vertex, index in owner.items():
        for target in host.successors(vertex):
            touched += 1
            target_owner = owner.get(target)
            if target_owner is None:
                leaving.add((index, target))
            elif target_owner != index:
                between.add((index, target_owner))
        for source in host.predecessors(vertex):
            if source not in owner:
                touched += 1
                entering.add((source, index))
    boundary = len(leaving) + len(entering) + len(between)
    compressed_edges = host.n_edges - touched + boundary
    internal_edges = sum(instance.n_edges for instance in instances)
    covered_vertices = len(owner)
    merged_edges = max(0, (host.n_edges - internal_edges) - compressed_edges)
    return {
        "compressed_vertices": host.n_vertices - covered_vertices + len(instances),
        "compressed_edges": compressed_edges,
        "n_instances": len(instances),
        "internal_edges": internal_edges,
        "covered_vertices": covered_vertices,
        "merged_edges": merged_edges,
        "boundary_edges": boundary + merged_edges,
    }


class EvaluationPrinciple(str, enum.Enum):
    """How candidate substructures are scored."""

    MDL = "mdl"
    SIZE = "size"
    SET_COVER = "set_cover"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def mdl_value(
    host: LabeledGraph,
    substructure: Substructure,
    engine: MatchEngine | None = None,
) -> float:
    """MDL compression value of *substructure* against *host*.

    The description of the compressed graph alone is not lossless: to
    reconstruct the original graph one must also record *where* each
    instance sits (which host vertices it covered) and, for every boundary
    edge re-attached to a replacement vertex, which internal vertex of the
    instance it originally connected to.  Both overheads grow with the
    substructure's size and coverage, which is why SUBDUE's MDL principle
    favours small, very frequent substructures on uniformly-labeled graphs
    (the Section 5.1 observation) while the simpler Size principle — which
    ignores reconstruction overhead — rewards the largest substructure
    that still repeats.
    """
    n_vertex_labels, n_edge_labels = _host_label_counts(host, engine)
    original = description_length(host, n_vertex_labels, n_edge_labels)
    sub_dl = description_length(substructure.pattern, n_vertex_labels, n_edge_labels)
    stats = _compression_stats(host, substructure)
    compressed_vertices = stats["compressed_vertices"]
    compressed_dl = counts_description_length(
        compressed_vertices, stats["compressed_edges"], n_vertex_labels + 1, n_edge_labels
    )

    # Edges merged away by the simple-graph rewrite still need describing.
    per_edge_bits = 2.0 * math.log2(max(2, compressed_vertices)) + math.log2(max(2, n_edge_labels))
    merged_bits = stats["merged_edges"] * per_edge_bits
    # Boundary edges must record which internal vertex they attached to.
    attachment_bits = stats["boundary_edges"] * math.log2(max(2, substructure.pattern.n_vertices))
    # Instance locations must be recorded to reconstruct the original graph.
    location_bits = stats["covered_vertices"] * math.log2(max(2, host.n_vertices))

    denominator = sub_dl + compressed_dl + merged_bits + attachment_bits + location_bits
    if denominator <= 0:
        return 0.0
    return original / denominator


def size_value(host: LabeledGraph, substructure: Substructure) -> float:
    """Size-principle compression value of *substructure* against *host*.

    The size measure counts vertices plus edges; edges merged away by the
    simple-graph rewrite are added back so the rewrite itself does not
    fabricate compression.
    """
    original = graph_size(host)
    stats = _compression_stats(host, substructure)
    compressed_size = (
        stats["compressed_vertices"] + stats["compressed_edges"] + stats["merged_edges"]
    )
    denominator = graph_size(substructure.pattern) + compressed_size
    if denominator <= 0:
        return 0.0
    return original / denominator


def set_cover_value(
    substructure: Substructure,
    positive_examples: Sequence[LabeledGraph],
    negative_examples: Sequence[LabeledGraph],
    engine: MatchEngine | None = None,
) -> float:
    """Set-Cover value: positives containing S plus negatives not containing S, over all examples."""
    total = len(positive_examples) + len(negative_examples)
    if total == 0:
        raise ValueError("set-cover evaluation needs at least one example graph")
    occurs = engine.has_embedding if engine is not None else has_embedding
    covered_positives = sum(
        1 for example in positive_examples if occurs(substructure.pattern, example)
    )
    excluded_negatives = sum(
        1 for example in negative_examples if not occurs(substructure.pattern, example)
    )
    return (covered_positives + excluded_negatives) / total


def evaluate(
    host: LabeledGraph,
    substructure: Substructure,
    principle: EvaluationPrinciple,
    positive_examples: Sequence[LabeledGraph] | None = None,
    negative_examples: Sequence[LabeledGraph] | None = None,
    engine: MatchEngine | None = None,
) -> float:
    """Score *substructure* under the chosen principle."""
    if principle is EvaluationPrinciple.MDL:
        return mdl_value(host, substructure, engine=engine)
    if principle is EvaluationPrinciple.SIZE:
        return size_value(host, substructure)
    if principle is EvaluationPrinciple.SET_COVER:
        return set_cover_value(
            substructure, positive_examples or [], negative_examples or [], engine=engine
        )
    raise ValueError(f"unknown evaluation principle: {principle}")
