"""Venue citation graph: aggregating article citations to venue level.

A venue's prestige is computed with the same TWPR machinery as articles',
on the graph whose nodes are venues and whose edge ``A -> B`` aggregates
every citation from an article in ``A`` to an article in ``B``. Edges are
time-weighted at the *article* level before aggregation — a venue whose
articles keep citing another venue's fresh output transfers more prestige
than one citing its decades-old archive.

Aggregation is vectorized over the article CSR (it runs on every batch of
the live ranking pipeline, so it must stay linear-time numpy work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.graph.csr import CSRGraph
from repro.data.columns import ArticleColumns, lookup
from repro.data.schema import ScholarlyDataset
from repro.core.time_weight import TimeDecay

#: Venue-pair table size below which pairs aggregate by direct
#: ``bincount`` (one slot per pair) instead of sorting the edges.
_DENSE_PAIRS = 1 << 16


@dataclass(frozen=True)
class VenueGraph:
    """Aggregated venue-level citation graph.

    Attributes:
        graph: CSR over venue ids; edge weights are (optionally decayed)
            citation aggregates.
        citation_counts: raw (undecayed) aggregate per edge, aligned with
            ``graph`` edges — kept for diagnostics and ablations.
    """

    graph: CSRGraph
    citation_counts: np.ndarray

    def venue_index(self, venue_id: int) -> int:
        return self.graph.index_of(venue_id)


def _article_arrays(dataset: ScholarlyDataset,
                    graph: Optional[CSRGraph],
                    columns: Optional[ArticleColumns]
                    ) -> Tuple[CSRGraph, np.ndarray, np.ndarray,
                               np.ndarray]:
    """Citation CSR plus per-node years and venue *indices* (-1 = none).

    Venue indices point into the ascending registered venue ids; an
    article whose venue is not registered in ``dataset.venues`` counts
    as venue-less.
    """
    if graph is None:
        graph = dataset.citation_csr()
    if columns is None:
        columns = ArticleColumns.of(dataset)
    venue_ids = np.sort(np.fromiter(dataset.venues, dtype=np.int64,
                                    count=len(dataset.venues)))
    return graph, columns.years, lookup(venue_ids, columns.venues), \
        venue_ids


def build_venue_graph(dataset: ScholarlyDataset,
                      decay: Optional[TimeDecay] = None,
                      include_self_loops: bool = False,
                      graph: Optional[CSRGraph] = None,
                      columns: Optional[ArticleColumns] = None
                      ) -> VenueGraph:
    """Aggregate the dataset's citations into a venue graph.

    Args:
        dataset: source dataset; articles without a venue are skipped.
        decay: optional article-level time decay applied to each citation
            before aggregation (gap = ``t(citing) - t(cited)``, clamped
            at 0).
        include_self_loops: keep within-venue citations (default: drop —
            internal citations say nothing about cross-venue prestige).
        graph: optional pre-built citation CSR of ``dataset`` (skips the
            rebuild; node order must be the canonical ascending-id one).
        columns: optional pre-built :class:`ArticleColumns` of
            ``dataset`` (skips the rebuild).
    """
    if dataset.num_venues == 0:
        raise DatasetError("dataset has no venues")

    graph, years, venue_of, venue_ids = _article_arrays(dataset, graph,
                                                        columns)
    num_venues = len(venue_ids)
    src_idx, dst_idx, _ = graph.edge_array()
    src_venue = venue_of[src_idx]
    dst_venue = venue_of[dst_idx]
    keep = (src_venue >= 0) & (dst_venue >= 0)
    if not include_self_loops:
        keep &= src_venue != dst_venue

    src_venue = src_venue[keep]
    dst_venue = dst_venue[keep]
    if decay is not None:
        gap = np.maximum(
            (years[src_idx[keep]] - years[dst_idx[keep]]).astype(
                np.float64), 0.0)
        edge_weight = np.asarray(decay(gap), dtype=np.float64)
    else:
        edge_weight = np.ones(len(src_venue), dtype=np.float64)

    key = src_venue * num_venues + dst_venue
    if num_venues * num_venues <= max(len(key), _DENSE_PAIRS):
        # One slot per venue pair: no sort over the edges.
        slots = num_venues * num_venues
        weights = np.bincount(key, weights=edge_weight, minlength=slots)
        counts = np.bincount(key, minlength=slots)
        pair_keys = np.flatnonzero(counts)
        weights = weights[pair_keys]
        counts = counts[pair_keys].astype(np.float64)
    else:
        # Too many venues for a dense pair table: aggregate by sorting.
        pair_keys, inverse = np.unique(key, return_inverse=True)
        weights = np.bincount(inverse, weights=edge_weight,
                              minlength=len(pair_keys))
        counts = np.bincount(inverse, minlength=len(pair_keys)).astype(
            np.float64)

    # Pair keys ascend by (src, dst): they are the CSR edges in order,
    # and the raw counts align with the graph's edges directly.
    indptr = np.zeros(num_venues + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_keys // num_venues, minlength=num_venues),
              out=indptr[1:])
    venue_graph = CSRGraph(indptr, pair_keys % num_venues, weights,
                           venue_ids)
    return VenueGraph(graph=venue_graph, citation_counts=counts)


def venue_popularity(dataset: ScholarlyDataset, observation_year: int,
                     decay: TimeDecay,
                     venue_graph: VenueGraph,
                     graph: Optional[CSRGraph] = None,
                     columns: Optional[ArticleColumns] = None
                     ) -> np.ndarray:
    """Decayed count of citations received by each venue's articles.

    Aligned with ``venue_graph.graph`` node indices. Each citation into
    the venue contributes ``decay(T - t(citing))`` — same semantics as
    article popularity, aggregated per cited venue.
    """
    graph, years, venue_of, venue_ids = _article_arrays(dataset, graph,
                                                        columns)
    if np.any(years > observation_year):
        raise DatasetError("observation_year precedes a publication")
    src_idx, dst_idx, _ = graph.edge_array()
    dst_venue = venue_of[dst_idx]
    keep = dst_venue >= 0
    contributions = np.asarray(
        decay((observation_year - years[src_idx[keep]]).astype(
            np.float64)), dtype=np.float64)
    scores = np.bincount(dst_venue[keep], weights=contributions,
                         minlength=len(venue_ids))
    # Both index venues by ascending id; realign through the graph's
    # node ids anyway, in case it was built over a different venue set.
    aligned = np.zeros(venue_graph.graph.num_nodes, dtype=np.float64)
    positions = lookup(venue_ids, venue_graph.graph.node_ids)
    present = positions >= 0
    aligned[present] = scores[positions[present]]
    return aligned
