"""Top-k retrieval over a precomputed article ranking.

:class:`RankIndex` materializes one ranking (article id -> score) into
sorted arrays plus venue/author/year posting lists, supporting the read
operations a scholarly search backend issues against a query-independent
score: global top-k, filtered top-k (venue, author, year range),
pagination, and per-article rank/percentile lookups.

All reads are O(k + log n) against immutable numpy arrays; rebuilding
after a re-rank is one constructor call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, NodeNotFoundError
from repro.data.columns import NO_VENUE, ArticleColumns
from repro.data.schema import ScholarlyDataset


def _posting_lists(keys: np.ndarray, positions: np.ndarray,
                   size: int) -> Dict[int, np.ndarray]:
    """``positions`` (each below ``size``) grouped by ``keys``, each
    group ascending.

    Ascending positions are score order, which both keeps filtered
    iteration best-first and lets filter intersection use
    ``assume_unique`` sorted-set numpy.
    """
    if not len(keys):
        return {}
    unique_keys, key_rank = np.unique(keys, return_inverse=True)
    # One sort of (key rank, position) packed into an int64 groups the
    # entries by key with positions ascending inside each group.
    packed = np.sort(key_rank * size + positions)
    grouped = packed - (packed // size) * size
    bounds = np.zeros(len(unique_keys) + 1, dtype=np.int64)
    np.cumsum(np.bincount(key_rank, minlength=len(unique_keys)),
              out=bounds[1:])
    bounds = bounds.tolist()
    return dict(zip(unique_keys.tolist(),
                    [grouped[start:stop]
                     for start, stop in zip(bounds[:-1], bounds[1:])]))


@dataclass(frozen=True)
class RankEntry:
    """One row of a ranking result list."""

    rank: int
    article_id: int
    score: float
    year: int
    title: str


class RankIndex:
    """Immutable serving index over one ranking of one dataset."""

    def __init__(self, dataset: ScholarlyDataset,
                 scores: Mapping[int, float]) -> None:
        """Build the index.

        ``scores`` must cover every article of ``dataset`` (extra ids are
        rejected too — a mismatched ranking is a bug worth failing on).
        """
        columns = ArticleColumns.of(dataset)
        score_ids = np.fromiter(scores.keys(), dtype=np.int64,
                                count=len(scores))
        by_id = np.argsort(score_ids, kind="stable")
        if not np.array_equal(score_ids[by_id], columns.ids):
            raise ConfigError(
                "scores must cover exactly the dataset's articles")
        values = np.fromiter(scores.values(), dtype=np.float64,
                             count=len(scores))
        self._build(dataset, columns, values[by_id])

    @classmethod
    def from_arrays(cls, dataset: ScholarlyDataset,
                    columns: ArticleColumns,
                    scores: np.ndarray) -> "RankIndex":
        """Build the index from ``scores`` aligned with ``columns``.

        ``columns`` must be the :class:`ArticleColumns` of ``dataset``
        (a live ranker or shard maintains them); ``scores[i]`` is the
        score of article ``columns.ids[i]``.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != columns.ids.shape \
                or len(columns) != len(dataset.articles):
            raise ConfigError(
                f"scores ({scores.size}) and columns ({len(columns)}) "
                f"must cover exactly the dataset's "
                f"{len(dataset.articles)} articles")
        index = cls.__new__(cls)
        index._build(dataset, columns, scores)
        return index

    def _build(self, dataset: ScholarlyDataset, columns: ArticleColumns,
               scores: np.ndarray) -> None:
        self._dataset = dataset
        n = len(columns)
        order = np.lexsort((columns.ids, -scores))
        self._ids = columns.ids[order]
        self._scores = scores[order]
        self._years = columns.years[order]
        self._rank_of: Dict[int, int] = dict(zip(self._ids.tolist(),
                                                 range(n)))
        # Sort keys for binary search in global order (-score, id):
        # used by the sharded gateway to turn a shard-local hit into a
        # global rank without shipping whole rankings.
        self._neg_scores = -self._scores

        venues = columns.venues[order]
        with_venue = np.flatnonzero(venues != NO_VENUE)
        self._by_venue = _posting_lists(venues[with_venue], with_venue, n)
        position_of_row = np.empty(n, dtype=np.int64)
        position_of_row[order] = np.arange(n, dtype=np.int64)
        self._by_author = _posting_lists(
            columns.author_ids, position_of_row[columns.author_rows()], n)

    # ------------------------------------------------------------------
    # lookups

    def __len__(self) -> int:
        return len(self._ids)

    def rank_of(self, article_id: int) -> int:
        """1-based rank of an article (1 = best)."""
        try:
            return self._rank_of[int(article_id)] + 1
        except KeyError:
            raise NodeNotFoundError(int(article_id)) from None

    def score_of(self, article_id: int) -> float:
        return float(self._scores[self.rank_of(article_id) - 1])

    def percentile(self, article_id: int) -> float:
        """Fraction of the corpus this article outranks (0..1]."""
        rank = self.rank_of(article_id)
        return 1.0 - (rank - 1) / len(self._ids)

    def count_ranked_above(self, score: float, article_id: int) -> int:
        """Articles strictly ahead of ``(score, article_id)`` globally.

        "Ahead" uses the index's total order: higher score first, ties
        broken by ascending article id. The probe article need not be
        in this index — shards use this to compute an article's global
        rank as ``1 + sum(count_ranked_above(...) per shard)``.
        O(log n) via binary search on the sorted arrays.
        """
        lo = int(np.searchsorted(self._neg_scores, -score, side="left"))
        hi = int(np.searchsorted(self._neg_scores, -score, side="right"))
        # Everything before `lo` has a strictly higher score; within the
        # tie run [lo, hi) ids ascend, so ids below the probe's are
        # ahead of it.
        return lo + int(np.searchsorted(self._ids[lo:hi], article_id,
                                        side="left"))

    # ------------------------------------------------------------------
    # retrieval

    def _entry(self, position: int, rank: int) -> RankEntry:
        article_id = int(self._ids[position])
        article = self._dataset.articles[article_id]
        return RankEntry(rank=rank, article_id=article_id,
                         score=float(self._scores[position]),
                         year=article.year, title=article.title)

    def top(self, k: int = 10, venue_id: Optional[int] = None,
            author_id: Optional[int] = None,
            year_range: Optional[Tuple[int, int]] = None
            ) -> List[RankEntry]:
        """Best ``k`` articles matching every given filter.

        Returned ``rank`` values are positions *within the filtered
        list* (1-based). Filters compose (AND semantics).
        """
        if k <= 0:
            raise ConfigError("k must be positive")
        results: List[RankEntry] = []
        for rank, position in enumerate(
                self._filtered_positions(venue_id, author_id, year_range),
                start=1):
            results.append(self._entry(position, rank))
            if len(results) >= k:
                break
        return results

    def page(self, offset: int, limit: int) -> List[RankEntry]:
        """Global ranking slice ``[offset, offset+limit)`` (0-based)."""
        if offset < 0 or limit <= 0:
            raise ConfigError("offset must be >= 0 and limit positive")
        stop = min(offset + limit, len(self._ids))
        return [self._entry(position, position + 1)
                for position in range(offset, stop)]

    def _filtered_positions(self, venue_id: Optional[int],
                            author_id: Optional[int],
                            year_range: Optional[Tuple[int, int]]
                            ) -> Iterator[int]:
        """Positions in score order matching the filters."""
        if year_range is not None and year_range[0] > year_range[1]:
            raise ConfigError("year_range must be (low, high)")

        empty = np.zeros(0, dtype=np.int64)
        candidates: Optional[np.ndarray] = None
        if venue_id is not None:
            candidates = self._by_venue.get(venue_id, empty)
        if author_id is not None:
            author_positions = self._by_author.get(author_id, empty)
            if candidates is None:
                candidates = author_positions
            else:
                # Both posting lists are sorted and duplicate-free;
                # intersect1d keeps the ascending (= best-score-first)
                # order.
                candidates = np.intersect1d(candidates, author_positions,
                                            assume_unique=True)

        positions = candidates if candidates is not None \
            else range(len(self._ids))
        for position in positions:
            if year_range is not None:
                year = int(self._years[position])
                if not year_range[0] <= year <= year_range[1]:
                    continue
            yield int(position)
