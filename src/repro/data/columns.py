"""Array view of the per-article attributes the model and index read.

:class:`ArticleColumns` holds, in ascending article id order (the node
order of :meth:`ScholarlyDataset.citation_csr`), each article's year,
venue id and author list as flat numpy arrays. The assembled model's
venue/author stages and the serving index gather and ``bincount`` over
these arrays instead of walking ``Article`` objects, and a live engine
extends them per arrival batch in O(batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.errors import NodeNotFoundError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.data.schema import Article, ScholarlyDataset

#: Venue id stored for articles without a venue.
NO_VENUE = -1

_by_id = attrgetter("id")


@dataclass(frozen=True)
class ArticleColumns:
    """Per-article attributes as arrays, ascending article id order.

    Attributes:
        ids: ``int64[n]`` article ids, strictly ascending.
        years: ``int64[n]`` publication years.
        venues: ``int64[n]`` raw venue ids (:data:`NO_VENUE` = none);
            whether a venue is registered in the dataset is decided by
            the reader, not here.
        author_indptr: ``int64[n+1]`` slice boundaries into
            ``author_ids`` per article.
        author_ids: ``int64[nnz]`` raw author ids, each article's in its
            ``Article.author_ids`` order.
    """

    ids: np.ndarray
    years: np.ndarray
    venues: np.ndarray
    author_indptr: np.ndarray
    author_ids: np.ndarray

    @classmethod
    def of(cls, dataset: "ScholarlyDataset") -> "ArticleColumns":
        """Columns of every article of ``dataset`` (one pass)."""
        return cls.from_articles(dataset.articles.values())

    @classmethod
    def from_articles(cls, articles: Iterable["Article"]
                      ) -> "ArticleColumns":
        """Columns of ``articles`` (any order; ids must be distinct)."""
        rows = sorted(articles, key=_by_id)
        n = len(rows)
        counts = np.fromiter((len(a.author_ids) for a in rows),
                             dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            ids=np.fromiter(map(_by_id, rows), dtype=np.int64, count=n),
            years=np.fromiter((a.year for a in rows), dtype=np.int64,
                              count=n),
            venues=np.fromiter(
                (NO_VENUE if a.venue_id is None else a.venue_id
                 for a in rows), dtype=np.int64, count=n),
            author_indptr=indptr,
            author_ids=np.fromiter(
                chain.from_iterable(a.author_ids for a in rows),
                dtype=np.int64, count=int(indptr[-1])))

    def __len__(self) -> int:
        return len(self.ids)

    def append(self, articles: Iterable["Article"]
               ) -> Optional["ArticleColumns"]:
        """These columns plus ``articles``, in O(batch).

        Returns ``None`` when some new id does not exceed every present
        id (the ascending order cannot be kept by appending); the caller
        then rebuilds with :meth:`of`.
        """
        tail = ArticleColumns.from_articles(articles)
        if not len(tail):
            return self
        if len(self) and tail.ids[0] <= self.ids[-1]:
            return None
        return ArticleColumns(
            ids=np.concatenate([self.ids, tail.ids]),
            years=np.concatenate([self.years, tail.years]),
            venues=np.concatenate([self.venues, tail.venues]),
            author_indptr=np.concatenate([
                self.author_indptr,
                self.author_indptr[-1] + tail.author_indptr[1:]]),
            author_ids=np.concatenate([self.author_ids, tail.author_ids]))

    def author_rows(self) -> np.ndarray:
        """``int64[nnz]`` article row of every ``author_ids`` entry."""
        return np.repeat(np.arange(len(self), dtype=np.int64),
                         np.diff(self.author_indptr))

    def rows_of(self, article_ids) -> np.ndarray:
        """Row index of each id in ``article_ids``.

        Raises :class:`NodeNotFoundError` for an id not in the columns.
        """
        wanted = np.asarray(article_ids, dtype=np.int64)
        rows = lookup(self.ids, wanted)
        if np.any(rows < 0):
            raise NodeNotFoundError(int(wanted[rows < 0][0]))
        return rows

    def equals(self, other: "ArticleColumns") -> bool:
        """Every column equal, element for element."""
        return all(np.array_equal(getattr(self, name),
                                  getattr(other, name))
                   for name in ("ids", "years", "venues", "author_indptr",
                                "author_ids"))


def lookup(sorted_keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in ``sorted_keys``; -1 where absent."""
    values = np.asarray(values, dtype=np.int64)
    if not len(sorted_keys):
        return np.full(values.shape, -1, dtype=np.int64)
    positions = np.searchsorted(sorted_keys, values)
    clipped = np.minimum(positions, len(sorted_keys) - 1)
    return np.where(sorted_keys[clipped] == values, clipped, -1)
