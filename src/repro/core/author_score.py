"""Author importance derived from article importance.

The paper treats authors as first-class entities whose importance feeds
back into article scores. Author importance here is an aggregate of the
importance of the articles they wrote; the aggregation mode is a knob
(``mean`` resists inflation by prolific-but-average authors, ``sum``
rewards productivity, ``max`` rewards one-hit wonders).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, DatasetError
from repro.data.columns import ArticleColumns, lookup
from repro.data.schema import ScholarlyDataset
from repro.graph.toposort import ragged_offsets

_MODES = ("mean", "sum", "max")


def author_positions(dataset: ScholarlyDataset, columns: ArticleColumns
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending author ids of ``dataset``, and the position among them
    of every ``columns.author_ids`` entry.

    Raises :class:`DatasetError` when an article lists an author the
    dataset does not register.
    """
    author_ids = np.sort(np.fromiter(dataset.authors, dtype=np.int64,
                                     count=len(dataset.authors)))
    positions = lookup(author_ids, columns.author_ids)
    unknown = np.flatnonzero(positions < 0)
    if len(unknown):
        entry = int(unknown[0])
        row = int(np.searchsorted(columns.author_indptr, entry,
                                  side="right")) - 1
        raise DatasetError(
            f"article {int(columns.ids[row])} references unknown author "
            f"{int(columns.author_ids[entry])}")
    return author_ids, positions


def aggregate_authors(columns: ArticleColumns, positions: np.ndarray,
                      num_authors: int, importance: np.ndarray,
                      mode: str = "mean") -> np.ndarray:
    """Per-author aggregate of article ``importance`` (row-aligned with
    ``columns``); ``positions`` comes from :func:`author_positions`."""
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {_MODES}")
    weights = np.asarray(importance, dtype=np.float64)[
        columns.author_rows()]
    if mode == "max":
        totals = np.zeros(num_authors, dtype=np.float64)
        np.maximum.at(totals, positions, weights)
        return totals
    totals = np.bincount(positions, weights=weights,
                         minlength=num_authors)
    if mode == "mean":
        counts = np.bincount(positions, minlength=num_authors)
        totals = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
    return totals


def team_mean(team_sizes: np.ndarray, member_scores: np.ndarray
              ) -> np.ndarray:
    """Mean of each article's consecutive run of ``member_scores``.

    ``team_sizes[i]`` scores belong to article ``i``. Articles without
    authors get the mean over the others, so the blend stays unbiased
    for them.
    """
    n = len(team_sizes)
    rows = np.repeat(np.arange(n, dtype=np.int64), team_sizes)
    sums = np.bincount(rows, weights=member_scores, minlength=n)
    values = np.where(team_sizes > 0, sums / np.maximum(team_sizes, 1),
                      0.0)
    missing = team_sizes == 0
    if np.any(missing) and np.any(~missing):
        values[missing] = float(values[~missing].mean())
    return values


def author_importance(dataset: ScholarlyDataset,
                      article_importance: Mapping[int, float],
                      mode: str = "mean",
                      columns: Optional[ArticleColumns] = None
                      ) -> Dict[int, float]:
    """Aggregate article importance per author.

    Args:
        dataset: provides the authorship relation.
        article_importance: article id -> importance (every article in the
            dataset must be present).
        mode: ``mean`` (default), ``sum`` or ``max``.
        columns: optional pre-built :class:`ArticleColumns` of
            ``dataset``.

    Returns:
        author id -> importance; authors with no articles score 0.
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {_MODES}")
    if columns is None:
        columns = ArticleColumns.of(dataset)
    try:
        importance = np.fromiter(
            (article_importance[article_id]
             for article_id in columns.ids.tolist()),
            dtype=np.float64, count=len(columns))
    except KeyError as exc:
        raise DatasetError(
            f"article {exc.args[0]} missing from importance map"
        ) from None
    author_ids, positions = author_positions(dataset, columns)
    totals = aggregate_authors(columns, positions, len(author_ids),
                               importance, mode)
    return dict(zip(author_ids.tolist(), totals.tolist()))


def article_author_feature(dataset: ScholarlyDataset,
                           author_scores: Mapping[int, float],
                           node_ids: np.ndarray,
                           columns: Optional[ArticleColumns] = None
                           ) -> np.ndarray:
    """Mean author importance per article, aligned with ``node_ids``.

    Articles without authors get the dataset-wide mean feature so the
    blend stays unbiased for them.
    """
    if columns is None:
        columns = ArticleColumns.of(dataset)
    rows = columns.rows_of(node_ids)
    starts = columns.author_indptr[rows]
    sizes = columns.author_indptr[rows + 1] - starts
    team = columns.author_ids[np.repeat(starts, sizes)
                              + ragged_offsets(sizes)]
    member_scores = np.fromiter(
        (author_scores[author_id] for author_id in team.tolist()),
        dtype=np.float64, count=len(team))
    return team_mean(sizes, member_scores)
