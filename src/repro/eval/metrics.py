"""Ranking-quality metrics.

All metrics take plain mappings/sequences so they work with any ranker's
output. ``scores`` maps article id -> score; higher is better. Metrics
follow the standard IR definitions; ties are handled explicitly where
they matter (pairwise accuracy gives half credit, nDCG uses the graded
relevance of whatever order ``sorted`` produces on equal scores — callers
who care break ties by id first).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigError


def _ranked_ids(scores: Mapping[int, float]) -> list:
    """Ids sorted by descending score, ties broken by ascending id."""
    return sorted(scores, key=lambda i: (-scores[i], i))


def pairwise_accuracy(scores: Mapping[int, float],
                      pairs: Iterable[Tuple[int, int]]) -> float:
    """Fraction of ``(better, worse)`` pairs the scores order correctly.

    Ties earn half credit (the judge flips a coin). Pairs whose ids are
    missing from ``scores`` raise — silently skipping them would inflate
    results.
    """
    total = 0
    credit = 0.0
    for better, worse in pairs:
        if better not in scores or worse not in scores:
            raise ConfigError(
                f"pair ({better}, {worse}) not fully covered by scores")
        total += 1
        if scores[better] > scores[worse]:
            credit += 1.0
        elif scores[better] == scores[worse]:
            credit += 0.5
    if total == 0:
        raise ConfigError("no pairs to evaluate")
    return credit / total


def precision_at_k(scores: Mapping[int, float], relevant: Set[int],
                   k: int) -> float:
    """Fraction of the top ``k`` that is relevant."""
    if k <= 0:
        raise ConfigError("k must be positive")
    top = _ranked_ids(scores)[:k]
    return sum(1 for i in top if i in relevant) / k


def recall_at_k(scores: Mapping[int, float], relevant: Set[int],
                k: int) -> float:
    """Fraction of the relevant set found in the top ``k``."""
    if k <= 0:
        raise ConfigError("k must be positive")
    if not relevant:
        raise ConfigError("relevant set is empty")
    top = _ranked_ids(scores)[:k]
    return sum(1 for i in top if i in relevant) / len(relevant)


def average_precision(scores: Mapping[int, float],
                      relevant: Set[int]) -> float:
    """Mean of precision@rank over the ranks of relevant items."""
    if not relevant:
        raise ConfigError("relevant set is empty")
    hits = 0
    precision_sum = 0.0
    for rank, article_id in enumerate(_ranked_ids(scores), start=1):
        if article_id in relevant:
            hits += 1
            precision_sum += hits / rank
    if hits == 0:
        return 0.0
    return precision_sum / len(relevant)


def ndcg_at_k(scores: Mapping[int, float],
              relevance: Mapping[int, float], k: int) -> float:
    """Normalized discounted cumulative gain at ``k`` (graded relevance).

    Items missing from ``relevance`` count as gain 0. The ideal ranking
    is computed over all of ``relevance``.
    """
    if k <= 0:
        raise ConfigError("k must be positive")
    ranked = _ranked_ids(scores)[:k]
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    dcg = sum(relevance.get(article_id, 0.0) * discounts[position]
              for position, article_id in enumerate(ranked))
    ideal_gains = sorted(relevance.values(), reverse=True)[:k]
    idcg = sum(gain * discounts[position]
               for position, gain in enumerate(ideal_gains))
    if idcg == 0:
        return 0.0
    return float(dcg / idcg)


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation of two aligned score vectors.

    A constant vector carries no ordering information; the correlation
    is defined as 0 in that case (scipy would return nan with a
    warning).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ConfigError("vectors must align")
    if len(x) < 2:
        raise ConfigError("need at least two observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    # scipy.stats costs about a second to import; only correlations
    # need it, not every importer of this module.
    from scipy import stats

    return float(stats.spearmanr(x, y).statistic)


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Kendall tau-b rank correlation of two aligned score vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ConfigError("vectors must align")
    if len(x) < 2:
        raise ConfigError("need at least two observations")
    from scipy import stats

    return float(stats.kendalltau(x, y).statistic)


def rank_disagreement(first: Mapping[int, float],
                      second: Mapping[int, float],
                      num_samples: int = 100_000,
                      seed: int = 0) -> float:
    """KDist-style probability that two rankings disagree on a random pair.

    Exact for small id sets (all pairs enumerated when cheaper than
    sampling); otherwise Monte-Carlo over ``num_samples`` id pairs. Tied
    pairs in either ranking count half.
    """
    if set(first) != set(second):
        raise ConfigError("rankings must cover the same ids")
    ids = sorted(first)
    n = len(ids)
    if n < 2:
        raise ConfigError("need at least two items")

    def disagreement(a: int, b: int) -> float:
        d1 = first[a] - first[b]
        d2 = second[a] - second[b]
        if d1 == 0 or d2 == 0:
            return 0.0 if d1 == d2 else 0.5
        return 0.0 if (d1 > 0) == (d2 > 0) else 1.0

    total_pairs = n * (n - 1) // 2
    if total_pairs <= num_samples:
        agg = sum(disagreement(ids[i], ids[j])
                  for i in range(n) for j in range(i + 1, n))
        return agg / total_pairs
    rng = np.random.default_rng(seed)
    left = rng.integers(0, n, size=num_samples)
    right = rng.integers(0, n, size=num_samples)
    keep = left != right
    agg = sum(disagreement(ids[int(a)], ids[int(b)])
              for a, b in zip(left[keep], right[keep]))
    return agg / int(keep.sum())


def top_k_overlap(first: Mapping[int, float], second: Mapping[int, float],
                  k: int) -> float:
    """Jaccard overlap of the two rankings' top-``k`` sets."""
    if k <= 0:
        raise ConfigError("k must be positive")
    top_first = set(_ranked_ids(first)[:k])
    top_second = set(_ranked_ids(second)[:k])
    union = top_first | top_second
    if not union:
        raise ConfigError("both rankings are empty")
    return len(top_first & top_second) / len(union)
