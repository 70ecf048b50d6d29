"""RankIndex built from arrays reads exactly like the per-article
reference build (kept here as the oracle)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.model import ArticleRanker
from repro.data.columns import ArticleColumns
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.errors import ConfigError
from repro.query import RankIndex


def reference_postings(dataset, scores):
    """The per-article posting-list build: score order, then one
    ``Article`` at a time."""
    ids = np.asarray(sorted(scores), dtype=np.int64)
    values = np.asarray([scores[i] for i in ids.tolist()])
    order = np.lexsort((ids, -values))
    by_venue, by_author = {}, {}
    for position, article_id in enumerate(ids[order].tolist()):
        article = dataset.articles[article_id]
        if article.venue_id is not None:
            by_venue.setdefault(article.venue_id, []).append(position)
        for author_id in article.author_ids:
            by_author.setdefault(author_id, []).append(position)
    return ids[order], by_venue, by_author


@pytest.fixture(scope="module")
def corpus():
    """Generated corpus with venue-less, authorless and multi-author
    articles, and scores with many exact ties."""
    dataset = generate_dataset(GeneratorConfig(
        num_articles=700, num_venues=7, num_authors=150, seed=21))
    rng = np.random.default_rng(4)
    for article_id in sorted(dataset.articles)[::9]:
        article = dataset.articles[article_id]
        dataset.articles[article_id] = replace(article, venue_id=None)
    for article_id in sorted(dataset.articles)[3::11]:
        article = dataset.articles[article_id]
        dataset.articles[article_id] = replace(article, author_ids=())
    result = ArticleRanker().rank(dataset)
    scores = np.round(result.scores, 2)  # coarse: plenty of ties
    scores[rng.integers(0, len(scores), 40)] = 0.5
    by_id = dict(zip(result.node_ids.tolist(), scores.tolist()))
    return dataset, result.node_ids, scores, by_id


def _ids(entries):
    return [(e.rank, e.article_id, e.score, e.year, e.title)
            for e in entries]


class TestMatchesReference:
    def test_posting_lists(self, corpus):
        dataset, _, _, by_id = corpus
        index = RankIndex(dataset, by_id)
        ranked, by_venue, by_author = reference_postings(dataset, by_id)
        assert np.array_equal(index._ids, ranked)
        assert {k: v.tolist() for k, v in index._by_venue.items()} \
            == by_venue
        assert {k: v.tolist() for k, v in index._by_author.items()} \
            == by_author
        authorless = [a for a in dataset.articles.values()
                      if not a.author_ids]
        assert authorless and any(len(a.author_ids) > 1
                                  for a in dataset.articles.values())

    def test_reads_and_ranks(self, corpus):
        dataset, _, _, by_id = corpus
        index = RankIndex(dataset, by_id)
        ranked, _, _ = reference_postings(dataset, by_id)
        order = ranked.tolist()

        def brute(predicate, k):
            rows = [i for i in order if predicate(dataset.articles[i])]
            return rows[:k]

        assert [e.article_id for e in index.top(25)] == order[:25]
        assert [e.article_id for e in index.page(40, 30)] \
            == order[40:70]
        for venue_id in list(dataset.venues) + [None]:
            got = [e.article_id for e in index.top(15, venue_id=venue_id)]
            if venue_id is None:
                assert got == order[:15]
            else:
                assert got == brute(lambda a: a.venue_id == venue_id, 15)
        for author_id in sorted(dataset.authors)[:30]:
            got = [e.article_id
                   for e in index.top(10, author_id=author_id)]
            assert got == brute(lambda a: author_id in a.author_ids, 10)
        years = (2005, 2009)
        got = [e.article_id for e in index.top(20, year_range=years)]
        assert got == brute(lambda a: years[0] <= a.year <= years[1], 20)
        for article_id in order:
            assert index.rank_of(article_id) == order.index(article_id) + 1

    def test_from_arrays_equals_mapping_constructor(self, corpus):
        dataset, node_ids, scores, by_id = corpus
        columns = ArticleColumns.of(dataset)
        assert np.array_equal(columns.ids, node_ids)
        left = RankIndex(dataset, by_id)
        right = RankIndex.from_arrays(dataset, columns, scores)
        assert _ids(left.top(len(left))) == _ids(right.top(len(right)))
        for venue_id in dataset.venues:
            assert _ids(left.top(50, venue_id=venue_id)) \
                == _ids(right.top(50, venue_id=venue_id))
        assert left._rank_of == right._rank_of

    def test_from_arrays_rejects_misaligned_scores(self, corpus):
        dataset, _, scores, _ = corpus
        with pytest.raises(ConfigError):
            RankIndex.from_arrays(dataset, ArticleColumns.of(dataset),
                                  scores[:-1])
