"""ArticleColumns: the array view of per-article attributes."""

import numpy as np
import pytest

from repro.errors import NodeNotFoundError
from repro.data.columns import NO_VENUE, ArticleColumns, lookup
from repro.data.schema import Article


def _article(article_id, year=2000, venue_id=None, author_ids=()):
    return Article(id=article_id, title=f"a{article_id}", year=year,
                   venue_id=venue_id, author_ids=author_ids)


class TestOf:
    def test_ascending_id_order_matches_csr(self, small_dataset):
        columns = ArticleColumns.of(small_dataset)
        graph = small_dataset.citation_csr()
        assert np.array_equal(columns.ids, graph.node_ids)
        assert np.array_equal(columns.years,
                              small_dataset.article_years(graph))

    def test_venues_and_author_csr(self, tiny_dataset):
        columns = ArticleColumns.of(tiny_dataset)
        for row, article_id in enumerate(columns.ids.tolist()):
            article = tiny_dataset.articles[article_id]
            assert columns.venues[row] == article.venue_id
            team = columns.author_ids[columns.author_indptr[row]:
                                      columns.author_indptr[row + 1]]
            assert tuple(team.tolist()) == article.author_ids

    def test_unsorted_input_and_missing_fields(self):
        columns = ArticleColumns.from_articles([
            _article(7, 2003, author_ids=(5, 1)),
            _article(2, 2001, venue_id=3),
        ])
        assert columns.ids.tolist() == [2, 7]
        assert columns.years.tolist() == [2001, 2003]
        assert columns.venues.tolist() == [3, NO_VENUE]
        assert columns.author_indptr.tolist() == [0, 0, 2]
        assert columns.author_ids.tolist() == [5, 1]
        assert columns.author_rows().tolist() == [1, 1]

    def test_empty(self):
        columns = ArticleColumns.from_articles(())
        assert len(columns) == 0
        assert columns.author_indptr.tolist() == [0]


class TestAppend:
    def test_in_order_append_equals_rebuild(self):
        head = [_article(1, author_ids=(1,)), _article(4, venue_id=2)]
        tail = [_article(9, author_ids=(2, 3)), _article(6)]
        appended = ArticleColumns.from_articles(head).append(tail)
        assert appended.equals(ArticleColumns.from_articles(head + tail))

    def test_out_of_order_returns_none(self):
        columns = ArticleColumns.from_articles([_article(5)])
        assert columns.append([_article(3)]) is None
        assert columns.append([_article(5)]) is None

    def test_empty_append_is_identity(self):
        columns = ArticleColumns.from_articles([_article(5)])
        assert columns.append(()) is columns

    def test_append_onto_empty(self):
        columns = ArticleColumns.from_articles(())
        assert columns.append([_article(3)]).ids.tolist() == [3]


class TestLookup:
    def test_lookup_marks_absent(self):
        keys = np.array([2, 5, 9])
        assert lookup(keys, [9, 2, 4, 10, 1]).tolist() == [2, 0, -1, -1,
                                                           -1]
        assert lookup(np.zeros(0, dtype=np.int64), [1]).tolist() == [-1]

    def test_rows_of(self):
        columns = ArticleColumns.from_articles([_article(3), _article(8)])
        assert columns.rows_of([8, 3]).tolist() == [1, 0]
        with pytest.raises(NodeNotFoundError):
            columns.rows_of([4])
