"""The live engine's ArticleColumns stay equal to a cold rebuild through
batches, rollbacks and resumes; unregistered venues rank as venue-less."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.model import ArticleRanker
from repro.data.columns import ArticleColumns
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.data.schema import Article, ScholarlyDataset
from repro.engine.live import LiveRanker
from repro.engine.updates import UpdateBatch
from repro.resilience import FaultPlan
from repro.serve import RankingService

#: Ids held back from the base and delivered in a late, out-of-order
#: batch (the engine's full-rebuild fallback).
LATE_IDS = (17, 123, 251)


def _stream(num_batches: int = 20, seed: int = 5):
    """A base corpus plus ``num_batches`` arrival batches: ascending new
    ids, late citations between existing articles, one batch of
    held-back (out-of-order) ids and one empty batch."""
    full = generate_dataset(GeneratorConfig(
        num_articles=600, num_venues=6, num_authors=120, seed=seed))
    ordered = sorted(full.articles)
    base_ids = [i for i in ordered[:400] if i not in LATE_IDS]
    base = ScholarlyDataset(name="base")
    base.venues.update(full.venues)
    base.authors.update(full.authors)
    for article_id in base_ids:
        base.add_article(full.articles[article_id])
    rng = np.random.default_rng(seed)
    pending = ordered[400:]
    per_batch = len(pending) // (num_batches - 2)
    batches = []
    known = list(base_ids)
    for number in range(num_batches):
        if number == 7:
            articles = [full.articles[i] for i in LATE_IDS]
        elif number == 11:
            articles = []
        else:
            articles = [full.articles[i] for i in pending[:per_batch]]
            pending = pending[per_batch:]
        known.extend(a.id for a in articles)
        citations = []
        if number % 3 == 1:
            for _ in range(4):
                citing, cited = sorted(rng.choice(known, 2, replace=False))
                citations.append((int(cited), int(citing)))
        batches.append(UpdateBatch(articles=tuple(articles),
                                   citations=tuple(citations)))
    return base, batches


def _columns_match_cold(live: LiveRanker) -> bool:
    engine = live._engine
    return (live.columns.equals(ArticleColumns.of(live.dataset))
            and np.array_equal(live.columns.ids, engine.graph.node_ids))


class TestColumnsTrackTheCorpus:
    def test_twenty_batches_equal_cold_columns(self):
        base, batches = _stream()
        live = LiveRanker(base)
        assert _columns_match_cold(live)
        for batch in batches:
            live.apply(batch)
            assert _columns_match_cold(live)
        cold = ArticleRanker().rank(live.dataset)
        assert np.array_equal(live.result.node_ids, cold.node_ids)
        # Venue and author features depend on the columns only, never
        # on the incremental prestige drift.
        assert np.array_equal(live.result.components["venue_feature"],
                              cold.components["venue_feature"])

    def test_resume_rebuilds_columns_from_dataset(self, tmp_path):
        base, batches = _stream(num_batches=6)
        live = LiveRanker(base, checkpoint_dir=tmp_path)
        for batch in batches:
            live.apply(batch)
        live.checkpoint()
        resumed = LiveRanker.resume(tmp_path)
        assert resumed.columns.equals(ArticleColumns.of(resumed.dataset))
        assert resumed.columns.equals(live.columns)
        assert np.array_equal(resumed.result.scores, live.result.scores)


class TestRollbackRestoresColumns:
    def test_crash_then_good_batch(self):
        base, batches = _stream(num_batches=4)
        service = RankingService(
            LiveRanker(base), fault_plan=FaultPlan().crash_batch(0))
        before = service._live.columns
        report = service.ingest(batches[0])
        assert report.status == "published"  # the retry went through
        assert service.health()["update_failures_total"] == 1
        assert _columns_match_cold(service._live)
        assert len(service._live.columns) > len(before)
        service.ingest(batches[1])
        assert _columns_match_cold(service._live)

    def test_failure_after_engine_advanced_rolls_columns_back(self):
        base, batches = _stream(num_batches=4)
        live = LiveRanker(base)
        service = RankingService(live, max_batch_attempts=1)
        before = live.columns
        assemble = live._ranker.rank_with_prestige
        calls = {"n": 0}

        def crash_once(*args, **kwargs):
            # The engine has already applied the batch when this runs.
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("assembly died mid-apply")
            return assemble(*args, **kwargs)

        live._ranker.rank_with_prestige = crash_once
        assert service.ingest(batches[0]).status == "quarantined"
        assert live.columns is before
        assert _columns_match_cold(live)
        assert service.ingest(batches[0]).status == "published"
        assert _columns_match_cold(live)
        assert len(live.columns) == len(before) \
            + len(batches[0].articles)

    def test_vetoed_batch_keeps_previous_columns(self):
        base, batches = _stream(num_batches=4)
        live = LiveRanker(base)
        service = RankingService(
            live, fault_plan=FaultPlan().poison_batch(0))
        before = live.columns
        report = service.ingest(batches[0])
        assert report.status == "quarantined"
        assert live.columns is before
        assert _columns_match_cold(live)
        service.ingest(batches[1])
        assert _columns_match_cold(live)

    def test_resumed_ranker_can_be_served(self, tmp_path):
        base, batches = _stream(num_batches=4)
        live = LiveRanker(base, checkpoint_dir=tmp_path)
        live.checkpoint()
        service = RankingService(LiveRanker.resume(tmp_path))
        assert service.ingest(UpdateBatch(articles=())).status \
            == "published"
        assert service.ingest(batches[0]).status == "published"
        assert _columns_match_cold(service._live)


class TestUnregisteredVenue:
    """An article naming a venue the dataset does not register counts
    as venue-less: it gets the mean venue feature of the others."""

    @pytest.fixture()
    def corpus(self):
        dataset = generate_dataset(GeneratorConfig(
            num_articles=300, num_venues=5, num_authors=60, seed=3))
        newest = max(dataset.articles.values(), key=lambda a: a.id)
        stray = Article(id=newest.id + 1, title="stray", year=newest.year,
                        venue_id=99999, author_ids=newest.author_ids,
                        references=(newest.id,))
        return dataset, stray

    @staticmethod
    def _check(result, stray_id):
        feature = result.components["venue_feature"]
        row = int(np.searchsorted(result.node_ids, stray_id))
        others = np.delete(feature, row)
        assert feature[row] == float(others.mean())
        assert np.all(np.isfinite(result.scores))

    def test_rank(self, corpus):
        dataset, stray = corpus
        dataset.add_article(stray)
        result = ArticleRanker().rank(dataset)
        self._check(result, stray.id)
        # Exactly the ranking of the same article without a venue.
        venue_less = ScholarlyDataset()
        venue_less.venues.update(dataset.venues)
        venue_less.authors.update(dataset.authors)
        venue_less.articles.update(dataset.articles)
        venue_less.articles[stray.id] = replace(stray, venue_id=None)
        assert np.array_equal(result.scores,
                              ArticleRanker().rank(venue_less).scores)

    def test_live_apply(self, corpus):
        dataset, stray = corpus
        live = LiveRanker(dataset)
        result, _ = live.apply(UpdateBatch(articles=(stray,)))
        self._check(result, stray.id)
