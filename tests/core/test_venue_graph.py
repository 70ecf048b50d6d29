"""Venue-graph aggregation tests."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.core.time_weight import exponential_decay, no_decay
from repro.core.venue_graph import build_venue_graph, venue_popularity
from repro.data.schema import Article, ScholarlyDataset, Venue


class TestBuildVenueGraph:
    def test_aggregates_cross_venue_citations(self, tiny_dataset):
        vg = build_venue_graph(tiny_dataset)
        graph = vg.graph
        assert graph.num_nodes == 2
        # Cross-venue citations: a2(V1)->a0(V0), a4(V1)->a1(V0),
        # a4(V1)->a2(V1, self loop dropped).
        idx1 = graph.index_of(1)
        idx0 = graph.index_of(0)
        assert graph.num_edges == 1
        assert graph.neighbors(idx1).tolist() == [idx0]
        assert graph.neighbor_weights(idx1)[0] == pytest.approx(2.0)

    def test_self_loops_included_on_request(self, tiny_dataset):
        vg = build_venue_graph(tiny_dataset, include_self_loops=True)
        # Adds V0->V0 (a1->a0, a3->a1) and V1->V1 (a4->a2).
        assert vg.graph.num_edges == 3

    def test_decay_weights_edges(self, tiny_dataset):
        decay = exponential_decay(0.5)
        vg = build_venue_graph(tiny_dataset, decay=decay)
        idx1 = vg.graph.index_of(1)
        weight = vg.graph.neighbor_weights(idx1)[0]
        # a2(2005)->a0(2000): gap 5; a4(2010)->a1(2003): gap 7.
        assert weight == pytest.approx(np.exp(-2.5) + np.exp(-3.5))

    def test_citation_counts_raw(self, tiny_dataset):
        vg = build_venue_graph(tiny_dataset, decay=exponential_decay(0.5))
        assert vg.citation_counts.tolist() == [2.0]

    def test_requires_venues(self):
        dataset = ScholarlyDataset()
        dataset.add_article(Article(id=1, title="x", year=2000))
        with pytest.raises(DatasetError):
            build_venue_graph(dataset)

    def test_articles_without_venue_skipped(self):
        dataset = ScholarlyDataset()
        dataset.add_venue(Venue(id=0, name="V"))
        dataset.add_article(Article(id=0, title="a", year=2000,
                                    venue_id=0))
        dataset.add_article(Article(id=1, title="b", year=2005,
                                    venue_id=None, references=(0,)))
        vg = build_venue_graph(dataset)
        assert vg.graph.num_edges == 0

    def test_generated_dataset(self, small_dataset):
        vg = build_venue_graph(small_dataset)
        assert vg.graph.num_nodes == small_dataset.num_venues
        assert vg.graph.num_edges > 0
        assert (vg.citation_counts >= 1).all()


    def test_dense_and_sorted_pair_aggregation_agree(self, monkeypatch):
        import repro.core.venue_graph as venue_graph
        from repro.data.generator import GeneratorConfig, generate_dataset

        # 300 venues: more pairs than edges, so the sorted path runs
        # unless the dense table is forced.
        dataset = generate_dataset(GeneratorConfig(
            num_articles=1500, num_venues=300, num_authors=200, seed=8))
        decay = exponential_decay(0.1)
        sparse = build_venue_graph(dataset, decay=decay)
        monkeypatch.setattr(venue_graph, "_DENSE_PAIRS", 1 << 30)
        dense = build_venue_graph(dataset, decay=decay)
        for name in ("indptr", "indices", "weights", "node_ids"):
            assert np.array_equal(getattr(dense.graph, name),
                                  getattr(sparse.graph, name))
        assert np.array_equal(dense.citation_counts,
                              sparse.citation_counts)
        assert sparse.graph.num_edges > 0


class TestVenuePopularity:
    def test_hand_computed(self, tiny_dataset):
        decay = exponential_decay(0.5)
        vg = build_venue_graph(tiny_dataset)
        pop = venue_popularity(tiny_dataset, 2010, decay, vg)
        # Citations into V0: a1->a0 (citing 2003), a2->a0 (2005),
        # a3->a1 (2008), a4->a1 (2010).
        v0 = np.exp(-0.5 * 7) + np.exp(-0.5 * 5) + np.exp(-0.5 * 2) + 1.0
        # Citations into V1: a4->a2 (2010).
        v1 = 1.0
        assert pop[vg.venue_index(0)] == pytest.approx(v0)
        assert pop[vg.venue_index(1)] == pytest.approx(v1)

    def test_observation_before_publication_rejected(self, tiny_dataset):
        vg = build_venue_graph(tiny_dataset)
        with pytest.raises(DatasetError):
            venue_popularity(tiny_dataset, 2005, no_decay(), vg)
