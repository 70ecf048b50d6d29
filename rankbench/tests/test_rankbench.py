"""The benchmark's own tests: quantile refusal, span self time, metric
names, and a tiny-scale run of every workload through its gates."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from rankbench import batch_rank, host, serve_mixed, stats, write_stream
from rankbench.harness import ROOT, Context, Outcome
from rankbench.run import END_TO_END, PER_LAYER, WORKLOADS, _metrics
from rankbench.spans import Recorder, Span, covered


# ---------------------------------------------------------------- quantiles

@pytest.mark.parametrize("count", [1, 2, 7, 20, 101, 1000])
def test_percentile_matches_numpy_linear(count):
    rng = random.Random(count)
    samples = [rng.expovariate(1.0) for _ in range(count)]
    for pct in (0, 10, 25, 50, 75, 90, 99, 99.9, 100):
        if pct > 50 and stats.samples_beyond(count, pct) < stats.MIN_BEYOND:
            continue
        assert stats.percentile(samples, pct) == pytest.approx(
            float(np.percentile(samples, pct)), rel=1e-12, abs=1e-12)


def test_percentile_refuses_fewer_than_ten_beyond():
    samples = list(range(100))
    assert stats.percentile(samples, 90) == pytest.approx(89.1)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(samples, 91)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 75)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50)
    # The median is always reported, with its sample count.
    assert stats.median([3.0, 1.0, 2.0]) == 2.0


def test_slow_percentile_keeps_ten_samples_beyond():
    assert stats.slow_percentile(20) == 50
    assert stats.slow_percentile(21) == 52
    assert stats.slow_percentile(40) == 75
    assert stats.slow_percentile(100) == 90
    assert stats.slow_percentile(3200) == 99
    for count in (20, 21, 33, 40, 99, 1000, 3200):
        pct = stats.slow_percentile(count)
        assert stats.samples_beyond(count, pct) >= stats.MIN_BEYOND
        stats.percentile(list(range(count)), pct)


def test_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    summary = stats.spread(values)
    assert summary["median"] == 14.5
    assert summary["spread"] == pytest.approx(
        (summary["q3"] - summary["q1"]) / 14.5)


# -------------------------------------------------------------- span time

def test_covered_counts_overlapping_children_once():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (6.0, 7.0)]) == 3.0
    # Nested and identical intervals, and children spilling outside.
    assert covered((0.0, 10.0), [(2.0, 8.0), (3.0, 4.0), (2.0, 8.0)]) == 6.0
    assert covered((0.0, 10.0), [(-5.0, 2.0), (9.0, 12.0)]) == 3.0


def test_self_time_subtracts_children():
    rec = Recorder(enabled=True)
    rec.spans = [
        Span(0, "serve.write", 0, None, 0.0, 1.0),
        Span(1, "engine.apply", 0, 0, 0.1, 0.6),
        Span(2, "engine.inner", 0, 1, 0.2, 0.3),  # grandchild: not counted
        Span(3, "engine.other", 0, 0, 0.5, 0.7),  # overlaps the first child
    ]
    assert rec.self_times_ms("serve.write") == [pytest.approx(400.0)]
    assert rec.self_times_ms("engine.apply") == [pytest.approx(400.0)]
    assert rec.durations_ms("engine.apply") == [pytest.approx(500.0)]


def test_recorder_nesting_pause_and_disabled():
    rec = Recorder(enabled=True)
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.paused():
            with rec.span("hidden"):
                rec.count("hidden.count", 1)
    with rec.span("second"):
        pass
    names = {span.name: span for span in rec.spans}
    assert set(names) == {"outer", "inner", "second"}
    assert names["inner"].parent_id == names["outer"].span_id
    assert names["inner"].trace_id == names["outer"].trace_id
    assert names["second"].trace_id != names["outer"].trace_id
    assert rec.counts == {}
    off = Recorder(enabled=False)
    with off.span("anything"):
        off.count("anything", 1)
    assert off.spans == [] and off.counts == {}


# ---------------------------------------------------------------- contract

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}


def test_metric_names_and_units_match_benchmark_json():
    assert list(E2E_UNITS) == list(END_TO_END)
    assert [m["name"] for m in CONFIG["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)
    unreached = _metrics(Outcome(), trace=True)
    assert {name: metric["unit"] for name, metric in unreached.items()} \
        == {m["name"]: m["unit"] for m in CONFIG["per_layer"]}


def test_drift_reference_is_the_median_probe_near_the_operation():
    probe = host.DriftProbe(repeats=1)
    probe.samples = [(0.0, 9.0), (10.0, 4.0), (11.0, 5.0), (12.0, 6.0),
                     (30.0, 1.0)]
    window = host.REFERENCE_WINDOW_S
    assert probe.reference_ms(10.5, 11.5) == 5.0
    assert probe.reference_ms(30.0 - window + 0.5, 30.0) == 1.0
    # No probe run near the operation: fall back to the whole run.
    assert probe.reference_ms(100.0, 101.0) == 5.0
    assert host.normalized_ms(10.0, host.REFERENCE_NOMINAL_MS * 2) == 5.0


# --------------------------------------------------------- tiny workloads

TINY = {
    "batch-rank": (batch_rank, batch_rank.Scale(
        articles=400, operations=20, cold_starts=1)),
    "write-stream": (write_stream, write_stream.Scale(
        articles=400, batches=6, batch_size=8, checkpoint_every=3,
        segment_records=16)),
    "serve-mixed": (serve_mixed, serve_mixed.Scale(
        articles=400, phase_s=1.5, write_batch=5)),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_passes_its_gates(workload, trace, tmp_path):
    module, scale = TINY[workload]
    segments = host.shm_segments()
    ctx = Context(seed=3, trace=trace, workdir=tmp_path)
    outcome = module.run(ctx, scale)
    host.stop_resource_tracker()
    assert outcome.failures == []
    assert outcome.failed == 0 and outcome.attempted > 0
    assert {name: unit for name, (_, unit) in outcome.end_to_end.items()} \
        == E2E_UNITS
    assert all(value > 0 for value, _ in outcome.end_to_end.values())
    assert set(outcome.per_layer) <= set(PER_LAYER)
    if trace:
        assert outcome.per_layer["trace.overhead_ratio"][0] > 0
    assert host.shm_segments() <= segments
    assert host.child_pids() == []


def test_exact_feed_admits_exactly_the_planned_items():
    from repro.data.generator import GeneratorConfig, generate_dataset

    dataset = generate_dataset(GeneratorConfig(num_articles=300, seed=5))
    feed, reference = write_stream.exact_feed(dataset, 40, seed=5)
    assert len(reference.articles) + len(reference.citations) == 40
    shorter = write_stream._PrefixSource(feed, len(feed) - 1)
    from repro.ingest import fault_free_reference

    fewer = fault_free_reference(shorter, dataset)
    assert len(fewer.articles) + len(fewer.citations) == 39
