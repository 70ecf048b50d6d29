"""``write-stream``: the write path at one 50k base corpus, closed loop.

A :class:`SyntheticSource` feed (duplicates and late citations on) runs
through a :class:`PartitionedIngestPipeline` (K=2 partition journals,
segment archival on, a commit — ranker checkpoint plus cursors — every
:attr:`Scale.checkpoint_every` batches) into an inline 2-shard
:class:`ShardedGateway`; nothing reads meanwhile. One operation is one
coalesced batch, timed from its ``sink.ingest`` call until the gateway
has published it on every shard. Checkpoints fall outside that interval
and are timed on their own. The feed is cut so that exactly
``batches * batch_size`` items are admitted: every run applies the same
number of full batches, in the same order, whatever the host's speed.

Incremental apply, reassembly, ``RankIndex`` rebuild, board publish,
checkpoint and the journal only show up here.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass

from rankbench import host, stats
from rankbench.harness import (Context, OpSamples, Outcome,
                               final_state_layers, measured_live_ranker,
                               rank_by_layer, repeat_setup, rotation_bytes,
                               setup_seconds, summary_lines, timed,
                               write_layers)

#: A stated L1 bound on maintained vs cold-solved prestige. The
#: incremental engine's delta threshold (1e-3 per node) bounds each
#: skipped update; the drift measured at 50k articles after 21 batches
#: is about 2e-5, so this is a generous ceiling, not a fit.
PRESTIGE_L1_BOUND = 1e-2
#: Served top-100 vs a cold ArticleRanker.rank of the final corpus.
TOP_OVERLAP_MIN = 0.95
TOP_K = 100
PARTITIONS = 2
SHARDS = 2
RESTARTS = 3


@dataclass(frozen=True)
class Scale:
    articles: int
    batches: int
    batch_size: int = 48
    checkpoint_every: int = 7
    segment_records: int = 64


def scale_for(seconds: int) -> Scale:
    """About 1.3 batches per second of ``--seconds`` (a 50k batch takes
    about 0.9 s on a 2-core host), in whole checkpoint intervals."""
    batches = max(2 * stats.MIN_BEYOND, round(1.3 * seconds))
    every = Scale.checkpoint_every
    return Scale(articles=50_000, batches=every * -(-batches // every))


class _PrefixSource:
    """The first ``length`` records of a seekable source."""

    def __init__(self, source, length: int) -> None:
        self._source = source
        self._length = length

    def __len__(self) -> int:
        return self._length

    def get(self, position: int):
        if position >= self._length:
            return None
        return self._source.get(position)


def _admitted(batch) -> int:
    return len(batch.articles) + len(batch.citations)


def exact_feed(dataset, items: int, seed: int):
    """A feed (duplicates every 9th record, a late citation every 5th)
    cut right after the record that brings the fault-free admitted count
    to exactly ``items``; returns it with its reference batch."""
    from repro.ingest import SyntheticSource, fault_free_reference

    source = SyntheticSource(sorted(dataset.articles), 2 * items + 64,
                             seed=seed, duplicate_every=9, cite_every=5)
    low, high = 1, len(source)
    if _admitted(fault_free_reference(source, dataset)) < items:
        raise RuntimeError(f"feed admits fewer than {items} items")
    while low < high:
        middle = (low + high) // 2
        if _admitted(fault_free_reference(_PrefixSource(source, middle),
                                          dataset)) >= items:
            high = middle
        else:
            low = middle + 1
    feed = _PrefixSource(source, low)
    return feed, fault_free_reference(feed, dataset)


def run(ctx: Context, scale: Scale) -> Outcome:
    from repro.core.model import ArticleRanker
    from repro.data.generator import GeneratorConfig, generate_dataset
    from repro.engine.live import checkpoint_rotations
    from repro.engine.updates import apply_update
    from repro.ingest import Coalescer, PartitionedIngestPipeline
    from repro.ingest.sim import datasets_equal
    from repro.serve import ShardedGateway

    out = Outcome()
    rec = ctx.recorder
    latency = OpSamples(ctx.probe)
    checkpoints = OpSamples(ctx.probe)
    live_class = measured_live_ranker(ctx, checkpoints)

    class MeasuredSink:
        """The gateway as the pipeline's sink, one timed op per batch;
        in the traced run every other batch is left untraced."""

        def __init__(self, gateway) -> None:
            self.gateway = gateway

        def ingest(self, batch):
            if ctx.trace and len(latency.raw_ms) % 2 == 0:
                with rec.span("serve.write"):
                    return timed(ctx, latency,
                                 lambda: self.gateway.ingest(batch))
            with rec.paused():
                return timed(ctx, latency,
                             lambda: self.gateway.ingest(batch))

    def coalescer():
        return Coalescer(max_queue=4 * scale.batch_size,
                         min_batch=scale.batch_size,
                         max_batch=scale.batch_size)

    def setup(attempt: int):
        dataset = generate_dataset(GeneratorConfig(
            num_articles=scale.articles, seed=ctx.seed))
        feed, reference = exact_feed(
            dataset, scale.batches * scale.batch_size, ctx.seed)
        checkpoint_dir = ctx.scratch(f"checkpoints-{attempt}")
        journal_root = ctx.scratch(f"journal-{attempt}")
        live = live_class(dataset, checkpoint_dir=checkpoint_dir)
        gateway = ShardedGateway(live, SHARDS, mode="inline")
        pipeline = PartitionedIngestPipeline(
            live, feed, journal_root, PARTITIONS, coalescer=coalescer(),
            checkpoint_batches=scale.checkpoint_every,
            segment_records=scale.segment_records, compaction="archive",
            sink=MeasuredSink(gateway))
        return (dataset, feed, reference, live, gateway, pipeline,
                checkpoint_dir, journal_root)

    def teardown(state) -> None:
        state[4].close()
        for directory in state[6:]:
            shutil.rmtree(directory, ignore_errors=True)

    state, setup_s = repeat_setup(ctx, setup, teardown)
    (base, feed, reference, live, gateway, pipeline, checkpoint_dir,
     journal_root) = state
    restart = OpSamples(ctx.probe)
    final_layers = {}
    try:
        probes_before = len(ctx.probe.samples)
        started = time.perf_counter()
        report = pipeline.run()
        run_ms = (time.perf_counter() - started) * 1000.0
        # The loop excludes the probe runs the benchmark put inside it.
        loop_ms = run_ms - sum(ctx.probe.samples_ms[probes_before:])
        out.attempted += report.batches_applied

        out.gate(report.batches_applied == scale.batches,
                 f"applied {report.batches_applied} batches, planned "
                 f"{scale.batches}")
        expected = apply_update(base, reference)
        served = live.dataset
        out.gate(datasets_equal(served, expected),
                 "served corpus differs from the fault-free reference "
                 f"({len(served.articles) - len(base.articles)} articles "
                 f"applied, {len(expected.articles) - len(base.articles)} "
                 f"expected; {served.num_citations} citations, "
                 f"{expected.num_citations} expected)")
        out.gate(gateway.board_epoch == scale.batches,
                 f"board epoch {gateway.board_epoch} after "
                 f"{scale.batches} batches")
        drift = live.prestige_error_vs_exact()
        out.gate(drift <= PRESTIGE_L1_BOUND,
                 f"maintained prestige is {drift:.3g} (L1) from a cold "
                 f"solve, bound {PRESTIGE_L1_BOUND}")
        served_top = gateway.top_sync(TOP_K)
        out.gate(served_top.complete, "final read missed a shard")
        cold = rank_by_layer(rec, ArticleRanker(), served)
        cold_ids = {article_id for article_id, _ in cold.top(TOP_K)}
        overlap = len(cold_ids & {entry.article_id
                                  for entry in served_top.entries}) / TOP_K
        out.gate(overlap >= TOP_OVERLAP_MIN,
                 f"served top-{TOP_K} overlaps a cold rank by {overlap:.2f}"
                 f", need {TOP_OVERLAP_MIN}")
        out.note(f"prestige L1 vs cold solve {drift:.3g}; served top-"
                 f"{TOP_K} overlap {overlap:.2f}")

        # Restart (traced run): a fresh pipeline resumes from the last
        # commit and catches up; nothing may be applied twice.
        for attempt in range(RESTARTS if ctx.trace else 0):
            gc.collect()
            resumed = timed(ctx, restart, lambda: _restart(
                PartitionedIngestPipeline, checkpoint_dir, journal_root,
                feed, coalescer(), scale))
            out.gate(resumed.report.batches_applied == 0
                     and datasets_equal(resumed.live.dataset, served),
                     f"restart {attempt} from the last commit changed the "
                     f"corpus")
            del resumed

        checkpoint_bytes = rotation_bytes(
            checkpoint_rotations(checkpoint_dir)[0])
        if ctx.trace:
            final_layers = final_state_layers(ctx, out, served,
                                              live.result.by_id())
    finally:
        teardown(state)

    summary = stats.Summary.of(latency.norm_ms)
    out.end_to_end = {
        "latency_ms": (summary.median, "ref-ms"),
        "work_per_s": (report.records_pulled / _normalized_seconds(
            loop_ms, latency, checkpoints), "1/s"),
        "peak_rss_mb": (host.peak_rss_mb(), "MiB"),
        "setup_s": setup_seconds(out, setup_s),
    }
    out.note(summary_lines("batch latency", latency.norm_ms, "ref-ms"))
    out.note(summary_lines("batch latency raw", latency.raw_ms, "ms"))
    out.note(summary_lines("checkpoint", checkpoints.norm_ms, "ref-ms"))
    out.note(f"feed: {report.records_pulled} records pulled, "
             f"{report.duplicates_skipped} duplicates skipped, "
             f"{report.batches_applied} batches, run {run_ms:.0f} ms")

    useful = report.articles_applied + report.citations_applied
    out.per_layer = {
        "host.raw_latency_ms": (stats.median(latency.raw_ms), "ms"),
        "ingest.records_pulled": (report.records_pulled, "count"),
        "ingest.duplicates_skipped": (report.duplicates_skipped, "count"),
        "ingest.useful_ratio": (useful / report.records_pulled, "ratio"),
        "ingest.segments_archived": (report.segments_archived, "count"),
        "ingest.self_ms": ((loop_ms - sum(latency.raw_ms)
                            - sum(checkpoints.raw_ms))
                           / report.batches_applied, "ms"),
        "engine.checkpoint_bytes": (checkpoint_bytes, "bytes"),
    }
    if ctx.trace:
        normalized = latency.norm_ms
        out.note(summary_lines("restart", restart.norm_ms, "ref-ms"))
        out.per_layer.update({
            "latency_slow_ms": (summary.slow, "ref-ms"),
            "cold_start_ms": (stats.median(restart.norm_ms), "ref-ms"),
            "checkpoint_ms": (stats.median(checkpoints.norm_ms), "ref-ms"),
        })
        out.per_layer.update(final_layers)
        out.per_layer.update(write_layers(ctx))
        out.per_layer["trace.overhead_ratio"] = (
            stats.median(normalized[0::2]) / stats.median(normalized[1::2]),
            "ratio")
    return out


def _normalized_seconds(loop_ms: float, latency: OpSamples,
                        checkpoints: OpSamples) -> float:
    """The measured loop's time on the nominal host: batches and
    checkpoints by their own probes, the rest (journal, admission) by
    the run's median probe."""
    timed_raw = sum(latency.raw_ms) + sum(checkpoints.raw_ms)
    timed_norm = sum(latency.norm_ms) + sum(checkpoints.norm_ms)
    references = latency.reference_ms + checkpoints.reference_ms
    rest = host.normalized_ms(loop_ms - timed_raw, stats.median(references))
    return (timed_norm + rest) / 1000.0


def _restart(pipeline_cls, checkpoint_dir, journal_root, feed, coalescer,
             scale: Scale):
    pipeline = pipeline_cls.resume(
        checkpoint_dir, journal_root, feed, PARTITIONS, coalescer=coalescer,
        checkpoint_batches=scale.checkpoint_every,
        segment_records=scale.segment_records, compaction="archive")
    pipeline.run()
    return pipeline
