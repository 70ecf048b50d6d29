"""``serve-mixed``: the read path beside a writer, open loop.

An inline 2-shard :class:`ShardedGateway` serves a 50k corpus. One reader
thread sends reads on a fixed schedule (:data:`READ_RATE` per second,
below the sustainable rate), cycling through ``top_sync(10)``,
``page_sync(10, 10)``, a venue-filtered and a year-filtered top-10. Each
read is timed from when it was *due*, so a stall also charges the reads
queued behind it. One writer thread calls ``gateway.ingest`` with
held-out fixed-size batches every :data:`WRITE_PERIOD_S`, keeping the
writer busy for about a third of the phase, so the median read is an
uncontended one and the slow percentile shows reads stuck behind it.

It uses ``query``/``serve`` the opposite way to ``write-stream`` —
querying them rather than rebuilding them — so a faster publish that
slows reads shows up here.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List

from rankbench import host, stats
from rankbench.harness import (Context, OpSamples, Outcome,
                               final_state_layers, measured_live_ranker,
                               rank_by_layer, repeat_setup, rotation_bytes,
                               setup_seconds, summary_lines, timed,
                               write_layers)

READ_RATE = 500.0
WRITE_PERIOD_S = 4.0
FIRST_WRITE_S = 1.0
WARMUP_READS = 200
#: The reader runs a quarter-size drift probe after every 20th read
#: (about 1.5 ms in each 40 ms), so the reference sees the host as the
#: reads see it: woken from a sleep, beside the writer. A probe taken
#: outside the read phase does not track the reads at all.
PROBE_EVERY = 20
SHARDS = 2
CHECKPOINTS = 3
COLD_STARTS = 5
KINDS = ("top", "page", "venue", "year")


@dataclass(frozen=True)
class Scale:
    articles: int
    phase_s: float
    write_batch: int = 50


def scale_for(seconds: int) -> Scale:
    return Scale(articles=50_000, phase_s=float(seconds))


def _entries(result) -> List[tuple]:
    return [(entry.rank, entry.article_id, entry.score, entry.year,
             entry.title) for entry in result.entries]


def _writer_batches(dataset, count: int, size: int, seed: int):
    """``count`` held-out batches of ``size`` new articles, each citing
    three corpus articles (the clean records of a synthetic feed)."""
    from repro.engine.updates import UpdateBatch
    from repro.ingest import SyntheticSource
    from repro.ingest.source import parse_record

    source = SyntheticSource(sorted(dataset.articles), count * size,
                             seed=seed)
    articles = [parse_record(source.get(position), position).article
                for position in range(count * size)]
    return [UpdateBatch(articles=tuple(articles[start:start + size]))
            for start in range(0, count * size, size)]


class _Reads:
    """The reader thread's schedule and what it measured."""

    def __init__(self, gateway, rec, trace: bool, venue: int,
                 years) -> None:
        self.gateway = gateway
        self.rec = rec
        self.trace = trace
        self.calls = {
            "top": lambda: gateway.top_sync(10),
            "page": lambda: gateway.page_sync(10, 10),
            "venue": lambda: gateway.top_sync(10, venue_id=venue),
            "year": lambda: gateway.top_sync(10, year_range=years),
        }
        self.latency_ms: List[float] = []
        self.traced: List[bool] = []
        self.wait_ms: List[float] = []
        self.late_ms: List[float] = []
        self.service_ms: Dict[str, List[float]] = {kind: []
                                                   for kind in KINDS}
        self.failed = 0
        self.partial = 0
        self.ahead_of_board = 0
        self.errors: List[str] = []
        self.first_due = 0.0
        self.last_end = 0.0
        self.probe = host.DriftProbe(repeats=1)

    def one(self, index: int):
        kind = KINDS[index % len(KINDS)]
        with self.rec.span(f"serve.read.{kind}"):
            return kind, self.calls[kind]()

    def run(self, start: float, count: int) -> None:
        previous_end = start
        self.first_due = start
        for index in range(count):
            due = start + index / READ_RATE
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            began = time.perf_counter()
            # Whole rounds of the four kinds alternate traced/untraced.
            traced = self.trace and (index // len(KINDS)) % 2 == 0
            try:
                if traced:
                    kind, result = self.one(index)
                else:
                    with self.rec.paused():
                        kind, result = self.one(index)
            except Exception as exc:  # noqa: BLE001 - a failed read
                self.failed += 1
                self.errors.append(f"read {index}: {exc!r}")
                previous_end = time.perf_counter()
                continue
            ended = time.perf_counter()
            if result.epoch > self.gateway.board_epoch:
                self.ahead_of_board += 1
            if not result.complete:
                self.partial += 1
            self.latency_ms.append((ended - due) * 1000.0)
            self.traced.append(traced)
            self.wait_ms.append((began - due) * 1000.0)
            self.late_ms.append((began - max(due, previous_end)) * 1000.0)
            self.service_ms[kind].append((ended - began) * 1000.0)
            if index % PROBE_EVERY == PROBE_EVERY - 1:
                self.probe.measure()
            previous_end = ended
        self.last_end = previous_end


def _bring_up(live):
    """A gateway over ``live``, answering its first read."""
    from repro.serve import ShardedGateway

    gateway = ShardedGateway(live, SHARDS, mode="inline")
    try:
        gateway.top_sync(10)
    except BaseException:
        gateway.close()
        raise
    return gateway


def run(ctx: Context, scale: Scale) -> Outcome:
    from repro.core.model import ArticleRanker
    from repro.data.generator import GeneratorConfig, generate_dataset

    out = Outcome()
    rec = ctx.recorder
    writes = int((scale.phase_s - FIRST_WRITE_S) // WRITE_PERIOD_S) + 1
    live_class = measured_live_ranker(ctx)

    def setup(attempt: int):
        dataset = generate_dataset(GeneratorConfig(
            num_articles=scale.articles, seed=ctx.seed))
        batches = _writer_batches(dataset, writes, scale.write_batch,
                                  ctx.seed)
        live = live_class(
            dataset, checkpoint_dir=ctx.scratch(f"checkpoints-{attempt}"))
        return dataset, batches, live, _bring_up(live)

    def teardown(state) -> None:
        state[3].close()

    state, setup_s = repeat_setup(ctx, setup, teardown)
    dataset, batches, live, gateway = state
    cold = OpSamples(ctx.probe)
    checkpoints = OpSamples(ctx.probe)
    final_layers = {}
    try:
        top_article = live.result.top(1)[0][0]
        venue = dataset.articles[top_article].venue_id
        _, max_year = dataset.year_range()
        years = (max_year - 4, max_year)
        reads = _Reads(gateway, rec, ctx.trace, venue, years)
        for index in range(WARMUP_READS):
            with rec.paused():
                reads.one(index)

        write_reports = []
        write_ms: List[float] = []

        def writer(start: float) -> None:
            for index, batch in enumerate(batches):
                due = start + FIRST_WRITE_S + index * WRITE_PERIOD_S
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                began = time.perf_counter()
                with rec.span("serve.write"):
                    write_reports.append(gateway.ingest(batch))
                write_ms.append((time.perf_counter() - began) * 1000.0)

        count = int(READ_RATE * scale.phase_s)
        start = time.perf_counter() + 0.05
        threads = [threading.Thread(target=reads.run, args=(start, count),
                                    name="rankbench-reader"),
                   threading.Thread(target=writer, args=(start,),
                                    name="rankbench-writer")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        out.attempted += count
        out.failed += reads.failed + reads.partial
        out.failures.extend(reads.errors[:5])
        if reads.partial:
            out.failures.append(f"{reads.partial} reads missed a shard")
        out.gate(reads.ahead_of_board == 0,
                 f"{reads.ahead_of_board} reads returned an epoch ahead "
                 f"of the board")
        out.gate(len(write_reports) == writes and all(
            report.status == "published" for report in write_reports),
            f"writer batches not all published: "
            f"{[report.status for report in write_reports]}")
        out.gate(gateway.board_epoch == writes,
                 f"board epoch {gateway.board_epoch} after {writes} "
                 f"writes")
        service = gateway.service
        pairs = [
            (gateway.top_sync(10), service.top(10)),
            (gateway.page_sync(10, 10), service.page(10, 10)),
            (gateway.top_sync(10, venue_id=venue),
             service.top(10, venue_id=venue)),
            (gateway.top_sync(10, year_range=years),
             service.top(10, year_range=years)),
        ]
        for kind, (merged, direct) in zip(KINDS, pairs):
            out.gate(_entries(merged) == _entries(direct),
                     f"{kind}: gateway read differs from the service")

        snapshot_index = service.snapshot().index
        query_ms = []
        for _ in range(WARMUP_READS):
            started = time.perf_counter()
            snapshot_index.top(10)
            query_ms.append((time.perf_counter() - started) * 1000.0)

        if ctx.trace:
            for _ in range(COLD_STARTS):
                timed(ctx, cold, lambda: _bring_up(live)).close()
            for _ in range(CHECKPOINTS):
                rotation = timed(ctx, checkpoints, live.checkpoint)
            checkpoint_bytes = rotation_bytes(rotation)
            rank_by_layer(rec, ArticleRanker(), live.dataset)
            final_layers = final_state_layers(ctx, out, live.dataset,
                                              live.result.by_id())
    finally:
        teardown(state)

    reference = stats.median(reads.probe.samples_ms)
    raw = reads.latency_ms
    norm = [host.normalized_ms(value, reference) for value in raw]
    summary = stats.Summary.of(norm)
    out.end_to_end = {
        "latency_ms": (summary.median, "ref-ms"),
        "work_per_s": (len(raw) / (reads.last_end - reads.first_due),
                       "1/s"),
        "peak_rss_mb": (host.peak_rss_mb(), "MiB"),
        "setup_s": setup_seconds(out, setup_s),
    }
    out.note(summary_lines("read latency", norm, "ref-ms"))
    out.note(summary_lines("read latency raw", raw, "ms"))
    for kind in KINDS:
        out.note(summary_lines(f"read service {kind}",
                               reads.service_ms[kind], "ms"))
    out.note(summary_lines("read wait", reads.wait_ms, "ms"))
    out.note(summary_lines("generator late", reads.late_ms, "ms"))
    out.note(summary_lines("writer ingest", write_ms, "ms"))
    out.note(f"phase: {len(raw)} reads answered, {reads.failed} failed, "
             f"{reads.partial} partial; {len(write_ms)} writes; in-phase "
             f"probe {reference:.3f} ms (n={len(reads.probe.samples)})")

    slow_pct = summary.slow_pct
    out.per_layer = {
        "host.raw_latency_ms": (stats.median(raw), "ms"),
        "serve.reads_failed": (reads.failed, "count"),
        "serve.reads_partial": (reads.partial, "count"),
        "query.top_ms": (stats.median(query_ms), "ms"),
        "serve.read_wait_ms": (stats.percentile(reads.wait_ms, slow_pct),
                               "ms"),
        "serve.generator_late_ms": (stats.percentile(reads.late_ms,
                                                     slow_pct), "ms"),
    }
    for kind in KINDS:
        out.per_layer[f"serve.read_service_ms.{kind}"] = (
            stats.median(reads.service_ms[kind]), "ms")
    if ctx.trace:
        traced = [value for value, flag in zip(raw, reads.traced) if flag]
        untraced = [value for value, flag in zip(raw, reads.traced)
                    if not flag]
        out.note(summary_lines("gateway cold start", cold.norm_ms,
                               "ref-ms"))
        out.note(summary_lines("checkpoint", checkpoints.norm_ms, "ref-ms"))
        out.per_layer.update({
            "latency_slow_ms": (summary.slow, "ref-ms"),
            "cold_start_ms": (stats.median(cold.norm_ms), "ref-ms"),
            "checkpoint_ms": (stats.median(checkpoints.norm_ms), "ref-ms"),
            "engine.checkpoint_bytes": (checkpoint_bytes, "bytes"),
        })
        out.per_layer.update(final_layers)
        out.per_layer.update(write_layers(ctx))
        out.per_layer["trace.overhead_ratio"] = (
            stats.median(traced) / stats.median(untraced), "ratio")
    return out
