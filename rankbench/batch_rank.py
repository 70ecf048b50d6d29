"""``batch-rank``: the batch path, load -> graph -> TWPR -> assembly.

Each operation loads the generated corpus from gzipped JSONL and ranks
it with :class:`ArticleRanker` — the work ``repro rank`` does after its
imports. The traced run's ``cold_start_ms`` adds that import cost back:
the same command in a fresh interpreter. ``data`` load, ``graph`` build,
the TWPR solve and ``cli`` import do nearly all their work here and
almost none in the other workloads. No ``ParallelBlockEngine``: on 2
cores its workers would measure the scheduler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from rankbench import host, stats
from rankbench.harness import (Context, OpSamples, Outcome, cli_import_ms,
                               fresh_python, median_or_zero, rank_by_layer,
                               repeat_setup, same_ranking, setup_seconds,
                               summary_lines, timed)


#: Corpus saves beyond the one each set-up does (traced run), for
#: checkpoint_ms.
EXTRA_SAVES = 4


@dataclass(frozen=True)
class Scale:
    articles: int
    operations: int
    cold_starts: int = 3


def scale_for(seconds: int) -> Scale:
    """Two operations per second of ``--seconds`` (one takes about 0.6 s
    on a 2-core host), never fewer than the slow percentile needs."""
    return Scale(articles=20_000,
                 operations=max(2 * stats.MIN_BEYOND, 2 * seconds))


def _top_lines(dataset, result, k: int = 10):
    """``repro rank --top k`` lines, as the CLI formats them."""
    lines = []
    for rank, (article_id, score) in enumerate(result.top(k), start=1):
        article = dataset.articles[article_id]
        lines.append(f"{rank:4d}  {score:.6f}  [{article.year}] "
                     f"{article.title[:60]}")
    return lines


def run(ctx: Context, scale: Scale) -> Outcome:
    from repro.core.model import ArticleRanker
    from repro.data.generator import GeneratorConfig, generate_dataset
    from repro.data.io import load_dataset_jsonl, save_dataset_jsonl
    from repro.query import RankIndex

    out = Outcome()
    rec = ctx.recorder
    corpus = ctx.workdir / "corpus.jsonl.gz"
    saves = OpSamples(ctx.probe)

    def setup(_attempt: int) -> int:
        dataset = generate_dataset(GeneratorConfig(
            num_articles=scale.articles, seed=ctx.seed))
        timed(ctx, saves, lambda: save_dataset_jsonl(dataset, corpus))
        return dataset.num_citations

    citations, setup_s = repeat_setup(ctx, setup, lambda _state: None)
    dataset = load_dataset_jsonl(corpus)
    ranker = ArticleRanker()

    def plain():
        return ranker.rank(load_dataset_jsonl(corpus))

    def traced():
        with rec.span("op"):
            with rec.span("data.load"):
                dataset = load_dataset_jsonl(corpus)
            return rank_by_layer(rec, ranker, dataset)

    baseline = plain()  # warm-up, and the reference every op must match
    latency = OpSamples(ctx.probe)
    for index in range(scale.operations):
        if ctx.trace and index % 2 == 0:
            result = timed(ctx, latency, traced)
        else:
            with rec.paused():
                result = timed(ctx, latency, plain)
        out.attempted += 1
        if not same_ranking(result, baseline):
            out.failed += 1
            out.failures.append(f"operation {index} ranked differently")

    # The CLI in a fresh interpreter must print the in-process top-10.
    # The first run also warms the page and bytecode caches; the traced
    # run times the ones after it as cold_start_ms.
    expected = _top_lines(dataset, baseline)
    command = ["-m", "repro", "rank", str(corpus), "--top", "10"]
    cold = OpSamples(ctx.probe)
    runs = 1 + (scale.cold_starts if ctx.trace else 0)
    for attempt in range(runs):
        if attempt == 0:
            stdout = fresh_python(command, ctx.workdir)[1]
        else:
            stdout = timed(ctx, cold,
                           lambda: fresh_python(command, ctx.workdir)[1])
        printed = [line for line in stdout.splitlines()
                   if line and not line.startswith("#")]
        out.gate(printed == expected,
                 f"CLI run {attempt}: its top-10 differs from the "
                 f"in-process top-10")

    summary = stats.Summary.of(latency.norm_ms)
    out.end_to_end = {
        "latency_ms": (summary.median, "ref-ms"),
        "work_per_s": (citations * scale.operations
                       / (sum(latency.norm_ms) / 1000.0), "1/s"),
        "peak_rss_mb": (host.peak_rss_mb(), "MiB"),
        "setup_s": setup_seconds(out, setup_s),
    }
    out.note(summary_lines("latency (load+rank)", latency.norm_ms, "ref-ms"))
    out.note(summary_lines("latency raw", latency.raw_ms, "ms"))
    out.note(f"corpus: {scale.articles} articles, {citations} citations")

    out.per_layer = {
        "host.raw_latency_ms": (stats.median(latency.raw_ms), "ms"),
    }
    if ctx.trace:
        for _ in range(EXTRA_SAVES):
            timed(ctx, saves, lambda: save_dataset_jsonl(dataset, corpus))
        index_ms = []
        for _ in range(3):
            started = time.perf_counter()
            RankIndex(dataset, baseline.by_id())
            index_ms.append((time.perf_counter() - started) * 1000.0)
        out.note(summary_lines("cold start", cold.norm_ms, "ref-ms"))
        out.note(summary_lines("corpus save", saves.norm_ms, "ref-ms"))
        out.per_layer.update({
            "latency_slow_ms": (summary.slow, "ref-ms"),
            "cold_start_ms": (stats.median(cold.norm_ms), "ref-ms"),
            "checkpoint_ms": (stats.median(saves.norm_ms), "ref-ms"),
            "trace.overhead_ratio": (stats.median(latency.norm_ms[0::2])
                                     / stats.median(latency.norm_ms[1::2]),
                                     "ratio"),
            "cli.import_ms": (cli_import_ms(ctx), "ms"),
            "data.load_ms": (median_or_zero(
                rec.durations_ms("data.load")), "ms"),
            "data.save_ms": (stats.median(saves.raw_ms), "ms"),
            "graph.build_ms": (median_or_zero(
                rec.durations_ms("graph.build")), "ms"),
            "graph.edges": (median_or_zero(rec.counts.get("graph.edges",
                                                          [])), "count"),
            "core.twpr_ms": (median_or_zero(
                rec.durations_ms("core.twpr")), "ms"),
            "core.twpr_iterations": (median_or_zero(
                rec.counts.get("core.twpr_iterations", [])), "count"),
            "core.assemble_ms": (median_or_zero(
                rec.durations_ms("core.assemble")), "ms"),
            "query.index_build_ms": (stats.median(index_ms), "ms"),
        })
        out.note(summary_lines("op self time (benchmark glue)",
                               rec.self_times_ms("op"), "ms"))
    return out
