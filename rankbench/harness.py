"""What every workload shares: drift-normalized timings, set-up
repetition, fresh-interpreter runs, gates, and the layer-by-layer calls
of the traced run."""

from __future__ import annotations

import gc
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from rankbench import host, stats
from rankbench.spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
#: Probe runs on each side of a timed operation; one run alone is noisy.
PROBES_PER_SIDE = 3
FRESH_TIMEOUT_S = 60.0

Metric = Tuple[float, str]


@dataclass
class Context:
    """One run: its seed, tracing switch, scratch directory, recorder
    and drift probe."""

    seed: int
    trace: bool
    workdir: Path
    recorder: Recorder = field(init=False)
    probe: host.DriftProbe = field(default_factory=host.DriftProbe)

    def __post_init__(self) -> None:
        self.recorder = Recorder(enabled=self.trace)

    def scratch(self, name: str) -> Path:
        """A fresh, empty directory under the run's workdir."""
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class OpSamples:
    """Raw times of one kind of operation, and their drift-normalized
    values against the probe runs around each."""

    probe: host.DriftProbe
    raw_ms: List[float] = field(default_factory=list)
    intervals: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, raw_ms: float, start: float, end: float) -> None:
        self.raw_ms.append(raw_ms)
        self.intervals.append((start, end))

    @property
    def reference_ms(self) -> List[float]:
        return [self.probe.reference_ms(start, end)
                for start, end in self.intervals]

    @property
    def norm_ms(self) -> List[float]:
        return [host.normalized_ms(raw, reference) for raw, reference
                in zip(self.raw_ms, self.reference_ms)]


def timed(ctx: Context, samples: OpSamples, fn: Callable[[], object]
          ) -> object:
    """Run ``fn`` between drift probe runs and record its time."""
    for _ in range(PROBES_PER_SIDE):
        ctx.probe.measure()
    started = time.perf_counter()
    value = fn()
    ended = time.perf_counter()
    for _ in range(PROBES_PER_SIDE):
        ctx.probe.measure()
    samples.add((ended - started) * 1000.0, started, ended)
    return value


@dataclass
class Outcome:
    """Everything a workload reports."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def gate(self, ok: bool, message: str) -> None:
        """One correctness gate; a failed gate is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def note(self, line: str) -> None:
        self.notes.append(line)


def repeat_setup(ctx: Context, setup: Callable[[int], object],
                 teardown: Callable[[object], None]
                 ) -> Tuple[object, OpSamples]:
    """Set up SETUP_REPEATS times, discarding all but the last; returns it
    with every set-up's time. Each discarded set-up is torn down (and its
    memory collected) before the next begins."""
    times = OpSamples(ctx.probe)
    state = None
    for attempt in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        state = timed(ctx, times, lambda: setup(attempt))
    return state, times


def setup_seconds(out: Outcome, times: OpSamples) -> Metric:
    """``setup_s``: the median set-up on the nominal host, in seconds."""
    out.note(summary_lines("setup", [value / 1000.0 for value in
                                     times.norm_ms], "s (nominal host)"))
    out.note(summary_lines("setup raw", [value / 1000.0 for value in
                                         times.raw_ms], "s"))
    return stats.median(times.norm_ms) / 1000.0, "s"


def fresh_python(args: Sequence[str], cwd: Path) -> Tuple[float, str]:
    """Run ``python args...`` in a fresh interpreter with the checkout's
    ``src`` on its path; returns (wall ms, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=FRESH_TIMEOUT_S, check=False)
    elapsed = (time.perf_counter() - started) * 1000.0
    if completed.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args)} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-400:]}")
    return elapsed, completed.stdout


def cli_import_ms(ctx: Context) -> float:
    """Median of three fresh-interpreter ``import repro.cli`` times (the
    ``cli`` layer), after one untimed import that warms the page and
    bytecode caches."""
    args = ["-c", "import repro.cli"]
    fresh_python(args, ctx.workdir)
    return stats.median([fresh_python(args, ctx.workdir)[0]
                         for _ in range(3)])


def summary_lines(name: str, samples: Sequence[float], unit: str
                  ) -> str:
    if not samples:
        return f"{name}: no samples"
    if len(samples) < 2 * stats.MIN_BEYOND:
        return (f"{name}: median {stats.median(samples):.4f} {unit} "
                f"(n={len(samples)})")
    return f"{name}: {stats.Summary.of(samples).describe(unit)}"


def median_or_zero(samples: Sequence[float]) -> float:
    """Median of a per-layer sample set; 0 when the workload never
    reached that layer."""
    return stats.median(samples) if samples else 0.0


def rank_by_layer(recorder: Recorder, ranker, dataset):
    """``ArticleRanker.rank`` split into its public layer calls, one span
    each: ``graph.build`` (CSR + years), ``core.twpr`` and
    ``core.assemble`` (``rank_with_prestige`` on the solved prestige).
    Returns the same ranking as ``ranker.rank(dataset)``."""
    from repro.core.time_weight import exponential_decay
    from repro.core.twpr import time_weighted_pagerank

    config = ranker.config
    with recorder.span("graph.build"):
        graph = dataset.citation_csr()
        years = dataset.article_years(graph)
    recorder.count("graph.edges", graph.num_edges)
    with recorder.span("core.twpr"):
        twpr = time_weighted_pagerank(
            graph, years, decay=exponential_decay(config.prestige_decay),
            damping=config.damping, tol=config.tol,
            max_iter=config.max_iter, method=config.solver)
    recorder.count("core.twpr_iterations", twpr.iterations)
    with recorder.span("core.assemble"):
        return ranker.rank_with_prestige(dataset, twpr.scores, graph=graph)


def measured_live_ranker(ctx: Context,
                         checkpoints: Optional[OpSamples] = None):
    """A ``LiveRanker`` subclass whose ``apply`` is spanned (with the
    ``IncrementalReport`` counts recorded) and, given ``checkpoints``,
    whose ``checkpoint`` is timed — from outside the engine."""
    from repro.engine.live import LiveRanker

    rec = ctx.recorder

    class MeasuredLiveRanker(LiveRanker):
        def apply(self, batch):
            with rec.span("engine.apply"):
                result, report = super().apply(batch)
            rec.count("engine.affected_nodes", len(report.affected.nodes))
            rec.count("engine.incremental_iterations", report.iterations)
            return result, report

        def checkpoint(self):
            if checkpoints is None:
                return super().checkpoint()
            with rec.span("engine.checkpoint"):
                return timed(ctx, checkpoints, super().checkpoint)

    return MeasuredLiveRanker


def final_state_layers(ctx: Context, out: Outcome, dataset,
                       scores) -> Dict[str, Metric]:
    """Layer timings taken directly on a workload's final state in the
    traced run: save and reload the corpus (it must round-trip), build
    its ``RankIndex`` and import the CLI. The caller has already ranked
    the final corpus cold with :func:`rank_by_layer`."""
    from repro.data.io import load_dataset_jsonl, save_dataset_jsonl
    from repro.ingest.sim import datasets_equal
    from repro.query import RankIndex

    rec = ctx.recorder
    path = ctx.workdir / "final.jsonl.gz"
    with rec.span("data.save"):
        save_dataset_jsonl(dataset, path)
    with rec.span("data.load"):
        loaded = load_dataset_jsonl(path)
    out.gate(datasets_equal(loaded, dataset),
             "final corpus did not round-trip through JSONL")
    for _ in range(3):
        with rec.span("query.index_build"):
            RankIndex(dataset, scores)

    def first(name: str) -> Metric:
        return rec.durations_ms(name)[0], "ms"

    return {
        "cli.import_ms": (cli_import_ms(ctx), "ms"),
        "data.save_ms": first("data.save"),
        "data.load_ms": first("data.load"),
        "graph.build_ms": first("graph.build"),
        "graph.edges": (rec.counts["graph.edges"][0], "count"),
        "core.twpr_ms": first("core.twpr"),
        "core.twpr_iterations": (rec.counts["core.twpr_iterations"][0],
                                 "count"),
        "core.assemble_ms": first("core.assemble"),
        "query.index_build_ms": (stats.median(
            rec.durations_ms("query.index_build")), "ms"),
    }


def write_layers(ctx: Context) -> Dict[str, Metric]:
    """``engine``/``serve`` write-side medians from the traced run."""
    rec = ctx.recorder
    return {
        "engine.apply_ms": (median_or_zero(
            rec.durations_ms("engine.apply")), "ms"),
        "engine.affected_nodes": (median_or_zero(
            rec.counts.get("engine.affected_nodes", [])), "count"),
        "engine.incremental_iterations": (median_or_zero(
            rec.counts.get("engine.incremental_iterations", [])), "count"),
        "serve.write_ms": (median_or_zero(
            rec.durations_ms("serve.write")), "ms"),
        "serve.publish_ms": (median_or_zero(
            rec.self_times_ms("serve.write")), "ms"),
    }


def rotation_bytes(path: Path) -> int:
    """Bytes of one checkpoint rotation directory."""
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def same_ranking(left, right) -> bool:
    """Bitwise-equal node order and scores."""
    import numpy as np

    return (np.array_equal(left.node_ids, right.node_ids)
            and np.array_equal(left.scores, right.scores))
