"""Run one benchmark workload and print its result line.

    python3 rankbench/run.py --workload batch-rank --seed 7 --seconds 16 \
        --trace 0

Run from the repository root; the program is imported from ``src/`` of
the same checkout. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Lines before it (prefixed ``#``) give every timing with
its sample count. Scratch state lives under ``.rankbench-work/`` in the
checkout and is removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("batch-rank", "write-stream", "serve-mixed")

END_TO_END = ("latency_ms", "work_per_s", "peak_rss_mb", "setup_s")

PER_LAYER = (
    "latency_slow_ms", "cold_start_ms", "checkpoint_ms",
    "cli.import_ms",
    "data.load_ms", "data.save_ms",
    "graph.build_ms", "graph.edges",
    "core.twpr_ms", "core.twpr_iterations", "core.assemble_ms",
    "engine.apply_ms", "engine.affected_nodes",
    "engine.incremental_iterations", "engine.checkpoint_bytes",
    "serve.publish_ms", "serve.write_ms",
    "query.index_build_ms", "query.top_ms",
    "ingest.self_ms", "ingest.records_pulled", "ingest.duplicates_skipped",
    "ingest.useful_ratio", "ingest.segments_archived",
    "serve.read_service_ms.top", "serve.read_service_ms.page",
    "serve.read_service_ms.venue", "serve.read_service_ms.year",
    "serve.read_wait_ms", "serve.generator_late_ms",
    "serve.reads_failed", "serve.reads_partial",
    "trace.overhead_ratio", "host.reference_ms", "host.raw_latency_ms",
)

# Per-layer units for layers a workload never reaches (reported as 0).
_LAYER_UNITS = {"latency_slow_ms": "ref-ms", "cold_start_ms": "ref-ms",
                "checkpoint_ms": "ref-ms", "graph.edges": "count",
                "core.twpr_iterations": "count",
                "engine.affected_nodes": "count",
                "engine.incremental_iterations": "count",
                "engine.checkpoint_bytes": "bytes",
                "ingest.records_pulled": "count",
                "ingest.duplicates_skipped": "count",
                "ingest.useful_ratio": "ratio",
                "ingest.segments_archived": "count",
                "serve.reads_failed": "count",
                "serve.reads_partial": "count",
                "trace.overhead_ratio": "ratio"}


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"rankbench: no program source at {src}")
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        sys.path.pop(0)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"rankbench: imported repro from {repro.__file__}"
                         f", not from {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _run_workload(args, workdir: Path):
    from rankbench import batch_rank, serve_mixed, stats, write_stream
    from rankbench.harness import Context

    module = {"batch-rank": batch_rank, "write-stream": write_stream,
              "serve-mixed": serve_mixed}[args.workload]
    ctx = Context(seed=args.seed, trace=bool(args.trace), workdir=workdir)
    outcome = module.run(ctx, module.scale_for(args.seconds))
    reference = stats.median(ctx.probe.samples_ms)
    outcome.per_layer["host.reference_ms"] = (reference, "ms")
    outcome.note(f"host.reference_ms {reference}")
    outcome.note(f"host.raw_latency_ms "
                 f"{outcome.per_layer['host.raw_latency_ms'][0]}")
    return outcome


def _metrics(outcome, trace: bool):
    if not trace:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in
                ((name, outcome.end_to_end[name]) for name in END_TO_END)}
    metrics = {}
    for name in PER_LAYER:
        value, unit = outcome.per_layer.get(
            name, (0.0, _LAYER_UNITS.get(name, "ms")))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    from rankbench import host

    scratch_root = ROOT / ".rankbench-work"
    workdir = scratch_root / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    segments_before = host.shm_segments()
    try:
        outcome = _run_workload(args, workdir)
    except Exception:  # noqa: BLE001 - report, print no result, fail
        traceback.print_exc()
        return 1
    finally:
        host.stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    leaked = sorted(host.shm_segments() - segments_before)
    outcome.gate(not leaked, f"shared-memory segments left behind: "
                             f"{leaked}")
    children = host.child_pids()
    outcome.gate(not children, f"child processes left behind: {children}")

    for line in outcome.notes:
        print(f"# {line}")
    for failure in outcome.failures:
        print(f"# FAILED: {failure}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": _metrics(outcome, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
