"""Steadiness check: run workloads repeatedly and report each metric's
spread next to the host's drift probe.

    python3 rankbench/steady.py --runs 10 --seconds 16
    python3 rankbench/steady.py --runs 5 --workloads write-stream

Run ``i`` uses seed ``--seed-base + i`` and alternates the workload
order (forward on even runs, reversed on odd ones), so host drift is
not pinned to one workload. For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, and flags every end-to-end metric whose spread
exceeds its bound in BENCHMARK.json. Exits 1 when any is flagged or any
run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT)]

from rankbench.run import WORKLOADS  # noqa: E402
from rankbench.stats import spread  # noqa: E402

_HOST_PREFIX = "# host."


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}: "
                           f"{completed.stderr.strip()[-600:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    result["host"] = {
        name: {"value": float(value)}
        for name, value in (line[2:].split() for line in lines
                            if line.startswith(_HOST_PREFIX))}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {metric["name"]: metric["bound"]
              for metric in config["end_to_end"]}
    workloads = args.workloads.split(",")

    results: Dict[str, List[Dict]] = {name: [] for name in workloads}
    for index in range(args.runs):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(workload, args.seed_base + index, seconds,
                              args.trace)
            results[workload].append(result)
            print(f"run {index} {workload} ({result['wall_s']:.0f} s): "
                  f"correct={result['correct']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{name}={metric['value']:.5g}"
                      for name, metric in {**result["host"],
                                           **result["metrics"]}.items()),
                  flush=True)

    flagged = 0
    for workload in workloads:
        runs = results[workload]
        flagged += sum(1 for run in runs if not run["correct"])
        print(f"\n{workload}: {len(runs)} runs")
        for name in [*runs[0]["host"], *runs[0]["metrics"]]:
            values = [{**run["host"], **run["metrics"]}[name]["value"]
                      for run in runs]
            if len(values) < 2:
                print(f"  {name:32s} {values[0]:.6g}")
                continue
            summary = spread(values)
            bound = bounds.get(name) if args.trace == 0 else None
            verdict = ""
            if bound is not None and name != "setup_s":
                over = summary["spread"] > bound
                flagged += over
                verdict = (f"bound {bound:.3f} "
                           f"{'EXCEEDED' if over else 'ok'}"
                           f" ({summary['spread'] / bound:.2f} of bound)")
            print(f"  {name:32s} median {summary['median']:.6g} "
                  f"q1 {summary['q1']:.6g} q3 {summary['q3']:.6g} "
                  f"spread {summary['spread']:.4f} {verdict}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
