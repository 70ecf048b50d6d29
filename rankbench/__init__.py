"""Steady end-to-end benchmark of the batch, write and read paths.

Run one workload with ``python3 rankbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see README.md for
what each workload measures and why.
"""
