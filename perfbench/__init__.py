"""Seeded end-to-end benchmark of sysmor with an outside-in tracer.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see README.md.
"""
