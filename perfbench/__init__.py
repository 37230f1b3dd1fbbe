"""The repository benchmark: three detection-serving workloads.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints its end-to-end metrics (``--trace 0``) or its
per-layer metrics (``--trace 1``); ``perfbench/README.md`` describes the
workloads and how every metric is measured.
"""
