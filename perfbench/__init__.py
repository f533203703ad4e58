"""The repository benchmark: one command, three workloads, two modes.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the checkout root.  See ``run.py`` for the
workloads and ``manifest.json`` for what every metric means.
"""
