"""The repository's wall-clock benchmark: four pinned workloads over the
whole stack (spec -> plan -> chase -> blocking -> store -> ``repro.serve``),
end-to-end metrics with regression bounds, and a separate traced pass for
per-layer attribution.  See ``bench/README.md`` for the metric dictionary
and ``BENCHMARK.json`` for the names, units and bounds.

Run it from the repository root::

    python3 -m bench --seed 7                # both passes, all workloads
    python3 -m bench --workload match_dense --seed 3 --seconds 20 --trace 0
"""
