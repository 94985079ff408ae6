"""The repository's one benchmark: five seed-driven workloads, an
end-to-end headline per workload and a per-layer budget under it.

Run ``python3 -m bench --help``; see ``bench/README.md`` for what each
workload and metric means and ``BENCHMARK.json`` for the contract.
"""
