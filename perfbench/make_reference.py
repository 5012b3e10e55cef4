"""Regenerate the stored reference outputs from the program in ``src/``.

    python3 perfbench/make_reference.py

Run this only on a version of the program whose outputs are the accepted
reference: the output check of every later run compares against them.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from metapred.io import (  # noqa: E402
    emit_analysis_report,
    emit_coverage_table,
    parse_dataset_csv,
    run_analysis,
)
from metapred.simulate import run_study  # noqa: E402

# the longest run (--seconds) the reference covers
MAX_SECONDS = 10


def _sim_table(args):
    name, inst, block = args
    config = workloads.sim_config(workloads.WORKLOADS[name], inst, block)
    return args, emit_coverage_table(run_study(config)).decode()


def _analyze_requests(args):
    name, inst = args
    workload = workloads.WORKLOADS[name]
    entries = []
    for i in range(workloads.request_count(workload, MAX_SECONDS)):
        dataset = parse_dataset_csv(workloads.analyze_request(inst, i))
        report = run_analysis(dataset, workload.methods)
        entries.append(reference.report_entry(emit_analysis_report(report, "json"))[1])
    return args, entries


def main() -> int:
    sim_names = [n for n, w in workloads.WORKLOADS.items() if isinstance(w, workloads.SimWorkload)]
    sim_tasks = [
        (name, inst, block)
        for name in sim_names
        for inst in range(workloads.POOL)
        for block in range(workloads.blocks(MAX_SECONDS))
    ]
    analyze_tasks = [("analyze-mixed", inst) for inst in range(workloads.POOL)]

    tables = {name: [[] for _ in range(workloads.POOL)] for name in sim_names}
    requests = [None] * workloads.POOL
    with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        # map keeps task order, so each instance's tables arrive in block order
        for (name, inst, _), table in pool.map(_sim_table, sim_tasks):
            tables[name][inst].append(table)
        for (_, inst), entries in pool.map(_analyze_requests, analyze_tasks):
            requests[inst] = entries
    outputs = {**tables, "analyze-mixed": requests}
    for name, instances in outputs.items():
        reference.save(name, {"methods": list(workloads.WORKLOADS[name].methods)}, instances)
        print(f"wrote {reference.path_for(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
