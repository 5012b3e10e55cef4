"""Set-up probe: a fresh interpreter imports metapred and finishes the
workload's first unit of work (one replication or one request).

    python3 perfbench/probe.py --workload NAME --seed N

``run.py`` times whole invocations of this script, which is what a
``metapred`` command line call pays before its first result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from metapred.io import emit_analysis_report, parse_dataset_csv, run_analysis  # noqa: E402
from metapred.simulate import SimConfig, run_study  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if isinstance(workload, workloads.SimWorkload):
        full = workloads.sim_config(workload, args.seed, 0)
        first = SimConfig(full.scenarios[:1], full.methods, reps=1, master_seed=full.master_seed)
        run_study(first, parallelism=workload.parallelism)
    else:
        dataset = parse_dataset_csv(workloads.analyze_request(args.seed, 0))
        emit_analysis_report(run_analysis(dataset, workload.methods), "json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
