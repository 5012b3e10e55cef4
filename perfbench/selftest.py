"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at the minimum length (--seconds 1) untraced and
traced, and asserts that each run prints every metric BENCHMARK.json names,
with its unit, and passes its output check. It then asserts that the output
check fails on a perturbed reference, and that the sim-freq-par2 coverage
table is byte-identical to the same config run at parallelism 1.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from metapred.io import (  # noqa: E402
    emit_analysis_report,
    emit_coverage_table,
    parse_dataset_csv,
    run_analysis,
)
from metapred.simulate import run_study  # noqa: E402

SMOKE_SECONDS = 1
SEED = 3


def check(condition: bool, what: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'}  {what}")
    if not condition:
        raise SystemExit(1)


def smoke_runs(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
            check(proc.returncode == 0, f"{label} exits 0")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} result has exactly the contract keys")
            check(result["correct"] and result["attempted"] >= 1,
                  f"{label} output check passes ({result['attempted']} attempted)")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == want, f"{label} prints every {key} metric with its unit")
            printed = {line.split(" = ")[0] for line in lines if " = " in line}
            check(set(want) | {"failure_ratio"} <= printed,
                  f"{label} prints each metric and failure_ratio by name")


def perturbed_references_fail() -> None:
    workload = workloads.WORKLOADS["sim-freq-par2"]
    config = workloads.sim_config(workload, SEED, 0)
    inst = workloads.instance(SEED)
    table = emit_coverage_table(run_study(config, parallelism=1)).decode()
    ref_table = reference.load(workload.name, inst, 1)[1][0]
    check(not reference.compare_table(table, ref_table), "table matches its reference")
    header, first, *rest = ref_table.splitlines()
    cells = first.split(",")
    for col, bump in ((8, lambda v: str(int(v) + 1)), (7, lambda v: f"{float(v) + 2e-4:.6f}")):
        bad = list(cells)
        bad[col] = bump(bad[col])
        perturbed = "\n".join([header, ",".join(bad), *rest]) + "\n"
        check(bool(reference.compare_table(table, perturbed)),
              f"table check fails when the reference's column {col} is perturbed")

    analyze = workloads.WORKLOADS["analyze-mixed"]
    body = emit_analysis_report(
        run_analysis(parse_dataset_csv(workloads.analyze_request(SEED, 0)), analyze.methods),
        "json",
    )
    header, refs = reference.load(analyze.name, inst, 1)
    methods = header["methods"]
    check(not reference.compare_report(body, methods, refs[0]),
          "analyze report matches its reference")

    def move_endpoint(ref):
        ref["intervals"][0][1] += 2e-4

    def fail_first(ref):
        ref["intervals"][0] = None

    def change_kind(ref):
        ref["intervals"][0][0] = "other"

    def move_mu_hat(ref):
        ref["summary"]["mu_hat"] += 2e-4

    def move_q_pvalue(ref):
        ref["summary"]["q_pvalue"] += 2e-4

    for what, edit in (
        ("a reference endpoint moves by 2e-4", move_endpoint),
        ("the reference fails on another tag", fail_first),
        ("a reference interval has another kind", change_kind),
        ("the reference's summary mu_hat moves by 2e-4", move_mu_hat),
        ("the reference's summary q_pvalue moves by 2e-4", move_q_pvalue),
    ):
        ref = copy.deepcopy(refs[0])
        edit(ref)
        check(bool(reference.compare_report(body, methods, ref)),
              f"report check fails when {what}")


def parallel_table_identical() -> None:
    workload = workloads.WORKLOADS["sim-freq-par2"]
    config = workloads.sim_config(workload, SEED, 0)
    serial = emit_coverage_table(run_study(config, parallelism=1))
    parallel = emit_coverage_table(run_study(config, parallelism=workload.parallelism))
    check(serial == parallel, "sim-freq-par2 table is byte-identical at parallelism 1 and 2")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    smoke_runs(spec)
    perturbed_references_fail()
    parallel_table_identical()
    return 0


if __name__ == "__main__":
    sys.exit(main())
