"""metapred benchmark: coverage-study throughput and analyze latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` rebuilds a sample of units
from the program's public functions with one span per layer call and
reports per-layer metrics. Every run checks its outputs against the stored
reference. Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# pin BLAS/OpenMP pools before numpy loads, so that a run with parallelism P
# uses at most P threads; child processes inherit the setting
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import scipy

    import reference
    import traced
    import workloads
    from metapred.io import (
        emit_analysis_report,
        emit_coverage_table,
        parse_dataset_csv,
        run_analysis,
    )
    from metapred.simulate import SimConfig, run_replication, run_study
except ImportError as exc:
    print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)

SETUP_PROBES = 9


# ---------------------------------------------------------------- helpers


# latency units are grouped in runs of this many for the p95 estimate, so
# each analyze group holds one stratum of the request mix
LATENCY_GROUP = workloads.STRATUM


def _p95(values: list[float]) -> float:
    """95th percentile (linear interpolation) within each group of
    LATENCY_GROUP consecutive values, median over the groups.

    A burst of machine noise inflates the tail of one group, not the median
    over groups, so this is steadier from run to run than one p95 over all
    values. Fewer values than a group form one group.
    """
    groups = [
        values[i : i + LATENCY_GROUP]
        for i in range(0, len(values) - LATENCY_GROUP + 1, LATENCY_GROUP)
    ] or [values]
    return statistics.median(
        statistics.quantiles(g, n=100, method="inclusive")[94] if len(g) > 1 else g[0]
        for g in groups
    )


def setup_probe_s(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing metapred and doing one unit."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "--workload", name, "--seed", str(seed)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return time.perf_counter() - t0


def _spread(count: int, slots: int) -> list[int]:
    """How many of ``count`` items to run after each of ``slots`` steps, evenly.

    Set-up probes are interleaved with the main loop this way, so that they
    sample the whole run rather than one phase of a machine whose speed
    drifts from minute to minute.
    """
    per_slot = [0] * slots
    for i in range(count):
        per_slot[(i * slots) // count] += 1
    return per_slot


def _child_pids() -> list[int]:
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            pass  # the thread ended while we listed
    return pids


def _private_kb(pid: int) -> int:
    """Memory only this process maps (USS): its private clean and dirty pages."""
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
    except OSError:
        pass  # the worker exited between listing and reading
    return total


def own_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class PeakRss:
    """Peak RSS of this process plus the peak private memory of each worker.

    Pool workers are forked, so most of their RSS is pages they share with
    this process, which its own RSS already counts. A worker adds only its
    private pages (including pages copied on write). Children are polled
    every 100 ms while the block runs.
    """

    def __init__(self):
        self._child_peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self):
        while not self._stop.wait(0.1):
            for pid in _child_pids():
                self._child_peaks[pid] = max(self._child_peaks.get(pid, 0), _private_kb(pid))

    def __enter__(self):
        main_children = f"/proc/self/task/{os.getpid()}/children"
        if not os.access(main_children, os.R_OK):
            raise OSError(f"cannot list pool workers: {main_children} is not readable")
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def mb(self) -> float:
        return (own_peak_rss_kb() + sum(self._child_peaks.values())) / 1024.0


def run_record(args, workload, config: dict) -> dict:
    """Machine, program and workload identity stored with every result."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "metapred").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "workload": workload.name,
        "seed": args.seed,
        "instance": workloads.instance(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "config": config,
    }


def _same_bits(a: dict, b: dict) -> bool:
    """Replication outcomes equal bit for bit (NaN widths included)."""
    if a.keys() != b.keys():
        return False
    for key in a:
        (ca, wa, fa), (cb, wb, fb) = a[key], b[key]
        if ca != cb or fa != fb or struct.pack("<d", wa) != struct.pack("<d", wb):
            return False
    return True


def _replications(config: SimConfig) -> list[tuple]:
    """Every (scenario, rep index) of a study, in the order run_study runs them."""
    return [(sc, rep) for sc in config.scenarios for rep in range(config.reps)]


# -------------------------------------------------------------- workloads


class Outcome:
    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict = {}
        self.spans: list | None = None


def run_sim(args, workload, out: Outcome) -> dict:
    n_blocks = workloads.blocks(args.seconds)
    configs = [workloads.sim_config(workload, args.seed, b) for b in range(n_blocks)]
    _, ref_tables = reference.load(workload.name, workloads.instance(args.seed), n_blocks)
    first = configs[0]
    methods, seed = first.methods, first.master_seed
    probes_after = _spread(0 if args.trace else SETUP_PROBES, n_blocks)

    warm = SimConfig(first.scenarios, methods, reps=1, master_seed=seed)
    run_study(warm, parallelism=workload.parallelism)
    peak_mb, walls, setups, digests = 0.0, [], [], []
    for config, ref_table, n_probes in zip(configs, ref_tables, probes_after):
        with PeakRss() as rss:
            t0 = time.perf_counter()
            records = run_study(config, parallelism=workload.parallelism)
            walls.append(time.perf_counter() - t0)
        peak_mb = max(peak_mb, rss.mb)
        reps = config.reps * len(config.scenarios)
        table = emit_coverage_table(records)
        digests.append(hashlib.sha256(table).hexdigest())
        out.attempted += reps * len(methods)
        problems = reference.compare_table(table.decode(), ref_table)
        if problems:
            out.problems += [f"block seed {config.master_seed}: {p}" for p in problems]
            out.failed += reps * len(methods)
        else:
            out.failed += sum(r.failures for r in records)
        setups += [setup_probe_s(workload.name, args.seed) for _ in range(n_probes)]
    out.notes["coverage_table_sha256"] = " ".join(digests)
    rate = first.reps * len(first.scenarios) * n_blocks / sum(walls)

    if not args.trace:
        # a block is a study a user waits for: its wall time is the latency
        block_ms = [w * 1e3 for w in walls]
        out.metrics["reps_per_s"] = (rate, "1/s")
        out.metrics["latency_p50_ms"] = (statistics.median(block_ms), "ms")
        out.metrics["latency_p95_ms"] = (_p95(block_ms), "ms")
        out.metrics["setup_s"] = (statistics.median(setups), "s")
        out.metrics["peak_rss_mb"] = (peak_mb, "MB")
    else:
        # block 0 once more, one replication at a time: untraced, then rebuilt
        units = _replications(first)
        t0 = time.perf_counter()
        plain = [run_replication(sc, methods, (seed, rep)) for sc, rep in units]
        wall_plain = time.perf_counter() - t0
        tracer = traced.Tracer()
        t0 = time.perf_counter()
        rebuilt = [traced.traced_replication(tracer, sc, methods, (seed, rep)) for sc, rep in units]
        wall_traced = time.perf_counter() - t0
        out.attempted += len(units) * len(methods)
        for (sc, rep), a, b in zip(units, plain, rebuilt):
            if not _same_bits(a, b):
                out.problems.append(f"traced replication {sc}, rep {rep} differs: {b} vs {a}")
                out.failed += len(methods)
            else:
                out.failed += sum(1 for _, _, failed in b.values() if failed)
        out.metrics.update(tracer.layer_metrics(wall_traced))
        out.metrics["simulate.pool_efficiency"] = (
            rate / (workload.parallelism * len(units) / wall_traced), "ratio",
        )
        out.metrics["trace.overhead_share"] = (wall_traced / wall_plain - 1.0, "ratio")
        out.spans = tracer.spans
    return {
        "kind": "sim",
        "parallelism": workload.parallelism,
        "scenarios": [dataclasses.asdict(s) for s in first.scenarios],
        "methods": list(methods),
        "blocks": n_blocks,
        "reps_per_block": first.reps,
        "master_seeds": [c.master_seed for c in configs],
    }


def _check_reports(bodies, methods, refs, out: Outcome) -> None:
    for i, (body, ref) in enumerate(zip(bodies, refs)):
        out.attempted += len(methods)
        problems = reference.compare_report(body, methods, ref)
        if problems:
            out.problems += [f"request {i}: {p}" for p in problems]
            out.failed += len(methods)
        else:
            out.failed += reference.failed_count(ref)


def run_analyze(args, workload, out: Outcome) -> dict:
    count = workloads.request_count(workload, args.seconds)
    if args.trace:
        count = max(1, count // 2)
    header, refs = reference.load(workload.name, workloads.instance(args.seed), count)
    ref_methods = header["methods"]
    requests = [workloads.analyze_request(args.seed, i) for i in range(count)]
    methods = workload.methods

    def serve(csv_bytes):
        return emit_analysis_report(run_analysis(parse_dataset_csv(csv_bytes), methods), "json")

    probes_after = _spread(0 if args.trace else SETUP_PROBES, count)
    # warm-up on a dataset the measured loop does not use
    serve(workloads.analyze_request(args.seed, count))
    bodies, latencies, setups = [], [], []
    for csv_bytes, n_probes in zip(requests, probes_after):
        t0 = time.perf_counter()
        bodies.append(serve(csv_bytes))
        latencies.append(time.perf_counter() - t0)
        setups += [setup_probe_s(workload.name, args.seed) for _ in range(n_probes)]
    wall = sum(latencies)
    _check_reports(bodies, ref_methods, refs, out)
    if not args.trace:
        ms = [t * 1e3 for t in latencies]
        out.metrics["reps_per_s"] = (count / wall, "1/s")
        out.metrics["latency_p50_ms"] = (statistics.median(ms), "ms")
        out.metrics["latency_p95_ms"] = (_p95(ms), "ms")
        out.metrics["setup_s"] = (statistics.median(setups), "s")
        # one process: no pool workers to add
        out.metrics["peak_rss_mb"] = (own_peak_rss_kb() / 1024.0, "MB")
    else:
        tracer = traced.Tracer()
        t0 = time.perf_counter()
        rebuilt = [traced.traced_request(tracer, csv_bytes, methods) for csv_bytes in requests]
        wall_traced = time.perf_counter() - t0
        for i, (a, b) in enumerate(zip(bodies, rebuilt)):
            if a != b:
                out.problems.append(f"traced request {i} differs from run_analysis output")
                out.failed += len(methods)
            else:
                out.failed += reference.failed_count(refs[i])
        out.attempted += count * len(methods)
        out.metrics.update(tracer.layer_metrics(wall_traced))
        # one client, no pool: the untraced over the traced request rate
        out.metrics["simulate.pool_efficiency"] = (wall_traced / wall, "ratio")
        out.metrics["trace.overhead_share"] = (wall_traced / wall - 1.0, "ratio")
        out.spans = tracer.spans
    return {
        "kind": "analyze",
        "client": "closed loop, 1 client",
        "requests": count,
        "methods": list(methods),
    }


# ------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description="metapred benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    workload = workloads.WORKLOADS[args.workload]
    out = Outcome()
    runner = run_sim if isinstance(workload, workloads.SimWorkload) else run_analyze
    try:
        config = runner(args, workload, out)
    except (LookupError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    record = run_record(args, workload, config)
    failure_ratio = out.failed / out.attempted
    for name, (value, unit) in out.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failure_ratio = {failure_ratio:.6g} ({out.failed}/{out.attempted} method evaluations)")
    for key, value in out.notes.items():
        print(f"{key} = {value}")
    for problem in out.problems[:20]:
        print(f"OUTPUT CHECK: {problem}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out.metrics.items()},
    }
    saved = {"record": record, "result": result, "failure_ratio": failure_ratio,
             "notes": out.notes, "problems": out.problems}
    if out.spans is not None:
        spans_path = RESULTS / f"{stem}-spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start_ns", "end_ns"], "spans": out.spans}
        ))
        saved["spans_file"] = spans_path.name
    (RESULTS / f"{stem}.json").write_text(json.dumps(saved, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
