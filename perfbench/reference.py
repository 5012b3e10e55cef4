"""Stored reference outputs and the output check.

The reference files in ``reference/`` were produced by ``make_reference.py``
from the program as it stood when the benchmark was defined. A later
version passes the check when

- a coverage table has the same cells, the same ``reps`` and ``failures``,
  coverage within 1/reps and ``mean_width`` within 1e-4 of the reference;
- an analyze report lists the same methods, fails on the same tags, gives
  each interval the same kind and level, and puts every endpoint and every
  summary value within 1e-4 of the reference (the acceptance oracle's
  tolerance); the summary's ``n`` must match exactly.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ENDPOINT_TOL = 1e-4
WIDTH_TOL = 1e-4


def path_for(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.jsonl.gz"


def save(workload: str, header: dict, instances: list[list]) -> None:
    """Write the header, then one JSON line per instance."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    # mtime=0 keeps the file's bytes a function of its content
    with open(path_for(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            for item in (header, *instances):
                gz.write(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
                gz.write(b"\n")


def load(workload: str, inst: int, count: int) -> tuple[dict, list]:
    """The header and the first ``count`` units of one instance.

    A unit is a block's coverage table or a request's report entry. Only the
    instance's own line is parsed, so the other instances stay out of the
    run's peak RSS.
    """
    with gzip.open(path_for(workload), "rt", encoding="utf-8") as fh:
        header = json.loads(next(fh))
        for i, line in enumerate(fh):
            if i == inst:
                units = json.loads(line)
                break
        else:
            raise LookupError(f"the reference holds no instance {inst}")
    if count > len(units):
        raise LookupError(f"{count} units asked for, the reference holds {len(units)}")
    return header, units[:count]


def _table_rows(text: str) -> dict:
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        rows[(row["method"], row["n"], row["tau2"], row["level"])] = row
    return rows


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def compare_table(table: str, reference: str) -> list[str]:
    """Every way the coverage table departs from the reference."""
    got, want = _table_rows(table), _table_rows(reference)
    problems = []
    if got.keys() != want.keys():
        problems.append(f"cells differ: {sorted(got.keys() ^ want.keys())}")
    for key in sorted(got.keys() & want.keys()):
        g, w = got[key], want[key]
        cell = "/".join(key)
        for col in ("reps", "failures"):
            if g[col] != w[col]:
                problems.append(f"{cell}: {col} {g[col]} != {w[col]}")
        reps = int(w["reps"])
        cov_tol = 1.0 / reps if reps else 0.0
        if not _close(float(g["coverage"]), float(w["coverage"]), cov_tol):
            problems.append(f"{cell}: coverage {g['coverage']} vs {w['coverage']}")
        if not _close(float(g["mean_width"]), float(w["mean_width"]), WIDTH_TOL):
            problems.append(f"{cell}: mean_width {g['mean_width']} vs {w['mean_width']}")
    return problems


def report_entry(report_json: bytes) -> tuple[list[str], dict]:
    """A report's method tags and its reference entry.

    The entry holds the summary block and, per method, [kind, lower, upper,
    level] or None if it failed. Floats are rounded to 1e-6, far inside the
    check's tolerance, which keeps the stored reference small.
    """
    doc = json.loads(report_json)
    methods = [m["method"] for m in doc["methods"]]
    summary = {
        key: value if key == "n" else round(value, 6)
        for key, value in doc["summary"].items()
    }
    intervals = [
        None if "error" in m
        else [m["kind"], round(m["lower"], 6), round(m["upper"], 6), round(m["level"], 6)]
        for m in doc["methods"]
    ]
    return methods, {"summary": summary, "intervals": intervals}


def failed_count(entry: dict) -> int:
    """How many methods of a reference entry failed."""
    return sum(1 for iv in entry["intervals"] if iv is None)


def compare_report(report_json: bytes, methods: list[str], reference: dict) -> list[str]:
    """Every way an analyze JSON report departs from the reference entry."""
    got_methods, got = report_entry(report_json)
    if got_methods != methods:
        return [f"method list {got_methods} != {methods}"]
    problems = []
    got_summary, want_summary = got["summary"], reference["summary"]
    if got_summary.keys() != want_summary.keys():
        problems.append(f"summary keys {sorted(got_summary)} != {sorted(want_summary)}")
    for key in sorted(got_summary.keys() & want_summary.keys()):
        g, w = got_summary[key], want_summary[key]
        tol = 0 if key == "n" else ENDPOINT_TOL
        if not _close(float(g), float(w), tol):
            problems.append(f"summary {key}: {g} vs reference {w}")
    for method, g, w in zip(methods, got["intervals"], reference["intervals"]):
        if (g is None) != (w is None):
            state = "fails" if g is None else "succeeds"
            problems.append(f"{method}: {state}, reference does not")
        elif g is not None:
            if g[0] != w[0]:
                problems.append(f"{method}: kind {g[0]!r} vs reference {w[0]!r}")
            if not all(_close(a, b, ENDPOINT_TOL) for a, b in zip(g[1:], w[1:])):
                problems.append(f"{method}: lower/upper/level {g[1:]} vs reference {w[1:]}")
    return problems
