"""Dataset/config ingestion and deterministic report emission.

Dataset CSV format (UTF-8, header required, >= 2 data rows):

    study,effect,se
    A,0.5,0.2
    B,-0.1,0.3

Simulation config format: flat ``key = value`` lines, ``#`` comments,
list values in brackets with optional inclusive ranges:

    n = [7, 15]
    tau2 = [0.01..0.20 step 0.01]
    reps = 1000
    seed = 42
    level = 0.95
    methods = [hts, uniform, jeffreys]

Emitted tables use fixed 6-decimal formatting and canonical row ordering,
so identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import MetaDataset, cochran_q, dl_tau2, i_squared, pooled_mu, q_test_pvalue
from .errors import ConfigError, DataError
from .intervals import IntervalEstimate
from .methods import evaluate_methods
from .priors import NAMED_PRIORS
from .simulate import DEFAULT_METHODS, CoverageRecord, Scenario, SimConfig

__all__ = [
    "ANALYZE_METHODS",
    "MethodResult",
    "AnalysisReport",
    "parse_dataset_csv",
    "parse_sim_config",
    "parse_grid_spec",
    "run_analysis",
    "emit_analysis_report",
    "emit_coverage_table",
]

# default analysis set: the 11 priors plus the three plug-in t variants
ANALYZE_METHODS: tuple[str, ...] = tuple(NAMED_PRIORS) + ("hts", "hts-hk", "hts-sj")

_DATASET_HEADER = ["study", "effect", "se"]

# most elements one ``a..b step s`` range may expand to
_MAX_RANGE_ELEMENTS = 10**6


@dataclass(frozen=True)
class MethodResult:
    """Outcome of one requested method: an interval or a failure reason."""

    method: str
    interval: Optional[IntervalEstimate] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class AnalysisReport:
    """Dataset summary plus per-method interval estimates."""

    n: int
    mu_hat: float
    var_mu_hat: float
    tau2_dl: float
    i_squared: float
    q: float
    q_pvalue: float
    level: float
    results: tuple[MethodResult, ...]

    def summary_dict(self) -> dict:
        return {
            "n": self.n,
            "mu_hat": self.mu_hat,
            "var_mu_hat": self.var_mu_hat,
            "tau2_dl": self.tau2_dl,
            "i_squared": self.i_squared,
            "q": self.q,
            "q_pvalue": self.q_pvalue,
            "level": self.level,
        }


def parse_dataset_csv(data: bytes) -> MetaDataset:
    """Parse the ``study,effect,se`` CSV format into a dataset."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset is not valid UTF-8: {exc}") from None
    reader = csv.reader(_stdio.StringIO(text))
    rows = [row for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise DataError("dataset CSV is empty")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != _DATASET_HEADER:
        raise DataError(
            f"dataset header must be {','.join(_DATASET_HEADER)!r}, got {','.join(header)!r}"
        )
    studies = []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise DataError(f"row {idx}: expected 3 cells, got {len(row)}")
        _, effect_s, se_s = (cell.strip() for cell in row)
        try:
            effect = float(effect_s)
            se = float(se_s)
        except ValueError:
            raise DataError(f"row {idx}: non-numeric effect or se") from None
        if not math.isfinite(effect):
            raise DataError(f"row {idx}: effect must be finite")
        if not (math.isfinite(se) and se > 0):
            raise DataError(f"row {idx}: se must be positive, got {se_s}")
        studies.append((effect, se))
    if len(studies) < 2:
        raise DataError(f"dataset needs at least 2 data rows, got {len(studies)}")
    return MetaDataset(*zip(*studies))


def _parse_number(token: str, label: str) -> float:
    try:
        val = float(token)
    except ValueError:
        raise ConfigError(f"{label}: expected a number, got {token!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"{label}: expected a finite number, got {token!r}")
    return val


def _parse_int(token: str, label: str) -> int:
    """An integer literal, read exactly; other numbers (``1e3``) must be whole."""
    try:
        return int(token)
    except ValueError:
        return _as_int(_parse_number(token, label), label)


def _parse_range(token: str, label: str, integer: bool) -> list:
    """One list element: a scalar or an inclusive ``a..b [step s]`` range."""
    if ".." not in token:
        return [_parse_int(token, label) if integer else _parse_number(token, label)]
    head, _, tail = token.partition("..")
    tail = tail.strip()
    if " step " in tail:
        stop_s, _, step_s = tail.partition(" step ")
        step = _parse_number(step_s.strip(), label)
    elif integer:
        stop_s, step = tail, 1.0
    else:
        raise ConfigError(f"{label}: fractional range {token!r} needs an explicit step")
    start = _parse_number(head.strip(), label)
    stop = _parse_number(stop_s.strip(), label)
    if step <= 0 or stop < start:
        raise ConfigError(f"{label}: bad range {token!r}")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_RANGE_ELEMENTS:  # also catches an overflow to inf
        raise ConfigError(
            f"{label}: range {token!r} has more than {_MAX_RANGE_ELEMENTS} elements"
        )
    count = int(span) + 1
    vals = [round(start + i * step, 10) for i in range(count)]
    return [_as_int(v, label) for v in vals] if integer else vals


def _as_int(val: float, label: str) -> int:
    if abs(val - round(val)) > 1e-9:
        raise ConfigError(f"{label}: expected an integer, got {val}")
    return int(round(val))


def _list_tokens(value: str, label: str) -> list[str]:
    """The stripped comma-separated tokens of a bracketed list."""
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise ConfigError(f"{label}: expected a bracketed list, got {value!r}")
    inner = value[1:-1].strip()
    return [token.strip() for token in inner.split(",")] if inner else []


def _parse_list(value: str, label: str, integer: bool = False) -> list:
    out = []
    for token in _list_tokens(value, label):
        out.extend(_parse_range(token, label, integer))
    return out


def parse_grid_spec(spec: str) -> list[float]:
    """A bare ``a..b step s`` (or comma list) grid, for the priors CLI."""
    spec = spec.strip()
    if not spec.startswith("["):
        spec = f"[{spec}]"
    vals = _parse_list(spec, "tau-grid")
    if not vals:
        raise ConfigError("tau-grid is empty")
    if any(v < 0 for v in vals):
        raise ConfigError("tau-grid values must be >= 0")
    return vals


def parse_sim_config(data: bytes) -> SimConfig:
    """Parse the line-oriented simulation config into a SimConfig."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}") from None

    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in fields:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()

    known = {"n", "tau2", "reps", "seed", "level", "methods"}
    unknown = set(fields) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for required in ("n", "tau2"):
        if required not in fields:
            raise ConfigError(f"config must declare {required!r}")

    ns = _parse_list(fields["n"], "n", integer=True)
    tau2s = _parse_list(fields["tau2"], "tau2")
    level = _parse_number(fields["level"], "level") if "level" in fields else 0.95
    reps = _parse_int(fields["reps"], "reps") if "reps" in fields else 1000
    seed = _parse_int(fields["seed"], "seed") if "seed" in fields else 0
    methods = DEFAULT_METHODS
    if "methods" in fields:
        methods = tuple(t for t in _list_tokens(fields["methods"], "methods") if t)

    # Scenario and SimConfig own the range checks
    try:
        scenarios = [Scenario(n=n, tau2=t, level=level) for n in ns for t in tau2s]
        return SimConfig(scenarios=scenarios, methods=methods, reps=reps, master_seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run_analysis(
    dataset: MetaDataset,
    methods: Sequence[str] = ANALYZE_METHODS,
    level: float = 0.95,
) -> AnalysisReport:
    """Dataset summary plus every requested interval (failures captured)."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    outcomes = evaluate_methods(methods, dataset, level)
    results = tuple(
        MethodResult(method=m, error=str(out))
        if isinstance(out, Exception)
        else MethodResult(method=m, interval=out)
        for m, out in zip(methods, outcomes)
    )
    q = cochran_q(dataset)
    tau2 = dl_tau2(dataset).tau2
    pooled = pooled_mu(dataset, tau2)
    return AnalysisReport(
        n=dataset.n,
        mu_hat=pooled.mu_hat,
        var_mu_hat=pooled.var_mu_hat,
        tau2_dl=tau2,
        i_squared=i_squared(dataset),
        q=q,
        q_pvalue=q_test_pvalue(q, dataset.n),
        level=level,
        results=results,
    )


def _fmt6(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.6f}"


def emit_analysis_report(report: AnalysisReport, fmt: str = "json") -> bytes:
    """Serialize a report as json (full precision), csv, or plotdata."""
    if fmt == "json":
        methods = []
        for r in report.results:
            if r.interval is not None:
                methods.append(
                    {
                        "method": r.method,
                        "kind": r.interval.kind,
                        "lower": r.interval.lower,
                        "upper": r.interval.upper,
                        "level": r.interval.level,
                    }
                )
            else:
                methods.append({"method": r.method, "error": r.error})
        doc = {"summary": report.summary_dict(), "methods": methods}
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    if fmt == "csv":
        lines = ["method,kind,lower,upper,level"]
        for r in report.results:
            if r.interval is not None:
                iv = r.interval
                lines.append(
                    f"{r.method},{iv.kind},{_fmt6(iv.lower)},{_fmt6(iv.upper)},{_fmt6(iv.level)}"
                )
            else:
                lines.append(f"{r.method},failed,,,{_fmt6(report.level)}")
        return ("\n".join(lines) + "\n").encode()

    if fmt == "plotdata":
        lines = ["method,kind,level,lower,upper,width,center"]
        for r in sorted(report.results, key=lambda r: r.method):
            if r.interval is not None:
                iv = r.interval
                lines.append(
                    f"{r.method},{iv.kind},{_fmt6(iv.level)},{_fmt6(iv.lower)},"
                    f"{_fmt6(iv.upper)},{_fmt6(iv.width)},{_fmt6(report.mu_hat)}"
                )
            else:
                lines.append(f"{r.method},failed,{_fmt6(report.level)},,,,")
        return ("\n".join(lines) + "\n").encode()

    raise ConfigError(f"unknown report format {fmt!r}; use json, csv, or plotdata")


def emit_coverage_table(records: Sequence[CoverageRecord]) -> bytes:
    """Coverage CSV, sorted by (method, n, tau2), 6-decimal fixed floats."""
    if not records:
        raise DataError("no coverage records to emit")
    ordered = sorted(records, key=lambda r: (r.method, r.scenario.n, r.scenario.tau2))
    lines = ["method,n,tau2,level,reps,coverage,mc_se,mean_width,failures"]
    for r in ordered:
        sc = r.scenario
        lines.append(
            f"{r.method},{sc.n},{_fmt6(sc.tau2)},{_fmt6(sc.level)},{r.reps_used},"
            f"{_fmt6(r.coverage)},{_fmt6(r.mc_se)},{_fmt6(r.mean_width)},{r.failures}"
        )
    return ("\n".join(lines) + "\n").encode()
