"""Span recorder and the traced rebuilds of one replication and one request.

The rebuilds call the public functions of ``simulate``, ``priors``,
``bayes``, ``core``, ``intervals`` and ``io`` in the order
``run_replication`` and ``run_analysis`` call them, with one span around
each call. The benchmark checks that their results equal the untraced
entry points bit for bit; a difference means the trace measures another
path than the program runs.
"""

from __future__ import annotations

import math
import statistics
import time

from metapred.bayes import (
    EngineConfig,
    build_posterior_grid,
    credible_interval_mu,
    prediction_interval,
)
from metapred.core import cochran_q, dl_tau2, i_squared, pooled_mu, q_test_pvalue
from metapred.errors import NumericFailure
from metapred.intervals import hts_interval, wald_ci_mu
from metapred.io import AnalysisReport, MethodResult, emit_analysis_report, parse_dataset_csv
from metapred.priors import bind_prior, named_prior
from metapred.simulate import replication_stream, simulate_dataset

# every layer span the rebuilds record; each gives <layer>_us and <layer>.share
LAYERS = (
    "simulate.draw",
    "priors.bind",
    "priors.bind_conventional",
    "bayes.grid",
    "bayes.pred",
    "bayes.cred",
    "intervals.hts_dl",
    "intervals.hts_reml",
    "intervals.wald",
    "core.summary",
    "io.parse",
    "io.emit",
)
# layers timed per unit (their spans in one unit summed) instead of per call:
# run_analysis calls the summary statistics before and after the method loop
PER_UNIT_LAYERS = frozenset({"core.summary"})

_FREQ_VARIANTS = {"hts": "DL", "hts-hk": "HK", "hts-sj": "SJ"}


class Tracer:
    """In-memory spans: [id, parent id, name, start ns, end ns]."""

    def __init__(self):
        self.spans: list[list] = []

    def open(self, name: str, parent: int | None = None) -> int:
        sid = len(self.spans)
        self.spans.append([sid, parent, name, time.perf_counter_ns(), None])
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter_ns()

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Median per call in microseconds and share of traced wall time."""
        durations: dict[str, list[float]] = {name: [] for name in LAYERS}
        per_unit: dict[tuple[int, str], float] = {}
        for _, parent, name, start, end in self.spans:
            if name not in durations:
                continue
            if name in PER_UNIT_LAYERS:
                per_unit[(parent, name)] = per_unit.get((parent, name), 0.0) + (end - start)
            else:
                durations[name].append(end - start)
        for (_, name), total in per_unit.items():
            durations[name].append(total)
        out = {}
        for name, ds in durations.items():
            out[f"{name}_us"] = (statistics.median(ds) / 1e3 if ds else 0.0, "us")
            out[f"{name}.share"] = (math.fsum(ds) / 1e9 / wall_s, "ratio")
        return out


def _method_interval(tracer, parent, method, dataset, level, grids, engine_config):
    """Mirror of the engine's method dispatch, one span per layer call."""
    if method in _FREQ_VARIANTS:
        layer = "intervals.hts_dl" if method == "hts" else "intervals.hts_reml"
        sid = tracer.open(layer, parent)
        try:
            return hts_interval(dataset, level, variant=_FREQ_VARIANTS[method])
        finally:
            tracer.close(sid)
    if method == "dl":
        sid = tracer.open("intervals.wald", parent)
        try:
            return wald_ci_mu(dataset, level)
        finally:
            tracer.close(sid)
    want_credible = method.startswith("cred:")
    prior_name = method[5:] if want_credible else method
    if prior_name not in grids:
        layer = "priors.bind_conventional" if prior_name == "conventional" else "priors.bind"
        sid = tracer.open(layer, parent)
        try:
            bound = bind_prior(named_prior(prior_name), dataset)
        finally:
            tracer.close(sid)
        sid = tracer.open("bayes.grid", parent)
        try:
            grids[prior_name] = build_posterior_grid(dataset, bound, engine_config)
        finally:
            tracer.close(sid)
    grid = grids[prior_name]
    if want_credible:
        sid = tracer.open("bayes.cred", parent)
        try:
            return credible_interval_mu(grid, level, engine_config.cdf_tolerance)
        finally:
            tracer.close(sid)
    sid = tracer.open("bayes.pred", parent)
    try:
        return prediction_interval(grid, level, engine_config.cdf_tolerance)
    finally:
        tracer.close(sid)


def traced_replication(tracer, scenario, methods, rep_seed):
    """``run_replication`` rebuilt from public calls: per method (covered, width, failed)."""
    engine_config = EngineConfig()
    root = tracer.open("simulate.replication")
    sid = tracer.open("simulate.draw", root)
    stream = replication_stream(rep_seed[0], scenario, rep_seed[1])
    dataset, theta_new = simulate_dataset(stream, scenario)
    tracer.close(sid)
    grids: dict = {}
    out = {}
    for method in methods:
        try:
            interval = _method_interval(
                tracer, root, method, dataset, scenario.level, grids, engine_config
            )
        except (ValueError, NumericFailure):
            out[method] = (False, math.nan, True)
            continue
        target = theta_new if interval.kind == "prediction" else scenario.mu
        out[method] = (interval.contains(target), interval.width, False)
    tracer.close(root)
    return out


def traced_request(tracer, csv_bytes, methods, level=0.95):
    """parse -> ``run_analysis`` rebuilt from public calls -> JSON report bytes."""
    engine_config = EngineConfig()
    root = tracer.open("analyze.request")
    sid = tracer.open("io.parse", root)
    dataset = parse_dataset_csv(csv_bytes)
    tracer.close(sid)
    sid = tracer.open("core.summary", root)
    q = cochran_q(dataset)
    tau2 = dl_tau2(dataset).tau2
    pooled = pooled_mu(dataset, tau2)
    tracer.close(sid)
    grids: dict = {}
    results = []
    for method in methods:
        try:
            interval = _method_interval(
                tracer, root, method, dataset, level, grids, engine_config
            )
        except (ValueError, NumericFailure) as exc:
            results.append(MethodResult(method=method, error=str(exc)))
        else:
            results.append(MethodResult(method=method, interval=interval))
    sid = tracer.open("core.summary", root)
    i2 = i_squared(dataset)
    q_pvalue = q_test_pvalue(q, dataset.n)
    tracer.close(sid)
    report = AnalysisReport(
        n=dataset.n,
        mu_hat=pooled.mu_hat,
        var_mu_hat=pooled.var_mu_hat,
        tau2_dl=tau2,
        i_squared=i2,
        q=q,
        q_pvalue=q_pvalue,
        level=level,
        results=tuple(results),
    )
    sid = tracer.open("io.emit", root)
    body = emit_analysis_report(report, "json")
    tracer.close(sid)
    tracer.close(root)
    return body
