"""Monte-Carlo coverage harness for the interval methods.

Datasets are generated from the two-level Gaussian model with the grand
mean fixed at 0: within-study variances are 0.25 x chi^2(1) draws
rejection-resampled into [0.009, 0.6], true study effects and the held-out
new-study effect are N(0, tau^2). Every replication gets its own
counter-based random stream keyed by (master_seed, scenario, replication),
so the study is bit-identical for any degree of parallelism.
"""

from __future__ import annotations

import logging
import math
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import ndtri

from .bayes import EngineConfig
from .core import MetaDataset
from .methods import METHODS, evaluate_methods, lookup_method
from .priors import NAMED_PRIORS

__all__ = [
    "Scenario",
    "SimConfig",
    "CoverageRecord",
    "DEFAULT_METHODS",
    "replication_stream",
    "draw_within_variances",
    "simulate_dataset",
    "run_replication",
    "run_study",
]

logger = logging.getLogger(__name__)

SIGMA_SQ_LOW = 0.009
SIGMA_SQ_HIGH = 0.6

# the standard study grid: the 11 tau priors plus the plug-in t interval
DEFAULT_METHODS: tuple[str, ...] = ("hts",) + tuple(NAMED_PRIORS)


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: number of studies and true heterogeneity."""

    n: int
    tau2: float
    mu: float = 0.0
    level: float = 0.95

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"scenario needs n >= 3, got {self.n}")
        if not (math.isfinite(self.tau2) and self.tau2 >= 0):
            raise ValueError(f"tau2 must be finite and >= 0, got {self.tau2!r}")
        if not (0.0 < self.level < 1.0):
            raise ValueError(f"level must lie in (0, 1), got {self.level!r}")


@dataclass(frozen=True)
class SimConfig:
    """A full coverage study: scenarios x methods x replications."""

    scenarios: tuple[Scenario, ...]
    methods: tuple[str, ...] = DEFAULT_METHODS
    reps: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.scenarios:
            raise ValueError("config needs at least one scenario")
        if not self.methods:
            raise ValueError("config needs at least one method")
        for m in self.methods:
            lookup_method(m)
        for label, items in (("method tag", self.methods), ("scenario", self.scenarios)):
            dup = next((x for i, x in enumerate(items) if x in items[:i]), None)
            if dup is not None:
                raise ValueError(f"config repeats {label} {dup!r}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")


@dataclass(frozen=True)
class CoverageRecord:
    """Empirical coverage and width for one (method, scenario) cell."""

    method: str
    scenario: Scenario
    coverage: float
    mean_width: float
    mc_se: float
    reps_used: int
    failures: int


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def scenario_key(scenario: Scenario) -> int:
    """Stable 32-bit fingerprint of a scenario's content.

    Keying streams by content (not list position) makes every coverage
    cell invariant to scenario ordering in the config.
    """
    text = "|".join(
        (
            str(scenario.n),
            float(scenario.tau2).hex(),
            float(scenario.mu).hex(),
            float(scenario.level).hex(),
        )
    )
    return zlib.crc32(text.encode())


def replication_stream(
    master_seed: int, scenario: Union[Scenario, int], rep_index: int
) -> np.random.Generator:
    """Counter-based stream for one replication.

    The Philox key is (master_seed, scenario_key << 32 | rep_index), so
    streams are independent, splittable, and identical no matter how work
    is scheduled across processes. ``scenario`` may be a Scenario (its
    content fingerprint is used) or a raw 32-bit subkey.
    """
    sub = scenario_key(scenario) if isinstance(scenario, Scenario) else scenario
    key = np.array(
        [
            master_seed & _MASK64,
            ((sub & _MASK32) << 32) | (rep_index & _MASK32),
        ],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _std_normals(stream: np.random.Generator, size: int) -> np.ndarray:
    # inverse-CDF normals from uniforms; clamp away u = 0 (prob 2^-53)
    u = stream.random(size)
    return ndtri(np.clip(u, 2.0**-53, 1.0 - 2.0**-53))


def draw_within_variances(stream: np.random.Generator, n: int) -> np.ndarray:
    """Within-study variances: 0.25 x chi^2(1), truncated to [0.009, 0.6].

    Truncation is by per-value rejection resampling, so accepted values
    follow the conditional distribution (no point mass at the edges).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    vals = 0.25 * _std_normals(stream, n) ** 2
    bad = (vals < SIGMA_SQ_LOW) | (vals > SIGMA_SQ_HIGH)
    while bad.any():
        vals[bad] = 0.25 * _std_normals(stream, int(bad.sum())) ** 2
        bad = (vals < SIGMA_SQ_LOW) | (vals > SIGMA_SQ_HIGH)
    return vals


def simulate_dataset(
    stream: np.random.Generator, scenario: Scenario
) -> tuple[MetaDataset, float]:
    """One synthetic dataset plus the held-out new-study effect.

    Draw order is fixed (variances, true effects, observed effects, new
    effect) so replaying a stream reproduces the replication exactly.
    """
    tau = math.sqrt(scenario.tau2)
    sigma_sq = draw_within_variances(stream, scenario.n)
    theta = scenario.mu + tau * _std_normals(stream, scenario.n)
    y = theta + np.sqrt(sigma_sq) * _std_normals(stream, scenario.n)
    theta_new = scenario.mu + tau * float(_std_normals(stream, 1)[0])
    return MetaDataset.from_arrays(y, np.sqrt(sigma_sq)), theta_new


def run_replication(
    scenario: Scenario,
    methods: Sequence[str],
    rep_seed: tuple[int, int],
    engine_config: EngineConfig | None = None,
) -> dict[str, tuple[bool, float, bool]]:
    """One replication: per method, (covered, width, failed).

    ``rep_seed`` is (master_seed, rep_index); the stream key also folds in
    the scenario fingerprint. Prediction methods are scored against the
    new-study effect; confidence and credible methods against the true
    mean. A method that raises is recorded as failed with no
    coverage/width contribution; an unknown tag raises ValueError.
    """
    master_seed, rep_index = rep_seed
    stream = replication_stream(master_seed, scenario, rep_index)
    dataset, theta_new = simulate_dataset(stream, scenario)
    results = evaluate_methods(methods, dataset, scenario.level, engine_config)
    out: dict[str, tuple[bool, float, bool]] = {}
    for method, interval in zip(methods, results):
        if isinstance(interval, Exception):
            # keep the seed in the record so the replication can be replayed
            logger.warning(
                "method %s failed on scenario %s, rep_seed=%s: %s",
                method, scenario, rep_seed, interval,
            )
            out[method] = (False, math.nan, True)
            continue
        target = theta_new if METHODS[method].kind == "prediction" else scenario.mu
        out[method] = (interval.contains(target), interval.width, False)
    return out


def _run_chunk(args):
    scenario, methods, master_seed, scenario_index, rep_lo, rep_hi = args
    rows = []
    for rep in range(rep_lo, rep_hi):
        res = run_replication(scenario, methods, (master_seed, rep))
        rows.append([res[m] for m in methods])
    return scenario_index, rep_lo, rows


def run_study(config: SimConfig, parallelism: int = 1) -> list[CoverageRecord]:
    """Run the full study and aggregate one CoverageRecord per cell.

    Results are gathered into deterministic (scenario, replication) order
    before aggregation, and sums use compensated summation, so the output
    is bit-identical for any parallelism value under the same master seed.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    n_s = len(config.scenarios)
    n_m = len(config.methods)
    covered = np.zeros((n_s, config.reps, n_m), dtype=bool)
    width = np.full((n_s, config.reps, n_m), math.nan)
    failed = np.zeros((n_s, config.reps, n_m), dtype=bool)

    chunk = max(1, math.ceil(config.reps / max(parallelism * 4, 1)))
    tasks = [
        (sc, config.methods, config.master_seed, si, lo, min(lo + chunk, config.reps))
        for si, sc in enumerate(config.scenarios)
        for lo in range(0, config.reps, chunk)
    ]

    if parallelism == 1:
        results = map(_run_chunk, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=parallelism)
        try:
            results = list(pool.map(_run_chunk, tasks))
        finally:
            pool.shutdown()

    for si, lo, rows in results:
        for offset, row in enumerate(rows):
            for mi, (cov, wid, fail) in enumerate(row):
                covered[si, lo + offset, mi] = cov
                width[si, lo + offset, mi] = wid
                failed[si, lo + offset, mi] = fail

    records = []
    for si, sc in enumerate(config.scenarios):
        for mi, method in enumerate(config.methods):
            ok = ~failed[si, :, mi]
            used = int(ok.sum())
            n_fail = config.reps - used
            if used == 0:
                records.append(
                    CoverageRecord(method, sc, math.nan, math.nan, math.nan, 0, n_fail)
                )
                continue
            cov = math.fsum(1.0 for f in covered[si, ok, mi] if f) / used
            mean_w = math.fsum(width[si, ok, mi].tolist()) / used
            mc_se = math.sqrt(cov * (1.0 - cov) / used)
            records.append(CoverageRecord(method, sc, cov, mean_w, mc_se, used, n_fail))
    return records
