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
from itertools import repeat
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .core import MetaDataset
from .errors import NumericFailure
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
        if not (0 <= self.master_seed < 2**64):
            raise ValueError(f"seed must lie in [0, 2^64), got {self.master_seed}")
        # distinct scenarios with one 32-bit key would share their streams
        keys: dict[int, Scenario] = {}
        for sc in self.scenarios:
            other = keys.setdefault(scenario_key(sc), sc)
            if other is not sc:
                raise ValueError(
                    f"scenarios {other} and {sc} share stream key "
                    f"{scenario_key(sc):#x}; change one of them"
                )


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
    master_seed: int, scenario: Scenario, rep_index: int
) -> np.random.Generator:
    """Counter-based stream for one replication.

    The Philox key is (master_seed, scenario_key << 32 | rep_index), so
    streams are independent, splittable, and identical no matter how work
    is scheduled across processes.
    """
    key = np.array(
        [
            master_seed & _MASK64,
            (scenario_key(scenario) << 32) | (rep_index & _MASK32),
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
    return MetaDataset(y, np.sqrt(sigma_sq)), theta_new


def run_replication(
    scenario: Scenario,
    methods: Sequence[str],
    rep_seed: tuple[int, int],
) -> dict[str, tuple[bool, float, bool]]:
    """One replication: per method, (covered, width, failed).

    ``rep_seed`` is (master_seed, rep_index); the stream key also folds in
    the scenario fingerprint. Prediction methods are scored against the
    new-study effect; confidence and credible methods against the true
    mean. A method that raises NumericFailure is recorded as failed with no
    coverage/width contribution; any other error is raised (a Scenario's n
    and level are valid, so a ValueError here is a bug, not a failure).
    """
    master_seed, rep_index = rep_seed
    stream = replication_stream(master_seed, scenario, rep_index)
    dataset, theta_new = simulate_dataset(stream, scenario)
    results = evaluate_methods(methods, dataset, scenario.level)
    out: dict[str, tuple[bool, float, bool]] = {}
    for method, interval in zip(methods, results):
        if isinstance(interval, NumericFailure):
            # keep the seed in the record so the replication can be replayed
            logger.warning(
                "method %s failed on scenario %s, rep_seed=%s: %s",
                method, scenario, rep_seed, interval,
            )
            out[method] = (False, math.nan, True)
            continue
        if isinstance(interval, Exception):
            raise interval
        target = theta_new if METHODS[method].kind == "prediction" else scenario.mu
        out[method] = (interval.contains(target), interval.width, False)
    return out


def run_study(config: SimConfig, parallelism: int = 1) -> list[CoverageRecord]:
    """Run the full study and aggregate one CoverageRecord per cell.

    Replications run as one ordered map over (scenario, replication), in
    process at parallelism 1 and on a process pool otherwise, so each
    scenario's results are one contiguous slice. Coverage is an integer
    count and widths are summed exactly (math.fsum), so the output is
    bit-identical for any parallelism value under the same master seed.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    reps = config.reps
    args = (
        [sc for sc in config.scenarios for _ in range(reps)],
        repeat(config.methods),
        [(config.master_seed, rep) for rep in range(reps)] * len(config.scenarios),
    )
    if parallelism == 1:
        rows = list(map(run_replication, *args))
    else:
        chunk = math.ceil(reps / (4 * parallelism))
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            rows = list(pool.map(run_replication, *args, chunksize=chunk))

    records = []
    for si, sc in enumerate(config.scenarios):
        cell = rows[si * reps : (si + 1) * reps]
        for method in config.methods:
            ok = [res[method] for res in cell if not res[method][2]]
            used = len(ok)
            if used == 0:
                records.append(
                    CoverageRecord(method, sc, math.nan, math.nan, math.nan, 0, reps)
                )
                continue
            cov = sum(1 for covered, _, _ in ok if covered) / used
            mean_w = math.fsum(width for _, width, _ in ok) / used
            mc_se = math.sqrt(cov * (1.0 - cov) / used)
            records.append(CoverageRecord(method, sc, cov, mean_w, mc_se, used, reps - used))
    return records
