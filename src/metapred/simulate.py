"""Monte-Carlo coverage harness for the interval methods.

Datasets are generated from the two-level Gaussian model with the grand
mean fixed at 0: within-study variances are 0.25 x chi^2(1) draws
rejection-resampled into [0.009, 0.6], true study effects and the held-out
new-study effect are N(0, tau^2). Every replication gets its own
counter-based random stream keyed by (master_seed, scenario, replication).
The study runs in blocks of one scenario's replications: each block's
datasets go through the methods together, one grid batch and one
inversion batch for all of them, and one pass for the plug-in t and Wald
tags (one DL fit and one REML scoring loop over all of them). A
replication's result does not depend on its block, so the study is
bit-identical for any degree of parallelism and any block size.
"""

from __future__ import annotations

import logging
import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .core import MetaDataset
from .errors import NumericFailure
from .methods import METHODS, _evaluate_block, lookup_method
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

# studies per block of replications: bounds the engine's (studies x nodes)
# arrays to a few MB each at the first refinement pass. Speed does not set
# it: per replication, blocks of 12 to 36 cost the same within noise at
# n = 7 and 15, and larger blocks keep paying at n = 30 (BENCH_14.json)
_BLOCK_STUDIES = 256

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
            seen = set()
            for x in items:
                if x in seen:
                    raise ValueError(f"config repeats {label} {x!r}")
                seen.add(x)
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
    It runs as a block of one replication (see run_study).
    """
    master_seed, rep_index = rep_seed
    (out,) = _run_block(scenario, methods, master_seed, (rep_index,))
    return out


def _run_block(
    scenario: Scenario, methods: Sequence[str], master_seed: int, reps: Sequence[int]
) -> list[dict[str, tuple[bool, float, bool]]]:
    """run_replication for each replication index in reps, as one block.

    Every replication draws its dataset from its own stream, as alone; the
    datasets then go through the methods together (one grid batch and one
    inversion batch for the Bayesian tags of the whole block, one DL fit
    and one REML scoring loop for its plug-in t and Wald tags), so each
    replication's row equals its run_replication row bit for bit.
    """
    draws = [
        simulate_dataset(replication_stream(master_seed, scenario, rep), scenario)
        for rep in reps
    ]
    results = _evaluate_block(methods, [dataset for dataset, _ in draws], scenario.level)
    rows = []
    for rep, (_, theta_new), intervals in zip(reps, draws, results):
        out: dict[str, tuple[bool, float, bool]] = {}
        for method, interval in zip(methods, intervals):
            if isinstance(interval, NumericFailure):
                # keep the seed in the record so the replication can be replayed
                logger.warning(
                    "method %s failed on scenario %s, rep_seed=%s: %s",
                    method, scenario, (master_seed, rep), interval,
                )
                out[method] = (False, math.nan, True)
                continue
            if isinstance(interval, Exception):
                raise interval
            target = theta_new if METHODS[method].kind == "prediction" else scenario.mu
            out[method] = (interval.contains(target), interval.width, False)
        rows.append(out)
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(config: SimConfig, cap: int) -> list[tuple[Scenario, tuple[int, ...]]]:
    """run_study's units of work, in order: each scenario's replication
    indices cut into blocks of min(cap, _BLOCK_STUDIES // n) (at least 1)."""
    blocks = []
    for sc in config.scenarios:
        size = max(1, min(cap, _BLOCK_STUDIES // sc.n))
        for start in range(0, config.reps, size):
            blocks.append((sc, tuple(range(start, min(start + size, config.reps)))))
    return blocks


def run_study(config: SimConfig, parallelism: int = 1) -> list[CoverageRecord]:
    """Run the full study and aggregate one CoverageRecord per cell.

    The unit of work is a block of one scenario's replications, which
    _run_block evaluates together: at most _BLOCK_STUDIES studies (one
    replication when n alone exceeds that), and on a pool at most
    ceil(reps / (4 x workers)) replications, so that each worker gets
    about four pieces of every scenario. The blocks run as one ordered
    map, so each scenario's rows are one contiguous slice, on a pool of
    min(parallelism, usable CPUs) worker processes, or in process when
    that is 1. Every replication draws from its own stream and its row
    does not depend on the rest of its block; coverage is an integer
    count and widths are summed exactly (math.fsum), so the output is
    bit-identical for any parallelism value under the same master seed.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    workers = min(parallelism, _usable_cpus())
    reps = config.reps
    cap = reps if workers == 1 else math.ceil(reps / (4 * workers))
    scenarios, indices = zip(*_blocks(config, cap))
    args = (scenarios, repeat(config.methods), repeat(config.master_seed), indices)
    if workers == 1:
        blocks = list(map(_run_block, *args))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_run_block, *args))
    rows = [row for block in blocks for row in block]

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
