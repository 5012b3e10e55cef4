"""Workload definitions and seeded input generation for the benchmark.

Every input is a pure function of (workload, seed, seconds). Seeds are
folded into a pool of ``POOL`` instances because the output check compares
against reference results stored for each instance (see ``reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from metapred.io import ANALYZE_METHODS
from metapred.priors import NAMED_PRIORS
from metapred.simulate import DEFAULT_METHODS, Scenario, SimConfig

POOL = 16

# analyze-mixed asks for every method tag the engine offers
ANALYZE_MIXED_METHODS: tuple[str, ...] = (
    ANALYZE_METHODS + ("dl",) + tuple(f"cred:{p}" for p in NAMED_PRIORS)
)

# analyze requests are stratified in blocks of this many (see analyze_request)
STRATUM = 20

# salt for the analyze request streams, so they share no state with the
# simulation's own Philox streams
_ANALYZE_SALT = 0x6D657461


@dataclass(frozen=True)
class SimWorkload:
    name: str
    n_values: tuple[int, ...]
    tau2_values: tuple[float, ...]
    methods: tuple[str, ...]
    parallelism: int
    # replications per scenario in one timed run_study call (a block)
    reps_per_block: int


@dataclass(frozen=True)
class AnalyzeWorkload:
    name: str
    methods: tuple[str, ...]
    requests_per_second: int


WORKLOADS = {
    # the paper's study shape; bayes does ~93% of the work
    "sim-bayes": SimWorkload(
        name="sim-bayes",
        n_values=(7, 15),
        tau2_values=(0.01, 0.1),
        methods=DEFAULT_METHODS,
        parallelism=1,
        reps_per_block=3,
    ),
    # frequentist methods only: REML, t quantile, stream draws, process pool
    "sim-freq-par2": SimWorkload(
        name="sim-freq-par2",
        n_values=(5, 30),
        tau2_values=(0.0, 0.1),
        methods=("hts", "hts-hk", "hts-sj", "dl"),
        parallelism=2,
        reps_per_block=100,
    ),
    # closed loop, one client: CSV bytes -> run_analysis -> JSON report
    "analyze-mixed": AnalyzeWorkload(
        name="analyze-mixed",
        methods=ANALYZE_MIXED_METHODS,
        requests_per_second=STRATUM,
    ),
}


def instance(seed: int) -> int:
    """The reference instance a benchmark seed maps to."""
    return seed % POOL


def blocks(seconds: int) -> int:
    """Timed study blocks in a run: two per requested second."""
    return 2 * seconds


def sim_config(workload: SimWorkload, seed: int, block: int) -> SimConfig:
    """The study of one block; blocks differ only in their master seed."""
    scenarios = tuple(
        Scenario(n=n, tau2=t) for n in workload.n_values for t in workload.tau2_values
    )
    return SimConfig(
        scenarios=scenarios,
        methods=workload.methods,
        reps=workload.reps_per_block,
        master_seed=(instance(seed) << 8) | block,
    )


def request_count(workload: AnalyzeWorkload, seconds: int) -> int:
    return workload.requests_per_second * seconds


def analyze_request(seed: int, index: int) -> bytes:
    """Dataset CSV for request ``index``: a fresh dataset every time.

    n is log-uniform on 3..100 and SE^2 uniform on [0.009, 0.6]. Half the
    requests are on a log-ratio scale, half on a x10 mean-difference scale.
    n and the scale are stratified over each block of ``STRATUM`` requests,
    so every run sees the same mix of sizes and scales and its latency
    percentiles vary less from seed to seed.
    """
    block, slot = divmod(index, STRATUM)
    block_rng = np.random.default_rng([_ANALYZE_SALT, instance(seed), block])
    n_rank = block_rng.permutation(STRATUM)[slot]
    scale_rank = block_rng.permutation(STRATUM)[slot]
    rng = np.random.default_rng([_ANALYZE_SALT, instance(seed), block, slot])
    u = (n_rank + rng.random()) / STRATUM
    n = int(round(math.exp(math.log(3.0) + u * (math.log(100.0) - math.log(3.0)))))
    se = np.sqrt(rng.uniform(0.009, 0.6, n))
    mu = rng.normal(0.0, 0.5)
    tau = math.sqrt(rng.uniform(0.0, 0.3))
    effects = mu + tau * rng.standard_normal(n) + se * rng.standard_normal(n)
    scale = 10.0 if scale_rank < STRATUM // 2 else 1.0
    rows = ["study,effect,se"]
    rows += [
        f"s{k},{float(e) * scale!r},{float(s) * scale!r}"
        for k, (e, s) in enumerate(zip(effects, se))
    ]
    return ("\n".join(rows) + "\n").encode()
