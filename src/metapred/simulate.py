"""Monte-Carlo coverage harness for the interval methods.

Datasets are drawn from the two-level Gaussian model around the scenario's
grand mean mu (0 by default): within-study variances are 0.25 x chi^2(1)
draws rejection-resampled into [0.009, 0.6], and the true study effects and
the held-out new-study effect are N(mu, tau^2). Every replication reads its
own counter-based random stream, keyed by (master_seed, scenario,
replication), so its result does not depend on the block it runs in: the
study is bit-identical for any degree of parallelism and any block size.

A block holds replications of scenarios that share n and level (_blocks):
the study's replications are cut into one near-equal share per worker,
and each share's part of a group into the fewest blocks that fit, so a
group pays a block's fixed costs (REML's scoring passes) about once per
share it meets. A block draws all of its datasets in one pass
(_draw_rows, of which the public simulate_dataset is a block of one) and
runs them through the methods together (methods._evaluate_block), which
give (methods, replications) arrays of interval endpoints and failure
indices. _run_block scores those arrays against each row's target, and
run_study sums each cell's scores.
On more than one CPU the blocks run on a pool of worker processes that is
forked at a process's first parallel study and kept for later ones.
"""
from __future__ import annotations

import logging
import math
import operator
import os
import threading
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .core import MetaDataset
from .errors import NumericFailure
from .intervals import _check_level
from .methods import METHODS, _evaluate_block, lookup_method
from .priors import NAMED_PRIORS

__all__ = [
    "Scenario",
    "SimConfig",
    "CoverageRecord",
    "DEFAULT_METHODS",
    "replication_stream",
    "simulate_dataset",
    "run_replication",
    "run_study",
]

logger = logging.getLogger(__name__)

SIGMA_SQ_LOW = 0.009
SIGMA_SQ_HIGH = 0.6

# studies per block of replications that runs a Bayesian tag: bounds the
# engine's (studies x nodes) arrays to a few MB each at the first
# refinement pass. Speed does not set it: per replication, blocks of 12 to
# 36 cost the same within noise at n = 7 and 15, and larger blocks keep
# paying at n = 30 (BENCH_14.json). Blocks of 3 cost more per dataset than
# blocks of 6 (BENCH_24.json), which is why a block takes the replications
# of every scenario that shares its n and level, not of one scenario alone
_BLOCK_STUDIES = 256

# studies per block that runs only plug-in t and Wald tags, whose arrays
# are (replications x n). Speed sets it: a block runs REML scoring passes
# until its slowest row converges, so small blocks repeat those passes;
# per replication, the cost levels off at about 256 to 512 replications
# for n = 5 to 100, which 2^15 studies allow at n <= 100 (BENCH_22.json)
_PLUGIN_STUDIES = 2**15

# the standard study grid: the 11 tau priors plus the plug-in t interval
DEFAULT_METHODS: tuple[str, ...] = ("hts",) + tuple(NAMED_PRIORS)


def _check_integer(value, label):
    """ValueError unless value is an integer (a Python or numpy int)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{label} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: number of studies and true heterogeneity."""

    n: int
    tau2: float
    mu: float = 0.0
    level: float = 0.95

    def __post_init__(self):
        _check_integer(self.n, "n")
        if self.n < 3:
            raise ValueError(f"scenario needs n >= 3, got {self.n}")
        if not (math.isfinite(self.tau2) and self.tau2 >= 0):
            raise ValueError(f"tau2 must be finite and >= 0, got {self.tau2!r}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        _check_level(self.level)
        # -0.0 equals 0.0, but its float.hex() would key other streams
        for name in ("tau2", "mu"):
            if getattr(self, name) == 0:
                object.__setattr__(self, name, abs(getattr(self, name)))


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
        _check_integer(self.reps, "reps")
        _check_integer(self.master_seed, "seed")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError(f"seed must lie in [0, 2^64), got {self.master_seed}")
        # distinct scenarios with one 32-bit key would share their streams
        keys: dict[int, Scenario] = {}
        for sc in self.scenarios:
            other = keys.setdefault(_scenario_key(sc), sc)
            if other is not sc:
                raise ValueError(
                    f"scenarios {other} and {sc} share stream key "
                    f"{_scenario_key(sc):#x}; change one of them"
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


def _scenario_key(scenario: Scenario) -> int:
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

    The Philox key is (master_seed, _scenario_key << 32 | rep_index), so
    streams are independent, splittable, and identical no matter how work
    is scheduled across processes. A block of replications re-keys one
    generator to each of these streams in turn (_block_prefixes); this
    builds one alone, to replay a replication.
    """
    word = (_scenario_key(scenario) << 32) | (rep_index & _MASK32)
    key = np.array([master_seed & _MASK64, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# uniforms a replication draws before it uses any: its 3n + 1 (n
# variances, n true effects, n observation errors, one new effect) plus
# _PREFIX_SPARE x (n + 7) spare ones for its variances' rejections, of
# which about 0.37 n are expected (a 0.25 chi^2(1) value lands in
# [0.009, 0.6] with probability 0.728). At the default the prefix is
# 4n + 8, and about 3 replications in 10^5 run past it at n = 3 to 7
# (3.5 in 10^7 at n = 30); such a row is drawn again from a prefix twice
# as long
_PREFIX_SPARE = 1


def _draw_rows(
    prefixes: Callable[[np.ndarray, int], np.ndarray], rows: int, n: int, extra: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one transform from uniforms to draws, for `rows` streams at once.

    Each row reads its stream in a fixed order: n within-study variances,
    0.25 x chi^2(1) truncated to [SIGMA_SQ_LOW, SIGMA_SQ_HIGH] by
    rejection, then `extra` further standard normals. A normal is
    ndtri(u) of the stream's next uniform u, clamped away from 0 and 1
    (probability 2^-53). A variance out of range is redrawn in rounds:
    each round, every rejected position of a row takes the row's next
    normals in position order, so all rows share one vectorised loop and
    each keeps its own cursor into its normals.

    prefixes(pending, k) returns, for each row index in pending, the first
    k uniforms of that row's stream. A row whose draws run past its k
    uniforms asks for 2k and goes through the same loop again. Returns the
    (rows, n) variances and the (rows, extra) normals.
    """
    variances = np.empty((rows, n))
    normals = np.empty((rows, extra))
    pending = np.arange(rows)
    k = n + extra + _PREFIX_SPARE * (n + 7)
    while pending.size:
        z = prefixes(pending, k)
        np.maximum(z, 2.0**-53, out=z)
        np.minimum(z, 1.0 - 2.0**-53, out=z)
        ndtri(z, out=z)
        v = np.square(z)
        v *= 0.25
        accepted = (v >= SIGMA_SQ_LOW) & (v <= SIGMA_SQ_HIGH)
        # flat indices into z: each variance's normal, each row's next
        # normal and the end of each row's prefix
        end = np.arange(k, (len(pending) + 1) * k, k)
        source = (end - k)[:, None] + np.arange(n)
        cursor = end - (k - n)
        at_source = np.logical_not(accepted[:, :n]).ravel().nonzero()[0]
        row = at_source // n
        while at_source.size:
            at = cursor[row] + (np.arange(row.size) - row.searchsorted(row))
            cursor += np.bincount(row, minlength=len(pending))
            source.put(at_source, at)
            again = (at < end[row]) & ~accepted.take(at, mode="clip")
            at_source, row = at_source[again], row[again]
        # a row that ran past its prefix reads past its end here; it is
        # drawn again, so those values are overwritten
        variances[pending] = v.take(source, mode="clip")
        normals[pending] = z.take(cursor[:, None] + np.arange(extra), mode="clip")
        pending = pending[cursor + extra > end]
        k *= 2
    return variances, normals


def _stream_prefixes(stream: np.random.Generator) -> Callable[[np.ndarray, int], np.ndarray]:
    # prefixes of one row read from a caller's stream: a longer prefix
    # extends the uniforms already read
    chunks: list[np.ndarray] = []

    def prefixes(pending: np.ndarray, k: int) -> np.ndarray:
        chunks.append(stream.random(k - sum(map(len, chunks))))
        return np.concatenate(chunks)[None]

    return prefixes


def _block_prefixes(
    master_seed: int, keys: Sequence[int]
) -> Callable[[np.ndarray, int], np.ndarray]:
    # prefixes of a block's rows: one Philox, re-keyed through its state
    # setter to row i's replication stream (counter 0, empty buffer), gives
    # the uniforms of the replication_stream whose key's second word,
    # _scenario_key << 32 | rep_index, is keys[i]
    bitgen = np.random.Philox(key=np.array([master_seed & _MASK64, 0], dtype=np.uint64))
    generator = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]

    def prefixes(pending: np.ndarray, k: int) -> np.ndarray:
        uniforms = np.empty((len(pending), k))
        for out, i in zip(uniforms, pending.tolist()):
            key[1] = keys[i]
            bitgen.state = fresh
            generator.random(out=out)
        return uniforms

    return prefixes


def _simulate_rows(
    prefixes: Callable[[np.ndarray, int], np.ndarray], n: int, scenarios: Sequence[Scenario]
) -> tuple[list[MetaDataset], list[float]]:
    # datasets of n studies and new-study effects of one stream per row,
    # row i drawn under scenarios[i], in the draw order of simulate_dataset
    tau = np.array([math.sqrt(sc.tau2) for sc in scenarios])
    mu = np.array([sc.mu for sc in scenarios])
    sigma_sq, z = _draw_rows(prefixes, len(scenarios), n, 2 * n + 1)
    theta = mu[:, None] + tau[:, None] * z[:, :n]
    std_errs = np.sqrt(sigma_sq)
    effects = theta + std_errs * z[:, n : 2 * n]
    variances = std_errs**2
    theta_new = mu + tau * z[:, 2 * n]
    for arr in (effects, std_errs, variances):
        arr.flags.writeable = False
    datasets = list(map(MetaDataset._trusted, effects, std_errs, variances))
    return datasets, theta_new.tolist()


def simulate_dataset(
    stream: np.random.Generator, scenario: Scenario
) -> tuple[MetaDataset, float]:
    """One synthetic dataset plus the held-out new-study effect.

    Draw order is fixed (variances, true effects, observed effects, new
    effect) so replaying a stream reproduces the replication exactly. This
    is a block of one of the transform run_study draws with: it reads a
    prefix of 4n + 8 uniforms from the stream (more if the variances'
    rejections need them), so the stream ends past the uniforms it used.
    """
    (dataset,), (theta_new,) = _simulate_rows(_stream_prefixes(stream), scenario.n, [scenario])
    return dataset, theta_new


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
    It runs as a block of one part of one replication (see run_study).
    """
    master_seed, rep_index = rep_seed
    (part,) = _run_block(((scenario, (rep_index,)),), methods, master_seed)
    return dict(zip(methods, zip(*(array[:, 0].tolist() for array in part))))


def _run_block(
    parts: Sequence[tuple[Scenario, Sequence[int]]], methods: Sequence[str], master_seed: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """run_replication for each replication of a block: per part, its
    (methods, replications) arrays of covered, width and failed.

    A part is a scenario and some of its replication indices, and the
    parts' scenarios share n and level. The block draws its datasets in one
    pass, each the one simulate_dataset draws from its replication_stream
    alone, and runs them through _evaluate_block together. Each entry is
    scored against its row's target (theta_new for a prediction tag, else
    the row's scenario mu) with the float operations of
    IntervalEstimate.contains and .width, so each replication's column
    equals its run_replication row bit for bit. A NumericFailure is logged
    with the seed that replays it, replication after replication, and
    scores not covered with NaN width; any other error propagates.
    """
    scenarios, reps, keys = [], [], []
    for scenario, part_reps in parts:
        high = _scenario_key(scenario) << 32
        scenarios += [scenario] * len(part_reps)
        reps += part_reps
        keys += [high | (rep & _MASK32) for rep in part_reps]
    first = parts[0][0]
    datasets, news = _simulate_rows(_block_prefixes(master_seed, keys), first.n, scenarios)
    errors: list = []
    lower, upper, failed = _evaluate_block(methods, datasets, first.level, errors)
    for i, k in np.argwhere(failed.T >= 0).tolist():
        error = errors[failed[k, i]]
        if not isinstance(error, NumericFailure):
            raise error
        # keep the seed in the record so the replication can be replayed
        logger.warning(
            "method %s failed on scenario %s, rep_seed=%s: %s",
            methods[k], scenarios[i], (master_seed, reps[i]), error,
        )
    prediction = np.reshape([METHODS[m].kind == "prediction" for m in methods], (-1, 1))
    target = np.where(prediction, news, [sc.mu for sc in scenarios])
    ok = failed < 0
    covered = ok & (lower <= target) & (target <= upper)
    width = np.where(ok, upper - lower, math.nan)
    stops = np.cumsum([len(part_reps) for _, part_reps in parts])[:-1]
    return list(zip(*(np.split(a, stops, axis=1) for a in (covered, width, ~ok))))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# run_study's worker pool, kept open from one study to the next: starting
# and stopping a pool for each study cost a parallelism-2 study of 400
# small replications about 30% of its wall time (BENCH_16.json). Its
# workers hold about 6 MB of private memory each while it is open.
# _pool_key is the (executor type, workers) it was made with;
# _pool_stack closes it.
_pool_lock = threading.Lock()
_pool_stack = ExitStack()
_pool_key: tuple | None = None
_pool = None


def _worker_pool(workers: int):
    """The kept pool of `workers` processes, made at first use. A request
    for another size shuts the old pool down before the new one forks."""
    global _pool, _pool_key
    key = (ProcessPoolExecutor, workers)
    with _pool_lock:
        if key != _pool_key:
            _pool_stack.close()
            _pool_key = None
            _pool = _pool_stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            _pool_key = key
        return _pool


def _drop_pool() -> None:
    # a worker died: shut the pool down so the next study forks a new one
    global _pool, _pool_key
    with _pool_lock:
        _pool_stack.close()
        _pool = _pool_key = None


def _blocks(
    config: SimConfig, workers: int
) -> list[tuple[tuple[Scenario, tuple[int, ...]], ...]]:
    """run_study's units of work, in order. The scenarios that share n and
    level form a group, the groups in the order of their first scenario in
    the config, and the study's (scenario, replication) pairs run group
    after group, scenario after scenario within a group. That sequence is
    cut into `workers` shares whose sizes differ by at most 1, each share
    is split where a group ends, and each piece is cut into the fewest
    near-equal blocks that hold at most studies // n replications (at
    least 1). studies is _BLOCK_STUDIES when a tag is Bayesian, else
    _PLUGIN_STUDIES. So a group pays its per-block costs (a REML block
    scores until its slowest row converges) about once per share it
    meets, not once per worker. A unit is a block as its parts:
    (scenario, replication indices) for each scenario that it holds, in
    order."""
    bayes = any(METHODS[m].prior is not None for m in config.methods)
    studies = _BLOCK_STUDIES if bayes else _PLUGIN_STUDIES
    reps = config.reps
    groups: dict[tuple[int, float], list[Scenario]] = {}
    for sc in config.scenarios:
        groups.setdefault((sc.n, sc.level), []).append(sc)
    total = reps * len(config.scenarios)
    shares = [total * (i + 1) // workers for i in range(workers)]
    units = []
    start = 0  # the group's first pair in the study's sequence
    for (n, _), scenarios in groups.items():
        pairs = reps * len(scenarios)
        bound = max(1, studies // n)
        # the group's pieces, in its own pair indices: its pairs in each share
        cuts = [0] + [s - start for s in shares if start < s < start + pairs] + [pairs]
        for low, high in zip(cuts, cuts[1:]):
            count = -(-(high - low) // bound)
            stops = [low + (high - low) * (i + 1) // count for i in range(count)]
            for a, b in zip([low] + stops, stops):
                # the part of scenario k holds the block's pairs in [k reps, (k + 1) reps)
                units.append(tuple(
                    (sc, tuple(range(max(a - k * reps, 0), min(b - k * reps, reps))))
                    for k, sc in enumerate(scenarios)
                    if k * reps < b and a < (k + 1) * reps
                ))
        start += pairs
    return units


def run_study(config: SimConfig, parallelism: int = 1) -> list[CoverageRecord]:
    """Run the full study and aggregate one CoverageRecord per cell.

    The study's blocks (_blocks) run through _run_block as one ordered map
    on a pool of min(parallelism, usable CPUs) worker processes, or in
    process when that is 1. The pool is forked at the first parallel study
    and kept open for later studies of the same size, so its workers run
    the module state (logging and warning filters included) of the moment
    they were forked. Each part of a block takes its (methods,
    replications) arrays of covered, width and failed to its scenario's
    cell. A cell counts its covered and failed entries in integers and
    sums its widths exactly (math.fsum), so the output is bit-identical
    for any parallelism value under the same master seed.
    """
    _check_integer(parallelism, "parallelism")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    workers = min(parallelism, _usable_cpus())
    reps = config.reps
    units = _blocks(config, workers)
    args = (units, repeat(config.methods), repeat(config.master_seed))
    if workers == 1:
        blocks = list(map(_run_block, *args))
    else:
        try:
            blocks = list(_worker_pool(workers).map(_run_block, *args))
        except BrokenProcessPool:
            _drop_pool()
            raise
    cells: dict[Scenario, list] = {sc: [] for sc in config.scenarios}
    for unit, block in zip(units, blocks):
        for (sc, _), part in zip(unit, block):
            cells[sc].append(part)

    records = []
    for sc in config.scenarios:
        covered, width, failed = (np.concatenate(a, axis=1) for a in zip(*cells[sc]))
        for method, hits, widths, ok in zip(config.methods, covered, width, ~failed):
            used = int(ok.sum())
            if used == 0:
                records.append(CoverageRecord(method, sc, math.nan, math.nan, math.nan, 0, reps))
                continue
            cov = int(hits.sum()) / used
            mean_w = math.fsum(widths[ok].tolist()) / used
            mc_se = math.sqrt(cov * (1.0 - cov) / used)
            records.append(CoverageRecord(method, sc, cov, mean_w, mc_se, used, reps - used))
    return records
