"""Print a digest of the Bayesian engine's outputs, one line per outcome.

    PYTHONPATH=src python tests/engine_digest.py > digest.txt

Two trees whose digests are equal (compare the files with cmp) give the same
posterior grids, interval endpoints and failures, bit for bit, on these
inputs:

- blocks of 1-5 simulated datasets at n 3, 7, 15 and 40 and tau^2 0, 0.01,
  0.1 and 1;
- blocks of 1 and 3 at n 3, 7 and 15 whose SEs span ratios down to 1e-4,
  and the same blocks moved to effects near 1000;
- blocks of 1-3 at cdf_tolerance = 1e-300, where the node cap stops
  refinement;
- analyze-like datasets: n log-uniform on 3..100, on two effect scales;
- a block of two-study datasets and one of one-study datasets.

Every block runs the eleven named priors and power(1e308), whose tail never
decays, through one bayes._posterior_grids batch, reads each grid it built
as a PosteriorGrid row of the batch's layout, and inverts each grid's
prediction and credible intervals in one bayes._mixture_intervals batch; at
the default EngineConfig it also runs every method tag through
methods._evaluate_block. A grid line holds a SHA-256 of the grid's arrays
and its log_norm, tau_max and quad_error; an interval line its endpoints;
a failure line the error's type and message. Floats are printed with
float.hex. The file is a script: pytest does not collect it.
"""

import hashlib
import math
import warnings

import numpy as np

from metapred.bayes import EngineConfig, PosteriorGrid, _mixture_intervals, _posterior_grids
from metapred.core import MetaDataset
from metapred.methods import METHODS, _evaluate_block
from metapred.priors import NAMED_PRIORS, PriorFamily

FAMILIES = [*NAMED_PRIORS.values(), PriorFamily("power", a=1e308)]
GRID_ARRAYS = ("nodes", "quad_weights", "log_post", "cond_mean", "cond_var")


def outcome_text(out):
    """One outcome as text: a grid, an interval or a failure."""
    if isinstance(out, Exception):
        return f"fail {type(out).__name__}: {out}"
    if isinstance(out, PosteriorGrid):
        digest = hashlib.sha256()
        for field in GRID_ARRAYS:
            digest.update(getattr(out, field).tobytes())
        floats = (out.log_norm, out.tau_max, out.quad_error)
        return f"grid {digest.hexdigest()} " + " ".join(x.hex() for x in floats)
    return f"{out.kind} {out.lower.hex()} {out.upper.hex()}"


def block_lines(label, datasets, config=EngineConfig()):
    """The digest lines of one block: each dataset's grids, the intervals
    of every grid that was built and, at the default config, every method
    tag's outcome."""
    try:
        grids, index = _posterior_grids(datasets, FAMILIES, config)
    except ValueError as exc:  # n < 2 fails the whole block
        grids, index = None, [[exc] * len(FAMILIES)] * len(datasets)
    lines, requests = [], []
    for i, rows in enumerate(index):
        for family, row in zip(FAMILIES, rows):
            key = f"{label} {i} {family.name}"
            if isinstance(row, Exception):
                lines.append(f"{key} {outcome_text(row)}")
            else:
                lines.append(f"{key} {outcome_text(PosteriorGrid(grids, row))}")
                requests += [(key, (row, pred)) for pred in (True, False)]
    if requests:
        intervals = _mixture_intervals(grids, [request for _, request in requests], 0.95, 1e-8)
        lines += [f"{key} {outcome_text(out)}" for (key, _), out in zip(requests, intervals)]
    if config == EngineConfig():
        for i, outcomes in enumerate(_evaluate_block(list(METHODS), datasets, 0.95)):
            lines += [
                f"{label} {i} {tag} {outcome_text(out)}" for tag, out in zip(METHODS, outcomes)
            ]
    return lines


def simulated(rng, n, tau2, se=None):
    """A dataset of the random-effects model around 0: SE^2 uniform on
    [0.009, 0.6] unless the SEs are given."""
    if se is None:
        se = np.sqrt(rng.uniform(0.009, 0.6, n))
    theta = math.sqrt(tau2) * rng.standard_normal(n)
    return MetaDataset.from_arrays(theta + se * rng.standard_normal(n), se)


def blocks():
    """(label, datasets, config) of every block of the digest."""
    rng = np.random.default_rng(2019)
    for n in (3, 7, 15, 40):
        for tau2 in (0.0, 0.01, 0.1, 1.0):
            for size in range(1, 6):
                block = [simulated(rng, n, tau2) for _ in range(size)]
                yield f"sim-n{n}-tau2{tau2:g}-size{size}", block, EngineConfig()
    for n in (3, 7, 15):
        for size in (1, 3):
            block = [
                simulated(rng, n, 0.1, 0.3 * 10.0 ** -rng.uniform(0, 4, n)) for _ in range(size)
            ]
            yield f"ratio-n{n}-size{size}", block, EngineConfig()
            far = [MetaDataset.from_arrays(ds.effects + 1000.0, ds.std_errs) for ds in block]
            yield f"far-n{n}-size{size}", far, EngineConfig()
    for size in (1, 2, 3):
        block = [simulated(rng, 4, 0.1) for _ in range(size)]
        yield f"cap-size{size}", block, EngineConfig(cdf_tolerance=1e-300)
    for k in range(24):
        n = int(round(math.exp(rng.uniform(math.log(3), math.log(100)))))
        se = np.sqrt(rng.uniform(0.009, 0.6, n))
        mu, tau2 = rng.normal(0.0, 0.5), rng.uniform(0.0, 0.3)
        dataset = simulated(rng, n, tau2, se)
        scale = 10.0 if k % 2 else 1.0
        dataset = MetaDataset.from_arrays(scale * (dataset.effects + mu), scale * se)
        yield f"analyze-{k}-n{n}", [dataset], EngineConfig()
    for n in (2, 1):
        yield f"small-n{n}", [simulated(rng, n, 0.1) for _ in range(3)], EngineConfig()


def main():
    warnings.simplefilter("ignore")
    with np.errstate(all="ignore"):
        for label, datasets, config in blocks():
            for line in block_lines(label, datasets, config):
                print(line)


if __name__ == "__main__":
    main()
