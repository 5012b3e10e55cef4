"""Command-line surface.

Subcommands:

    metapred analyze  --data FILE [--methods LIST] [--level L] [--format F]
    metapred simulate --config FILE [--parallelism P] [--out FILE]
    metapred priors list
    metapred priors density --prior NAME --data FILE --tau-grid SPEC

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numeric
failure. Diagnostics go to stderr; stdout carries only the artifact. The
METAPRED_SEED environment variable overrides the config seed for
``simulate``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, NumericFailure
from .io import (
    ANALYZE_METHODS,
    emit_analysis_report,
    emit_coverage_table,
    parse_dataset_csv,
    parse_grid_spec,
    parse_sim_config,
    run_analysis,
)
from .priors import NAMED_PRIORS, bind_prior, log_prior_density, named_prior
from .simulate import run_study

def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def _cmd_analyze(args) -> int:
    dataset = parse_dataset_csv(_read_file(args.data))
    methods = ANALYZE_METHODS
    if args.methods:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
        if not methods:
            raise ConfigError("--methods list is empty")
    try:
        report = run_analysis(dataset, methods, level=args.level)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sys.stdout.buffer.write(emit_analysis_report(report, args.format))
    return 0


def _cmd_simulate(args) -> int:
    if args.parallelism < 1:
        raise ConfigError(f"--parallelism must be >= 1, got {args.parallelism}")
    config = parse_sim_config(_read_file(args.config))
    env_seed = os.environ.get("METAPRED_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"METAPRED_SEED must be an integer, got {env_seed!r}"
            ) from None
        config = dataclasses.replace(config, master_seed=seed)
    records = run_study(config, parallelism=args.parallelism)
    table = emit_coverage_table(records)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(table)
    else:
        sys.stdout.buffer.write(table)
    return 0


def _cmd_priors_list(args) -> int:
    for name, family in NAMED_PRIORS.items():
        sys.stdout.write(f"{name}\t{family.blurb}\n")
    return 0


def _cmd_priors_density(args) -> int:
    try:
        family = named_prior(args.prior)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    dataset = parse_dataset_csv(_read_file(args.data))
    bound = bind_prior(family, dataset)
    taus = parse_grid_spec(args.tau_grid)
    log_d = log_prior_density(bound, np.array(taus))
    lines = ["tau,density,log_density"]
    for t, ld in zip(taus, log_d):
        dens = math.exp(ld) if math.isfinite(ld) else (math.inf if ld > 0 else 0.0)
        lines.append(f"{t:.6f},{dens:.12g},{ld:.12g}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metapred",
        description=(
            "Prediction and credible intervals for random-effects "
            "meta-analysis, plus a Monte-Carlo coverage study harness."
        ),
    )
    parser.add_argument("--version", action="version", version=f"metapred {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="interval estimates for one dataset CSV")
    p_an.add_argument("--data", required=True, help="dataset CSV (study,effect,se)")
    p_an.add_argument(
        "--methods",
        help=f"comma-separated method tags (default: {','.join(ANALYZE_METHODS)})",
    )
    p_an.add_argument("--level", type=float, default=0.95, help="nominal level")
    p_an.add_argument(
        "--format",
        choices=("json", "csv", "plotdata"),
        default="json",
        help="output format",
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run a coverage study from a config file")
    p_sim.add_argument("--config", required=True, help="simulation config file")
    p_sim.add_argument("--parallelism", type=int, default=1, help="worker processes")
    p_sim.add_argument("--out", help="write the coverage table here instead of stdout")
    p_sim.set_defaults(func=_cmd_simulate)

    p_pr = sub.add_parser("priors", help="inspect the heterogeneity priors")
    pr_sub = p_pr.add_subparsers(dest="priors_command", required=True)
    p_list = pr_sub.add_parser("list", help="list the prior names")
    p_list.set_defaults(func=_cmd_priors_list)
    p_den = pr_sub.add_parser("density", help="tabulate one prior's density")
    p_den.add_argument("--prior", required=True, help="prior name (see 'priors list')")
    p_den.add_argument("--data", required=True, help="dataset CSV for binding")
    p_den.add_argument(
        "--tau-grid", required=True, help="tau grid, e.g. '0.01..2.0 step 0.01'"
    )
    p_den.set_defaults(func=_cmd_priors_density)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"metapred: config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"metapred: data error: {exc}", file=sys.stderr)
        return 3
    except NumericFailure as exc:
        print(f"metapred: numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
