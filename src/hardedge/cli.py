"""Command-line front end.

Exit codes: 0 success, 1 experiment ran but a threshold failed, 2 usage or
config error.  Reports land in --out, defaulting to $HARDEDGE_OUT and then
./reports.  Reports are byte-identical for a fixed config, seed, machine,
numpy/OpenBLAS build and BLAS thread count (OPENBLAS_NUM_THREADS).  --threads
(>= 1) is accepted so that existing command lines keep running; no effect.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from .ensemble import KINDS
from .experiments import (
    ConfigError,
    ExperimentConfig,
    _count,
    run_apriori,
    run_delocalization,
    run_hard_edge_scaling,
    run_hw_experiment,
    run_identity_suite,
    run_local_law,
    run_projection_mass_experiment,
    run_wegner,
)
from .mp import (
    SpectralPoint,
    Window,
    check_delta_bounds,
    mp_cdf,
    mp_density,
    mp_moment_quadrature,
    mp_stieltjes,
    mp_window_mass,
)
from .reports import write_report

__all__ = ["main", "load_config"]

_OUT_ENV = "HARDEDGE_OUT"

# argparse reads an argument that starts with "-" as a negative number, not a
# flag, only if it matches the parser's pattern; its default pattern has no
# exponent, so "-1e-3" would be a flag.  `mp`, whose flags take floats, uses
# this one.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file; unknown keys are rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def _default_out() -> str:
    return os.environ.get(_OUT_ENV, "reports")


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="JSON experiment config")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument("--trials", type=int, help="override trials per size")
    sub.add_argument("--out", default=_default_out(), metavar="DIR", help="report directory")
    sub.add_argument("--threads", type=int, default=1, help="accepted so existing command lines keep running; no effect")


def _config_from(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    _count("threads", args.threads)
    return cfg


def _emit(report, out) -> int:
    paths = write_report(report, out)
    for line in report.failures:
        print(f"FAIL {line}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{report.theorem}: {verdict} ({len(report.rows)} rows) -> {paths['csv']}")
    return 0 if report.passed else 1


def _spectra_experiments() -> tuple:
    """The experiments that reduce one shared spectra pass, in the order `all` runs them.

    Looked up per call, not bound at import, so a module attribute replaced at
    run time (a tracing wrapper, a test double) is the one that runs.
    """
    return (
        ("apriori", run_apriori),
        ("locallaw", run_local_law),
        ("wegner", run_wegner),
        ("hardedge", run_hard_edge_scaling),
    )


def _direct_experiments() -> dict:
    """The experiments that take their parameters as flags, looked up per call
    like `_spectra_experiments`."""
    return {
        "hw": run_hw_experiment,
        "projmass": run_projection_mass_experiment,
        "identities": run_identity_suite,
    }


def _cmd_direct(args) -> int:
    params = {key: value for key, value in vars(args).items() if key not in ("command", "func", "out")}
    return _emit(_direct_experiments()[args.command](**params), args.out)


def _cmd_all(args) -> int:
    cfg = _config_from(args)
    # every report is built before any is written, so a runner that refuses
    # the config leaves no report of the runners before it behind
    reports = [runner(cfg) for _, runner in _spectra_experiments()]
    return max(_emit(report, args.out) for report in reports)


def _bounds_line(point: SpectralPoint) -> str:
    r = check_delta_bounds(point)
    line = (f"all_ok={r.all_ok} modulus_margin={r.modulus_margin:.6g} "
            f"shifted_margin={r.shifted_margin:.6g} inside_circle={r.inside_circle}")
    return line if r.im_margin is None else f"{line} im_margin={r.im_margin:.6g}"


# each `mp` flag, in output order, and how its value is shown
_MP_QUANTITIES = {
    "density": lambda e: "%.6g" % mp_density(e),
    "cdf": lambda e: "%.6g" % mp_cdf(e),
    "mass": lambda pair: "%.6g" % mp_window_mass(Window(*pair)),
    "stieltjes": lambda pair: "{0.real:.6g}{0.imag:+.6g}i".format(mp_stieltjes(SpectralPoint(*pair))),
    "bounds": lambda pair: _bounds_line(SpectralPoint(*pair)),
    "moment": lambda k: "%.6g" % mp_moment_quadrature(k),
}


def _cmd_mp(args) -> int:
    results = []
    for name, show in _MP_QUANTITIES.items():
        value = getattr(args, name)
        if value is None:
            continue
        try:
            results.append((name, show(value)))
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from exc
    if not results:
        print("mp: request at least one quantity (see --help)", file=sys.stderr)
        return 2
    for name, text in results:
        print(text if len(results) == 1 else f"{name} {text}")
    return 0


def _add_direct_parser(subs, name: str, help: str) -> argparse.ArgumentParser:
    """Subcommand whose flags are named after the runner's parameters; an unset
    flag stays out of the namespace, so the runner's signature holds the defaults."""
    sub = subs.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", default=_default_out(), metavar="DIR")
    sub.set_defaults(func=_cmd_direct)
    return sub


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardedge",
        description="Hard-edge sample covariance laboratory: analytic MP law "
        "evaluations and Monte Carlo theorem checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    mp = subs.add_parser("mp", help="analytic evaluations of the limiting law")
    mp.add_argument("--density", type=float, metavar="E")
    mp.add_argument("--cdf", type=float, metavar="E")
    mp.add_argument("--mass", type=float, nargs=2, metavar=("E", "ETA"))
    mp.add_argument("--stieltjes", type=float, nargs=2, metavar=("E", "ETA"))
    mp.add_argument("--bounds", type=float, nargs=2, metavar=("E", "ETA"))
    mp.add_argument("--moment", type=int, metavar="K")
    mp.set_defaults(func=_cmd_mp)
    mp._negative_number_matcher = _NEGATIVE_NUMBER

    for name, runner in (*_spectra_experiments(), ("deloc", run_delocalization)):
        sub = subs.add_parser(name, help=f"run the {name} experiment")
        _add_experiment_flags(sub)
        sub.set_defaults(func=lambda args, r=runner: _emit(r(_config_from(args)), args.out))
    every = subs.add_parser("all", help="run apriori, locallaw, wegner and hardedge on one spectra pass")
    _add_experiment_flags(every)
    every.set_defaults(func=_cmd_all)

    for name, help in (("hw", "quadratic-form tail shape on the identity"),
                       ("projmass", "projection mass lower-tail decay")):
        _add_direct_parser(subs, name, help).add_argument("--dist", dest="distribution", choices=KINDS)

    identities = _add_direct_parser(subs, "identities", "exact finite-N identity suite")
    identities.add_argument("--n", type=int, nargs="+", dest="sizes", metavar="N")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
