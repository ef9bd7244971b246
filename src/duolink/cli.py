"""Command-line front end: trial, sweep, efficiency and adapt-kappa commands.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from . import _checks
from .alignment import adapt_kappa
from .channel import export_efficiency_csv
from .harness import (
    ConfigError,
    emit,
    load_trial_config,
    read_config_file,
    run_sweep,
    run_trial,
    trial_config_from_dict,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duolink",
        description="Dual-channel QPSK link simulator with joint common-phase compensation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trial = sub.add_parser("trial", help="run one Monte Carlo trial")
    trial.add_argument("--config", required=True, help="JSON trial config file")
    trial.add_argument("--seed", type=int, default=None, help="override channel seed")
    trial.add_argument("--out", default=None, help="output file (default: stdout JSON)")
    trial.add_argument("--format", choices=("csv", "json"), default="json")

    sweep = sub.add_parser("sweep", help="run a parameter sweep grid")
    sweep.add_argument("--config", required=True,
                       help="JSON trial config file with a 'sweep' axes section")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--workers", type=int, default=1)

    eff = sub.add_parser("efficiency", help="export the conversion-efficiency curve")
    eff.add_argument("--alpha-db", type=float, required=True, help="attenuation [dB/km]")
    eff.add_argument("--dbeta", type=float, required=True,
                     help="group-velocity inverse difference [s/km]")
    eff.add_argument("--fmax", type=float, required=True, help="maximum frequency [Hz]")
    eff.add_argument("--points", type=int, default=1000)
    eff.add_argument("--out", required=True, help="CSV output file")

    adapt = sub.add_parser("adapt-kappa", help="tune kappa by golden-section search")
    adapt.add_argument("--config", required=True, help="JSON trial config file")
    adapt.add_argument("--lo", type=float, required=True)
    adapt.add_argument("--hi", type=float, required=True)
    adapt.add_argument("--tol", type=float, required=True)
    return parser


def _cmd_trial(args) -> int:
    cfg = load_trial_config(args.config)
    if args.seed is not None:
        try:
            cfg = replace(cfg, channel=replace(cfg.channel, seed=args.seed))
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    report = run_trial(cfg)
    if args.out is None:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        emit([report], args.format, args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    data = read_config_file(args.config)
    axes = data.pop("sweep", {}) if isinstance(data, dict) else {}
    base = trial_config_from_dict(data)
    points = run_sweep(base, axes, out_dir=args.out, workers=args.workers)
    reports = [p.report for p in points if p.report is not None]
    emit(reports, "csv", os.path.join(args.out, "sweep.csv"))
    failed = [p for p in points if p.error is not None]
    for p in failed:
        print(f"point {p.index} failed: {p.error}", file=sys.stderr)
    print(f"{len(reports)}/{len(points)} points completed -> {args.out}")
    return 2 if failed else 0


def _cmd_efficiency(args) -> int:
    try:
        export_efficiency_csv(args.out, args.alpha_db, args.dbeta, args.fmax, args.points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return 0


def _cmd_adapt_kappa(args) -> int:
    try:
        for flag, value in (("--lo", args.lo), ("--hi", args.hi), ("--tol", args.tol)):
            _checks.number(flag, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.lo < 0:
        raise ConfigError("--lo must be >= 0")
    if not args.hi > args.lo:
        raise ConfigError("--hi must be greater than --lo")
    if not args.tol > 0:
        raise ConfigError("--tol must be > 0")
    cfg = load_trial_config(args.config)

    def objective(kappa: float) -> float:
        trial_cfg = replace(
            cfg,
            estimator=replace(cfg.estimator, kappa=kappa, kappa_infinite=False),
            compare_baseline=False,
        )
        return run_trial(trial_cfg).ber_compensated

    result = adapt_kappa(objective, args.lo, args.hi, args.tol)
    json.dump(asdict(result), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


_COMMANDS = {
    "trial": _cmd_trial,
    "sweep": _cmd_sweep,
    "efficiency": _cmd_efficiency,
    "adapt-kappa": _cmd_adapt_kappa,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are config errors here
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
