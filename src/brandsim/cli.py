"""Command-line interface: run, ensemble, sweep."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigurationError
from .harness import _SWEEPABLE, _fmt, emit_csv, emit_summary, ensemble, run, sweep_param

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brandsim",
        description="Agent-based simulator of brand adoption through imitation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a single seeded simulation")
    run_p.add_argument("--config", required=True, help="path to a key=value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the file's seed")
    run_p.add_argument("--out", default=".", help="output directory (default: .)")

    ens_p = sub.add_parser("ensemble", help="aggregate independent replications")
    ens_p.add_argument("--config", required=True)
    ens_p.add_argument("--runs", type=int, required=True, help="number of replications")
    ens_p.add_argument("--seed", type=int, default=None)
    ens_p.add_argument("--out", default=".")
    ens_p.add_argument("--parallel", type=int, default=1, help="worker processes")

    sw_p = sub.add_parser("sweep", help="ensemble per value of one parameter")
    sw_p.add_argument("--config", required=True)
    sw_p.add_argument("--param", required=True,
                      help="one of: " + ", ".join(_SWEEPABLE))
    sw_p.add_argument("--values", required=True, help="comma-separated list of values")
    sw_p.add_argument("--runs", type=int, default=1)
    sw_p.add_argument("--out", default=".")
    sw_p.add_argument("--parallel", type=int, default=1, help="worker processes")
    sw_p.set_defaults(seed=None)
    return parser


def _load(args) -> "SimConfig":
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args) -> None:
    cfg = _load(args)
    result = run(cfg)
    path = _outdir(args) / "timeseries.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        emit_csv(result.records, fh, n_brands=cfg.N)
    last = result.records[-1]
    print(f"sweeps={result.final.t}")
    print("converged_at=" + ("" if result.converged_at is None else str(result.converged_at)))
    print(f"fluctuation={_fmt(last.fluctuation)}")
    print(f"dominant={last.dominant}")
    print(f"wrote {path}")


def _cmd_ensemble(args) -> None:
    cfg = _load(args)
    summary = ensemble(cfg, args.runs, parallel=args.parallel)
    path = _outdir(args) / "summary.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        emit_summary(summary, fh)
    emit_summary(summary, sys.stdout)
    print(f"wrote {path}")


def _cmd_sweep(args) -> None:
    cfg = _load(args)
    values = [part.strip() for part in args.values.split(",") if part.strip()]
    rows = sweep_param(cfg, args.param, values, runs=args.runs, parallel=args.parallel)
    out = _outdir(args)
    for i, (value, summary) in enumerate(rows):
        path = out / f"sweep_{args.param}_{i}.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            emit_summary(summary, fh)
        mean = summary.mean_sweeps_to_consensus
        print(
            f"{args.param}={value} consensus_fraction={_fmt(summary.consensus_fraction)}"
            " mean_sweeps_to_consensus=" + ("" if mean is None else _fmt(mean))
        )
    print(f"wrote {len(rows)} summaries to {out}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            _cmd_run(args)
        elif args.command == "ensemble":
            _cmd_ensemble(args)
        else:
            _cmd_sweep(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("configuration error: the configuration needs more memory than is available",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
