"""Command-line interface: run, ensemble, sweep."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from .config import ConfigurationError, SimConfig, load_config
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
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", required=True, help="path to a key=value config file")
    files.add_argument("--out", default=".", help="output directory (default: .)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="override the file's seed")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--parallel", type=int, default=1, help="worker processes")

    run_p = sub.add_parser("run", parents=[files, seed],
                           help="execute a single seeded simulation")
    run_p.set_defaults(func=_cmd_run)

    ens_p = sub.add_parser("ensemble", parents=[files, seed, workers],
                           help="aggregate independent replications")
    ens_p.add_argument("--runs", type=int, required=True, help="number of replications")
    ens_p.set_defaults(func=_cmd_ensemble)

    sw_p = sub.add_parser("sweep", parents=[files, workers],
                          help="ensemble per value of one parameter")
    sw_p.add_argument("--param", required=True,
                      help="one of: " + ", ".join(_SWEEPABLE))
    sw_p.add_argument("--values", required=True, help="comma-separated list of values")
    sw_p.add_argument("--runs", type=int, default=1)
    sw_p.set_defaults(func=_cmd_sweep, seed=None)
    return parser


def _load(args) -> SimConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, emit, *items, **options) -> Path:
    """``emit(*items, fh, **options)`` into ``path``: UTF-8, ``\\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        emit(*items, fh, **options)
    return path


def _cmd_run(cfg, args) -> None:
    result = run(cfg)
    path = _write(_outdir(args) / "timeseries.csv", emit_csv, result.records, n_brands=cfg.N)
    last = result.records[-1]
    print(f"sweeps={result.final.t}")
    print("converged_at=" + ("" if result.converged_at is None else str(result.converged_at)))
    print(f"fluctuation={_fmt(last.fluctuation)}")
    print(f"dominant={last.dominant}")
    print(f"wrote {path}")


def _cmd_ensemble(cfg, args) -> None:
    summary = ensemble(cfg, args.runs, parallel=args.parallel)
    path = _write(_outdir(args) / "summary.txt", emit_summary, summary)
    emit_summary(summary, sys.stdout)
    print(f"wrote {path}")


def _cmd_sweep(cfg, args) -> None:
    values = [part.strip() for part in args.values.split(",") if part.strip()]
    rows = sweep_param(cfg, args.param, values, runs=args.runs, parallel=args.parallel)
    out = _outdir(args)
    for i, (value, summary) in enumerate(rows):
        _write(out / f"sweep_{args.param}_{i}.txt", emit_summary, summary)
        mean = summary.mean_sweeps_to_consensus
        print(
            f"{args.param}={value} consensus_fraction={_fmt(summary.consensus_fraction)}"
            " mean_sweeps_to_consensus=" + ("" if mean is None else _fmt(mean))
        )
    print(f"wrote {len(rows)} summaries to {out}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(_load(args), args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("configuration error: the configuration needs more memory than is available",
              file=sys.stderr)
        return EXIT_CONFIG
    except BrokenProcessPool:
        # the kernel kills a worker that touches more memory than the machine has
        print("configuration error: a worker process died, most likely for lack of memory",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
