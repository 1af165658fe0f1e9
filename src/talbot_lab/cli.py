"""Command line entry point.

    talbot-lab <experiment-id> --config <path> [--out <dir>] [--seed <u64>]
               [--jobs <n>]

Writes report.json, sweep_*.csv and plot_*.dat into the output directory
through experiments.report.write_report, the one writer of a run's files;
exit status 0 when every configured check passes, 1 on check failure (the
report is still written), 2 on configuration errors, including values the
schema accepts but a layer rejects (nothing is written).
Only `evolve` runs a worker pool, of --jobs threads; every other experiment
runs serially whatever --jobs says.
Wall time goes to the run_timing.txt sidecar, keeping report bytes
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .experiments import RUNNERS
from .experiments.config import ConfigError, EXPERIMENTS, load_config
from .experiments.report import write_report

USAGE_EXIT = 2
CHECK_FAIL_EXIT = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talbot-lab",
        description="Deterministic experiment runner for the exponential-sum laboratory.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment family to run")
    parser.add_argument("--config", required=True, help="flat key = value configuration file")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker threads for evolve's sweep; the other experiments run serially",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_EXIT if exc.code not in (0,) else 0
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.jobs < 1:
        print("error: jobs must be at least 1", file=sys.stderr)
        return USAGE_EXIT
    try:
        cfg = load_config(args.experiment, args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    start = time.monotonic()
    try:
        report = RUNNERS[args.experiment](cfg, args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    elapsed = time.monotonic() - start

    out_dir = Path(args.out)
    write_report(report, out_dir)
    (out_dir / "run_timing.txt").write_text(
        f"{args.experiment} wall_seconds={elapsed:.3f}\n", encoding="utf-8"
    )

    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.value:.6g} {check.op} {check.threshold:.6g}")
    print(f"report written to {out_dir / 'report.json'} ({elapsed:.1f}s)")
    return 0 if report.all_passed() else CHECK_FAIL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
