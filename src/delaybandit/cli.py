"""Command-line entry point: run / analyze / validate.

Exit codes: 0 success, 1 configuration, validation or command-line failure,
2 runtime failure.
"""

import argparse
import json
import sys
from dataclasses import replace

from .analysis import analyze_config
from .config import load_config, resolved_summary
from .errors import (ConfigurationError, DegenerateContextError, DesignUpdateError,
                     DivergedTrainingError, FormatError, ProtocolViolationError)
from .harness import emit, run_experiment


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 1, not argparse's usage text and 2
        raise ConfigurationError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="delaybandit",
                     description="Delayed-feedback neural bandit simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the configured experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--seeds", help="comma-separated seed override")
    run.add_argument("--out", help="output directory override")
    run.add_argument("--force", action="store_true",
                     help="overwrite an existing output directory")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel replicate processes")
    run.add_argument("--analyze", action="store_true",
                     help="include NTK/bound analysis in summary.json")

    analyze = sub.add_parser("analyze", help="NTK and regret-bound calculators only")
    analyze.add_argument("--config", required=True)

    validate = sub.add_parser("validate", help="check a config and echo it resolved")
    validate.add_argument("--config", required=True)
    return parser


def _seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(seed) for seed in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"--seeds: expected comma-separated integers, got {text!r}") from None


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = load_config(args.config)
    except (ConfigurationError, OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "validate":
            print(json.dumps(resolved_summary(cfg), indent=2))
            return 0
        if args.command == "analyze":
            print(json.dumps(analyze_config(cfg), indent=2))
            return 0
        if args.seeds is not None:  # checked as the config file's seeds are
            cfg = replace(cfg, seeds=_seeds(args.seeds))
        if args.jobs < 1:
            raise ConfigurationError(f"--jobs: must be >= 1, got {args.jobs}")
        out_dir = args.out or cfg.output
        analysis = analyze_config(cfg) if args.analyze else None
        results = run_experiment(cfg, jobs=args.jobs)
        emit(results, out_dir, cfg, force=args.force, analysis=analysis)
        for result in results:
            print(f"seed {result.seed}: final cumulative regret "
                  f"{result.summary['final_cum_regret']:.4f} "
                  f"({result.summary['wall_time_s']:.1f}s)")
        print(f"wrote {out_dir}")
        return 0
    except ConfigurationError as exc:  # bad options, and checks only a run can make
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError, DivergedTrainingError, ProtocolViolationError,
            DegenerateContextError, DesignUpdateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
