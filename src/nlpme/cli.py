"""Command-line driver: `nlpme <experiment> --config <path>`.

The output directory resolves in order: --output flag, NLPME_OUTPUT
environment variable, the config's [output] dir.  Exit status is 0 only
if every enabled check passed, so runs can gate CI pipelines directly; 1
means a check failed, 2 bad input (missing config, or a config key or
experiment knob that fails validation).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import EXPERIMENTS, ConfigError, load_config
from .experiments import run_experiment
from .manifest import MANIFEST_NAME

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlpme",
        description="Batch experiments for the porous medium flow with "
                    "nonlocal pressure.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="experiment pipeline to run")
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--output", default=None,
                        help="output directory (overrides NLPME_OUTPUT and config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, experiment=args.experiment)
    except FileNotFoundError:
        print(f"nlpme: config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"nlpme: config error: {exc}", file=sys.stderr)
        return 2

    output = args.output or os.environ.get("NLPME_OUTPUT") or cfg.output_dir
    try:
        man = run_experiment(cfg, output_dir=output)
    except ConfigError as exc:  # initial data or a box the pipeline cannot use
        print(f"nlpme: config error: {exc}", file=sys.stderr)
        return 2
    for c in man.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name} = {c.value:.6g}" +
              (f"  ({c.detail})" if c.detail else ""))
    print(f"manifest: {os.path.join(output, MANIFEST_NAME)}")
    return 0 if man.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
