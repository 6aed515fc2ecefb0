"""Command-line interface: run / compare / selftest / sweep.

Exit codes: 0 success, 1 validation error (of the config or the command line),
2 solver failure, 3 self-test failure (of ``selftest`` or of the gate every other
subcommand passes first).
"""

import argparse
import json
import sys

from .errors import SelfTestError, SolverError, ValidationError
from .harness import ExperimentConfig, compare, run_experiment, selftest, sweep


def _load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a validation error: exit 1, not 2
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dyninv",
        description="All-at-once versus reduced iterative regularization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-dir", default=None)

    p_cmp = sub.add_parser("compare", help="method matrix over one dataset")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--methods", required=True, help="comma-separated method tags")
    p_cmp.add_argument("--output-dir", default=None)

    p_sweep = sub.add_parser("sweep", help="noise-level convergence study")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--deltas", required=True, help="comma-separated observation noise levels")
    p_sweep.add_argument("--seeds", type=int, default=5, help="number of seeds per level")
    p_sweep.add_argument("--relative", action="store_true", help="deltas are fractions of ||y||")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--output-dir", default=None)

    p_self = sub.add_parser("selftest", help="adjoint/Taylor/oracle suites")
    p_self.add_argument("--quiet", action="store_true")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "selftest":
            ok = selftest(verbose=not args.quiet)
            if not ok:
                print("self-test FAILED", file=sys.stderr)
                return 3
            print("self-test passed")
            return 0

        config = _load_config(args.config)
        if args.output_dir is not None:
            config.output_dir = args.output_dir

        if args.command == "run":
            summary = run_experiment(config)
            print(json.dumps({k: v for k, v in summary.items() if k != "config"}, indent=2))
        elif args.command == "compare":
            tags = [t.strip() for t in args.methods.split(",") if t.strip()]
            out = compare(config, tags)
            print(json.dumps(out["step_ms_mean_ratios"], indent=2))
        elif args.command == "sweep":
            try:
                deltas = [float(d) for d in args.deltas.split(",") if d.strip()]
            except ValueError as exc:
                raise ValidationError(f"bad noise level in --deltas: {exc}") from None
            out = sweep(
                config,
                deltas,
                seeds=range(args.seeds),
                relative=args.relative,
                workers=args.workers,
            )
            print(json.dumps(out["median_err_theta_by_delta"], indent=2))
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except SelfTestError as exc:
        print(f"self-test failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
