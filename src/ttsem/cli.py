"""Command-line interface: ``ttsem simulate | run | replicate``.

Exit codes: 0 success, 1 usage error (reported as "ttsem: error: ..."), 2
runtime failure.  The entries of a --config JSON file are parsed as flags
given after the command line's, so they win, and an error names the flag.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench
from .core import VARIANTS, ConfigError, SamplingError


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2, with the prefix every usage error prints."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"ttsem: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _auto(convert):
    """Flag type: "auto" is None, a default resolved once n is known; other
    text is ``convert``ed."""
    def parse(text: str):
        return None if text == "auto" else convert(text)
    parse.__name__ = convert.__name__  # argparse names the type in its error
    return parse


def _load_truth(kind: bench.ModelKind, path):
    if path is None:
        return None
    with open(path, "r", encoding="ascii") as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict):
        raise ValueError("the truth file must hold a JSON object")
    return kind.truth_from_json(blob)


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's entries as ``--name=value`` flags, parsed after the command line's."""
    with open(args.config, "r", encoding="ascii") as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise ConfigError("config file must hold a JSON object")
    names = vars(args).keys() - {"command", "config"}  # the command's flags; a key must name one exactly
    for key, value in entries.items():
        if key.replace("-", "_") not in names:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            raise ConfigError(f"config key {key!r}: null is not a value")
    return [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()]


def _add_algo_flags(command: argparse.ArgumentParser) -> None:
    """Flags of the algorithm settings shared by ``run`` and ``replicate``."""
    def variants(marked):
        """The variants whose row is ``marked``, listed as "A, B and C"."""
        *head, last = (v for v, f in VARIANTS.items() if marked(f))
        return f"{', '.join(head)} and {last}" if head else last

    command.add_argument("--gamma", default=None, help=f"SA-step stepsize (default: {bench.DEFAULT_GAMMA}, "
                                                       f"or 1 for {variants(lambda f: f.unit_gamma)})")
    command.add_argument("--rho", type=_auto(float), default=None,
                         help=f"Inc-step stepsize (auto: n^-2/3 for {variants(lambda f: not f.unit_rho)}, else 1)")
    command.add_argument("--mc-samples", type=int, default=None)
    command.add_argument("--epoch-len", type=_auto(int), default=None,
                         help="vrTTEM anchor period (auto: n); parsed for all variants, used by vrTTEM only")


def _algo(args: argparse.Namespace, variant: str) -> bench.AlgoSpec:
    """One variant under the shared algorithm flags."""
    return bench.AlgoSpec(variant=variant, gamma=args.gamma, rho=args.rho,
                          mc_samples=args.mc_samples, epoch_len=args.epoch_len)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ttsem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags every command takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, choices=list(bench.MODELS))
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--config", help="JSON file overriding flags")

    sim = sub.add_parser("simulate", parents=[common], help="write a synthetic dataset")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--theta", help="JSON file with the simulation truth")
    sim.add_argument("--out", required=True)

    one = sub.add_parser("run", parents=[common], help="fit one algorithm, write the trajectory CSV")
    one.add_argument("--data", required=True)
    one.add_argument("--algo", required=True)
    _add_algo_flags(one)
    one.add_argument("--epochs", type=float, default=1.0)
    one.add_argument("--out", required=True)

    rep = sub.add_parser("replicate", parents=[common], help="replicate study with aggregated metrics")
    rep.add_argument("--n", type=int, required=True)
    rep.add_argument("--replicates", type=int, default=10)
    # default: every stochastic-approximation variant (gamma not forced to 1)
    rep.add_argument("--algos", default=",".join(v for v, f in VARIANTS.items() if not f.unit_gamma),
                     help="comma-separated variant names")
    _add_algo_flags(rep)
    rep.add_argument("--epochs", type=float, default=7.0)
    rep.add_argument("--jobs", type=int, default=1)
    rep.add_argument("--theta", help="JSON file with the simulation truth")
    rep.add_argument("--out", required=True, help="output prefix (.csv / .json appended)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(argv + _config_flags(args))
        kind = bench.MODELS[args.model]
        if args.command == "simulate":
            digest = bench.cmd_simulate(args.model, _load_truth(kind, args.theta), args.n, args.seed, args.out)
            print(f"wrote {args.out} sha256={digest}")
        elif args.command == "run":
            data = kind.read(args.data)
            model = kind.model(data)  # an empty dataset fails before its size resolves any setting
            config = _algo(args, args.algo).to_config(model.n, args.epochs, args.seed, args.model)
            traj = bench.cmd_run(model, config, args.out)
            terminal = ",".join(repr(float(v)) for v in traj.terminal_theta)
            print(f"wrote {args.out} terminal_iter={traj.terminal_iter} theta=[{terminal}]")
        else:
            algos = tuple(_algo(args, v.strip()) for v in args.algos.split(",") if v.strip())
            spec = bench.ExperimentSpec(
                model=args.model,
                n=args.n,
                replicates=args.replicates,
                epochs=args.epochs,
                algorithms=algos,
                seed=args.seed,
                truth=_load_truth(kind, args.theta),
                jobs=args.jobs,
            )
            metrics_path = args.out + ".csv"
            summary_path = args.out + ".json"
            bench.cmd_replicate(spec, metrics_path, summary_path)
            print(f"wrote {metrics_path} and {summary_path}")
    except SystemExit as exc:  # argparse has printed its usage error, or the help
        return int(exc.code or 0)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"ttsem: error: {exc}", file=sys.stderr)
        return 1
    except (SamplingError, OSError, ValueError, FloatingPointError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"ttsem: runtime failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
