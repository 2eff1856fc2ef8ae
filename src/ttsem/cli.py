"""Command-line interface: ``ttsem simulate | run | replicate``.

Exit codes: 0 success, 1 usage error, 2 runtime failure.  A JSON file given
via --config overrides any flag of the same name; its values are checked and
converted like the flag's text.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench, gmm, pk
from .core import VARIANTS, ConfigError, SamplingError


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_truth(model: str, path):
    if path is None:
        return None
    with open(path, "r", encoding="ascii") as fh:
        blob = json.load(fh)
    if model == "gmm":
        omega = np.asarray(blob["omega"], dtype=np.float64)
        mu = np.asarray(blob["mu"], dtype=np.float64)
        if len(omega) == len(mu):  # full simplex given; drop the implied weight
            omega = omega[:-1]
        return gmm.GmmParams(omega=omega, mu=mu)
    pop = blob.get("pop")
    log_pop = np.log(pop) if pop is not None else np.asarray(blob["log_pop"])
    return pk.PkParams(
        log_pop=log_pop,
        omega2=np.asarray(blob["omega2"], dtype=np.float64),
        sigma2=float(blob["sigma2"]),
    )


def _load_data(model: str, path):
    if model == "gmm":
        return gmm.read_dataset(path)
    return pk.read_cohort(path)


def _apply_config_file(command: argparse.ArgumentParser, args: argparse.Namespace) -> argparse.Namespace:
    if getattr(args, "config", None) is None:
        return args
    with open(args.config, "r", encoding="ascii") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    actions = {a.dest: a for a in command._actions if a.dest != "help"}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            raise ConfigError(f"config key {key!r}: null is not a value")
        # convert the value's text exactly as the parser converts a flag's
        try:
            value = (action.type or str)(str(value))
        except ValueError:
            raise ConfigError(f"config key {key!r}: invalid value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
        setattr(args, action.dest, value)
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ttsem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    sim = sub.add_parser("simulate", help="write a synthetic dataset")
    sim.add_argument("--model", required=True, choices=["gmm", "pk"])
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--theta", help="JSON file with the simulation truth")
    sim.add_argument("--out", required=True)
    sim.add_argument("--config", help="JSON file overriding flags")

    one = sub.add_parser("run", help="fit one algorithm, write the trajectory CSV")
    one.add_argument("--model", required=True, choices=["gmm", "pk"])
    one.add_argument("--data", required=True)
    one.add_argument("--algo", required=True)
    one.add_argument("--gamma", default=bench.DEFAULT_GAMMA)
    one.add_argument("--rho", default="auto")
    one.add_argument("--mc-samples", type=int, default=None)
    one.add_argument("--epoch-len", default="auto")
    one.add_argument("--epochs", type=float, default=1.0)
    one.add_argument("--seed", type=int, default=0)
    one.add_argument("--out", required=True)
    one.add_argument("--config", help="JSON file overriding flags")

    rep = sub.add_parser("replicate", help="replicate study with aggregated metrics")
    rep.add_argument("--model", required=True, choices=["gmm", "pk"])
    rep.add_argument("--n", type=int, required=True)
    rep.add_argument("--replicates", type=int, default=10)
    # default: every stochastic-approximation variant (gamma not forced to 1)
    rep.add_argument("--algos", default=",".join(v for v, f in VARIANTS.items() if not f.unit_gamma),
                     help="comma-separated variant names")
    rep.add_argument("--gamma", default=bench.DEFAULT_GAMMA)
    rep.add_argument("--rho", default="auto")
    rep.add_argument("--mc-samples", type=int, default=None)
    rep.add_argument("--epoch-len", default="auto")
    rep.add_argument("--epochs", type=float, default=7.0)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--jobs", type=int, default=1)
    rep.add_argument("--theta", help="JSON file with the simulation truth")
    rep.add_argument("--out", required=True, help="output prefix (.csv / .json appended)")
    rep.add_argument("--config", help="JSON file overriding flags")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        args = _apply_config_file(parser.commands[args.command], args)
        if args.command == "simulate":
            digest = bench.cmd_simulate(
                args.model, _load_truth(args.model, args.theta), args.n, args.seed, args.out
            )
            print(f"wrote {args.out} sha256={digest}")
        elif args.command == "run":
            data = _load_data(args.model, args.data)
            algo = bench.AlgoSpec(
                variant=args.algo,
                gamma=args.gamma,
                rho=args.rho,
                mc_samples=args.mc_samples,
                epoch_len=args.epoch_len,
            )
            n = len(data)
            config = algo.to_config(n, args.epochs, args.seed, args.model)
            traj = bench.cmd_run(args.model, data, config, args.out)
            terminal = ",".join(repr(float(v)) for v in traj.terminal_theta)
            print(f"wrote {args.out} terminal_iter={traj.terminal_iter} theta=[{terminal}]")
        else:
            algos = tuple(
                bench.AlgoSpec(
                    variant=v.strip(),
                    gamma=args.gamma,
                    rho=args.rho,
                    mc_samples=args.mc_samples,
                    epoch_len=args.epoch_len,
                )
                for v in args.algos.split(",")
                if v.strip()
            )
            spec = bench.ExperimentSpec(
                model=args.model,
                n=args.n,
                replicates=args.replicates,
                epochs=args.epochs,
                algorithms=algos,
                seed=args.seed,
                truth=_load_truth(args.model, args.theta),
                jobs=args.jobs,
            )
            metrics_path = args.out + ".csv"
            summary_path = args.out + ".json"
            bench.cmd_replicate(spec, metrics_path, summary_path)
            print(f"wrote {metrics_path} and {summary_path}")
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"ttsem: error: {exc}", file=sys.stderr)
        return 1
    except (SamplingError, OSError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"ttsem: runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
