"""The configuration contract: every configuration ``RunConfig`` accepts runs
to the end with finite parameters, or fails early with a typed error.

One seeded draw of configurations over extreme data and settings, run
with warnings raised as errors.  A variant that needs
an exact E-step on the PK model must be refused with a ``ConfigError``: the
model's ``exact_expectation`` default is the one place that rule lives.

A second seeded draw drives flag combinations through ``cli.main``, a third
of them with their settings in a ``--config`` file: each must exit 0, 1 or 2
with the prefix its code prints, and never with an exception.
"""

import json
import warnings

import numpy as np

from ttsem import cli, core, gmm, pk
from ttsem.core import ConfigError, RunConfig, SamplingError, StepSchedule
from ttsem.engine import run
from ttsem.gmm import GmmModel

SEED = 71
CASES = 300


def _gmm(rng):
    """n <= 20 points, constant, at +-1e150, scaled by 1e-8 or 1e8, or in two clusters."""
    n = int(rng.integers(1, 21))
    shape = int(rng.integers(4))
    if shape == 0:
        data = np.full(n, rng.standard_normal())
    elif shape == 1:
        data = rng.choice([-1e150, 1e150], n)
    elif shape == 2:
        data = rng.standard_normal(n) * 10.0 ** rng.choice([-8, 8])
    else:
        data = rng.standard_normal(n) + rng.choice([-3.0, 3.0], n)
    return GmmModel(data, int(rng.integers(1, 5))), (1, 3, 50), 300


def _pk(rng):
    """1-5 patients with 1-3 sampling times, extreme residual and latent
    variances, and all-zero observations in a fifth of the cohorts."""
    times = np.sort(rng.choice(pk.default_design()[1], int(rng.integers(1, 4)), replace=False))
    truth = pk.PkParams(log_pop=pk.paper_truth().log_pop, omega2=np.full(4, rng.choice([0.01, 0.16, 1.0])),
                        sigma2=float(rng.choice([1e-12, 0.5, 1e6])))
    cohort = pk.simulate(int(rng.integers(1, 6)), truth, (100.0, times), rng)
    if rng.random() < 0.2:
        cohort = [pk.PkIndividual(c.dose, c.times, np.zeros_like(c.obs)) for c in cohort]
    return pk.PkModel(cohort), (1, 2, 10), 60


def _config(rng, n, mc_choices, max_iters):
    """A variant with settings from the contract's ranges; a variant that
    forces gamma or rho gets the forced default four times in five and a
    drawn value, which RunConfig may refuse, otherwise."""
    variant = str(rng.choice(list(core.VARIANTS)))
    spec = core.VARIANTS[variant]
    gamma = rho = None
    if not spec.unit_gamma or rng.random() < 0.2:
        gamma = StepSchedule(c=float(rng.choice([1.0, 0.5, 1e-300])), a=float(rng.choice([0.0, 0.5, 0.999])),
                             warmup_iters=int(rng.integers(3 * n + 1)))
    if not spec.unit_rho or rng.random() < 0.2:
        rho = float(rng.choice([1.0, 0.3, 1e-300, n ** (-2 / 3)]))
    return RunConfig(variant, total_iters=int(rng.integers(max_iters + 1)), seed=int(rng.integers(2**32)),
                     gamma=gamma, rho=rho, mc_samples=int(rng.choice(mc_choices)),
                     epoch_len=int(rng.integers(1, 2 * n + 1)) if spec.proxy == "anchor" else None,
                     randomized_termination=bool(rng.random() < 0.3))


def test_every_accepted_configuration_runs_or_fails_typed():
    rng = np.random.default_rng(SEED)
    outcomes = {"refused": 0, "ran": 0, "ConfigError": 0, "SamplingError": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in range(CASES):
            model, mc_choices, max_iters = (_gmm if case % 2 == 0 else _pk)(rng)
            try:
                cfg = _config(rng, model.n, mc_choices, max_iters)
            except ConfigError:
                outcomes["refused"] += 1
                continue
            where = f"case {case}: {cfg} on {type(model).__name__} (n = {model.n})"
            exact_on_pk = isinstance(model, pk.PkModel) and core.VARIANTS[cfg.variant].exact
            try:
                traj = run(model, cfg)
            except (ConfigError, SamplingError) as exc:
                assert not isinstance(exc.__cause__, Warning), where  # a warning is no typed failure
                assert type(exc) is ConfigError or not exact_on_pk, where
                outcomes[type(exc).__name__] += 1
                continue
            except Exception as exc:
                raise AssertionError(where) from exc
            assert not exact_on_pk, where
            assert traj.n_records == cfg.total_iters + 1, where
            assert np.all(np.isfinite(traj.thetas)), where
            outcomes["ran"] += 1
    assert sum(outcomes.values()) == CASES and outcomes["ran"] >= CASES // 2, outcomes


CLI_SEED = 73
CLI_CASES = 300

# each flag's ordinary text, then its odd text, which a case draws one time in five; no
# text makes a run longer than two epochs or a replicate study larger than 8 x 2
TEXTS = {
    "--gamma": (["0.5", "const:0.8", "poly:0.5", "poly:0.75:c=0.9:warmup=2ep"],
                ["1", "1e-300", "0", "-1", "abc", "poly:1.5", "poly:0.5:warmup=nan", "const:0.5:warmup=3"]),
    "--rho": (["auto", "1", "0.3"], ["1e-300", "0", "-0.5", "2", "nan", "inf", "abc"]),
    "--mc-samples": (["1", "3"], ["50", "0", "-1", "2.5", "abc"]),
    "--epoch-len": (["auto", "1", "7"], ["0", "-3", "2.5", "x"]),
    "--epochs": (["1", "2"], ["0.5", "0", "1e-300", "0.05", "-1", "nan", "inf", "1e400", "two"]),
    "--seed": (["0", "7", str(2**32)], [str(2**64 - 1), str(2**64), "-1", "2.5", "abc"]),
    "--n": (["3", "8"], ["1", "0", "-5", "abc"]),
    "--replicates": (["1", "2"], ["0", "-1"]),
    "--jobs": (["1", "3"], ["0"]),
}
REQUIRED = ("--model", "--n", "--data", "--algo", "--out")
ALGO = ("--seed", "--gamma", "--rho", "--mc-samples", "--epoch-len", "--epochs")
OPTIONAL = {"simulate": ("--seed",), "run": ALGO, "replicate": (*ALGO, "--replicates", "--jobs")}


def _text(rng, flag):
    ordinary, odd = TEXTS[flag]
    return str(rng.choice(odd if rng.random() < 0.2 else ordinary))


def _cli_files(tmp_path):
    """Datasets and truth files: each model's own, keyed by its name, and
    under "other" every file a case may name, empty, bad and missing ones too."""
    gmm.write_dataset(tmp_path / "gmm.txt", np.linspace(-2.0, 2.0, 12))
    pk.write_cohort(tmp_path / "pk.csv", pk.simulate(3, pk.paper_truth(), pk.default_design(),
                                                     np.random.default_rng(0)))
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "pk-empty.csv").write_text("id,dose,time,obs\n")
    truths = {"gmm-theta.json": {"omega": [0.3], "mu": [-1.0, 1.0]},
              "pk-theta.json": {"pop": [1.2, 0.8, 9.0, 0.12], "omega2": [0.09] * 4, "sigma2": 0.4},
              "bad-theta.json": {"omega": [0.5, 0.6], "mu": [0.5, -0.5]}, "list-theta.json": [0.5, 0.5]}
    for name, truth in truths.items():
        (tmp_path / name).write_text(json.dumps(truth))
    data = ("gmm.txt", "pk.csv", "empty.txt", "pk-empty.csv", "missing.txt")
    return ({"gmm": tmp_path / "gmm.txt", "pk": tmp_path / "pk.csv", "other": [tmp_path / f for f in data]},
            {"gmm": tmp_path / "gmm-theta.json", "pk": tmp_path / "pk-theta.json",
             "other": [tmp_path / f for f in (*truths, "missing.json")]})


def _path(rng, files, model):
    """The model's own file seven times in ten, else any file of the kind."""
    return str(files[model] if model in files and rng.random() < 0.7 else rng.choice(files["other"]))


def _cli_flags(rng, data, thetas, out):
    """One command with its flags, as a dict from flag to text."""
    command = str(rng.choice(["simulate", "run", "replicate"]))
    model = str(rng.choice(["gmm", "pk", "nope"], p=[0.45, 0.45, 0.1]))
    variants = [*core.VARIANTS, "nope"]
    flags = {"--model": model, "--out": str(out)}
    if command == "simulate":
        flags["--n"] = _text(rng, "--n")
    elif command == "run":
        flags["--data"] = _path(rng, data, model)
        flags["--algo"] = str(rng.choice(variants))
    else:
        flags["--n"] = _text(rng, "--n")
        flags["--algos"] = ",".join(rng.choice(variants, int(rng.integers(1, 3))))
        flags["--epochs"] = _text(rng, "--epochs")
    for flag in OPTIONAL[command]:
        if flag not in flags and rng.random() < 0.4:
            flags[flag] = _text(rng, flag)
    if command != "run" and rng.random() < 0.3:
        flags["--theta"] = _path(rng, thetas, model)
    return command, flags


def _as_config(rng, flags, path):
    """Move most flags into a --config file at ``path``, in either key
    spelling, as JSON numbers where the text is an integer; a required flag
    stays on the command line, and the file sometimes repeats it."""
    entries, kept = {}, {}
    for flag, text in flags.items():
        in_file = rng.random() < (0.2 if flag in REQUIRED else 0.7)
        if in_file:
            key = flag[2:].replace("-", "_") if rng.random() < 0.5 else flag[2:]
            entries[key] = int(text) if text.lstrip("-").isdigit() and rng.random() < 0.5 else text
        if flag in REQUIRED or not in_file:
            kept[flag] = text
    path.write_text(json.dumps(entries))
    return {**kept, "--config": str(path)}


def test_every_flag_combination_exits_with_a_code(tmp_path, capsys):
    rng = np.random.default_rng(CLI_SEED)
    data, thetas = _cli_files(tmp_path)
    codes, ran = {0: 0, 1: 0, 2: 0}, set()
    for case in range(CLI_CASES):
        command, flags = _cli_flags(rng, data, thetas, tmp_path / f"out{case}")
        via_config = case % 3 == 0
        if via_config:
            flags = _as_config(rng, flags, tmp_path / f"config{case}.json")
        argv = [command, *(token for flag, text in flags.items() for token in (flag, text))]
        where = f"case {case}: ttsem {' '.join(argv)}"
        try:
            code = cli.main(argv)
        except BaseException as exc:  # SystemExit included: main returns every exit code
            raise AssertionError(where) from exc
        err = capsys.readouterr().err
        assert code in codes, where
        assert code != 1 or "ttsem: error:" in err, where
        assert code != 2 or "ttsem: runtime failure:" in err, where
        codes[code] += 1
        if code == 0:
            ran.add((command, via_config))
    # every exit code occurs, and every command runs both from flags and from a config file
    assert all(codes.values()) and len(ran) == 6, (codes, ran)
