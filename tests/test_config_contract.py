"""The configuration contract: every configuration ``RunConfig`` accepts runs
to the end with finite parameters, or fails early with a typed error.

One seeded draw of configurations over extreme data and settings, run
with warnings raised as errors.  A variant that needs
an exact E-step on the PK model must be refused with a ``ConfigError``: the
model's ``exact_expectation`` default is the one place that rule lives.
"""

import warnings

import numpy as np

from ttsem import core, pk
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
