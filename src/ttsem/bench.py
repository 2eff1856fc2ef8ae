"""Benchmark harness: dataset synthesis, single runs, and replicate Monte
Carlo studies with deterministic CSV/JSON output.

An experiment simulates R datasets, fits every configured algorithm to each
one from a shared deterministic starting point, and records metric series
on a common cost grid read off each run's epoch column (per-sample E-steps
after initialization, over n).  The root seed fixes every byte of output;
replicates may run in parallel and are merged in index order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import permutations
from typing import Callable, Optional

import numpy as np

from . import gmm, pk
from .core import (INDEX_MAX, SEED_MAX, VARIANTS, ConfigError, ModelSpec, RunConfig, StepSchedule, as_int,
                   check_real, set_ints)
from .engine import Trajectory, run
from .rng import derive_seed, named_stream

__all__ = [
    "AlgoSpec",
    "ExperimentSpec",
    "MODELS",
    "ModelKind",
    "parse_gamma",
    "epochs_to_iters",
    "metric_precision_gmm",
    "pk_naive_init",
    "cmd_simulate",
    "cmd_run",
    "cmd_replicate",
]

DEFAULT_GAMMA = "poly:0.5:warmup=1ep"
GRID_RESOLUTION = 10  # metric grid points per epoch


# ---------------------------------------------------------------------------
# Stepsize / algorithm specifications (resolved once n is known)
# ---------------------------------------------------------------------------


def parse_gamma(text: str, n: int, variant: str) -> StepSchedule:
    """Parse a gamma flag into the schedule of one run on n samples.

    "0.5" and "const:0.5" are constant; "poly:a[:c=c][:warmup=w]" is
    polynomial (a = 0 is the constant c), with a warmup of w iterations, or
    of w epochs when w ends in "ep" (``Variant.iters_per_epoch`` iterations
    each).  The warmup must come out finite and nonnegative.
    """
    if not isinstance(text, str):
        raise ConfigError(f"gamma must be schedule text such as '0.5' or 'poly:0.5', got {text!r}")
    head, *fields = text.split(":")
    a, c, warmup = 0.0, 1.0, 0.0
    try:
        if head != "poly":
            if fields and (head != "const" or len(fields) > 1):
                raise ValueError  # a constant takes its value and nothing else
            c = float(fields[0] if fields else head)
        else:
            a = float(fields[0])
            for extra in fields[1:]:
                key, _, val = extra.partition("=")
                if key == "c":
                    c = float(val)
                elif key == "warmup" and val.endswith("ep"):
                    warmup = float(val[:-2]) * VARIANTS[variant].iters_per_epoch(n)
                elif key == "warmup":
                    warmup = float(val)
                else:
                    raise ValueError
            if not 0 <= warmup < math.inf:
                raise ValueError
    except (ValueError, IndexError):
        raise ConfigError(f"cannot parse gamma spec {text!r}") from None
    return StepSchedule(c=c, a=a, warmup_iters=round(warmup))


def epochs_to_iters(epochs: float, n: int, variant: str) -> int:
    """Iteration budget covering ``epochs`` of ``Variant.iters_per_epoch``."""
    check_real("epochs", epochs)
    if not 0 <= epochs < math.inf:
        raise ConfigError(f"epochs must be nonnegative and finite, got {epochs}")
    if not (iters := epochs * VARIANTS[variant].iters_per_epoch(n)) < 2.0**63:  # its ceiling at most INDEX_MAX
        raise ConfigError(f"epochs={epochs} overflows the {variant} iteration count at n={n}")
    return math.ceil(iters)


@dataclass(frozen=True)
class AlgoSpec:
    """One algorithm entry of an experiment; a None setting is filled from
    the variant, the dataset size and the model's conventions."""

    variant: str
    gamma: Optional[str] = None
    rho: Optional[float] = None
    mc_samples: Optional[int] = None
    epoch_len: Optional[int] = None

    def to_config(self, n: int, epochs: float, seed: int, model_kind: str) -> RunConfig:
        variant = self.variant
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        kind = _model_kind(model_kind)
        n = as_int("n", n, 1, INDEX_MAX)
        if VARIANTS[variant].exact and not kind.model.provides("exact_expectation"):
            raise ConfigError(f"{variant} needs a model with an exact E-step")
        # a given epoch_len is checked for every variant; only vrTTEM has an
        # anchor, so the others leave a valid value unused
        epoch_len = None if self.epoch_len is None else as_int("epoch_len", self.epoch_len, -math.inf, math.inf)
        epoch_len = (n if epoch_len is None else epoch_len) if VARIANTS[variant].proxy == "anchor" else None
        # no gamma: DEFAULT_GAMMA, or the unit schedule RunConfig fills for a variant that forces it
        gamma = DEFAULT_GAMMA if self.gamma is None and not VARIANTS[variant].unit_gamma else self.gamma
        # no rho: n**(-2/3) where rho is free, else the 1 RunConfig fills
        rho = float(n) ** (-2.0 / 3.0) if self.rho is None and not VARIANTS[variant].unit_rho else self.rho
        return RunConfig(
            variant=variant,
            total_iters=epochs_to_iters(epochs, n, variant),
            seed=seed,
            gamma=None if gamma is None else parse_gamma(gamma, n, variant),
            rho=rho,
            mc_samples=self.mc_samples if self.mc_samples is not None else kind.mc_samples,
            epoch_len=epoch_len,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A full replicate study; every output byte is a function of this."""

    model: str                      # a key of MODELS
    n: int
    replicates: int
    epochs: float
    algorithms: tuple[AlgoSpec, ...]
    seed: int
    truth: Optional[object] = None  # model parameter object; None = the model kind's default
    jobs: int = 1
    # one resolved RunConfig per algorithm, at the root seed; each replicate
    # runs them with its own seed
    configs: tuple[RunConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _model_kind(self.model)
        set_ints(self, n=(1, INDEX_MAX), replicates=(1, INDEX_MAX), jobs=(1, INDEX_MAX), seed=(0, SEED_MAX))
        check_real("epochs", self.epochs)
        if not 1 <= self.epochs * GRID_RESOLUTION < math.inf:
            raise ConfigError(f"epochs must reach the first grid point, {1 / GRID_RESOLUTION}, "
                              f"and be finite, got {self.epochs}")
        if not self.algorithms:
            raise ConfigError("need at least one algorithm")
        variants = [a.variant for a in self.algorithms]
        if len(set(variants)) != len(variants):
            raise ConfigError("algorithm variants must be unique")
        # a setting that cannot run fails here, before any dataset is simulated
        configs = tuple(a.to_config(self.n, self.epochs, self.seed, self.model) for a in self.algorithms)
        object.__setattr__(self, "configs", configs)

    def grid(self) -> np.ndarray:
        """Grid points k / GRID_RESOLUTION up to ``epochs``, k >= 1."""
        return np.arange(1, math.floor(self.epochs * GRID_RESOLUTION) + 1) / GRID_RESOLUTION


# ---------------------------------------------------------------------------
# Models as data: one record per model kind
# ---------------------------------------------------------------------------


def pk_naive_init(cohort: list[pk.PkIndividual]) -> pk.PkParams:
    """The PK model's deterministic starting point on ``cohort``."""
    return pk.PkModel(cohort).default_init()


def metric_precision_gmm(mu: np.ndarray, mu_star: np.ndarray) -> float:
    """Squared mean error minimized over component relabelings."""
    mu = np.asarray(mu, dtype=np.float64)
    mu_star = np.asarray(mu_star, dtype=np.float64)
    if mu.shape != mu_star.shape:
        raise ValueError("component count mismatch")
    return min(float(np.sum((mu - mu_star[list(p)]) ** 2)) for p in permutations(range(len(mu))))


def _json_floats(blob: dict, key: str, ndim: Optional[int] = None) -> np.ndarray:
    """``blob[key]`` as a float array, else a ValueError naming the field."""
    if key not in blob:
        raise ValueError(f"the truth has no {key!r} field")
    try:
        vec = np.asarray(blob[key], dtype=np.float64)
        if ndim in (None, vec.ndim):
            return vec
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{key} must be a list of numbers, got {blob[key]!r}")


def _gmm_truth(blob: dict) -> gmm.GmmParams:
    omega, mu = _json_floats(blob, "omega", 1), _json_floats(blob, "mu", 1)
    if len(omega) == len(mu):  # full simplex given; drop the implied weight
        total = float(omega.sum())
        if abs(total - 1.0) > 1e-9:  # categorical_sample's tolerance
            raise ValueError(f"omega: a full weight vector must sum to 1, got {total!r}")
        omega = omega[:-1]
    return gmm.GmmParams(omega=omega, mu=mu)


def _pk_truth(blob: dict) -> pk.PkParams:
    pop = _json_floats(blob, "pop") if blob.get("pop") is not None else None
    if pop is not None and not np.all(pop > 0.0):
        raise ValueError(f"pop entries must be positive, got {blob['pop']!r}")
    log_pop = np.log(pop) if pop is not None else _json_floats(blob, "log_pop")
    try:
        sigma2 = float(blob["sigma2"])
    except KeyError:
        raise ValueError("the truth has no 'sigma2' field") from None
    except (TypeError, ValueError):
        raise ValueError(f"sigma2 must be a number, got {blob['sigma2']!r}") from None
    return pk.PkParams(log_pop=log_pop, omega2=_json_floats(blob, "omega2"), sigma2=sigma2)


def _gmm_metrics(thetas: np.ndarray, mu_star: np.ndarray) -> dict[str, np.ndarray]:
    m = (thetas.shape[1] + 1) // 2  # rows hold M-1 weights, then M means
    return {"precision": np.array([metric_precision_gmm(theta[m - 1 :], mu_star) for theta in thetas])}


def _pk_metrics(thetas: np.ndarray, pop_star: np.ndarray) -> dict[str, np.ndarray]:
    pops = np.exp(thetas[:, :4])  # natural-scale fixed effects, as the (4,) pop_star
    return {f"sqerr_{name}": (pops[:, c] - pop_star[c]) ** 2 for c, name in enumerate(pk.LATENT_NAMES)}


@dataclass(frozen=True)
class ModelKind:
    """One model as the harness and the CLI serve it: what MODELS holds for
    its ``--model`` name.  The callables look model functions up on their
    modules when called, so one replaced there after import is the one run."""

    model: type                 # the ModelSpec subclass, built on one dataset
    mc_samples: int             # default AlgoSpec.mc_samples
    truth: Callable             # () -> the default simulation truth
    simulate: Callable          # (n, truth, rng) -> dataset
    read: Callable              # path -> dataset
    write: Callable             # (path, dataset) -> None
    truth_from_json: Callable   # JSON object -> truth; ValueError names a bad field
    hash_values: Callable       # dataset -> the floats its replicate hash covers
    reference: Callable         # (model, truth, theta0) -> what the metrics compare with
    metrics: Callable           # (parameter rows, reference) -> {metric: array}

    def dataset(self, truth, n: int, seed: int) -> tuple:
        """n samples on ``seed``'s data stream from ``truth`` (None: the default), and that truth."""
        truth = truth if truth is not None else self.truth()
        return self.simulate(n, truth, named_stream(seed, "data")), truth


MODELS = {
    "gmm": ModelKind(
        gmm.GmmModel, mc_samples=10, truth=lambda: gmm.GmmParams(omega=[0.5], mu=[0.5, -0.5]),
        simulate=lambda n, truth, rng: gmm.simulate(n, truth, rng),
        read=lambda path: gmm.read_dataset(path), write=lambda path, data: gmm.write_dataset(path, data),
        truth_from_json=_gmm_truth, hash_values=lambda data: data.tolist(),
        reference=lambda model, truth, theta0: gmm.fit_reference_em(
            model.data, init=theta0, delta=model.delta, epsilon=model.epsilon).mu,
        metrics=_gmm_metrics,
    ),
    "pk": ModelKind(
        pk.PkModel, mc_samples=50, truth=lambda: pk.paper_truth(),
        simulate=lambda n, truth, rng: pk.simulate(n, truth, pk.default_design(), rng),
        read=lambda path: pk.read_cohort(path), write=lambda path, data: pk.write_cohort(path, data),
        truth_from_json=_pk_truth,
        hash_values=lambda data: [v for ind in data for v in ind.times.tolist() + ind.obs.tolist()],
        reference=lambda model, truth, theta0: truth.pop,
        metrics=_pk_metrics,
    ),
}


def _model_kind(name: str) -> ModelKind:
    """The MODELS record of ``name``, else a ConfigError."""
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}")
    return MODELS[name]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _nll_rows(model: ModelSpec, thetas: np.ndarray) -> list[float]:
    """Penalized NLL of each flattened parameter row."""
    return [model.penalized_nll(model.unflatten_params(vec)) for vec in thetas]


def _pool_map(fn: Callable, tasks: list[tuple], workers: int, inline: int = 0) -> list:
    """``[fn(*task) for task in tasks]``.  With ``workers`` >= 1, a pool of
    that many worker processes runs all but the first ``inline`` tasks,
    which this process runs meanwhile; with none, no pool is built."""
    if workers < 1:
        return [fn(*task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # only here: it imports multiprocessing
    with ProcessPoolExecutor(max_workers=workers) as pool:
        rest = pool.map(fn, *zip(*tasks[inline:]))  # submits every task before returning
        return [fn(*task) for task in tasks[:inline]] + list(rest)


def _nll_column(model: ModelSpec, thetas: np.ndarray) -> list[float]:
    """``_nll_rows`` split into contiguous shares, one per usable CPU: this
    process computes the first while one worker process per further CPU
    computes the rest.  Each row's value is the same wherever it is
    computed, so the column does not depend on the CPU count."""
    shares = min(_usable_cpus(), len(thetas))
    tasks = [(model, part) for part in np.array_split(thetas, shares)]
    return [v for part in _pool_map(_nll_rows, tasks, shares - 1, inline=1) for v in part]


def _metric_values(kind: ModelKind, traj: Trajectory, rows: np.ndarray, reference,
                   model: ModelSpec) -> dict[str, np.ndarray]:
    """Metric arrays over the records ``rows`` of one trajectory, with the
    penalized NLL of each when the model has a likelihood."""
    thetas = traj.thetas[rows]
    out = {"delta_s_sq": traj.delta_s_sq[rows], **kind.metrics(thetas, reference)}
    if model.provides("penalized_nll"):
        out["nll"] = np.array(_nll_rows(model, thetas))
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(model_kind: str, truth, n: int, seed: int, out_path) -> str:
    """Write a synthetic dataset; returns (and prints nothing) its hash."""
    n, seed = as_int("n", n, 1, INDEX_MAX), as_int("seed", seed, 0, SEED_MAX)
    kind = _model_kind(model_kind)
    data, _ = kind.dataset(truth, n, seed)
    kind.write(out_path, data)
    with open(out_path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cmd_run(model: ModelSpec, config: RunConfig, out_path) -> Trajectory:
    """One run from the default start straight to a trajectory CSV, its NLL
    column computed on every usable CPU (``_nll_column``)."""
    traj = run(model, config)
    nll = _nll_column(model, traj.thetas[traj.select_rows()]) if model.provides("penalized_nll") else None
    with open(out_path, "w", encoding="ascii", newline="\n") as fh:
        traj.write_csv(fh, nll=nll)
    return traj


def _replicate_worker(spec: ExperimentSpec, r: int) -> dict:
    """Simulate, fit every algorithm, and sample metric series on the grid."""
    if spec.model not in MODELS:  # only a worker process can miss a record the spec was checked against
        raise ConfigError(f"model {spec.model!r} is not in this worker's MODELS: replicate workers not "
                          "started by fork import MODELS afresh, so register its record in a module the "
                          "workers import, or use jobs=1")
    kind = MODELS[spec.model]
    data, truth = kind.dataset(spec.truth, spec.n, derive_seed(spec.seed, "rep", r, 0))
    run_seed = derive_seed(spec.seed, "rep", r, 1)

    model = kind.model(data)
    theta0 = model.default_init()
    reference = kind.reference(model, truth, theta0)
    data_hash = hashlib.sha256("\n".join(map(repr, kind.hash_values(data))).encode()).hexdigest()
    theta0_hash = hashlib.sha256(np.array(model.flatten_params(theta0)).tobytes()).hexdigest()

    grid = spec.grid()
    series: dict[str, dict[str, np.ndarray]] = {}
    for config in spec.configs:
        traj = run(model, replace(config, seed=run_seed), theta0=theta0)
        # every metric is read at the last record at or before each grid
        # point on the epoch column; the first record, at 0, precedes them all
        rows = np.searchsorted(traj.epochs, grid, side="right") - 1
        series[config.variant] = _metric_values(kind, traj, rows, reference, model)

    return {
        "replicate": r,
        "data_hash": data_hash,
        "theta0_hash": theta0_hash,
        "series": series,
    }


def cmd_replicate(spec: ExperimentSpec, metrics_path, summary_path) -> dict:
    """Run the whole study and write the aggregated metrics CSV plus a
    summary JSON.  Any replicate failure aborts the experiment."""
    # one worker would gain nothing over this process, so it runs inline, with no pool
    workers = min(spec.jobs, spec.replicates, _usable_cpus())
    results = _pool_map(_replicate_worker, [(spec, r) for r in range(spec.replicates)],
                        workers if workers > 1 else 0)

    grid = spec.grid()
    algo_names = [a.variant for a in spec.algorithms]
    metric_names = sorted(results[0]["series"][algo_names[0]].keys())
    # one (replicates, grid) array per (algorithm, metric); every statistic
    # below is read off it: the last column is the final value, and column
    # e * GRID_RESOLUTION - 1 is whole epoch e
    stacked = {
        name: {metric: np.stack([res["series"][name][metric] for res in results]) for metric in metric_names}
        for name in algo_names
    }
    int_epochs = list(range(1, math.floor(spec.epochs) + 1))
    int_idx = [e * GRID_RESOLUTION - 1 for e in int_epochs]

    final: dict[str, dict[str, dict]] = {}
    per_rep: dict[str, dict[str, list]] = {}
    # metrics CSV: one row per (algorithm, metric, grid point)
    with open(metrics_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("algo,metric,epoch,mean,median,q25,q75\n")
        for name in algo_names:
            final[name], per_rep[name] = {}, {}
            for metric, x in stacked[name].items():
                stats = [x.mean(axis=0)] + [np.quantile(x, q, axis=0) for q in (0.5, 0.25, 0.75)]
                for g, row in zip(grid.tolist(), zip(*stats)):
                    fh.write(",".join([name, metric] + [repr(float(v)) for v in (g, *row)]) + "\n")
                last = x[:, -1]
                final[name][metric] = {
                    "median": float(np.median(last)),
                    "mean": float(np.mean(last)),
                    "per_replicate": last.tolist(),
                }
                per_rep[name][metric] = x[:, int_idx].tolist()

    # wins[metric][a][b]: replicates whose final value is lower under a than under b
    wins = {metric: {a: {} for a in algo_names} for metric in metric_names}
    for metric in metric_names:
        for a, b in permutations(algo_names, 2):
            wins[metric][a][b] = int(np.sum(stacked[a][metric][:, -1] < stacked[b][metric][:, -1]))

    summary = {
        "model": spec.model,
        "n": spec.n,
        "replicates": spec.replicates,
        "epochs": spec.epochs,
        "seed": spec.seed,
        "grid": [float(g) for g in grid],
        "hashes": [
            {"replicate": res["replicate"], "data": res["data_hash"], "theta0": res["theta0_hash"]}
            for res in results
        ],
        "final": final,
        "wins": wins,
        "integer_epochs": int_epochs,
        "per_replicate_at_integer_epochs": per_rep,
    }
    with open(summary_path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
