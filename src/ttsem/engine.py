"""Two-timescale stochastic EM driver.

One run alternates, for K_f iterations:

  1. draw an index i_k (plus j_k for fiTTEM) uniformly with replacement,
  2. Monte Carlo E-step for the drawn index under the current parameters,
  3. a variant-specific proxy for the full-batch statistics,
  4. the fast-timescale Inc-step   stt <- stt + rho * (proxy - stt),
  5. the slow-timescale SA-step    s_hat <- s_hat + gamma_k * (stt - s_hat),
  6. the projection     s_hat <- model.project(s_hat)  onto the statistic set,
  7. the model M-step and a trajectory record.

Proxy kinds (``core.VARIANTS`` maps each variant to one):

  batch        EM / MCEM / SAEM: the anchor refreshed every iteration
  table        iEM / iSAEM: per-sample table, replace-one running mean
  anchor       vrTTEM: epoch anchor refreshed every epoch_len iterations
  two_stream   fiTTEM: table read by the i-stream, written only by the j-stream

With rho = 1 the Inc-step returns the proxy verbatim, so the recorded
timescale gap ||stt - proxy||^2 is exactly zero; the whole family then
collapses onto SAEM (and further onto MCEM / batch EM when gamma is 1),
bit for bit under shared seeds.

Projection: the vrTTEM and fiTTEM proxies add an uncorrected control
variate (s_new - anchor_i), which can carry s_hat out of the set where the
M-step is defined.  The paper assumes the iterates stay in that set and
does not say what to do otherwise.  Here the stored iterate s_hat itself is
mapped back before every M-step, initialization included, as in the
truncated SA / SAEM schemes of Delyon, Lavielle & Moulines (1999) and
Andrieu, Moulines & Priouret (2005).  stt is never projected, so the
recorded timescale gap is the raw one.  The projection is the identity on
the set, so runs that stay inside it are unchanged bit for bit.

Iterates: stt, s_hat, the proxies and the table mean hold plain floats, since
numpy dispatch on k numbers costs more than their element-wise arithmetic,
which rounds the same; only the gap keeps np.dot's summation.  Arrays
cross only the ModelSpec seam: E-step results, and project / m_step input.

Randomness: index draws, posterior draws, and the termination draw live
on separate named streams of the run seed (so the Monte Carlo sample count
never perturbs the index sequence); each posterior role's E-steps draw
from one stream in visit order.  Batch variants draw index_i too, unused,
which moves no other stream.  Nothing else reads an index stream, so
indices are drawn ahead in blocks of at most _INDEX_CHUNK; a block reads the
stream exactly as single draws do.  MCMC chain states are part of the run's
iterate (as in MCMC-SAEM, Kuhn & Lavielle 2004): the engine keeps one chain
dict per role, starts each run with empty ones and hands them to the model,
so ``run`` is a pure function of (model data, config, theta0).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    VARIANTS,
    ConfigError,
    ModelSpec,
    PerSampleStatTable,
    RunConfig,
    SamplingError,
)
from .rng import named_stream
from .samplers import categorical_sample

__all__ = [
    "mc_step",
    "sa_step",
    "inc_step",
    "proxy_isaem",
    "proxy_vr",
    "proxy_fi",
    "epoch_refresh",
    "gap_delta_s",
    "draw_termination",
    "Trajectory",
    "run",
]


# ---------------------------------------------------------------------------
# Elementary steps
# ---------------------------------------------------------------------------


def mc_step(model: ModelSpec, i: int, theta, n_samples: int, rng: np.random.Generator,
            chains: Optional[dict] = None) -> np.ndarray:
    """Monte Carlo E-step for one sample: the model's ``mc_stat``.

    ``chains`` is the caller's chain-state dict for this posterior stream;
    None starts any MCMC chain cold and keeps nothing.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    return model.mc_stat(i, theta, n_samples, rng, chains)


def sa_step(s_hat: list, stt: list, gamma: float) -> list:
    """Slow-timescale update s_hat + gamma * (stt - s_hat).

    gamma = 1 returns stt verbatim so full-replacement reductions hold
    exactly in floating point.
    """
    assert len(s_hat) == len(stt), "statistic length mismatch"
    return list(stt) if gamma == 1.0 else [a + gamma * (b - a) for a, b in zip(s_hat, stt)]


def inc_step(stt: list, proxy: list, rho: float) -> list:
    """Fast-timescale update stt + rho * (proxy - stt); rho = 1 returns proxy."""
    assert len(stt) == len(proxy), "statistic length mismatch"
    return list(proxy) if rho == 1.0 else [a + rho * (b - a) for a, b in zip(stt, proxy)]


def gap_delta_s(a: list, b: list) -> float:
    """Squared Euclidean distance between two statistic vectors: +0.0 for
    equal ones, else np.dot's BLAS sum (as ndarray.dot), whose order and FMA
    use a Python sum would not reproduce."""
    d = [x - y for x, y in zip(a, b, strict=True)]
    if not any(d):
        return 0.0
    v = np.array(d)
    return float(v.dot(v))


# ---------------------------------------------------------------------------
# Proxies for the Inc-step
# ---------------------------------------------------------------------------


def proxy_isaem(table: PerSampleStatTable, i_k: int, s_new: list) -> list:
    """Replace-one running-mean proxy (SAGA-style).

    Commits the replacement of entry i_k by ``s_new`` and returns the new
    table mean.
    """
    assert 0 <= i_k < table.n
    table.replace(i_k, s_new)
    return table.mean


def proxy_vr(anchor_stt: list, anchor_entry_i: list, s_new: list) -> list:
    """Epoch-anchored control-variate proxy (SVRG-style)."""
    assert anchor_stt is not None, "epoch anchor missing; refresh before use"
    return [a + (v - e) for a, v, e in zip(anchor_stt, s_new, anchor_entry_i, strict=True)]


def proxy_fi(table: PerSampleStatTable, i_k: int, j_k: int, s_new_i: list, s_new_j: list) -> list:
    """Two-stream proxy: the i-stream reads the table, the j-stream writes it.

    Returns mean + (s_new_i - entries[i_k]) using the pre-update state, then
    folds the j-replacement into the table.  Entry i_k itself is never
    touched by the i-stream.
    """
    assert 0 <= i_k < table.n and 0 <= j_k < table.n
    out = [m + (v - e) for m, v, e in zip(table.mean, s_new_i, table.entries[i_k].tolist(), strict=True)]
    table.replace(j_k, s_new_j)
    return out


# ---------------------------------------------------------------------------
# Per-sample E-steps and the whole pass
# ---------------------------------------------------------------------------


def _estep(model: ModelSpec, i: int, theta, n_samples: int, rng, chains, iteration: int) -> list:
    """One E-step for sample i as plain floats, exact when ``rng`` is None,
    else Monte Carlo on ``rng`` and ``chains``; failures raise SamplingError
    carrying i and the iteration (-1 is the initialization pass)."""
    if rng is None:
        s = model.exact_expectation(i, theta)
    else:
        try:
            s = mc_step(model, i, theta, n_samples, rng, chains)
        except (SamplingError, ConfigError):
            raise
        except Exception as exc:
            raise SamplingError(f"posterior sampling failed: {exc}", i, iteration) from exc
    vals = s.tolist()
    if not all(map(math.isfinite, vals)):
        raise SamplingError("non-finite statistic", i, iteration)
    return vals


def epoch_refresh(model: ModelSpec, theta, n_samples: int, rng: np.random.Generator, iteration: int = 0,
                  chains: Optional[dict] = None) -> tuple[np.ndarray, np.ndarray]:
    """The one whole pass: initialization, each batch iteration and each
    anchor refresh.  Recomputes every sample's statistic under the current
    parameters, in index order on ``rng`` (exact when it is None), and
    returns (the batch mean of the fresh entries, the entries).  With rho = 1
    the Inc-step pins stt to that mean, so batch variants are the anchor
    proxy refreshed every iteration.
    """
    entries = np.empty((model.n, model.stat_dim()))
    for i in range(model.n):
        entries[i] = _estep(model, i, theta, n_samples, rng, chains, iteration)
    return entries.mean(axis=0), entries


_INDEX_CHUNK = 1024


def _index_draws(rng: np.random.Generator, n: int, count: int):
    """``count`` uniform indices in [0, n), drawn lazily in blocks of _INDEX_CHUNK."""
    for start in range(0, count, _INDEX_CHUNK):
        yield from rng.integers(n, size=min(_INDEX_CHUNK, count - start)).tolist()


# ---------------------------------------------------------------------------
# Randomized termination
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")  # a sum that overflows is rejected below, not warned about
def draw_termination(gammas, rng: np.random.Generator) -> int:
    """Draw the reported iteration K with P(K = k) proportional to gamma_k."""
    g = np.asarray(gammas, dtype=np.float64)
    if g.size == 0:
        raise ValueError("need at least one stepsize to draw a termination index")
    if not (np.all(np.isfinite(g) & (g > 0.0)) and math.isfinite(total := g.sum())):
        raise ValueError("termination weights must be finite and strictly positive, with a finite sum")
    return categorical_sample(g / total, rng)


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Per-iteration record of a run plus the terminal parameter choice.

    ``thetas`` has one row per record (initial state plus one per
    iteration).  ``delta_s_sq`` is the squared timescale gap
    ||stt - proxy||^2 of that iteration, identically zero whenever rho = 1.
    Wall-clock stamps are diagnostics only and never serialized.

    ``terminal_iter`` is the reported record.  Randomized termination draws
    it from 0..K_f-1 with P(k) proportional to gamma_k; the deterministic
    choice is K_f-1, the last index of that support.  Either way the
    parameters after the final update, ``thetas[K_f]``, are recorded but
    not reported (a run of zero iterations reports ``thetas[0]``).
    """

    iters: np.ndarray          # (R,) int64 record indices 0..K_f
    epochs: np.ndarray         # (R,) cost in epochs at each record
    thetas: np.ndarray         # (R, p) flattened parameters
    delta_s_sq: np.ndarray     # (R,)
    wall_ns: np.ndarray        # (R,) int64
    param_names: list[str]
    terminal_iter: int

    @property
    def n_records(self) -> int:
        return len(self.iters)

    @property
    def terminal_theta(self) -> np.ndarray:
        return self.thetas[self.terminal_iter]

    def select_rows(self, max_rows: int = 10_000) -> np.ndarray:
        """Deterministic row subset: stride-thinned, keeping every record
        where the integer epoch advances, plus the first and last."""
        r = self.n_records
        if r <= max_rows:
            return np.arange(r)
        stride = int(np.ceil(r / max_rows))
        keep = np.zeros(r, dtype=bool)
        keep[::stride] = True
        keep[-1] = True
        boundary = np.floor(self.epochs).astype(np.int64)
        keep[1:] |= boundary[1:] != boundary[:-1]
        return np.flatnonzero(keep)

    def write_csv(self, fh, nll: Optional[Callable[[np.ndarray], float]] = None) -> None:
        """Write records as CSV: iter, epoch, parameters, delta_s_sq[, nll].

        Floats are printed as shortest round-trip decimals, lines are
        LF-terminated, and the row subset is deterministic, so identical
        trajectories serialize to identical bytes.
        """
        header = ["iter", "epoch"] + self.param_names + ["delta_s_sq"]
        if nll is not None:
            header.append("nll")
        fh.write(",".join(header) + "\n")
        for r in self.select_rows():
            cells = [str(int(self.iters[r])), repr(float(self.epochs[r]))]
            cells += [repr(float(v)) for v in self.thetas[r]]
            cells.append(repr(float(self.delta_s_sq[r])))
            if nll is not None:
                cells.append(repr(float(nll(self.thetas[r]))))
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def run(model: ModelSpec, config: RunConfig, theta0=None) -> Trajectory:
    """Execute one configured run and return its trajectory.

    Initialization computes per-sample statistics under ``theta0`` (the
    model's default start when omitted), sets both timescale iterates to
    their mean (s_hat projected), and applies the M-step, so the first
    record already holds an M-step image.
    """
    n = model.n
    if n == 0:
        raise ConfigError("model has no data")
    spec = VARIANTS[config.variant]
    kind = spec.proxy
    if theta0 is None:
        default = getattr(model, "default_init", None)
        if default is None:
            raise ConfigError("no theta0 given and the model has no default_init()")
        theta0 = default()
    if spec.exact and model.exact_expectation(0, theta0) is None:
        raise ConfigError(f"{config.variant} needs a model with an exact E-step")

    seed, rho, k_f = config.seed, config.rho, config.total_iters
    period = 1 if kind == "batch" else config.epoch_len

    draws_i = _index_draws(named_stream(seed, "index_i"), n, k_f)
    draws_j = _index_draws(named_stream(seed, "index_j"), n, k_f) if kind == "two_stream" else None
    # Posterior-stream roles: "mc" serves the initialization pass, the
    # i-stream and every later whole pass; fiTTEM's j-draws get their
    # own so that i_k = j_k still yields independent draws.  Each role has
    # one stream, drawn in visit order, and its own fresh MCMC chain states.
    roles = ("mc", "mc_j") if kind == "two_stream" else ("mc",)
    rngs = {r: None if spec.exact else named_stream(seed, r) for r in roles}
    chains = {r: {} for r in roles}
    mc = config.mc_samples

    def estep(i: int, theta, iteration: int, role: str = "mc") -> list:
        return _estep(model, i, theta, mc, rngs[role], chains[role], iteration)

    # Initialization pass: per-sample statistics under theta0.
    stt, init_rows = epoch_refresh(model, theta0, mc, rngs["mc"], -1, chains["mc"])

    table = PerSampleStatTable(init_rows) if kind in ("table", "two_stream") else None
    s_hat = model.project(stt.copy())
    theta = model.m_step(s_hat)
    stt, s_hat = stt.tolist(), s_hat.tolist()

    anchor_stt = anchor_entries = None
    records = k_f + 1
    p = len(model.param_names())
    traj = Trajectory(
        iters=np.arange(records, dtype=np.int64),
        epochs=np.zeros(records),
        thetas=np.empty((records, p)),
        delta_s_sq=np.zeros(records),
        wall_ns=np.zeros(records, dtype=np.int64),
        param_names=model.param_names(),
        terminal_iter=0,
    )
    traj.thetas[0] = model.flatten_params(theta)
    traj.wall_ns[0] = time.perf_counter_ns()

    # Cost in epochs: one per whole pass after initialization (each batch
    # iteration or anchor refresh) plus one per n charged draws.  A refresh
    # iteration reuses its freshly drawn entry, and fiTTEM's j-draw rides
    # along with its iteration.
    refreshes = extra_draws = 0

    for k in range(k_f):
        if kind == "table":
            i_k = next(draws_i)
            proxy = proxy_isaem(table, i_k, estep(i_k, theta, k))
            extra_draws += 1
        elif kind in ("batch", "anchor"):
            i_k = next(draws_i)
            if k % period == 0:
                anchor_stt, anchor_entries = epoch_refresh(model, theta, mc, rngs["mc"], k, chains["mc"])
                anchor_stt = anchor_stt.tolist()
                refreshes += 1
                s_new = anchor_entries[i_k].tolist()  # refreshed this very iteration
            else:
                s_new = estep(i_k, theta, k)
                extra_draws += 1
            proxy = proxy_vr(anchor_stt, anchor_entries[i_k].tolist(), s_new)
        else:  # two_stream
            i_k, j_k = next(draws_i), next(draws_j)
            proxy = proxy_fi(table, i_k, j_k, estep(i_k, theta, k), estep(j_k, theta, k, role="mc_j"))
            extra_draws += 1

        stt = inc_step(stt, proxy, rho)
        delta = gap_delta_s(stt, proxy)
        if rho == 1.0:
            assert delta == 0.0, "rho = 1 must pin stt to the proxy"
        s_hat = sa_step(s_hat, stt, config.gamma.eval(k))
        assert all(map(math.isfinite, s_hat + stt))
        s_proj = model.project(np.array(s_hat))
        theta = model.m_step(s_proj)
        s_hat = s_proj.tolist()

        r = k + 1
        traj.epochs[r] = extra_draws / n + float(refreshes)
        traj.thetas[r] = model.flatten_params(theta)
        traj.delta_s_sq[r] = delta
        traj.wall_ns[r] = time.perf_counter_ns()

    if config.randomized_termination and k_f > 0:
        weights = [config.gamma.eval(k) for k in range(k_f)]
        traj.terminal_iter = draw_termination(weights, named_stream(seed, "term"))
    else:
        traj.terminal_iter = max(k_f - 1, 0)
    return traj
