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

  batch        EM / MCEM / SAEM: full pass per iteration (exact for EM)
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

Randomness: index draws, per-sample posterior draws, and the termination
draw all live on separate named streams of the run seed, so e.g. the
Monte Carlo sample count never perturbs the index sequence.  MCMC chain
states are part of the run's iterate (as in MCMC-SAEM, Kuhn & Lavielle
2004): the engine keeps one chain dict per posterior-stream role, starts
each run with empty ones and hands them to the model, so ``run`` is a pure
function of (model data, config, theta0).
"""

from __future__ import annotations

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
    "EngineState",
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


def sa_step(s_hat: np.ndarray, stt: np.ndarray, gamma: float) -> np.ndarray:
    """Slow-timescale update s_hat + gamma * (stt - s_hat).

    gamma = 1 returns stt verbatim so full-replacement reductions hold
    exactly in floating point.
    """
    assert s_hat.shape == stt.shape, "statistic length mismatch"
    if gamma == 1.0:
        return stt.copy()
    return s_hat + gamma * (stt - s_hat)


def inc_step(stt: np.ndarray, proxy: np.ndarray, rho: float) -> np.ndarray:
    """Fast-timescale update stt + rho * (proxy - stt); rho = 1 returns proxy."""
    assert stt.shape == proxy.shape, "statistic length mismatch"
    if rho == 1.0:
        return proxy.copy()
    return stt + rho * (proxy - stt)


def gap_delta_s(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two statistic vectors."""
    d = a - b
    return float(np.dot(d, d))


# ---------------------------------------------------------------------------
# Proxies for the Inc-step
# ---------------------------------------------------------------------------


def proxy_isaem(table: PerSampleStatTable, i_k: int, s_new: np.ndarray, iteration: int = 0) -> np.ndarray:
    """Replace-one running-mean proxy (SAGA-style).

    Returns the table mean after entry i_k is replaced by ``s_new`` and
    commits the replacement.
    """
    assert 0 <= i_k < table.n
    out = table.mean + (s_new - table.entries[i_k]) / table.n
    table.replace(i_k, s_new, iteration)
    return out


def proxy_vr(anchor_stt: np.ndarray, anchor_entry_i: np.ndarray, s_new: np.ndarray) -> np.ndarray:
    """Epoch-anchored control-variate proxy (SVRG-style)."""
    assert anchor_stt is not None, "epoch anchor missing; refresh before use"
    return anchor_stt + (s_new - anchor_entry_i)


def proxy_fi(
    table: PerSampleStatTable,
    i_k: int,
    j_k: int,
    s_new_i: np.ndarray,
    s_new_j: np.ndarray,
    iteration: int = 0,
) -> np.ndarray:
    """Two-stream proxy: the i-stream reads the table, the j-stream writes it.

    Returns mean + (s_new_i - entries[i_k]) using the pre-update state, then
    folds the j-replacement into the table.  Entry i_k itself is never
    touched by the i-stream.
    """
    assert 0 <= i_k < table.n and 0 <= j_k < table.n
    out = table.mean + (s_new_i - table.entries[i_k])
    table.replace(j_k, s_new_j, iteration)
    return out


# ---------------------------------------------------------------------------
# Per-sample E-steps and full passes
# ---------------------------------------------------------------------------


def _estep(model: ModelSpec, i: int, theta, n_samples: int, rngs, chains, iteration: int) -> np.ndarray:
    """One E-step for sample i, exact when ``rngs`` is None, else Monte Carlo
    on ``rngs[i]`` and ``chains``; failures raise SamplingError carrying i and
    the iteration (-1 is the initialization pass)."""
    if rngs is None:
        s = model.exact_expectation(i, theta)
    else:
        try:
            s = mc_step(model, i, theta, n_samples, rngs[i], chains)
        except (SamplingError, ConfigError):
            raise
        except Exception as exc:
            raise SamplingError(f"posterior sampling failed: {exc}", i, iteration) from exc
    if not np.all(np.isfinite(s)):
        raise SamplingError("non-finite statistic", i, iteration)
    return s


def _full_pass(model: ModelSpec, theta, n_samples: int, rngs, chains, iteration: int) -> np.ndarray:
    """E-step rows for every sample, in index order."""
    rows = np.empty((model.n, model.stat_dim()))
    for i in range(model.n):
        rows[i] = _estep(model, i, theta, n_samples, rngs, chains, iteration)
    return rows


def epoch_refresh(
    model: ModelSpec,
    theta,
    n_samples: int,
    rngs: list,
    iteration: int = 0,
    chains: Optional[dict] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-pass anchor refresh at an epoch start.

    Recomputes every sample's Monte Carlo statistic under the current
    parameters on the per-sample posterior streams and returns the anchor
    pair (batch mean of the fresh entries, the entries themselves).  With
    rho = 1 the subsequent Inc-step pins stt to that anchor exactly, which
    collapses the epoch-length-1 case onto the full-batch algorithm.
    """
    entries = _full_pass(model, theta, n_samples, rngs, chains, iteration)
    return entries.mean(axis=0), entries


# ---------------------------------------------------------------------------
# Randomized termination
# ---------------------------------------------------------------------------


def draw_termination(gammas, rng: np.random.Generator) -> int:
    """Draw the reported iteration K with P(K = k) proportional to gamma_k."""
    g = np.asarray(gammas, dtype=np.float64)
    if g.size == 0:
        raise ValueError("need at least one stepsize to draw a termination index")
    if np.any(g <= 0.0):
        raise ValueError("termination weights must be strictly positive")
    cdf = np.cumsum(g / g.sum())
    cdf[-1] = 1.0
    return int(np.searchsorted(cdf, rng.random(), side="right"))


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
    variant: str

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

    def write_csv(self, fh, nll: Optional[Callable[[np.ndarray], Optional[float]]] = None,
                  max_rows: int = 10_000) -> None:
        """Write records as CSV: iter, epoch, parameters, delta_s_sq[, nll].

        Floats are printed as shortest round-trip decimals, lines are
        LF-terminated, and the row subset is deterministic, so identical
        trajectories serialize to identical bytes.
        """
        rows = self.select_rows(max_rows)
        header = ["iter", "epoch"] + self.param_names + ["delta_s_sq"]
        nll_vals = None
        if nll is not None:
            nll_vals = [nll(self.thetas[r]) for r in rows]
            if any(v is None for v in nll_vals):
                nll_vals = None
        if nll_vals is not None:
            header.append("nll")
        fh.write(",".join(header) + "\n")
        for pos, r in enumerate(rows):
            cells = [str(int(self.iters[r])), repr(float(self.epochs[r]))]
            cells += [repr(float(v)) for v in self.thetas[r]]
            cells.append(repr(float(self.delta_s_sq[r])))
            if nll_vals is not None:
                cells.append(repr(float(nll_vals[pos])))
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


@dataclass
class EngineState:
    """Mutable state of one run, exposed to per-iteration trace hooks."""

    theta: object
    s_hat: np.ndarray
    stt: np.ndarray
    table: Optional[PerSampleStatTable]
    anchor_stt: Optional[np.ndarray]
    anchor_entries: Optional[np.ndarray]
    k: int = 0


def run(
    model: ModelSpec,
    config: RunConfig,
    theta0=None,
    trace: Optional[Callable[[int, EngineState], None]] = None,
) -> Trajectory:
    """Execute one configured run and return its trajectory.

    Initialization computes per-sample statistics under ``theta0`` (the
    model's default start when omitted), sets both timescale iterates to
    their mean (s_hat projected), and applies the M-step, so the first
    record already holds an M-step image.  ``trace``, when given, is called
    after every iteration with the live state; it must not mutate it.
    """
    n = model.n
    if n == 0:
        raise ConfigError("model has no data")
    variant = config.variant
    kind = VARIANTS[variant].proxy
    exact = VARIANTS[variant].exact
    if theta0 is None:
        default = getattr(model, "default_init", None)
        if default is None:
            raise ConfigError("no theta0 given and the model has no default_init()")
        theta0 = default()
    if exact and model.exact_expectation(0, theta0) is None:
        raise ConfigError(f"{variant} needs a model with an exact E-step")

    seed = config.seed
    rho = config.rho
    m_epoch = config.epoch_len
    k_f = config.total_iters

    idx_rng = named_stream(seed, "index_i")
    jdx_rng = named_stream(seed, "index_j") if kind == "two_stream" else None
    # Posterior-stream roles: "mc" serves the initialization pass, the
    # i-stream, batch passes and anchor refreshes; fiTTEM's j-draws get their
    # own so that i_k = j_k still yields independent draws.  Each role has
    # one persistent stream per sample and its own fresh MCMC chain states.
    roles = ("mc", "mc_j") if kind == "two_stream" else ("mc",)
    rngs = {r: None if exact else [named_stream(seed, r, i) for i in range(n)] for r in roles}
    chains = {r: {} for r in roles}
    mc = config.mc_samples

    def estep(i: int, theta, iteration: int, role: str = "mc") -> np.ndarray:
        return _estep(model, i, theta, mc, rngs[role], chains[role], iteration)

    # Initialization pass: per-sample statistics under theta0.
    init_rows = _full_pass(model, theta0, mc, rngs["mc"], chains["mc"], -1)

    table = PerSampleStatTable(init_rows) if kind in ("table", "two_stream") else None
    stt = init_rows.mean(axis=0)
    s_hat = model.project(stt.copy())
    theta = model.m_step(s_hat)

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
        variant=variant,
    )
    traj.thetas[0] = model.flatten_params(theta)
    traj.wall_ns[0] = time.perf_counter_ns()

    # Cost in epochs: one per iteration for batch variants, else one per n
    # charged draws plus one per anchor refresh.  The initialization pass is
    # not charged, a refresh iteration reuses its freshly drawn entry, and
    # fiTTEM's j-draw rides along with its iteration.
    refreshes = 0
    extra_draws = 0
    state = EngineState(theta, s_hat, stt, table, anchor_stt, anchor_entries)

    for k in range(k_f):
        if kind == "batch":
            proxy = _full_pass(model, theta, mc, rngs["mc"], chains["mc"], k).mean(axis=0)
        elif kind == "table":
            i_k = int(idx_rng.integers(n))
            s_new = estep(i_k, theta, k)
            proxy = proxy_isaem(table, i_k, s_new, iteration=k)
            extra_draws += 1
        elif kind == "anchor":
            i_k = int(idx_rng.integers(n))
            if k % m_epoch == 0:
                anchor_stt, anchor_entries = epoch_refresh(
                    model, theta, mc, rngs["mc"], iteration=k, chains=chains["mc"]
                )
                refreshes += 1
                s_new = anchor_entries[i_k]  # refreshed this very iteration
            else:
                s_new = estep(i_k, theta, k)
                extra_draws += 1
            proxy = proxy_vr(anchor_stt, anchor_entries[i_k], s_new)
        else:  # two_stream
            i_k = int(idx_rng.integers(n))
            j_k = int(jdx_rng.integers(n))
            s_new_i = estep(i_k, theta, k)
            s_new_j = estep(j_k, theta, k, role="mc_j")
            proxy = proxy_fi(table, i_k, j_k, s_new_i, s_new_j, iteration=k)
            extra_draws += 1

        stt = inc_step(stt, proxy, rho)
        delta = gap_delta_s(stt, proxy)
        if rho == 1.0:
            assert delta == 0.0, "rho = 1 must pin stt to the proxy"
        s_hat = sa_step(s_hat, stt, config.gamma.eval(k))
        assert np.all(np.isfinite(s_hat)) and np.all(np.isfinite(stt))
        s_hat = model.project(s_hat)
        theta = model.m_step(s_hat)

        r = k + 1
        traj.epochs[r] = float(r) if kind == "batch" else extra_draws / n + float(refreshes)
        traj.thetas[r] = model.flatten_params(theta)
        traj.delta_s_sq[r] = delta
        traj.wall_ns[r] = time.perf_counter_ns()

        if trace is not None:
            state.theta, state.s_hat, state.stt = theta, s_hat, stt
            state.table, state.anchor_stt, state.anchor_entries = table, anchor_stt, anchor_entries
            state.k = k
            trace(k, state)

    if config.randomized_termination and k_f > 0:
        weights = [config.gamma.eval(k) for k in range(k_f)]
        traj.terminal_iter = draw_termination(weights, named_stream(seed, "term"))
    else:
        traj.terminal_iter = max(k_f - 1, 0)
    return traj
