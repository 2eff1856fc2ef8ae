"""Two-timescale stochastic EM driver.

One run alternates, for K_f iterations:

  1. draw an index i_k (plus j_k for fiTTEM) uniformly with replacement,
  2. the E-step for the drawn index, exact or Monte Carlo, by ``mc_step``,
  3. a variant-specific proxy for the full-batch statistics,
  4. the fast-timescale Inc-step   stt <- stt + rho * (proxy - stt),
  5. the slow-timescale SA-step    s_hat <- s_hat + gamma_k * (stt - s_hat),
  6. the projection     s_hat <- model.project(s_hat)  onto the statistic set,
  7. the model M-step and a trajectory record, whose ``epoch`` is the count
     of per-sample E-steps after the initialization pass (fiTTEM's j-steps
     included), divided by n.

A run holds one ``PerSampleStatTable``, a whole pass's result, replaced by a
fresh pass every ``period`` iterations (the old one released first); the
fresh entry i_k stands in for that iteration's E-step.  Each proxy is the
table's ``replace`` (write an entry, SAGA-style) or ``control`` (read against
one, SVRG-style); kinds (``core.VARIANTS``) differ in period and operation:

  batch        EM / MCEM / SAEM: refreshed every iteration; control at i_k
  table        iEM / iSAEM: never refreshed; replace at i_k, read the mean
  anchor       vrTTEM: refreshed every epoch_len iterations; control at i_k
  two_stream   fiTTEM: never refreshed; control at i_k, then replace at j_k

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
which rounds the same; only the gap keeps np.dot's BLAS sum, taken over a
block of _GAP_BLOCK rows stt - proxy at a time.  The ModelSpec seam passes
plain floats too (E-step results, project / m_step input and flattened
parameters), so no iterate makes an array round trip; arrays hold only whole
passes' entries, the gap block and the trajectory, written row by row.

Randomness: index draws, posterior draws, and the termination draw live
on separate named streams of the run seed (so the Monte Carlo sample count
never perturbs the index sequence); each posterior role's E-steps draw
from one stream in visit order.  Batch variants draw index_i too, unused,
which moves no other stream.  Nothing else reads an index stream, so
indices are drawn ahead in blocks of at most _INDEX_CHUNK; a block reads the
stream exactly as single draws do.  MCMC chain states are part of the run's
iterate (as in MCMC-SAEM, Kuhn & Lavielle 2004): the engine keeps one chain
dict per role, starts each run with empty ones and hands them to the model
with that role's stream (a dict may also hold the model's draws taken ahead
from it), so ``run`` is a pure function of (model data, config, theta0).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    "epoch_refresh",
    "gap_delta_s",
    "draw_termination",
    "Trajectory",
    "run",
]


# ---------------------------------------------------------------------------
# Elementary steps
# ---------------------------------------------------------------------------


def sa_step(s: list, target: list, step: float) -> list:
    """The move of both timescales, s + step * (target - s): the SA-step
    s_hat + gamma_k * (stt - s_hat) and the Inc-step stt + rho * (proxy - stt).
    step = 1 returns target verbatim so full-replacement reductions hold
    exactly in floating point."""
    assert len(s) == len(target), "statistic length mismatch"
    return list(target) if step == 1.0 else [a + step * (b - a) for a, b in zip(s, target)]


@np.errstate(over="ignore")  # an overflowing row is inf, not warned about
def gap_delta_s(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of an (R, k) block of differences stt - proxy,
    as an (R,) array.  np.vecdot sums each row with the BLAS kernel np.vdot
    runs, so a row has np.vdot's bits, whose order and FMA a Python sum would
    not reproduce; a zero row gives +0.0."""
    return np.vecdot(rows, rows)


# ---------------------------------------------------------------------------
# Per-sample E-steps and the whole pass
# ---------------------------------------------------------------------------


def mc_step(model: ModelSpec, i: int, theta, n_samples: int, rng: Optional[np.random.Generator],
            chains: Optional[dict] = None, iteration: int = -1) -> list:
    """The E-step for sample i as plain floats; every E-step of a run, exact
    or Monte Carlo, single index or whole pass, is one call.  It is the
    model's ``exact_expectation`` when ``rng`` is None, else its ``mc_stat``
    of ``n_samples`` draws on ``rng`` and ``chains``, the caller's
    chain-state dict for this posterior stream (None starts any MCMC chain
    cold and keeps nothing).  Failures raise SamplingError carrying i and
    ``iteration`` (-1 is the initialization pass, or no run at all)."""
    if rng is None:
        s = model.exact_expectation(i, theta)
    else:
        if n_samples < 1:
            raise ValueError("n_samples must be positive")
        try:
            s = model.mc_stat(i, theta, n_samples, rng, chains)
        except (SamplingError, ConfigError):
            raise
        except Exception as exc:
            raise SamplingError(f"posterior sampling failed: {exc}", i, iteration) from exc
    if not all(map(math.isfinite, s)):
        raise SamplingError("non-finite statistic", i, iteration)
    return s


def epoch_refresh(model: ModelSpec, theta, n_samples: int, rng: np.random.Generator, iteration: int = -1,
                  chains: Optional[dict] = None) -> PerSampleStatTable:
    """The one whole pass: initialization, each batch iteration and each
    anchor refresh.  Recomputes every sample's statistic under the current
    parameters, in index order on ``rng`` (exact when it is None), and
    returns them as a table: the (n, k) entries and their batch mean."""
    entries = np.empty((model.n, model.stat_dim()))
    for i in range(model.n):
        entries[i] = mc_step(model, i, theta, n_samples, rng, chains, iteration)
    return PerSampleStatTable(entries)


_INDEX_CHUNK = 1024
_GAP_BLOCK = 256  # timescale-gap rows collected before one gap_delta_s sum


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
    return int(categorical_sample(g / total, rng, 1)[0])


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------

_MAX_ROWS = 10_000  # records a trajectory CSV keeps at most


@dataclass
class Trajectory:
    """Per-iteration record of a run plus the terminal parameter choice.

    ``thetas`` has one row per record (initial state plus one per
    iteration).  ``epochs`` counts per-sample E-steps after the initialization
    pass, divided by n.  ``delta_s_sq`` is the squared timescale gap
    ||stt - proxy||^2 of that iteration, identically zero whenever rho = 1.
    Wall-clock stamps are diagnostics only and never serialized.

    ``terminal_iter`` is the reported record.  Randomized termination draws
    it from 0..K_f-1 with P(k) proportional to gamma_k; the deterministic
    choice is K_f-1, the last index of that support.  Either way the
    parameters after the final update, ``thetas[K_f]``, are recorded but
    not reported (a run of zero iterations reports ``thetas[0]``).
    """

    epochs: np.ndarray         # (R,) per-sample E-steps after initialization / n
    thetas: np.ndarray         # (R, p) flattened parameters
    delta_s_sq: np.ndarray     # (R,)
    wall_ns: np.ndarray        # (R,) int64
    param_names: list[str]
    terminal_iter: int

    @property
    def n_records(self) -> int:
        return len(self.epochs)

    @property
    def terminal_theta(self) -> np.ndarray:
        return self.thetas[self.terminal_iter]

    def select_rows(self) -> np.ndarray:
        """Deterministic subset of at most ``_MAX_ROWS`` records, the first
        and last among them.

        Longer trajectories are stride-thinned, keeping every record where
        the integer epoch advances.  If that exceeds the cap, the stride
        widens to leave room for those boundaries, and when the boundaries
        alone exceed it they are thinned evenly too.
        """
        r = self.n_records
        if r <= _MAX_ROWS:
            return np.arange(r)
        marks = np.zeros(r, dtype=bool)
        marks[[0, -1]] = True
        boundary = np.floor(self.epochs).astype(np.int64)
        marks[1:] |= boundary[1:] != boundary[:-1]
        if (budget := _MAX_ROWS - int(marks.sum())) <= 0:
            idx = np.flatnonzero(marks)
            return idx[np.arange(_MAX_ROWS) * (len(idx) - 1) // (_MAX_ROWS - 1)]
        keep = marks.copy()
        keep[:: math.ceil(r / _MAX_ROWS)] = True
        if keep.sum() > _MAX_ROWS:
            # stride rows number at most the budget, so the union fits the cap
            keep = marks.copy()
            keep[:: math.ceil(r / budget)] = True
        return np.flatnonzero(keep)

    def write_csv(self, fh, nll: Callable[[np.ndarray], float] | Sequence[float] | None = None) -> None:
        """Write records as CSV: iter, epoch, parameters, delta_s_sq[, nll].

        ``nll`` is a callable giving the NLL of a flattened parameter row,
        or the NLL of each ``select_rows()`` record, in order.  Floats are
        printed as shortest round-trip decimals, lines are LF-terminated,
        and the row subset is deterministic, so identical trajectories
        serialize to identical bytes.
        """
        rows = self.select_rows()
        if callable(nll):
            nll = [nll(self.thetas[r]) for r in rows]
        elif nll is not None and len(nll) != len(rows):
            raise ValueError(f"{len(nll)} nll values for {len(rows)} rows")
        header = ["iter", "epoch"] + self.param_names + ["delta_s_sq"]
        if nll is not None:
            header.append("nll")
        fh.write(",".join(header) + "\n")
        for i, r in enumerate(rows):
            cells = [str(int(r)), repr(float(self.epochs[r]))]
            cells += [repr(float(v)) for v in self.thetas[r]]
            cells.append(repr(float(self.delta_s_sq[r])))
            if nll is not None:
                cells.append(repr(float(nll[i])))
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
    theta0 = model.default_init() if theta0 is None else theta0

    seed, rho, k_f = config.seed, config.rho, config.total_iters
    period = 1 if kind == "batch" else config.epoch_len

    draws_i = _index_draws(named_stream(seed, "index_i"), n, k_f)
    draws_j = _index_draws(named_stream(seed, "index_j"), n, k_f) if kind == "two_stream" else None
    # Posterior-stream roles: "mc" serves the initialization pass, the
    # i-stream and every later whole pass; fiTTEM's j-draws get their own,
    # "mc_j", so that i_k = j_k still yields independent draws.  Each role
    # has one stream, drawn in visit order, and its own fresh MCMC chain states.
    rng, chain = None if spec.exact else named_stream(seed, "mc"), {}
    if kind == "two_stream":
        rng_j, chain_j = None if spec.exact else named_stream(seed, "mc_j"), {}
    mc = config.mc_samples

    # whole passes after initialization and single-index E-steps, counted where made
    singles = passes = 0

    # Initialization pass under theta0; batch and anchor replace its table at k = 0.
    table = epoch_refresh(model, theta0, mc, rng, -1, chain)
    stt = table.mean
    s_hat = model.project(stt)
    theta = model.m_step(s_hat)

    records, names = k_f + 1, model.param_names()
    traj = Trajectory(epochs=np.zeros(records), thetas=np.empty((records, len(names))),
                      delta_s_sq=np.zeros(records), wall_ns=np.zeros(records, dtype=np.int64),
                      param_names=names, terminal_iter=0)
    epochs, thetas, gaps, wall_ns = traj.epochs, traj.thetas, traj.delta_s_sq, traj.wall_ns
    gamma = config.gamma.eval
    thetas[0] = model.flatten_params(theta)
    wall_ns[0] = time.perf_counter_ns()
    # rows stt - proxy, summed when the block fills or the run ends; none for rho = 1
    gap_rows = None if rho == 1.0 else np.empty((_GAP_BLOCK, model.stat_dim()))

    for k in range(k_f):
        i_k = next(draws_i)
        if period and k % period == 0:
            del table  # released first, so the pass's array is the only (n, k) one
            table = epoch_refresh(model, theta, mc, rng, k, chain)
            passes += 1
            s_new = table.entries[i_k].tolist()  # refreshed this very iteration
        else:
            singles += 1
            s_new = mc_step(model, i_k, theta, mc, rng, chain, k)
        if kind == "table":  # iEM / iSAEM: write entry i_k, read the mean
            table.replace(i_k, s_new)
            proxy = table.mean
        else:  # batch / vrTTEM / fiTTEM: read against entry i_k
            proxy = table.control(i_k, s_new)
            if kind == "two_stream":  # fiTTEM's j-stream then writes
                singles += 1
                table.replace(j := next(draws_j), mc_step(model, j, theta, mc, rng_j, chain_j, k))

        stt = sa_step(stt, proxy, rho)
        if gap_rows is None:
            assert stt == proxy, "rho = 1 must pin stt to the proxy"
        else:
            gap_rows[row := k % _GAP_BLOCK] = [a - b for a, b in zip(stt, proxy)]
            if row == _GAP_BLOCK - 1 or k == k_f - 1:  # iterations k - row .. k are records k - row + 1 .. k + 1
                gaps[k - row + 1 : k + 2] = gap_delta_s(gap_rows[: row + 1])
        s_hat = sa_step(s_hat, stt, gamma(k))
        assert all(map(math.isfinite, s_hat + stt))
        s_hat = model.project(s_hat)
        theta = model.m_step(s_hat)

        r = k + 1
        epochs[r] = singles / n + float(passes)
        thetas[r] = model.flatten_params(theta)
        wall_ns[r] = time.perf_counter_ns()

    if config.randomized_termination and k_f > 0:
        traj.terminal_iter = draw_termination([gamma(k) for k in range(k_f)], named_stream(seed, "term"))
    else:
        traj.terminal_iter = max(k_f - 1, 0)
    return traj
