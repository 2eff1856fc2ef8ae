"""Output checks for the benchmark, written in plain numpy apart from ttsem.

Nothing here imports ttsem: the checks compare the program's outputs with
computations made from first principles (a log-sum-exp likelihood, a plain
EM loop, the documented stream-key layout) or with properties every valid
output must have.  Each check returns a list of problems, empty when the
output is right, so the caller can count an operation as failed and say why.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

# ttsem's default GMM regularizer: ridge delta on the means, Dirichlet
# concentration epsilon on the weights.
GMM_DELTA = 1e-3
GMM_EPSILON = 1e-3
LOG_2PI = math.log(2.0 * math.pi)

# Stream labels of ttsem.rng, as documented there: (seed, label, *indices)
# packed as little-endian uint64 and hashed by BLAKE2b-128 into a Philox key.
STREAM_LABELS = {"data": 1, "rep": 8}


# ---------------------------------------------------------------------------
# Independent computations
# ---------------------------------------------------------------------------


def stream_key(seed: int, label: str, *indices: int) -> int:
    parts = (seed, STREAM_LABELS[label]) + tuple(indices)
    packed = struct.pack(f"<{len(parts)}Q", *(int(p) & (2**64 - 1) for p in parts))
    return int.from_bytes(hashlib.blake2b(packed, digest_size=16).digest(), "little")


def philox_stream(seed: int, label: str, *indices: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=stream_key(seed, label, *indices)))


def simulate_gmm(n: int, weights, mu, rng: np.random.Generator) -> np.ndarray:
    """Labels by inverse CDF on one uniform each, then unit-variance normals."""
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf[-1] = 1.0
    labels = np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), len(cdf) - 1)
    return np.asarray(mu, dtype=np.float64)[labels] + rng.standard_normal(n)


def replicate_data(seed: int, r: int, n: int, weights, mu) -> np.ndarray:
    """Dataset of replicate r of a GMM replicate study with root seed ``seed``."""
    data_seed = stream_key(seed, "rep", r, 0) & (2**64 - 1)
    return simulate_gmm(n, weights, mu, philox_stream(data_seed, "data"))


def sha256_of_data(data: np.ndarray) -> str:
    return hashlib.sha256("\n".join(repr(float(y)) for y in data).encode()).hexdigest()


def gmm_default_start(data: np.ndarray, m: int):
    """Uniform weights and the 25%..75% quantiles as means."""
    return np.full(m, 1.0 / m), np.quantile(data, np.linspace(0.25, 0.75, m))


def gmm_nll(data: np.ndarray, weights, mu, delta: float = GMM_DELTA, epsilon: float = GMM_EPSILON) -> float:
    """Average negative log-likelihood of unit-variance mixture plus penalty."""
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    a = np.log(w) - 0.5 * (data[:, None] - mu) ** 2 - 0.5 * LOG_2PI
    top = a.max(axis=1)
    lse = top + np.log(np.exp(a - top[:, None]).sum(axis=1))
    return float(-lse.mean() + 0.5 * delta * np.sum(mu**2) - epsilon * np.sum(np.log(w)))


def gmm_em(data: np.ndarray, weights, mu, delta: float = GMM_DELTA, epsilon: float = GMM_EPSILON,
           tol: float = 1e-13, max_iter: int = 200_000):
    """Penalized EM to a fixed point; returns full weights and means.

    The M-step maximizes the expected complete-data log-likelihood minus the
    ridge (delta/2)|mu|^2 and the barrier -epsilon*sum(log w): each weight is
    (mean responsibility + epsilon) / (1 + M epsilon), each mean the
    responsibility-weighted data sum over (responsibility mass + delta n).
    """
    w = np.asarray(weights, dtype=np.float64).copy()
    mu = np.asarray(mu, dtype=np.float64).copy()
    m = len(mu)
    for _ in range(max_iter):
        a = np.log(w) - 0.5 * (data[:, None] - mu) ** 2
        a -= a.max(axis=1, keepdims=True)
        resp = np.exp(a)
        resp /= resp.sum(axis=1, keepdims=True)
        mass = resp.mean(axis=0)
        w_new = (mass + epsilon) / (1.0 + m * epsilon)
        mu_new = (resp * data[:, None]).mean(axis=0) / (mass + delta)
        step = max(np.max(np.abs(w_new - w)), np.max(np.abs(mu_new - mu)))
        w, mu = w_new, mu_new
        if step < tol:
            break
    return w, mu


def expected_esteps(variant: str, n: int, total_iters: int, epoch_len=None) -> int:
    """Per-sample E-steps a run makes: an initialization pass of n, then
    n per batch iteration, one per incremental iteration, two per fiTTEM
    iteration, and for vrTTEM a full pass per anchor refresh, whose own
    iteration reuses a freshly refreshed entry."""
    if variant in ("EM", "MCEM", "SAEM"):
        return n + total_iters * n
    if variant in ("iEM", "iSAEM"):
        return n + total_iters
    if variant == "fiTTEM":
        return n + 2 * total_iters
    if variant == "vrTTEM":
        refreshes = -(-total_iters // epoch_len)
        return n + refreshes * n + (total_iters - refreshes)
    raise ValueError(f"unknown variant {variant!r}")


def check_esteps(observed: int, expected: int) -> list[str]:
    """The E-steps a traced run counted must be the ones its configuration
    implies (``expected_esteps``)."""
    if observed != expected:
        return [f"{observed} E-steps, the configuration implies {expected}"]
    return []


def charged_epochs(variant: str, n: int, total_iters: int, epoch_len=None) -> float:
    """Epochs a run's configuration charges: one per batch iteration, 1/n per
    incremental iteration, and for vrTTEM one more per anchor refresh (whose
    own iteration is not charged again)."""
    if variant in ("EM", "MCEM", "SAEM"):
        return float(total_iters)
    if variant == "vrTTEM":
        refreshes = -(-total_iters // epoch_len)
        return (total_iters - refreshes) / n + refreshes
    return total_iters / n


# ---------------------------------------------------------------------------
# GMM checks
# ---------------------------------------------------------------------------


def check_gmm_thetas(thetas: np.ndarray, m: int) -> list[str]:
    """Rows of (M-1 free weights, M means): weights in the open simplex,
    means finite."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != 2 * m - 1:
        return [f"theta rows have shape {thetas.shape}, expected (R, {2 * m - 1})"]
    free = thetas[:, : m - 1]
    problems = []
    bad = ~(np.all(free > 0.0, axis=1) & (free.sum(axis=1) < 1.0))
    if bad.any():
        problems.append(f"{int(bad.sum())} rows have weights outside the open simplex (first row {int(np.argmax(bad))})")
    bad = ~np.all(np.isfinite(thetas[:, m - 1 :]), axis=1)
    if bad.any():
        problems.append(f"{int(bad.sum())} rows have non-finite means")
    return problems


def full_weights(free) -> np.ndarray:
    free = np.asarray(free, dtype=np.float64)
    return np.append(free, 1.0 - free.sum())


def check_nll_gap(nll_start: float, nll_end: float, nll_em: float, share: float = 0.5) -> list[str]:
    """The run's terminal NLL closes at least ``share`` of the gap between the
    start and an EM fit."""
    gap = nll_start - nll_em
    if not (gap > 0.0):
        return [f"EM fit NLL {nll_em!r} is not below the start NLL {nll_start!r}"]
    closed = (nll_start - nll_end) / gap
    if not (closed >= share):
        return [f"terminal NLL {nll_end!r} closes {closed:.3f} of the gap to EM ({nll_em!r}), below {share}"]
    return []


def check_trajectory_csv(text: str, data: np.ndarray, m: int, max_rows: int = 10_000,
                         nll_samples: int = 25, rtol: float = 1e-12) -> list[str]:
    """Trajectory CSV of a GMM run: header, row count, monotone epochs,
    valid parameters, and sampled nll cells against ``gmm_nll``."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["file does not end with a newline"]
    lines = lines[:-1]
    header = ["iter", "epoch"] + [f"omega{j + 1}" for j in range(m - 1)]
    header += [f"mu{j + 1}" for j in range(m)] + ["delta_s_sq", "nll"]
    if not lines or lines[0] != ",".join(header):
        return [f"header is {lines[0] if lines else ''!r}, expected {','.join(header)!r}"]
    rows = lines[1:]
    if not (1 <= len(rows) <= max_rows):
        return [f"{len(rows)} data rows, expected 1..{max_rows}"]
    try:
        table = np.array([[float(c) for c in row.split(",")] for row in rows])
    except ValueError as exc:
        return [f"unparsable cell: {exc}"]
    if table.ndim != 2 or table.shape[1] != len(header):
        return [f"rows do not all have {len(header)} cells"]
    problems = []
    if np.any(np.diff(table[:, 0]) <= 0):
        problems.append("iter is not strictly increasing")
    if np.any(np.diff(table[:, 1]) < 0):
        problems.append("epoch decreases")
    thetas = table[:, 2 : 2 + 2 * m - 1]
    problems += check_gmm_thetas(thetas, m)
    if problems:
        return problems
    picks = np.unique(np.linspace(0, len(rows) - 1, min(nll_samples, len(rows))).astype(int))
    for r in picks:
        want = gmm_nll(data, full_weights(thetas[r, : m - 1]), thetas[r, m - 1 :])
        got = table[r, -1]
        if not abs(got - want) <= rtol * abs(want):
            problems.append(f"row {r}: nll {got!r} differs from {want!r}")
            break
    return problems


def check_replicate_summary(summary: dict, algos: list[str], replicates: int, seed: int, n: int,
                            weights, mu, program_refs, independent_refs) -> list[str]:
    """Summary JSON of a GMM replicate study.

    ``program_refs`` are the reference means the program fitted for each
    replicate, ``independent_refs`` the ones ``gmm_em`` finds from the same
    start on the regenerated data.
    """
    problems = []
    if summary.get("replicates") != replicates or summary.get("n") != n or summary.get("seed") != seed:
        problems.append("replicates, n or seed do not match the command")
    final = summary.get("final", {})
    if sorted(final) != sorted(algos):
        return problems + [f"algorithms {sorted(final)} differ from {sorted(algos)}"]
    for algo, metrics in final.items():
        for metric, entry in metrics.items():
            per_rep = entry["per_replicate"]
            if len(per_rep) != replicates:
                problems.append(f"{algo}/{metric}: {len(per_rep)} per-replicate values")
            elif not math.isclose(entry["median"], float(np.median(per_rep)), rel_tol=1e-15, abs_tol=0.0):
                problems.append(f"{algo}/{metric}: median {entry['median']!r} is not the median of {per_rep}")
    for metric, table in summary.get("wins", {}).items():
        for a in algos:
            for b in algos:
                if a < b and table[a][b] + table[b][a] > replicates:
                    problems.append(f"wins[{metric}][{a}][{b}] + wins[{metric}][{b}][{a}] > {replicates}")
    hashes = summary.get("hashes", [])
    if [h["replicate"] for h in hashes] != list(range(replicates)):
        problems.append("hashes are not one per replicate in order")
    else:
        for r, entry in enumerate(hashes):
            data = replicate_data(seed, r, n, weights, mu)
            if entry["data"] != sha256_of_data(data):
                problems.append(f"replicate {r}: data hash does not match the regenerated data")
            w0, mu0 = gmm_default_start(data, len(mu))
            theta0 = np.ascontiguousarray(np.concatenate([w0[:-1], mu0]))
            if entry["theta0"] != hashlib.sha256(theta0.tobytes()).hexdigest():
                problems.append(f"replicate {r}: start hash does not match the regenerated start")
    if len(program_refs) != replicates:
        problems.append(f"{len(program_refs)} reference fits recorded, expected {replicates}")
    else:
        for r, (got, want) in enumerate(zip(program_refs, independent_refs)):
            if not np.allclose(got, want, rtol=0.0, atol=1e-7):
                problems.append(f"replicate {r}: reference means {list(got)} differ from EM {list(want)}")
    return problems


# ---------------------------------------------------------------------------
# PK checks
# ---------------------------------------------------------------------------


def check_pk_terminal(theta: np.ndarray, log_pop_start, log_pop_truth) -> list[str]:
    """Flat PK parameters (4 log fixed effects, 10 upper-triangle entries of
    omega2 row-major, sigma2): fixed effects nearer the truth than the start,
    omega2 positive semidefinite, sigma2 > 0."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (15,) or not np.all(np.isfinite(theta)):
        return [f"terminal parameters {theta!r} are not 15 finite values"]
    problems = []
    truth = np.asarray(log_pop_truth, dtype=np.float64)
    d_end = float(np.linalg.norm(theta[:4] - truth))
    d_start = float(np.linalg.norm(np.asarray(log_pop_start) - truth))
    if not d_end < d_start:
        problems.append(f"fixed effects are {d_end:.4f} from the truth, the start was {d_start:.4f}")
    omega2 = np.zeros((4, 4))
    omega2[np.triu_indices(4)] = theta[4:14]
    omega2 = omega2 + np.triu(omega2, 1).T
    if np.linalg.eigvalsh(omega2)[0] < -1e-12:
        problems.append("omega2 is not positive semidefinite")
    if not theta[14] > 0.0:
        problems.append(f"sigma2 = {theta[14]!r} is not positive")
    return problems


def check_same_run(thetas: np.ndarray, reference: np.ndarray) -> list[str]:
    """A run repeated with the same data, configuration and start must give
    the same trajectory bit for bit."""
    if thetas.shape != reference.shape:
        return [f"trajectory shape {thetas.shape} differs from {reference.shape}"]
    diff = thetas != reference
    if diff.any():
        rows = np.flatnonzero(diff.any(axis=1))
        gap = float(np.max(np.abs(thetas[-1] - reference[-1])))
        return [f"{len(rows)} of {len(thetas)} theta rows differ from the fresh-model run "
                f"(first row {int(rows[0])}, terminal max |diff| {gap:.3g})"]
    return []
