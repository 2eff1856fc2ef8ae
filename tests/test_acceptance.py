"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 7 and 8, the experiment-scale replicate studies
of the paper's headline comparison, are not implemented yet; the numbering
keeps their slots.
"""

import io
import time

import numpy as np

from ttsem import bench, gmm, pk
from ttsem.core import RunConfig, StepSchedule
from ttsem.engine import mc_step, run
from ttsem.gmm import GmmModel, GmmParams
from ttsem.rng import named_stream
from ttsem.samplers import MhConfig, mh_chain

GAMMA_HALF = StepSchedule(a=0.5)


def _report(num: int, name: str, start: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - start
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:02d}] {name}: {status} ({elapsed:.1f}s)"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


def _csv(traj, model):
    buf = io.StringIO()
    traj.write_csv(buf, nll=lambda v: model.penalized_nll(model.unflatten_params(v)))
    return buf.getvalue()


def _gmm_run_bytes(data, **kwargs):
    model = GmmModel(data)
    traj = run(model, RunConfig(**kwargs), theta0=model.default_init())
    return _csv(traj, model)


class TestCriterion1Reductions:
    def test_reduction_identities_bit_exact(self):
        start = time.perf_counter()
        data = gmm.simulate(100, bench.MODELS["gmm"].truth(), named_stream(1, "data"))
        iters, seed = 60, 4242

        saem = _gmm_run_bytes(data, variant="SAEM", total_iters=iters, seed=seed,
                              gamma=GAMMA_HALF, mc_samples=10)
        vr = _gmm_run_bytes(data, variant="vrTTEM", total_iters=iters, seed=seed,
                            gamma=GAMMA_HALF, rho=1.0, epoch_len=1, mc_samples=10)
        a = saem == vr

        saem1 = _gmm_run_bytes(data, variant="SAEM", total_iters=iters, seed=seed,
                               gamma=StepSchedule(c=1.0), mc_samples=10)
        mcem = _gmm_run_bytes(data, variant="MCEM", total_iters=iters, seed=seed, mc_samples=10)
        b = saem1 == mcem

        model = GmmModel(data)
        theta0 = model.default_init()
        traj = run(model, RunConfig(variant="EM", total_iters=iters, seed=seed), theta0=theta0)
        engine_bytes = _csv(traj, model)
        # independently coded classic batch EM, serialized the same way
        theta = theta0
        thetas = []
        for _ in range(iters + 1):
            rows = np.stack([model.exact_expectation(i, theta) for i in range(model.n)])
            theta = model.m_step(rows.mean(axis=0).tolist())
            thetas.append(model.flatten_params(theta))
        oracle = traj  # reuse the record/epoch skeleton, replace the content
        oracle.thetas = np.stack(thetas)
        oracle.delta_s_sq = np.zeros(iters + 1)
        c = _csv(oracle, model) == engine_bytes

        _report(1, "reduction identities (vr=SAEM, SAEM=MCEM, engine EM=batch EM)",
                start, a and b and c, f"a={a} b={b} c={c}")


class TestCriterion2DeltaS:
    def test_delta_s_annihilation(self):
        start = time.perf_counter()
        data = gmm.simulate(50, bench.MODELS["gmm"].truth(), named_stream(2, "data"))

        def deltas(**kwargs):
            model = GmmModel(data)
            return run(model, RunConfig(**kwargs), theta0=model.default_init()).delta_s_sq

        rho_one = [
            dict(variant="EM", total_iters=6, seed=7),
            dict(variant="iEM", total_iters=60, seed=7),
            dict(variant="MCEM", total_iters=6, seed=7, mc_samples=5),
            dict(variant="SAEM", total_iters=6, seed=7, gamma=GAMMA_HALF, mc_samples=5),
            dict(variant="iSAEM", total_iters=60, seed=7, gamma=GAMMA_HALF, mc_samples=5),
            dict(variant="vrTTEM", total_iters=60, seed=7, gamma=GAMMA_HALF, rho=1.0,
                 epoch_len=10, mc_samples=5),
        ]
        all_zero = all(np.all(deltas(**kw) == 0.0) for kw in rho_one)
        fi = deltas(variant="fiTTEM", total_iters=60, seed=7, gamma=GAMMA_HALF,
                    rho=50.0 ** (-2 / 3), mc_samples=5)
        some_nonzero = bool(np.any(fi > 0.0))
        _report(2, "timescale gap zero iff rho=1", start, all_zero and some_nonzero,
                f"rho1_all_zero={all_zero} fiTTEM_nonzero={some_nonzero}")


class TestCriterion3RunningMean:
    def test_isaem_running_mean_equivalence(self, recording_gmm):
        start = time.perf_counter()
        n = 100
        data = gmm.simulate(n, bench.MODELS["gmm"].truth(), named_stream(3, "data"))
        model = recording_gmm(data)
        cfg = RunConfig(variant="iSAEM", total_iters=10 * n, seed=11,
                        gamma=GAMMA_HALF, mc_samples=10)
        run(model, cfg, theta0=model.default_init())
        worst = model.isaem_worst_rel(cfg.gamma, cfg.total_iters)
        _report(3, "iSAEM running-mean equivalence (1e-10 rel)", start, worst <= 1e-10,
                f"worst_rel={worst:.2e}")


class TestCriterion4McUnbiasedness:
    def test_mc_step_matches_exact_expectation(self):
        start = time.perf_counter()
        rng = named_stream(4, "data")
        data = rng.standard_normal(20) * 1.5
        model = GmmModel(data)
        theta = GmmParams(omega=[0.4], mu=[0.7, -0.6])
        m = 100_000

        total = passed = 0
        for i in range(20):
            s = np.array(mc_step(model, i, theta, m, named_stream(4, "mc", i)))
            exact = np.array(model.exact_expectation(i, theta))
            p = exact[0]
            se_ind = np.sqrt(p * (1 - p) / m)
            ses = np.array([se_ind, se_ind * abs(data[i]), 0.0])
            ok = np.abs(s - exact) <= 4 * ses + 1e-12
            passed += int(ok.sum())
            total += len(ok)
        frac = passed / total
        _report(4, "MC E-step unbiased vs closed form (>=95% coords in 4 SE)",
                start, frac >= 0.95, f"coord_pass={passed}/{total}")


class TestCriterion5EmMonotonicity:
    def test_penalized_nll_never_increases(self):
        start = time.perf_counter()
        data = gmm.simulate(10_000, bench.MODELS["gmm"].truth(), named_stream(5, "data"))
        model = GmmModel(data)
        traj = run(model, RunConfig(variant="EM", total_iters=200, seed=0),
                   theta0=model.default_init())
        nll = np.array(
            [model.penalized_nll(model.unflatten_params(t)) for t in traj.thetas]
        )
        ok = bool(np.all(nll[1:] <= nll[:-1] + 1e-10 * np.abs(nll[:-1])))
        _report(5, "batch EM penalized-NLL non-increasing (200 iters, n=1e4)",
                start, ok, f"max_rise={np.max(nll[1:] - nll[:-1]):.2e}")


class TestCriterion6MhCorrectness:
    def test_discrete_target_and_gaussian_moments(self):
        start = time.perf_counter()
        masses = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        target = masses / masses.sum()  # brute-force enumeration oracle

        def log_target(z):
            j = int(round(z[0]))
            if 0 <= j < 5:
                return float(np.log(masses[j]))
            return -np.inf

        steps = 1_000_000
        config = MhConfig(chain_len=steps, proposal_scales=np.array([1.8]),
                          init=np.array([2.0]))
        _, kept = mh_chain(log_target, config, named_stream(6, "test"), collect=True)
        occupancy = np.bincount(np.round(kept[:, 0]).astype(int), minlength=5) / steps
        tv = 0.5 * np.sum(np.abs(occupancy - target))

        config_n = MhConfig(chain_len=steps + 10_000, proposal_scales=np.array([2.4]),
                            init=np.array([0.0]))
        _, kept_n = mh_chain(lambda z: float(-0.5 * z[0] * z[0]), config_n,
                             named_stream(7, "test"), collect=True)
        kept_n = kept_n[10_000:]  # burn-in
        mean = float(kept_n.mean())
        var = float(kept_n.var())
        ok = tv <= 0.01 and abs(mean) <= 0.02 and abs(var - 1.0) <= 0.05
        _report(6, "MH occupancy TV<=0.01 and N(0,1) moments", start, ok,
                f"tv={tv:.4f} mean={mean:+.4f} var={var:.4f}")


class TestCriterion9PkMStep:
    def test_moment_m_step_matches_two_pass_oracle(self):
        start = time.perf_counter()
        rng = named_stream(9, "test")
        zs = rng.standard_normal((1000, 4)) * np.array([0.4, 0.5, 0.2, 0.3]) + np.log(
            [1.0, 1.0, 8.0, 0.1]
        )
        s1 = zs.mean(axis=0)
        s2 = pk.pack_sym(np.einsum("ni,nj->ij", zs, zs) / len(zs))
        theta = pk.m_step(np.concatenate([s1, s2, [0.5]]), diagonal=False)

        mean_oracle = zs.mean(axis=0)
        centered = zs - mean_oracle
        cov_oracle = centered.T @ centered / len(zs)
        mean_ok = np.allclose(theta.log_pop, mean_oracle, rtol=1e-12, atol=1e-12)
        cov_ok = np.allclose(theta.omega2, cov_oracle, rtol=0, atol=1e-12)
        # The floor must not fire on this well-conditioned covariance: the
        # output is then bit-equal to the unfloored one-pass moment matrix
        # (a floored one is rebuilt through eigh).  Bit-equality with the
        # two-pass oracle itself is out of reach for any M-step that only
        # sees (s1, s2); cov_ok bounds that gap.
        moment_cov = pk.unpack_sym(s2) - np.outer(s1, s1)
        floor_untouched = np.linalg.eigvalsh(cov_oracle)[0] > pk.OMEGA_EIG_FLOOR and np.array_equal(
            theta.omega2, moment_cov
        )
        ok = mean_ok and cov_ok and floor_untouched
        _report(9, "PK moment M-step exact vs two-pass oracle (1e-12)", start, ok,
                f"mean_ok={mean_ok} cov_ok={cov_ok} floor_untouched={floor_untouched}")


class TestCriterion10BranchContinuity:
    def test_structural_branches_agree_near_switch(self):
        start = time.perf_counter()
        rng = named_stream(10, "test")
        n_pairs = 10_000
        ks = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n_pairs))
        dts = np.exp(rng.uniform(np.log(1e-2), np.log(50.0), n_pairs))
        signs = np.where(rng.random(n_pairs) < 0.5, 1.0, -1.0)
        worst = 0.0
        for k, dt, sign in zip(ks, dts, signs):
            ka = k * (1.0 + sign * 1e-9)
            general = pk._conc_general([float(dt)], 0.0, ka, 8.0, k, 100.0)[0]
            limit = pk._conc_limit([float(dt)], 0.0, ka, 8.0, k, 100.0)[0]
            if limit > 0.0:
                worst = max(worst, abs(general - limit) / limit)
        _report(10, "PK washout branch continuity (1e-6 rel, 1e4 pairs)",
                start, worst <= 1e-6, f"worst_rel={worst:.2e}")
