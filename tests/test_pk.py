import numpy as np
import pytest

from ttsem import pk
from ttsem.core import RunConfig, StepSchedule
from ttsem.engine import run
from ttsem.pk import PkIndividual, PkModel, PkParams
from ttsem.rng import named_stream
from ttsem.samplers import logsumexp


class TestParams:
    def test_diagonal_shorthand(self):
        p = PkParams(log_pop=np.zeros(4), omega2=np.array([1.0, 2.0, 3.0, 4.0]), sigma2=1.0)
        np.testing.assert_array_equal(p.omega2, np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            PkParams(log_pop=np.zeros(3), omega2=np.eye(4), sigma2=1.0)
        asym = np.eye(4)
        asym[0, 1] = 0.5
        with pytest.raises(ValueError):
            PkParams(log_pop=np.zeros(4), omega2=asym, sigma2=1.0)
        with pytest.raises(ValueError):
            PkParams(log_pop=np.zeros(4), omega2=-np.eye(4), sigma2=1.0)
        with pytest.raises(ValueError):
            PkParams(log_pop=np.zeros(4), omega2=np.eye(4), sigma2=-0.5)

    def test_natural_scale_pop(self):
        p = pk.paper_truth()
        np.testing.assert_allclose(p.pop, [1.0, 1.0, 8.0, 0.1])


class TestIndividual:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            PkIndividual(dose=1.0, times=[1.0, 1.0], obs=[0.0, 0.0])
        with pytest.raises(ValueError):
            PkIndividual(dose=1.0, times=[2.0, 1.0], obs=[0.0, 0.0])

    def test_needs_observations(self):
        with pytest.raises(ValueError):
            PkIndividual(dose=1.0, times=[], obs=[])
        with pytest.raises(ValueError):
            PkIndividual(dose=0.0, times=[1.0], obs=[0.0])


class TestStructural:
    def test_zero_at_and_before_lag(self):
        z = np.array([2.0, 1.0, 8.0, 0.1])
        assert pk.structural(2.0, z, 100.0) == 0.0
        assert pk.structural(0.5, z, 100.0) == 0.0

    def test_hand_value(self):
        # (1 / (8 * 0.9)) * (e^-0.1 - e^-1) at one hour past the lag
        z = np.array([0.5, 1.0, 8.0, 0.1])
        expected = (np.exp(-0.1) - np.exp(-1.0)) / 7.2
        assert abs(pk.structural(1.5, z, 1.0) - expected) < 1e-15
        assert abs(expected - 0.0745775) < 1e-6

    def test_equal_rates_limit(self):
        # ka -> k limit: D ka dt e^{-k dt} / V
        z = np.array([0.5, 0.1, 8.0, 0.1])
        expected = 0.1 * np.exp(-0.1) / 8.0
        assert abs(pk.structural(1.5, z, 1.0) - expected) < 1e-15
        assert abs(expected - 0.0113105) < 1e-6
        # the general branch just outside the switch agrees
        near = pk.structural(1.5, np.array([0.5, 0.1 + 1e-12, 8.0, 0.1]), 1.0)
        assert abs(near - expected) <= 1e-6 * expected

    def test_branch_continuity_on_grid(self):
        rng = named_stream(40, "test")
        ks = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), 400))
        dts = np.exp(rng.uniform(np.log(1e-2), np.log(50.0), 400))
        for k, dt in zip(ks, dts):
            for sign in (+1.0, -1.0):
                ka = k * (1.0 + sign * 1e-9)
                general = pk._conc_general(dt, 0.0, ka, 8.0, k, 100.0)
                limit = pk._conc_limit(dt, 0.0, ka, 8.0, k, 100.0)
                if limit > 0:
                    assert abs(general - limit) <= 1e-6 * limit

    def test_nonnegative_on_grid(self):
        rng = named_stream(41, "test")
        for _ in range(300):
            z = np.exp(rng.uniform(-3, 3, 4))
            t = float(rng.uniform(0.0, 50.0))
            assert pk.structural(t, z, 100.0) >= 0.0

    def test_extreme_rate_gaps_stay_finite(self):
        for ka, k in [(1e-3, 50.0), (50.0, 1e-3), (30.0, 30.0)]:
            z = np.array([0.1, ka, 8.0, k])
            val = pk.structural(5.0, z, 100.0)
            assert np.isfinite(val) and val >= 0.0

    def test_rejects_nonpositive_latent(self):
        with pytest.raises(ValueError):
            pk.structural(1.0, np.array([0.0, 1.0, 8.0, 0.1]), 1.0)

    def test_vectorized_over_times(self):
        z = np.array([1.0, 1.0, 8.0, 0.1])
        times = np.array([0.5, 1.5, 3.0])
        vec = pk.structural(times, z, 100.0)
        scal = [pk.structural(float(t), z, 100.0) for t in times]
        np.testing.assert_array_equal(vec, scal)


class TestLogPosterior:
    @staticmethod
    def _perfect_individual(params, z_log):
        _, times = pk.default_design()
        obs = pk.structural(times, np.exp(z_log), 100.0)
        return PkIndividual(dose=100.0, times=times, obs=obs)

    def test_zero_at_perfect_fit_and_prior_mode(self):
        params = pk.paper_truth()
        indiv = self._perfect_individual(params, params.log_pop)
        assert pk.log_posterior(indiv, params.log_pop, params) == 0.0

    def test_doubling_sigma2_halves_data_term(self):
        params = pk.paper_truth()
        indiv = self._perfect_individual(params, params.log_pop + 0.1)
        v1 = pk.log_posterior(indiv, params.log_pop, params)
        doubled = PkParams(log_pop=params.log_pop, omega2=params.omega2, sigma2=2 * params.sigma2)
        v2 = pk.log_posterior(indiv, params.log_pop, doubled)
        assert abs(v2 - v1 / 2.0) <= 1e-15 * abs(v1)

    def test_three_point_grid_matches_enumeration(self):
        params = pk.paper_truth()
        _, times = pk.default_design()
        rng = named_stream(42, "test")
        obs = pk.structural(times, params.pop, 100.0) + 0.5 * rng.standard_normal(len(times))
        indiv = PkIndividual(dose=100.0, times=times, obs=obs)
        grid = [params.log_pop, params.log_pop + 0.2, params.log_pop - 0.15]

        # brute-force: full joint density including all constants, normalized
        inv = np.linalg.inv(params.omega2)
        log_masses = []
        for z_log in grid:
            f = pk.structural(times, np.exp(z_log), 100.0)
            loglik = -0.5 * np.sum((obs - f) ** 2) / params.sigma2 \
                - 0.5 * len(times) * np.log(2 * np.pi * params.sigma2)
            d = z_log - params.log_pop
            logprior = -0.5 * d @ inv @ d - 0.5 * np.log(
                (2 * np.pi) ** 4 * np.linalg.det(params.omega2)
            )
            log_masses.append(loglik + logprior)
        log_masses = np.array(log_masses)
        oracle = np.exp(log_masses - logsumexp(log_masses))

        vals = np.array([pk.log_posterior(indiv, z, params) for z in grid])
        ours = np.exp(vals - logsumexp(vals))
        np.testing.assert_allclose(ours, oracle, rtol=1e-12, atol=1e-12)

    def test_absurd_latents_auto_reject(self):
        params = pk.paper_truth()
        indiv = self._perfect_individual(params, params.log_pop)
        assert pk.log_posterior(indiv, np.full(4, 800.0), params) == -np.inf
        assert pk.log_posterior(indiv, np.array([0.0, 0.0, -710.0, 0.0]), params) == -np.inf


class TestSuffStat:
    def test_zero_latent_blocks(self):
        _, times = pk.default_design()
        obs = np.ones(len(times))
        indiv = PkIndividual(dose=100.0, times=times, obs=obs)
        s = pk.suff_stat(indiv, np.zeros(4))
        np.testing.assert_array_equal(s[:4], np.zeros(4))
        np.testing.assert_array_equal(s[4:14], np.zeros(10))
        f = pk.structural(times, np.ones(4), 100.0)
        assert abs(s[14] - np.mean((obs - f) ** 2)) < 1e-15

    def test_outer_product_reconstruction(self):
        _, times = pk.default_design()
        indiv = PkIndividual(dose=100.0, times=times, obs=np.zeros(len(times)))
        z_log = np.array([0.3, -0.7, 2.0, -2.3])
        s = pk.suff_stat(indiv, z_log)
        np.testing.assert_array_equal(pk.unpack_sym(s[4:14]), np.outer(z_log, z_log))

    def test_perfect_fit_zeroes_s3(self):
        params = pk.paper_truth()
        _, times = pk.default_design()
        z_log = params.log_pop + 0.2
        obs = pk.structural(times, np.exp(z_log), 100.0)
        indiv = PkIndividual(dose=100.0, times=times, obs=obs)
        assert pk.suff_stat(indiv, z_log)[14] == 0.0


class TestMStep:
    def test_moment_exactness_against_two_pass_oracle(self):
        rng = named_stream(43, "test")
        zs = rng.standard_normal((1000, 4)) * 0.5 + rng.standard_normal(4)
        s1 = zs.mean(axis=0)
        s2 = pk.pack_sym(np.einsum("ni,nj->ij", zs, zs) / len(zs))
        s = np.concatenate([s1, s2, [0.37]])
        theta = pk.m_step(s, diagonal=False)

        mean_oracle = zs.mean(axis=0)
        centered = zs - mean_oracle
        cov_oracle = centered.T @ centered / len(zs)
        np.testing.assert_allclose(theta.log_pop, mean_oracle, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(theta.omega2, cov_oracle, rtol=0, atol=1e-12)
        assert theta.sigma2 == 0.37

    def test_single_vector_floors_covariance(self):
        z = np.array([0.1, -0.2, 0.3, -0.4])
        s = np.concatenate([z, pk.pack_sym(np.outer(z, z)), [0.5]])
        theta = pk.m_step(s, diagonal=True)
        np.testing.assert_allclose(np.diag(theta.omega2), pk.OMEGA_EIG_FLOOR)
        theta_full = pk.m_step(s, diagonal=False)
        assert np.linalg.eigvalsh(theta_full.omega2)[0] >= pk.OMEGA_EIG_FLOOR * (1 - 1e-9)

    def test_sigma2_pass_through_and_floor(self):
        z = np.array([1.0, 2.0, 3.0, 4.0])
        base = np.concatenate([z, pk.pack_sym(np.outer(z, z) + np.eye(4)), [0.5]])
        assert pk.m_step(base).sigma2 == 0.5
        floored = base.copy()
        floored[-1] = 0.0
        assert pk.m_step(floored).sigma2 == pk.SIGMA2_FLOOR

    def test_diagonal_mode_drops_cross_terms(self):
        rng = named_stream(44, "test")
        zs = rng.standard_normal((50, 4))
        s = np.concatenate([zs.mean(axis=0), pk.pack_sym(np.einsum("ni,nj->ij", zs, zs) / 50), [1.0]])
        theta = pk.m_step(s, diagonal=True)
        off = theta.omega2 - np.diag(np.diag(theta.omega2))
        np.testing.assert_array_equal(off, np.zeros((4, 4)))


class TestSimulate:
    def test_degenerate_population_is_deterministic(self):
        truth = PkParams(log_pop=np.log([1.0, 1.0, 8.0, 0.1]), omega2=np.zeros((4, 4)), sigma2=0.0)
        cohort = pk.simulate(5, truth, pk.default_design(), named_stream(45, "test"))
        _, times = pk.default_design()
        expected = pk.structural(times, truth.pop, 100.0)
        for indiv in cohort:
            np.testing.assert_array_equal(indiv.obs, expected)

    def test_log_ka_clt_bound(self):
        truth = pk.paper_truth()
        n = 5000
        cohort = pk.simulate(n, truth, pk.default_design(), named_stream(46, "test"))
        # log ka sampled around log(1) = 0 with sd 0.5: cannot recover it from
        # the naive per-patient z draws, so check via a fresh latent draw replay
        rng = named_stream(46, "test")
        chol = np.linalg.cholesky(truth.omega2)
        logs = np.empty(n)
        for i in range(n):
            z_log = truth.log_pop + chol @ rng.standard_normal(4)
            rng.standard_normal(len(cohort[i].times))  # consume the noise draws
            logs[i] = z_log[1]
        assert abs(logs.mean() - 0.0) <= 4 * 0.5 / np.sqrt(n)

    def test_empty_cohort(self):
        assert pk.simulate(0, pk.paper_truth(), pk.default_design(), named_stream(47, "test")) == []


class TestModel:
    @staticmethod
    def _small_cohort(n=6, seed=48):
        return pk.simulate(n, pk.paper_truth(), pk.default_design(), named_stream(seed, "data"))

    def test_param_vector_round_trip(self):
        model = PkModel(self._small_cohort())
        assert len(model.param_names()) == 15
        theta = pk.paper_truth()
        flat = model.flatten_params(theta)
        back = model.unflatten_params(flat)
        np.testing.assert_array_equal(back.log_pop, theta.log_pop)
        np.testing.assert_array_equal(back.omega2, theta.omega2)
        assert back.sigma2 == theta.sigma2

    def test_single_retained_draw_and_warm_start(self):
        model = PkModel(self._small_cohort())
        theta = pk.paper_truth()
        chains = {}
        first = model.sample_posterior(0, theta, 200, named_stream(49, "test"), chains)
        assert first.shape == (4,)
        assert not np.array_equal(first, theta.log_pop)  # the chain moved
        np.testing.assert_array_equal(chains[0], first)  # and its state is kept
        # warm start: replaying the same stream from the kept state moves on
        second = model.sample_posterior(0, theta, 200, named_stream(49, "test"), chains)
        assert not np.array_equal(first, second)
        # a fresh dict, or none at all, starts cold from the population mean
        replay = model.sample_posterior(0, theta, 200, named_stream(49, "test"), {})
        np.testing.assert_array_equal(first, replay)
        cold = model.sample_posterior(0, theta, 200, named_stream(49, "test"))
        np.testing.assert_array_equal(first, cold)
        # the E-step is the statistic of the retained state
        stat = model.mc_stat(0, theta, 200, named_stream(49, "test"))
        np.testing.assert_array_equal(stat, pk.suff_stat(model.individuals[0], first))

    def test_run_is_pure_across_calls(self):
        # a run leaves nothing in the model: fiTTEM after SAEM on one PkModel
        # reproduces fiTTEM on a fresh one bit for bit
        cohort = self._small_cohort(n=5, seed=53)
        theta0 = pk.paper_truth()
        gamma = StepSchedule.polynomial(0.6)
        saem = RunConfig(variant="SAEM", total_iters=2, seed=54, gamma=gamma, mc_samples=10)
        fi = RunConfig(variant="fiTTEM", total_iters=10, seed=55, gamma=gamma, rho=0.5, mc_samples=10)
        model = PkModel(cohort)
        run(model, saem, theta0=theta0)
        used = run(model, fi, theta0=theta0)
        fresh = run(PkModel(cohort), fi, theta0=theta0)
        assert used.thetas.tobytes() == fresh.thetas.tobytes()

    def test_no_exact_expectation(self):
        model = PkModel(self._small_cohort())
        assert model.exact_expectation(0, pk.paper_truth()) is None
        assert model.penalized_nll(pk.paper_truth()) is None

    def test_noise_free_pipeline_recovery(self):
        # degenerate-population data: the population prior collapses within a
        # few iterations and freezes the chains, so the fixed effects land in
        # a Monte Carlo neighborhood of the truth rather than converging to it
        truth = PkParams(log_pop=np.log([1.0, 1.0, 8.0, 0.1]), omega2=np.zeros((4, 4)), sigma2=0.0)
        cohort = pk.simulate(20, truth, pk.default_design(), named_stream(50, "data"))
        model = PkModel(cohort)
        theta0 = PkParams(log_pop=truth.log_pop + 0.05, omega2=0.1 * np.eye(4), sigma2=1.0)
        cfg = RunConfig(
            variant="SAEM", total_iters=50, seed=51,
            gamma=StepSchedule.polynomial(0.6, warmup_iters=5), mc_samples=50,
        )
        traj = run(model, cfg, theta0=theta0)
        final = traj.thetas[-1]
        assert np.max(np.abs(final[:4] - truth.log_pop)) < 0.1
        assert final[-1] < 1e-2  # residual variance detected as tiny


class TestCohortIo:
    def test_round_trip(self, tmp_path):
        cohort = pk.simulate(4, pk.paper_truth(), pk.default_design(), named_stream(52, "data"))
        path = tmp_path / "cohort.csv"
        pk.write_cohort(path, cohort)
        back = pk.read_cohort(path)
        assert len(back) == 4
        for a, b in zip(cohort, back):
            assert a.dose == b.dose
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_array_equal(a.obs, b.obs)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("patient,dose,t,y\n")
        with pytest.raises(ValueError):
            pk.read_cohort(path)
