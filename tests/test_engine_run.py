import io

import numpy as np
import pytest

from ttsem import engine
from ttsem.core import ConfigError, ModelSpec, RunConfig, SamplingError, StepSchedule
from ttsem.engine import draw_termination, epoch_refresh, mc_step, run
from ttsem.gmm import GmmModel, GmmParams, simulate
from ttsem.rng import named_stream


def make_data(n=40, seed=7):
    truth = GmmParams(omega=[0.5], mu=[0.5, -0.5])
    return simulate(n, truth, named_stream(seed, "data"))


def csv_bytes(traj, model=None):
    buf = io.StringIO()
    nll = None
    if model is not None:
        nll = lambda vec: model.penalized_nll(model.unflatten_params(vec))
    traj.write_csv(buf, nll=nll)
    return buf.getvalue()


GAMMA = StepSchedule.polynomial(0.5)


class TestReductions:
    """Shared seeds collapse the variant family onto its special cases."""

    def run_bytes(self, data, **kwargs):
        model = GmmModel(data)
        traj = run(model, RunConfig(**kwargs), theta0=model.default_init())
        return csv_bytes(traj, model)

    def test_vrttem_rho1_m1_is_saem(self):
        data = make_data()
        saem = self.run_bytes(data, variant="SAEM", total_iters=30, seed=5, gamma=GAMMA, mc_samples=4)
        vr = self.run_bytes(
            data, variant="vrTTEM", total_iters=30, seed=5, gamma=GAMMA,
            rho=1.0, epoch_len=1, mc_samples=4,
        )
        assert saem == vr

    def test_saem_gamma1_is_mcem(self):
        data = make_data()
        saem = self.run_bytes(
            data, variant="SAEM", total_iters=30, seed=5,
            gamma=StepSchedule.constant(1.0), mc_samples=4,
        )
        mcem = self.run_bytes(data, variant="MCEM", total_iters=30, seed=5, mc_samples=4)
        assert saem == mcem

    def test_engine_em_matches_plain_em_loop(self):
        data = make_data()
        model = GmmModel(data)
        theta0 = model.default_init()
        traj = run(model, RunConfig(variant="EM", total_iters=20, seed=0), theta0=theta0)

        # independently coded classic batch EM: average the exact per-sample
        # expectations, apply the M-step, repeat
        theta = theta0
        oracle = []
        for _ in range(21):
            rows = np.stack([model.exact_expectation(i, theta) for i in range(model.n)])
            theta = model.m_step(rows.mean(axis=0))
            oracle.append(model.flatten_params(theta))
        np.testing.assert_array_equal(traj.thetas, np.stack(oracle))

    def test_em_is_seed_independent(self):
        data = make_data()
        a = self.run_bytes(data, variant="EM", total_iters=10, seed=1)
        b = self.run_bytes(data, variant="EM", total_iters=10, seed=999)
        assert a == b


class TestDeltaSDiagnostic:
    def final_deltas(self, data, **kwargs):
        model = GmmModel(data)
        traj = run(model, RunConfig(**kwargs), theta0=model.default_init())
        return traj.delta_s_sq

    def test_rho_one_variants_report_exact_zero(self):
        data = make_data(n=20)
        cases = [
            dict(variant="EM", total_iters=5, seed=3),
            dict(variant="iEM", total_iters=25, seed=3),
            dict(variant="MCEM", total_iters=5, seed=3, mc_samples=3),
            dict(variant="SAEM", total_iters=5, seed=3, gamma=GAMMA, mc_samples=3),
            dict(variant="iSAEM", total_iters=25, seed=3, gamma=GAMMA, mc_samples=3),
            dict(variant="vrTTEM", total_iters=25, seed=3, gamma=GAMMA, rho=1.0,
                 epoch_len=5, mc_samples=3),
        ]
        for kwargs in cases:
            deltas = self.final_deltas(data, **kwargs)
            assert np.all(deltas == 0.0), kwargs["variant"]

    def test_fittem_with_small_rho_moves(self):
        data = make_data(n=20)
        deltas = self.final_deltas(
            data, variant="fiTTEM", total_iters=25, seed=3, gamma=GAMMA,
            rho=0.25, mc_samples=3,
        )
        assert np.any(deltas > 0.0)


class _ProjectionCountingGmm(GmmModel):
    """GmmModel that counts the projections that moved the statistic."""

    moved = 0

    def project(self, s):
        out = super().project(s)
        if out is not s:
            self.moved += 1
        return out


class TestStatisticProjection:
    """The control-variate proxies can carry s_hat out of the statistic set;
    projection before the M-step must keep every accepted config running."""

    # acceptance-02 data (n = 50) and its n = 200 counterpart
    CASES = [
        (50, dict(variant="vrTTEM", total_iters=60, gamma=GAMMA, rho=1.0, epoch_len=10,
                  mc_samples=5), range(10)),
        (50, dict(variant="fiTTEM", total_iters=60, gamma=GAMMA, rho=1.0, mc_samples=5),
         range(10)),
        # the default rho over the whole ten-seed sweep, some of which leave the set
        (200, dict(variant="fiTTEM", total_iters=1000, gamma=GAMMA, rho=200.0 ** (-2 / 3),
                   mc_samples=1), range(10)),
    ]

    @pytest.mark.parametrize("n,kwargs,seeds", CASES)
    def test_runs_reach_the_end_with_valid_params(self, n, kwargs, seeds):
        data = make_data(n=n, seed=2)
        moved = 0
        for seed in seeds:
            model = _ProjectionCountingGmm(data)
            traj = run(model, RunConfig(seed=seed, **kwargs), theta0=model.default_init())
            assert traj.n_records == kwargs["total_iters"] + 1
            assert traj.iters[-1] == kwargs["total_iters"]
            for row in traj.thetas:
                model.unflatten_params(row)
            moved += model.moved
        assert moved > 0, "these runs are meant to leave the statistic set"


class TestStreamCount:
    def test_streams_built_do_not_grow_with_n(self, monkeypatch):
        paths = []

        def counting(seed, label, *indices):
            paths.append((label, *indices))
            return named_stream(seed, label, *indices)

        monkeypatch.setattr(engine, "named_stream", counting)
        counts = []
        for n in (200, 400):
            paths.clear()
            cfg = RunConfig(variant="fiTTEM", total_iters=20, seed=3, gamma=GAMMA, rho=0.5,
                            mc_samples=2, randomized_termination=True)
            run(GmmModel(make_data(n=n)), cfg)
            counts.append(len(paths))
        assert counts[0] <= 5, paths
        assert counts[0] == counts[1]


class TestRunningMeanEquivalence:
    def test_isaem_sa_step_tracks_table_mean(self, recording_gmm):
        model = recording_gmm(make_data(n=30))
        cfg = RunConfig(variant="iSAEM", total_iters=10 * 30, seed=11, gamma=GAMMA, mc_samples=5)
        run(model, cfg, theta0=model.default_init())
        assert model.isaem_worst_rel(cfg.gamma, cfg.total_iters) <= 1e-10


class TestIndexDraws:
    """The engine draws its indices in blocks; a block must read the stream
    exactly as the same number of single draws does."""

    @pytest.mark.parametrize("n", [1, 2, 7, 10**4, 2**31 + 3, 3 * 10**9])
    def test_block_draws_equal_single_draws(self, n):
        # numpy behaviour the blocks rely on, across block boundaries
        blocks, singles = named_stream(3, "index_i"), named_stream(3, "index_i")
        for size in (1, 5, engine._INDEX_CHUNK, 3, engine._INDEX_CHUNK + 1):
            got = blocks.integers(n, size=size).tolist()
            assert got == [int(singles.integers(n)) for _ in range(size)]

    @pytest.mark.parametrize("variant", ["iSAEM", "fiTTEM"])
    @pytest.mark.parametrize("iters", [0, 1, engine._INDEX_CHUNK, engine._INDEX_CHUNK + 1])
    def test_run_visits_the_single_draw_indices(self, recording_gmm, variant, iters):
        n = 13
        model = recording_gmm(make_data(n=n))
        kw = dict(rho=0.5) if variant == "fiTTEM" else {}
        run(model, RunConfig(variant=variant, total_iters=iters, seed=8, gamma=GAMMA, mc_samples=1, **kw))
        visited = [i for i, _ in model.stats[n:]]  # after the init pass
        streams = ["index_i", "index_j"] if variant == "fiTTEM" else ["index_i"]
        replays = [named_stream(8, label) for label in streams]
        # fiTTEM visits its i-index, then its j-index, in every iteration
        assert visited == [int(g.integers(n)) for _ in range(iters) for g in replays]


class TestTrajectoryShape:
    def test_record_count_is_iters_plus_one(self):
        data = make_data(n=10)
        model = GmmModel(data)
        traj = run(model, RunConfig(variant="SAEM", total_iters=7, seed=0, gamma=GAMMA, mc_samples=2))
        assert traj.n_records == 8

    def test_zero_iteration_run(self):
        data = make_data(n=10)
        model = GmmModel(data)
        theta0 = model.default_init()
        traj = run(model, RunConfig(variant="SAEM", total_iters=0, seed=4, gamma=GAMMA, mc_samples=2),
                   theta0=theta0)
        assert traj.n_records == 1
        assert traj.terminal_iter == 0
        # the single record is the M-step image of the initial statistics
        mc_rng = named_stream(4, "mc")
        init = np.stack([mc_step(model, i, theta0, 2, mc_rng) for i in range(model.n)])
        expected = model.flatten_params(model.m_step(init.mean(axis=0)))
        np.testing.assert_array_equal(traj.thetas[0], expected)

    def test_epoch_accounting(self):
        data = make_data(n=5)

        def epochs(**kwargs):
            model = GmmModel(data)
            return run(model, RunConfig(**kwargs)).epochs

        # a batch iteration is one full pass, so one epoch
        for batch in (dict(variant="EM"), dict(variant="MCEM", mc_samples=2),
                      dict(variant="SAEM", gamma=GAMMA, mc_samples=2)):
            np.testing.assert_array_equal(epochs(total_iters=3, seed=0, **batch), [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            epochs(variant="iSAEM", total_iters=10, seed=0, gamma=GAMMA, mc_samples=2),
            np.arange(11) / 5.0,
        )
        np.testing.assert_allclose(epochs(variant="iEM", total_iters=10, seed=0), np.arange(11) / 5.0)
        np.testing.assert_allclose(
            epochs(variant="fiTTEM", total_iters=10, seed=0, gamma=GAMMA, rho=0.5, mc_samples=2),
            np.arange(11) / 5.0,
        )
        # refreshes at k = 0, 2, 4 cost one epoch each; the refresh iteration
        # reuses its freshly drawn entry, so only off-refresh draws add 1/n
        np.testing.assert_allclose(
            epochs(variant="vrTTEM", total_iters=5, seed=0, gamma=GAMMA, rho=0.5,
                   epoch_len=2, mc_samples=2),
            [0.0, 1.0, 1.2, 2.2, 2.4, 3.4],
        )

    def test_determinism_byte_identical(self):
        data = make_data(n=15)
        outs = []
        for _ in range(2):
            model = GmmModel(data)
            traj = run(model, RunConfig(variant="fiTTEM", total_iters=40, seed=21,
                                        gamma=GAMMA, rho=0.3, mc_samples=3))
            outs.append(csv_bytes(traj, model))
        assert outs[0] == outs[1]


class TestTermination:
    def test_single_element(self):
        rng = named_stream(30, "test")
        assert all(draw_termination([0.7], rng) == 0 for _ in range(50))

    def test_weighted_three_to_one(self):
        rng = named_stream(31, "test")
        draws = np.array([draw_termination([3.0, 1.0], rng) for _ in range(200_000)])
        freq0 = np.mean(draws == 0)
        se = np.sqrt(0.75 * 0.25 / len(draws))
        assert abs(freq0 - 0.75) <= 4 * se

    def test_uniform_chi_square(self):
        from scipy.stats import chi2

        k = 8
        n = 400_000
        rng = named_stream(32, "test")
        draws = np.array([draw_termination(np.ones(k), rng) for _ in range(n)])
        counts = np.bincount(draws, minlength=k)
        stat = np.sum((counts - n / k) ** 2 / (n / k))
        assert stat < chi2.ppf(0.99, df=k - 1)

    def test_empty_and_nonpositive_rejected(self):
        rng = named_stream(33, "test")
        with pytest.raises(ValueError):
            draw_termination([], rng)
        with pytest.raises(ValueError):
            draw_termination([1.0, 0.0], rng)
        for weights in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
            with pytest.raises(ValueError, match="termination weights must be finite"):
                draw_termination(weights, rng)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_rejected_without_warning(self):
        rng = named_stream(33, "test")
        with pytest.raises(ValueError, match="termination weights .* with a finite sum"):
            draw_termination([1e308, 1e308], rng)
        # a sum just below the overflow still draws, by the same normalisation
        g = np.array([8e307, 8e307])
        assert draw_termination(g, rng) in (0, 1)

    def test_randomized_termination_in_run(self):
        data = make_data(n=10)
        cfg = RunConfig(variant="SAEM", total_iters=12, seed=9, gamma=GAMMA,
                        mc_samples=2, randomized_termination=True)
        ks = {run(GmmModel(data), cfg).terminal_iter for _ in range(3)}
        assert len(ks) == 1  # deterministic given the seed
        assert 0 <= ks.pop() <= 11

    def test_default_terminal_is_last_iteration_index(self):
        data = make_data(n=10)
        cfg = RunConfig(variant="SAEM", total_iters=12, seed=9, gamma=GAMMA, mc_samples=2)
        assert run(GmmModel(data), cfg).terminal_iter == 11


class TestEpochRefresh:
    def test_single_sample_anchor(self):
        data = make_data(n=1)
        model = GmmModel(data)
        theta = model.default_init()
        anchor_stt, entries = epoch_refresh(model, theta, 3, named_stream(2, "mc"))
        direct = mc_step(model, 0, theta, 3, named_stream(2, "mc"))
        np.testing.assert_array_equal(entries[0], direct)
        np.testing.assert_array_equal(anchor_stt, direct)

    def test_replay_determinism(self):
        data = make_data(n=6)
        model = GmmModel(data)
        theta = model.default_init()
        a = epoch_refresh(model, theta, 4, named_stream(5, "mc"))
        b = epoch_refresh(model, theta, 4, named_stream(5, "mc"))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_anchor_mean_matches_direct_recomputation(self):
        data = make_data(n=9)
        model = GmmModel(data)
        theta = model.default_init()
        anchor_stt, entries = epoch_refresh(model, theta, 2, named_stream(6, "mc"))
        manual = sum(entries[i] for i in range(9)) / 9.0
        np.testing.assert_allclose(anchor_stt, manual, rtol=1e-12, atol=1e-12)


class _NoExactModel(ModelSpec):
    """Minimal model without an exact E-step, failing sampling or returning
    a NaN statistic on demand (counted in calls)."""

    def __init__(self, fail_at=None, nan_at=None):
        self.fail_at = fail_at
        self.nan_at = nan_at
        self.calls = 0

    @property
    def n(self):
        return 3

    def stat_dim(self):
        return 1

    def param_names(self):
        return ["theta"]

    def flatten_params(self, theta):
        return np.array([theta])

    def unflatten_params(self, vec):
        return float(vec[0])

    def default_init(self):
        return 0.0

    def mc_stat(self, i, theta, n_samples, rng, chains=None):
        self.calls += 1
        if self.fail_at is not None and self.calls >= self.fail_at:
            raise ValueError("target blew up")
        if self.calls == self.nan_at:
            return np.array([np.nan])
        return np.array([rng.standard_normal(n_samples).mean()])

    def m_step(self, s):
        return float(s[0])


class TestErrorPaths:
    def test_exact_variants_rejected_without_exact_estep(self):
        for variant in ("EM", "iEM"):
            with pytest.raises(ConfigError):
                run(_NoExactModel(), RunConfig(variant=variant, total_iters=3, seed=0))

    def test_sampling_failure_carries_context(self):
        model = _NoExactModel(fail_at=5)
        cfg = RunConfig(variant="SAEM", total_iters=10, seed=0, gamma=GAMMA, mc_samples=1)
        with pytest.raises(SamplingError) as exc:
            run(model, cfg)
        assert exc.value.sample_index == 1  # n = 3, init consumed 3 calls
        assert exc.value.iteration == 0

    # n = 3 and SAEM makes one full pass per iteration: calls 1-3 are the
    # initialization pass (iteration -1), calls 7-9 iteration 1.  vrTTEM with
    # epoch_len=2 refreshes at iterations 0 (calls 4-6) and 2 (calls 8-10)
    # around iteration 1's single E-step (call 7).
    @pytest.mark.parametrize("nan_at, iteration, cfg", [
        (2, -1, RunConfig(variant="SAEM", total_iters=4, seed=0, gamma=GAMMA, mc_samples=1)),
        (8, 1, RunConfig(variant="SAEM", total_iters=4, seed=0, gamma=GAMMA, mc_samples=1)),
        (9, 2, RunConfig("vrTTEM", total_iters=4, seed=0, gamma=GAMMA, rho=0.5, epoch_len=2, mc_samples=1)),
    ], ids=["2--1", "8-1", "vrTTEM-9-2"])
    def test_non_finite_statistic_carries_context(self, nan_at, iteration, cfg):
        with pytest.raises(SamplingError, match="non-finite statistic") as exc:
            run(_NoExactModel(nan_at=nan_at), cfg)
        assert exc.value.sample_index == 1
        assert exc.value.iteration == iteration
