import io
import math
import tracemalloc

import numpy as np
import pytest

from ttsem import bench, core, engine, pk
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


GAMMA = StepSchedule(a=0.5)


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
            gamma=StepSchedule(c=1.0), mc_samples=4,
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
            theta = model.m_step(rows.mean(axis=0).tolist())
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


class TestGapBlock:
    """The gaps are summed a block of ``engine._GAP_BLOCK`` rows at a time;
    any block size, a partial last block included, records the same bits."""

    @staticmethod
    def _models():
        cohort = pk.simulate(4, pk.paper_truth(), pk.default_design(), named_stream(49, "data"))
        return [(GmmModel(make_data(n=20)), 3), (pk.PkModel(cohort), 2)]

    @pytest.mark.parametrize("variant,extra", [("fiTTEM", {}), ("vrTTEM", {"epoch_len": 7})])
    def test_block_size_does_not_change_the_gaps(self, monkeypatch, variant, extra):
        for model, mc in self._models():
            cfg = RunConfig(variant=variant, total_iters=300, seed=4, gamma=GAMMA, rho=0.3,
                            mc_samples=mc, **extra)
            gaps = []
            for block in (1, 7, engine._GAP_BLOCK):
                assert cfg.total_iters % block or block == 1
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "_GAP_BLOCK", block)
                    gaps.append(run(model, cfg).delta_s_sq)
            assert 0 < cfg.total_iters - engine._GAP_BLOCK < engine._GAP_BLOCK  # one whole block, one partial
            assert gaps[0][0] == 0.0 and np.all(gaps[0][1:] > 0.0)
            for other in gaps[1:]:
                assert np.array_equal(other, gaps[0])


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
        expected = model.flatten_params(model.m_step(init.mean(axis=0).tolist()))
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
        # a fiTTEM iteration makes two single-index E-steps, i and j
        np.testing.assert_allclose(
            epochs(variant="fiTTEM", total_iters=10, seed=0, gamma=GAMMA, rho=0.5, mc_samples=2),
            2 * np.arange(11) / 5.0,
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

    def test_draws_are_pinned(self):
        # fixed values: each draw reads one uniform by inverse CDF, so a
        # change to how the categorical sampler reads its stream moves them
        g = bench.parse_gamma("poly:0.5", 30, "SAEM")
        rng = named_stream(34, "test")
        draws = [draw_termination([g.eval(k) for k in range(30)], rng) for _ in range(20)]
        assert draws == [2, 11, 26, 5, 1, 1, 7, 13, 16, 5, 0, 25, 7, 2, 9, 8, 26, 2, 4, 22]

    @pytest.mark.parametrize("variant, iters, extra, pinned", [
        ("SAEM", 60, {}, [22, 18, 15]),
        ("fiTTEM", 90, {"rho": 0.3}, [32, 27, 22]),
    ])
    def test_randomized_terminal_iter_is_pinned(self, variant, iters, extra, pinned):
        data = make_data()
        got = [run(GmmModel(data), RunConfig(variant=variant, total_iters=iters, seed=seed, gamma=GAMMA,
                                             mc_samples=2, randomized_termination=True, **extra)).terminal_iter
               for seed in (3, 4, 5)]
        assert got == pinned

    def test_default_terminal_is_last_iteration_index(self):
        data = make_data(n=10)
        cfg = RunConfig(variant="SAEM", total_iters=12, seed=9, gamma=GAMMA, mc_samples=2)
        assert run(GmmModel(data), cfg).terminal_iter == 11


class TestSeamTypes:
    """Statistics and flattened parameters cross the ModelSpec seam as lists
    of Python floats, which the engine uses without converting."""

    @staticmethod
    def assert_floats(vals, length):
        assert type(vals) is list and len(vals) == length
        assert all(type(v) is float for v in vals)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gmm(self, m):
        model = GmmModel(make_data(n=30), m)
        theta, k, p = model.default_init(), model.stat_dim(), len(model.param_names())
        rng = named_stream(3, "mc")
        for i in range(model.n):
            for s in (model.mc_stat(i, theta, 3, rng), model.exact_expectation(i, theta)):
                self.assert_floats(s, k)
                assert model.project(s) is s  # in the set: the argument itself
        batch = model.exact_batch_stat(theta)
        self.assert_floats(batch, k)
        assert model.project(batch) is batch
        self.assert_floats(model.flatten_params(theta), p)
        self.assert_floats(model.flatten_params(model.m_step(batch)), p)
        if m > 1:  # out of the set: a new list of floats, the input untouched
            s = [-0.25] + batch[1:]
            out = model.project(s)
            self.assert_floats(out, k)
            assert out is not s and s == [-0.25] + batch[1:]

    def test_pk(self):
        cohort = pk.simulate(4, pk.paper_truth(), pk.default_design(), named_stream(48, "data"))
        model, theta = pk.PkModel(cohort), pk.paper_truth()
        k, p = model.stat_dim(), len(model.param_names())
        rng = named_stream(4, "mc")
        stats = [model.mc_stat(i, theta, 20, rng) for i in range(model.n)]
        for s in stats:
            self.assert_floats(s, k)
            assert model.project(s) is s
        with pytest.raises(ConfigError, match="^PkModel has no exact E-step, exact_expectation\\(\\)$"):
            model.exact_expectation(0, theta)
        self.assert_floats(model.flatten_params(theta), p)
        self.assert_floats(model.flatten_params(model.m_step(np.mean(stats, axis=0).tolist())), p)


def implied_esteps(variant: str, n: int, total_iters: int, epoch_len=None) -> int:
    """Per-sample E-steps a configuration implies: an initialization pass of
    n, then n per batch iteration, one per incremental iteration, two per
    fiTTEM iteration, and for vrTTEM a whole pass per anchor refresh, whose
    own iteration reuses its freshly refreshed entry.  The benchmark's traced
    check asserts the same totals on its count of ``engine.mc_step`` spans,
    which every E-step makes, exact ones included."""
    proxy = core.VARIANTS[variant].proxy
    if proxy == "batch":
        return n + total_iters * n
    if proxy == "table":
        return n + total_iters
    if proxy == "two_stream":
        return n + 2 * total_iters
    assert proxy == "anchor", proxy
    refreshes = -(-total_iters // epoch_len)
    return n + refreshes * n + (total_iters - refreshes)


def count_calls(monkeypatch, owner, attr):
    """Replace ``owner.attr`` where callers look it up with a wrapper that
    records each call's arguments, as a tracer wrapping it from outside the
    program would."""
    calls, original = [], getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


class TestTracedSeams:
    """Every per-sample E-step, exact or Monte Carlo, is one call of the
    module global a tracer wraps, ``engine.mc_step``; a PK E-step makes one
    ``pk.mh_chain`` call on a 4-vector chain of ``mc_samples`` transitions
    that draws all its normals, then all its uniforms, which is what the
    accept replay reads back.  Every whole pass is one call of the module
    global ``engine.epoch_refresh``."""

    @pytest.mark.parametrize("variant, epoch_len",
                             [pytest.param(v, None, id=f"{v}-auto") for v in core.VARIANTS] + [("vrTTEM", 7)])
    def test_gmm(self, monkeypatch, variant, epoch_len):
        n = 40
        cfg = bench.AlgoSpec(variant, epoch_len=epoch_len).to_config(n, 1.5, 3, "gmm")
        esteps = count_calls(monkeypatch, engine, "mc_step")
        passes = count_calls(monkeypatch, engine, "epoch_refresh")
        traj = run(GmmModel(make_data(n=n)), cfg)
        implied = implied_esteps(variant, n, cfg.total_iters, cfg.epoch_len)
        assert len(esteps) == implied
        assert math.isclose(traj.epochs[-1], (len(esteps) - n) / n, rel_tol=1e-12)  # the epoch column's cost
        # the initialization pass, then one per batch iteration or anchor refresh
        k_f, proxy = cfg.total_iters, core.VARIANTS[variant].proxy
        later = k_f if proxy == "batch" else -(-k_f // cfg.epoch_len) if proxy == "anchor" else 0
        assert k_f > 1 and len(passes) == 1 + later
        assert [args[4] for args in passes[:2]] == ([-1, 0] if later else [-1])  # the iteration argument

    @pytest.mark.parametrize("variant", ["MCEM", "SAEM", "iSAEM", "vrTTEM", "fiTTEM"])
    def test_pk(self, monkeypatch, variant):
        n, mc = 12, 5
        cohort = pk.simulate(n, pk.paper_truth(), pk.default_design(), named_stream(66, "data"))
        cfg = bench.AlgoSpec(variant, mc_samples=mc, epoch_len=5).to_config(n, 1.5, 67, "pk")
        esteps = count_calls(monkeypatch, engine, "mc_step")
        posteriors = count_calls(monkeypatch, pk.PkModel, "sample_posterior")
        chains, original = [], pk.mh_chain

        def chain(log_target, config, rng, *args, **kwargs):
            before = rng.bit_generator.state
            out = original(log_target, config, rng, *args, **kwargs)
            chains.append((config, type(rng.bit_generator), before, rng.bit_generator.state))
            return out

        monkeypatch.setattr(pk, "mh_chain", chain)
        traj = run(pk.PkModel(cohort), cfg, theta0=bench.pk_naive_init(cohort))
        implied = implied_esteps(variant, n, cfg.total_iters, cfg.epoch_len)
        assert len(esteps) == len(posteriors) == len(chains) == implied
        assert math.isclose(traj.epochs[-1], (len(esteps) - n) / n, rel_tol=1e-12)  # the epoch column's cost

        def generator(bitgen, state):
            g = np.random.Generator(bitgen())
            g.bit_generator.state = state
            return g

        for config, bitgen, before, after in chains:
            assert config.init.shape == (4,) and config.chain_len == mc
            replay = generator(bitgen, before)  # normals, then uniforms, and nothing else
            replay.standard_normal((mc, 4))
            replay.random(mc)
            assert replay.random(3).tobytes() == generator(bitgen, after).random(3).tobytes()
        # given no theta0, the run starts where the CLI does
        assert run(pk.PkModel(cohort), cfg).thetas.tobytes() == traj.thetas.tobytes()


class TestRunMemory:
    def test_long_run_holds_no_python_object_per_record(self):
        # iSAEM at n = 2000 for 20,000 iterations.  What the run must hold:
        # the four trajectory arrays (0.96 MB here) and the per-sample table
        # (48 kB, the init pass's entries, which the table adopts).  Measured
        # peak 1,061,163 B against those arrays' 1,008,048 B; the bound allows
        # 256 kB more, while a Python list of rows would add about 150 B per
        # record (3 MB here).  A short run first does numpy's lazy imports.
        n, iters = 2000, 20_000
        model = GmmModel(make_data(n=n))
        cfg = RunConfig(variant="iSAEM", total_iters=iters, seed=5, gamma=GAMMA, mc_samples=1)
        run(model, RunConfig(variant="iSAEM", total_iters=10, seed=5, gamma=GAMMA))
        tracemalloc.start()
        try:
            traj = run(model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        records, k, p = iters + 1, model.stat_dim(), len(model.param_names())
        arrays = records * (p + 3) * 8 + n * k * 8
        assert traj.thetas.nbytes + traj.epochs.nbytes + traj.delta_s_sq.nbytes == records * (p + 2) * 8
        assert peak < arrays + 256 * 1024, (peak, arrays)


class TestOneTablePerRun:
    @pytest.mark.parametrize("variant", ["iSAEM", "fiTTEM", "vrTTEM"])
    def test_late_iterations_hold_one_statistic_array(self, variant):
        # Between whole passes a run holds one (n, k) statistic array, the
        # table (480 kB here), and nothing else of that size: the pass that
        # built it is not kept beside it.  Each M-step samples the memory the
        # run holds; the second half of the iterations is checked.  A short
        # run first does numpy's lazy imports.
        n, iters, held = 20_000, 40, []

        class Sampling(GmmModel):
            def m_step(self, s):
                held.append(tracemalloc.get_traced_memory()[0])
                return super().m_step(s)

        model = Sampling(make_data(n=n))
        cfg = RunConfig(variant=variant, total_iters=iters, seed=5, gamma=GAMMA,
                        rho=None if variant == "iSAEM" else 0.5, epoch_len=n if variant == "vrTTEM" else None)
        run(GmmModel(make_data(n=50)), RunConfig(variant="iSAEM", total_iters=10, seed=5, gamma=GAMMA))
        tracemalloc.start()
        try:
            run(model, cfg)
        finally:
            tracemalloc.stop()
        table, late = n * model.stat_dim() * 8, held[-(iters // 2):]
        assert table <= min(late) and max(late) < table + 64 * 1024, (table, late)


class TestPeakOneTable:
    @pytest.mark.parametrize("variant, rho, epoch_len", [
        ("iSAEM", None, None), ("fiTTEM", 0.5, None), ("SAEM", None, None), ("vrTTEM", 0.5, 1),
    ])
    def test_whole_passes_peak_at_one_table(self, variant, rho, epoch_len):
        # At its peak a run holds one (n, k) statistic array (480 kB here):
        # a whole pass builds the array its table adopts, and the table it
        # replaces is gone before the pass starts.  SAEM and vrTTEM at
        # epoch_len 1 make a pass every iteration.  A short run first does
        # numpy's lazy imports.
        n = 20_000
        model = GmmModel(make_data(n=n))
        cfg = RunConfig(variant=variant, total_iters=3, seed=5, gamma=GAMMA, rho=rho, epoch_len=epoch_len)
        run(GmmModel(make_data(n=50)), RunConfig(variant="iSAEM", total_iters=10, seed=5, gamma=GAMMA))
        tracemalloc.start()
        try:
            run(model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = n * model.stat_dim() * 8
        assert table <= peak < table + 128 * 1024, (table, peak)


class TestEpochRefresh:
    def test_single_sample_anchor(self):
        data = make_data(n=1)
        model = GmmModel(data)
        theta = model.default_init()
        table = epoch_refresh(model, theta, 3, named_stream(2, "mc"))
        anchor_stt, entries = table.mean, table.entries
        direct = mc_step(model, 0, theta, 3, named_stream(2, "mc"))
        np.testing.assert_array_equal(entries[0], direct)
        np.testing.assert_array_equal(anchor_stt, direct)

    def test_replay_determinism(self):
        data = make_data(n=6)
        model = GmmModel(data)
        theta = model.default_init()
        a = epoch_refresh(model, theta, 4, named_stream(5, "mc"))
        b = epoch_refresh(model, theta, 4, named_stream(5, "mc"))
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_anchor_mean_matches_direct_recomputation(self):
        data = make_data(n=9)
        model = GmmModel(data)
        theta = model.default_init()
        table = epoch_refresh(model, theta, 2, named_stream(6, "mc"))
        anchor_stt, entries = table.mean, table.entries
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
        return [theta]

    def unflatten_params(self, vec):
        return float(vec[0])

    def default_init(self):
        return 0.0

    def mc_stat(self, i, theta, n_samples, rng, chains=None):
        self.calls += 1
        if self.fail_at is not None and self.calls >= self.fail_at:
            raise ValueError("target blew up")
        if self.calls == self.nan_at:
            return [math.nan]
        return [float(rng.standard_normal(n_samples).mean())]

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

    def test_direct_epoch_refresh_failure_reads_no_iteration(self):
        with pytest.raises(SamplingError, match="non-finite statistic") as exc:
            epoch_refresh(_NoExactModel(nan_at=2), 0.0, 1, named_stream(0, "mc"))
        assert (exc.value.sample_index, exc.value.iteration) == (1, -1)  # -1: outside any run

    def test_direct_mc_step_failure_carries_context(self):
        with pytest.raises(SamplingError, match="posterior sampling failed: target blew up") as exc:
            mc_step(_NoExactModel(fail_at=1), 2, 0.0, 1, named_stream(0, "mc"))
        assert (exc.value.sample_index, exc.value.iteration) == (2, -1)  # -1: outside any run

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
