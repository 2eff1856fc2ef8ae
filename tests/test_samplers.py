import numpy as np
import pytest
from hypothesis import given, strategies as st

from ttsem.rng import named_stream
from ttsem.samplers import MhConfig, categorical_sample, mh_chain


class TestCategoricalSample:
    def test_degenerate_always_hits_the_mass(self):
        rng = named_stream(0, "test")
        draws = [categorical_sample([1.0, 0.0], rng, 1)[0] for _ in range(200)]
        assert set(draws) == {0}

    def test_fair_coin_frequency(self):
        rng = named_stream(1, "test")
        draws = categorical_sample([0.5, 0.5], rng, size=1_000_000)
        freq0 = np.mean(draws == 0)
        # 4 sigma around 0.5 with sigma = 0.0005
        assert 0.4980 <= freq0 <= 0.5020

    def test_three_way_frequencies_within_binomial_bounds(self):
        w = np.array([0.2, 0.3, 0.5])
        n = 1_000_000
        rng = named_stream(2, "test")
        draws = categorical_sample(w, rng, size=n)
        for m, p in enumerate(w):
            se = np.sqrt(p * (1 - p) / n)
            assert abs(np.mean(draws == m) - p) <= 4 * se

    def test_rejects_unnormalized(self):
        rng = named_stream(3, "test")
        with pytest.raises(ValueError):
            categorical_sample([0.5, 0.6], rng, 1)
        with pytest.raises(ValueError):
            categorical_sample([0.9, -0.1, 0.2], rng, 1)
        for weights in ([np.nan, 1.0], [np.inf, 1.0], [1.0, np.nan, 0.0]):
            with pytest.raises(ValueError, match="sum to 1"):
                categorical_sample(weights, rng, 1)

    def test_single_uniform_per_draw(self):
        # inverse-CDF sampling consumes exactly one uniform per draw
        rng1 = named_stream(4, "test")
        rng2 = named_stream(4, "test")
        categorical_sample([0.3, 0.7], rng1, 1)
        rng2.random()
        np.testing.assert_array_equal(rng1.random(4), rng2.random(4))


class TestMhChain:
    def test_draws_all_normals_then_all_uniforms(self):
        # the order perfbench's accept-rate replay relies on: replaying it by
        # hand gives the chain's final state and leaves the stream in step
        m = 30
        config = MhConfig(chain_len=m, proposal_scales=np.full(3, 0.8), init=np.zeros(3))

        def target(z):
            return float(-0.5 * z @ z)

        rng, replay = named_stream(12, "test"), named_stream(12, "test")
        final = mh_chain(target, config, rng)
        steps = replay.standard_normal((m, 3)) * config.proposal_scales
        log_u = np.log(replay.random(m))
        z = config.init
        for step, lu in zip(steps, log_u):
            if lu < target(z + step) - target(z):
                z = z + step
        np.testing.assert_array_equal(final, z)
        np.testing.assert_array_equal(rng.bit_generator.random_raw(8), replay.bit_generator.random_raw(8))

    def test_flat_target_accepts_everything(self):
        history = []

        def log_target(z):
            history.append(z.copy())
            return 0.0

        config = MhConfig(chain_len=50, proposal_scales=np.ones(2), init=np.zeros(2))
        final, kept = mh_chain(log_target, config, named_stream(5, "test"), collect=True)
        # every proposal accepted: consecutive collected states all differ
        assert all(np.any(kept[t] != kept[t - 1]) for t in range(1, len(kept)))
        np.testing.assert_array_equal(final, kept[-1])

    def test_vanishing_proposal_stays_at_init(self):
        init = np.array([1.0, -2.0])
        config = MhConfig(chain_len=100, proposal_scales=np.full(2, 1e-300), init=init)
        final = mh_chain(lambda z: float(-0.5 * z @ z), config, named_stream(6, "test"))
        np.testing.assert_array_equal(final, init)

    def test_one_target_evaluation_per_step(self):
        calls = []

        def log_target(z):
            calls.append(1)
            return float(-0.5 * z @ z)

        config = MhConfig(chain_len=37, proposal_scales=np.ones(1), init=np.zeros(1))
        mh_chain(log_target, config, named_stream(7, "test"))
        # one evaluation at the start plus exactly one per proposal: the
        # acceptance ratio is a pure log-target difference
        assert len(calls) == 38

    def test_additive_constant_does_not_change_decisions(self):
        def base(z):
            return float(-0.5 * z @ z)

        config = MhConfig(chain_len=200, proposal_scales=np.ones(3), init=np.zeros(3))
        a = mh_chain(base, config, named_stream(8, "test"))
        b = mh_chain(lambda z: base(z) + 1000.0, config, named_stream(8, "test"))
        np.testing.assert_array_equal(a, b)

    def test_nan_target_aborts(self):
        config = MhConfig(chain_len=10, proposal_scales=np.ones(1), init=np.zeros(1))
        with pytest.raises(ValueError):
            mh_chain(lambda z: float("nan"), config, named_stream(9, "test"))

    def test_neg_inf_at_start_rejected(self):
        config = MhConfig(chain_len=10, proposal_scales=np.ones(1), init=np.zeros(1))
        with pytest.raises(ValueError):
            mh_chain(lambda z: float("-inf"), config, named_stream(10, "test"))

    def test_neg_inf_proposal_is_auto_reject(self):
        # target supported on z <= 0.5 only; chain must stay in support
        def log_target(z):
            return 0.0 if z[0] <= 0.5 else float("-inf")

        config = MhConfig(chain_len=500, proposal_scales=np.ones(1), init=np.zeros(1))
        final, kept = mh_chain(log_target, config, named_stream(11, "test"), collect=True)
        assert np.all(kept[:, 0] <= 0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MhConfig(chain_len=0, proposal_scales=np.ones(1), init=np.zeros(1))
        with pytest.raises(ValueError):
            MhConfig(chain_len=5, proposal_scales=np.zeros(1), init=np.zeros(1))
        with pytest.raises(ValueError):
            MhConfig(chain_len=5, proposal_scales=np.ones(2), init=np.zeros(1))
