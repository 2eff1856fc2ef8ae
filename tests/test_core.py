import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttsem.core import ConfigError, PerSampleStatTable, RunConfig, StepSchedule


class TestPerSampleStatTable:
    def test_mean_initialized_from_entries(self):
        table = PerSampleStatTable(np.array([[0.0, 1.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(table.mean, [1.0, 2.0])

    def test_replace_updates_mean_incrementally(self):
        table = PerSampleStatTable(np.array([[0.0], [2.0]]))
        table.replace(0, [4.0])
        np.testing.assert_allclose(table.mean, [3.0])
        np.testing.assert_array_equal(table.entries[:, 0], [4.0, 2.0])

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            PerSampleStatTable(np.empty((0, 3)))
        with pytest.raises(ValueError):
            PerSampleStatTable(np.array([[np.nan, 0.0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_incremental_mean_tracks_recomputation(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        k = data.draw(st.integers(min_value=1, max_value=5))
        vals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
        init = data.draw(
            st.lists(st.lists(vals, min_size=k, max_size=k), min_size=n, max_size=n)
        )
        table = PerSampleStatTable(np.array(init))
        magnitude = max(1.0, float(np.max(np.abs(init))))
        n_updates = data.draw(st.integers(min_value=0, max_value=60))
        for _ in range(n_updates):
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            vec = data.draw(st.lists(vals, min_size=k, max_size=k))
            magnitude = max(magnitude, float(np.max(np.abs(vec))))
            table.replace(i, vec)
        exact = table.entries.mean(axis=0)
        # relative to the size of the statistics that flowed through the
        # table (near-total cancellation can leave a tiny exact mean)
        assert np.all(np.abs(table.mean - exact) <= 1e-10 * magnitude)


class TestRunConfigConsistency:
    def test_em_forces_unit_gamma(self):
        cfg = RunConfig(variant="EM", total_iters=5, seed=0)
        assert cfg.gamma.is_unit and cfg.rho == 1.0
        with pytest.raises(ConfigError):
            RunConfig(variant="EM", total_iters=5, seed=0, gamma=StepSchedule(a=0.5))

    def test_mcem_forces_unit_gamma_and_rho(self):
        cfg = RunConfig(variant="MCEM", total_iters=5, seed=0, mc_samples=3)
        assert cfg.gamma.is_unit and cfg.rho == 1.0
        with pytest.raises(ConfigError):
            RunConfig(variant="MCEM", total_iters=5, seed=0, gamma=StepSchedule(c=0.5))
        with pytest.raises(ConfigError):
            RunConfig(variant="MCEM", total_iters=5, seed=0, rho=0.5)

    def test_saem_forces_rho_one(self):
        cfg = RunConfig(variant="SAEM", total_iters=5, seed=0, gamma=StepSchedule(a=0.5))
        assert cfg.rho == 1.0
        with pytest.raises(ConfigError):
            RunConfig(
                variant="SAEM", total_iters=5, seed=0,
                gamma=StepSchedule(a=0.5), rho=0.5,
            )

    def test_isaem_forces_rho_one(self):
        with pytest.raises(ConfigError):
            RunConfig(
                variant="iSAEM", total_iters=5, seed=0,
                gamma=StepSchedule(a=0.5), rho=0.2,
            )

    def test_vrttem_needs_epoch_len(self):
        with pytest.raises(ConfigError):
            RunConfig(
                variant="vrTTEM", total_iters=5, seed=0,
                gamma=StepSchedule(a=0.5), rho=0.5,
            )
        with pytest.raises(ConfigError):
            RunConfig(
                variant="vrTTEM", total_iters=5, seed=0,
                gamma=StepSchedule(a=0.5), rho=0.5, epoch_len=0,
            )
        cfg = RunConfig(
            variant="vrTTEM", total_iters=5, seed=0,
            gamma=StepSchedule(a=0.5), rho=0.5, epoch_len=3,
        )
        assert cfg.epoch_len == 3

    def test_epoch_len_rejected_elsewhere(self):
        with pytest.raises(ConfigError):
            RunConfig(
                variant="SAEM", total_iters=5, seed=0,
                gamma=StepSchedule(a=0.5), epoch_len=4,
            )

    def test_rho_range_checked(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                RunConfig(
                    variant="fiTTEM", total_iters=5, seed=0,
                    gamma=StepSchedule(a=0.5), rho=bad,
                )
        # a string is not a rho, whichever branch checks it; the CLI parses text
        for variant in ("fiTTEM", "SAEM"):
            with pytest.raises(ConfigError, match="^rho must be a real number, got '0.5'$"):
                RunConfig(variant=variant, total_iters=5, seed=0, gamma=StepSchedule(a=0.5), rho="0.5")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(variant="SGD", total_iters=5, seed=0)

    def test_basic_field_checks(self):
        with pytest.raises(ConfigError):
            RunConfig(variant="EM", total_iters=-1, seed=0)
        with pytest.raises(ConfigError):
            RunConfig(variant="EM", total_iters=1, seed=0, mc_samples=0)
        with pytest.raises(ConfigError):
            RunConfig(variant="fiTTEM", total_iters=1, seed=0, rho=0.5, gamma=None)

    def test_integer_fields_checked_as_integers(self):
        from ttsem.bench import AlgoSpec, ExperimentSpec

        poly = StepSchedule(a=0.5)
        base = dict(variant="SAEM", total_iters=5, seed=0, gamma=poly)
        vr = dict(variant="vrTTEM", total_iters=5, seed=0, gamma=poly, rho=0.5)
        study = dict(model="gmm", n=10, replicates=2, epochs=1.0, algorithms=(AlgoSpec("SAEM"),), seed=0)
        bad = [
            lambda: RunConfig(**{**base, "mc_samples": 2.5}),
            lambda: RunConfig(**{**base, "total_iters": 2.5}),
            lambda: RunConfig(**{**base, "seed": 1.5}),
            lambda: RunConfig(**vr, epoch_len=2.5),
            lambda: StepSchedule(a=0.5, warmup_iters=1.5),
            lambda: ExperimentSpec(**{**study, "n": 2.5}),
            lambda: ExperimentSpec(**{**study, "replicates": 1.5}),
            lambda: ExperimentSpec(**{**study, "seed": 1.5}),
            lambda: ExperimentSpec(**{**study, "jobs": 1.5}),
        ]
        for make in bad:
            with pytest.raises(ConfigError, match="must be an integer"):
                make()
        # integer-valued numpy scalars are normalised to int
        cfg = RunConfig(**vr, epoch_len=np.int64(2), mc_samples=np.int32(3))
        assert (cfg.epoch_len, cfg.mc_samples) == (2, 3) and type(cfg.epoch_len) is int
        spec = ExperimentSpec(**{**study, "n": np.int64(10), "seed": np.uint64(7)})
        assert type(spec.n) is int and type(spec.seed) is int and spec.seed == 7
        assert type(StepSchedule(a=0.5, warmup_iters=np.int64(4)).warmup_iters) is int
