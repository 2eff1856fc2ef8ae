import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttsem.core import PerSampleStatTable
from ttsem.engine import (
    gap_delta_s,
    inc_step,
    mc_step,
    proxy_fi,
    proxy_isaem,
    proxy_vr,
    sa_step,
)
from ttsem.gmm import GmmModel, GmmParams
from ttsem.rng import named_stream


class TestSaStep:
    def test_full_replacement(self):
        s, v = np.array([9.0, -3.0]), np.array([1.0, 2.0])
        np.testing.assert_array_equal(sa_step(s, v, 1.0), v)

    def test_midpoint(self):
        out = sa_step(np.zeros(2), np.array([1.0, 2.0]), 0.5)
        np.testing.assert_array_equal(out, [0.5, 1.0])

    def test_hand_value(self):
        # 4 + 0.25 * (0 - 4) = 3
        out = sa_step(np.array([4.0]), np.array([0.0]), 0.25)
        np.testing.assert_array_equal(out, [3.0])

    def test_length_mismatch_asserts(self):
        with pytest.raises(AssertionError):
            sa_step(np.zeros(2), np.zeros(3), 0.5)


class TestIncStep:
    def test_rho_one_returns_proxy_exactly(self):
        stt = np.array([1e20, 2.0])
        proxy = np.array([1.0, -1.0])
        out = inc_step(stt, proxy, 1.0)
        np.testing.assert_array_equal(out, proxy)

    def test_midpoint(self):
        np.testing.assert_array_equal(inc_step(np.array([2.0]), np.array([0.0]), 0.5), [1.0])

    def test_hand_value(self):
        out = inc_step(np.zeros(2), np.array([10.0, -10.0]), 0.1)
        np.testing.assert_allclose(out, [1.0, -1.0])


class TestGapDeltaS:
    def test_equal_vectors(self):
        assert gap_delta_s(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_unit_axes(self):
        assert gap_delta_s(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_three_four_five(self):
        assert gap_delta_s(np.array([3.0, 4.0]), np.zeros(2)) == 25.0


class TestProxyIsaem:
    def test_zero_correction_when_entry_unchanged(self):
        table = PerSampleStatTable(np.array([[1.0], [3.0]]))
        out = proxy_isaem(table, 1, np.array([3.0]))
        np.testing.assert_array_equal(out, [2.0])

    def test_hand_value_and_table_update(self):
        table = PerSampleStatTable(np.array([[0.0], [2.0]]))
        out = proxy_isaem(table, 0, np.array([4.0]))
        np.testing.assert_allclose(out, [3.0])
        np.testing.assert_allclose(table.mean, [3.0])
        np.testing.assert_array_equal(table.entries[:, 0], [4.0, 2.0])

    def test_proxy_equals_recomputed_post_update_mean(self):
        rng = named_stream(13, "test")
        table = PerSampleStatTable(rng.standard_normal((7, 3)))
        for _ in range(200):
            i = int(rng.integers(7))
            out = proxy_isaem(table, i, rng.standard_normal(3))
            np.testing.assert_allclose(out, table.recomputed_mean(), rtol=1e-12, atol=1e-12)


class TestProxyVr:
    def test_zero_correction(self):
        anchor_stt = np.array([1.0, 2.0])
        entry = np.array([0.5, 0.5])
        np.testing.assert_array_equal(proxy_vr(anchor_stt, entry, entry.copy()), anchor_stt)

    def test_hand_value(self):
        out = proxy_vr(np.array([1.0]), np.array([0.5]), np.array([0.7]))
        np.testing.assert_allclose(out, [1.2])


class TestProxyFi:
    def test_zero_correction_reads_pre_update_mean(self):
        table = PerSampleStatTable(np.array([[0.0], [2.0]]))
        out = proxy_fi(table, 0, 1, table.entries[0].copy(), np.array([5.0]))
        np.testing.assert_array_equal(out, [1.0])  # mean before the j-update

    def test_hand_values(self):
        table = PerSampleStatTable(np.array([[0.0], [2.0]]))
        out = proxy_fi(table, 1, 0, np.array([3.0]), np.array([1.0]))
        np.testing.assert_allclose(out, [2.0])          # 1 + (3 - 2)
        np.testing.assert_allclose(table.mean, [1.5])   # 1 + (1 - 0)/2
        np.testing.assert_array_equal(table.entries[:, 0], [1.0, 2.0])

    def test_mean_matches_recomputation_over_sequences(self):
        rng = named_stream(14, "test")
        table = PerSampleStatTable(rng.standard_normal((6, 2)))
        for _ in range(300):
            i, j = int(rng.integers(6)), int(rng.integers(6))
            proxy_fi(table, i, j, rng.standard_normal(2), rng.standard_normal(2))
            np.testing.assert_allclose(table.mean, table.recomputed_mean(), rtol=1e-10, atol=1e-12)

    def test_table_state_depends_only_on_j_stream(self):
        rng = named_stream(15, "test")
        init = rng.standard_normal((5, 2))
        j_seq = rng.integers(5, size=100)
        j_vals = rng.standard_normal((100, 2))
        i_seq_a = rng.integers(5, size=100)
        i_seq_b = rng.integers(5, size=100)

        table_a = PerSampleStatTable(init)
        table_b = PerSampleStatTable(init)
        for t in range(100):
            proxy_fi(table_a, int(i_seq_a[t]), int(j_seq[t]), rng.standard_normal(2), j_vals[t])
            proxy_fi(table_b, int(i_seq_b[t]), int(j_seq[t]), rng.standard_normal(2), j_vals[t])
            np.testing.assert_array_equal(table_a.entries, table_b.entries)
            np.testing.assert_array_equal(table_a.mean, table_b.mean)


class TestMcStep:
    @staticmethod
    def _model():
        data = np.array([0.3, -1.0, 2.0])
        return GmmModel(data), GmmParams(omega=[0.4], mu=[1.0, -1.0])

    def test_single_draw_is_one_hot_stat(self):
        model, theta = self._model()
        s = mc_step(model, 0, theta, 1, named_stream(16, "test"))
        # one draw: either component 1 -> (1, y, y) or component 2 -> (0, 0, y)
        y = model.data[0]
        assert s.tolist() in ([1.0, y, y], [0.0, 0.0, y])

    def test_identical_draws_average_to_single_draw(self):
        model, theta = self._model()
        # degenerate posterior: all mass on one component -> all draws equal
        sure = GmmParams(omega=[1.0 - 1e-12], mu=[5.0, -5.0])
        s1 = mc_step(model, 2, sure, 1, named_stream(17, "test"))
        s2 = mc_step(model, 2, sure, 2, named_stream(18, "test"))
        np.testing.assert_array_equal(s1, s2)

    def test_monte_carlo_mean_matches_exact_expectation(self):
        model, theta = self._model()
        i = 0
        m = 100_000
        s = mc_step(model, i, theta, m, named_stream(19, "test"))
        exact = model.exact_expectation(i, theta)
        # per-coordinate standard errors from the exact posterior
        p = exact[0]
        se_ind = np.sqrt(p * (1 - p) / m)
        y = abs(model.data[i])
        ses = np.array([se_ind, se_ind * y, 0.0])
        # the 1e-12 cushion covers float accumulation on zero-variance coords
        assert np.all(np.abs(s - exact) <= 4 * ses + 1e-12)

    def test_rejects_nonpositive_sample_count(self):
        model, theta = self._model()
        with pytest.raises(ValueError):
            mc_step(model, 0, theta, 0, named_stream(20, "test"))
