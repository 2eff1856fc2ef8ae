import math
import warnings

import numpy as np
import pytest

from ttsem import pk
from ttsem.core import ConfigError, PerSampleStatTable
from ttsem.engine import (
    gap_delta_s,
    mc_step,
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
    """The Inc-step stt + rho * (proxy - stt) is ``sa_step`` with step rho."""

    def test_rho_one_returns_proxy_exactly(self):
        stt = np.array([1e20, 2.0])
        proxy = np.array([1.0, -1.0])
        out = sa_step(stt, proxy, 1.0)
        np.testing.assert_array_equal(out, proxy)

    def test_midpoint(self):
        np.testing.assert_array_equal(sa_step(np.array([2.0]), np.array([0.0]), 0.5), [1.0])

    def test_hand_value(self):
        out = sa_step(np.zeros(2), np.array([10.0, -10.0]), 0.1)
        np.testing.assert_allclose(out, [1.0, -1.0])


def _gap(a, b):
    """gap_delta_s of the one-row block of differences a - b, as a float."""
    sq = gap_delta_s(np.subtract([a], [b], dtype=np.float64))
    assert sq.shape == (1,)
    return float(sq[0])


class TestGapDeltaS:
    def test_equal_vectors(self):
        assert _gap(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_unit_axes(self):
        assert _gap(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_three_four_five(self):
        assert _gap(np.array([3.0, 4.0]), np.zeros(2)) == 25.0

    def test_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _gap([1e300, 0.5], [0.0, 0.0]) == math.inf
            assert _gap([-1e300, 2.0, 3.0], [1e300, 2.0, 0.0]) == math.inf  # d = -2e300
            assert _gap([1e154, 1e154], [0.0, 0.0]) == math.inf  # each square finite, their sum not
            big = np.array([1e150, -3.0])
            assert _gap(big.tolist(), [0.0, 0.0]) == float(np.dot(big, big)) < math.inf
            # a block sums each row alone: the overflowing one is inf, the others keep their bits
            block = np.array([[0.5, -3.0, 1e-7], [1e200, 1e200, 0.0], [1e150, 2.0, -1.0], [0.0, 0.0, 0.0]])
            sq = gap_delta_s(block)
            assert sq[1] == math.inf
            for r in (0, 2, 3):
                assert _bits(sq[r]) == _bits(np.vdot(block[r], block[r])) and sq[r] < math.inf

    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_block_rows_match_vdot_bit_for_bit(self, k):
        rng = named_stream(24, "test", k)
        a = rng.standard_normal((200, k)) * np.exp(rng.uniform(-20.0, 5.0, size=(200, 1)))
        b = rng.standard_normal((200, k)) * np.exp(rng.uniform(-20.0, 5.0, size=(200, 1)))
        b[::5] = a[::5]  # equal rows
        sq = gap_delta_s(a - b)
        assert sq.shape == (200,)
        for r in range(200):
            d = a[r] - b[r]
            assert _bits(sq[r]) == _bits(np.vdot(d, d)) == _bits(_gap(a[r].tolist(), b[r].tolist()))
        assert _bits(sq[::5]) == _bits(np.zeros(40))


# The proxies are the table's two operations: iSAEM replaces entry i and
# reads the mean; vrTTEM reads against entry i with ``control``; fiTTEM reads
# against entry i, then its j-stream replaces entry j.


def _isaem(table, i, s_new):
    table.replace(i, s_new)
    return table.mean


def _fi(table, i, j, s_new_i, s_new_j):
    out = table.control(i, s_new_i)
    table.replace(j, s_new_j)
    return out


class TestProxyIsaem:
    def test_zero_correction_when_entry_unchanged(self):
        table = PerSampleStatTable(np.array([[1.0], [3.0]]))
        out = _isaem(table, 1, np.array([3.0]))
        np.testing.assert_array_equal(out, [2.0])

    def test_hand_value_and_table_update(self):
        table = PerSampleStatTable(np.array([[0.0], [2.0]]))
        out = _isaem(table, 0, np.array([4.0]))
        np.testing.assert_allclose(out, [3.0])
        np.testing.assert_allclose(table.mean, [3.0])
        np.testing.assert_array_equal(table.entries[:, 0], [4.0, 2.0])

    def test_proxy_equals_recomputed_post_update_mean(self):
        rng = named_stream(13, "test")
        table = PerSampleStatTable(rng.standard_normal((7, 3)))
        for _ in range(200):
            i = int(rng.integers(7))
            out = _isaem(table, i, rng.standard_normal(3).tolist())
            np.testing.assert_allclose(out, table.entries.mean(axis=0), rtol=1e-12, atol=1e-12)


class TestProxyVr:
    def test_zero_correction(self):
        table = PerSampleStatTable(np.array([[0.5, 0.5], [1.5, 3.5]]))  # mean (1, 2)
        entry = table.entries[0].copy()
        np.testing.assert_array_equal(table.control(0, entry), [1.0, 2.0])

    def test_hand_value(self):
        table = PerSampleStatTable(np.array([[0.5], [1.5]]))  # mean 1
        np.testing.assert_allclose(table.control(0, np.array([0.7])), [1.2])
        np.testing.assert_array_equal(table.entries[:, 0], [0.5, 1.5])  # a read leaves the table as it was


class TestProxyFi:
    def test_zero_correction_reads_pre_update_mean(self):
        table = PerSampleStatTable(np.array([[0.0], [2.0]]))
        out = _fi(table, 0, 1, table.entries[0].tolist(), [5.0])
        np.testing.assert_array_equal(out, [1.0])  # mean before the j-update

    def test_hand_values(self):
        table = PerSampleStatTable(np.array([[0.0], [2.0]]))
        out = _fi(table, 1, 0, np.array([3.0]), np.array([1.0]))
        np.testing.assert_allclose(out, [2.0])          # 1 + (3 - 2)
        np.testing.assert_allclose(table.mean, [1.5])   # 1 + (1 - 0)/2
        np.testing.assert_array_equal(table.entries[:, 0], [1.0, 2.0])

    def test_mean_matches_recomputation_over_sequences(self):
        rng = named_stream(14, "test")
        table = PerSampleStatTable(rng.standard_normal((6, 2)))
        for _ in range(300):
            i, j = int(rng.integers(6)), int(rng.integers(6))
            _fi(table, i, j, rng.standard_normal(2).tolist(), rng.standard_normal(2).tolist())
            np.testing.assert_allclose(table.mean, table.entries.mean(axis=0), rtol=1e-10, atol=1e-12)

    def test_table_state_depends_only_on_j_stream(self):
        rng = named_stream(15, "test")
        init = rng.standard_normal((5, 2))
        j_seq = rng.integers(5, size=100)
        j_vals = rng.standard_normal((100, 2))
        i_seq_a = rng.integers(5, size=100)
        i_seq_b = rng.integers(5, size=100)

        table_a = PerSampleStatTable(init.copy())  # each table owns its array
        table_b = PerSampleStatTable(init.copy())
        for t in range(100):
            _fi(table_a, int(i_seq_a[t]), int(j_seq[t]), rng.standard_normal(2).tolist(), j_vals[t].tolist())
            _fi(table_b, int(i_seq_b[t]), int(j_seq[t]), rng.standard_normal(2).tolist(), j_vals[t].tolist())
            np.testing.assert_array_equal(table_a.entries, table_b.entries)
            np.testing.assert_array_equal(table_a.mean, table_b.mean)


class TestTableIndexGuard:
    @pytest.mark.parametrize("i", [-1, -3, 3, 4, 10**6])
    def test_operations_reject_index_outside_table(self, i):
        init = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        table = PerSampleStatTable(init.copy())
        with pytest.raises(IndexError):
            table.control(i, [1.0, 1.0])
        with pytest.raises(IndexError):
            table.replace(i, [1.0, 1.0])
        assert _bits(table.entries) == _bits(init) and table.mean == [2.0, 3.0]

    def test_operations_accept_numpy_indices_at_both_ends(self):
        table = PerSampleStatTable(np.array([[0.0], [2.0], [4.0]]))
        assert table.control(np.int64(0), [1.0]) == [3.0]
        table.replace(np.int64(2), [1.0])
        assert table.entries[:, 0].tolist() == [0.0, 2.0, 1.0]


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
        assert s in ([1.0, y, y], [0.0, 0.0, y])

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
        s = np.array(mc_step(model, i, theta, m, named_stream(19, "test")))
        exact = np.array(model.exact_expectation(i, theta))
        # per-coordinate standard errors from the exact posterior
        p = exact[0]
        se_ind = np.sqrt(p * (1 - p) / m)
        y = abs(model.data[i])
        ses = np.array([se_ind, se_ind * y, 0.0])
        # the 1e-12 cushion covers float accumulation on zero-variance coords
        assert np.all(np.abs(s - exact) <= 4 * ses + 1e-12)

    def test_no_stream_is_the_exact_expectation(self):
        model, theta = self._model()
        for i in range(model.n):
            exact = model.exact_expectation(i, theta)
            assert [v.hex() for v in mc_step(model, i, theta, 1, None)] == [v.hex() for v in exact]

    def test_no_stream_on_a_model_without_an_exact_e_step(self):
        # a typed error naming the model, not a TypeError from iterating a None
        cohort = pk.simulate(2, pk.paper_truth(), pk.default_design(), named_stream(20, "data"))
        with pytest.raises(ConfigError, match="^PkModel has no exact E-step"):
            mc_step(pk.PkModel(cohort), 0, pk.paper_truth(), 1, None)

    def test_no_chains_draws_exactly_n_samples(self):
        model, theta = self._model()
        rng, twin = named_stream(21, "test"), named_stream(21, "test")
        mc_step(model, 0, theta, 10, rng)
        twin.random(10)
        assert rng.random(8).tolist() == twin.random(8).tolist()

    def test_shared_chains_read_the_per_call_draws(self):
        # E-steps sharing one chains dict read their stream in the order that
        # per-call draws of n_samples uniforms each would
        model, theta = self._model()
        blocked, per_call, chains = named_stream(22, "test"), named_stream(22, "test"), {}
        for i in (0, 1):
            assert mc_step(model, i, theta, 10, blocked, chains) == mc_step(model, i, theta, 10, per_call)

    def test_rejects_nonpositive_sample_count(self):
        model, theta = self._model()
        with pytest.raises(ValueError):
            mc_step(model, 0, theta, 0, named_stream(20, "test"))


# The numpy formulas the plain-float steps replaced, kept as oracles.


def _sa_step_oracle(s_hat, stt, gamma):
    if gamma == 1.0:
        return stt.copy()
    return s_hat + gamma * (stt - s_hat)


def _inc_step_oracle(stt, proxy, rho):
    if rho == 1.0:
        return proxy.copy()
    return stt + rho * (proxy - stt)


def _gap_oracle(a, b):
    d = a - b
    return float(np.dot(d, d))


class _TableOracle:
    """PerSampleStatTable on an (n, k) array."""

    def __init__(self, entries):
        self.entries = entries.copy()
        self.mean = entries.mean(axis=0)

    def replace(self, i, vec):
        self.mean = self.mean + (vec - self.entries[i]) / self.entries.shape[0]
        self.entries[i] = vec


def _proxy_isaem_oracle(table, i, s_new):
    table.replace(i, s_new)
    return table.mean


def _proxy_vr_oracle(anchor_stt, anchor_entry_i, s_new):
    return anchor_stt + (s_new - anchor_entry_i)


def _proxy_fi_oracle(table, i, j, s_new_i, s_new_j):
    out = table.mean + (s_new_i - table.entries[i])
    table.replace(j, s_new_j)
    return out


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _stat(rng, k):
    """k floats spread over sixteen decades, so sums and differences round."""
    return rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8, size=k)


class TestStepsMatchNumpyOracles:
    """The plain-float steps bit for bit against the numpy formulas they
    replaced, on random statistics, including unit gamma and unit rho."""

    @pytest.mark.parametrize("k", [1, 3, 5, 15])
    def test_sa_inc_and_gap(self, k):
        rng = named_stream(21, "test", k)
        for t in range(400):
            a, b = _stat(rng, k), _stat(rng, k)
            step = 1.0 if t % 4 == 0 else float(rng.uniform(1e-6, 1.0))
            assert _bits(sa_step(a.tolist(), b.tolist(), step)) == _bits(_sa_step_oracle(a, b, step))
            assert _bits(sa_step(a.tolist(), b.tolist(), step)) == _bits(_inc_step_oracle(a, b, step))
            assert _bits(_gap(a.tolist(), b.tolist())) == _bits(_gap_oracle(a, b))
            assert _bits(_gap(a.tolist(), a.tolist())) == _bits(_gap_oracle(a, a.copy()))

    def test_unit_rho_gap_is_positive_zero(self):
        rng = named_stream(22, "test")
        for _ in range(100):
            proxy = _stat(rng, 3).tolist()
            gap = _gap(sa_step(_stat(rng, 3).tolist(), proxy, 1.0), proxy)
            assert _bits(gap) == _bits(0.0)

    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_table_and_proxies(self, k):
        rng = named_stream(23, "test", k)
        n = 9
        init = np.stack([_stat(rng, k) for _ in range(n)])
        table, oracle = PerSampleStatTable(init.copy()), _TableOracle(init)
        fi_table, fi_oracle = PerSampleStatTable(init.copy()), _TableOracle(init)
        assert _bits(table.mean) == _bits(oracle.mean)
        for _ in range(300):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            s_i, s_j = _stat(rng, k), _stat(rng, k)
            assert _bits(_isaem(table, i, s_i.tolist())) == _bits(_proxy_isaem_oracle(oracle, i, s_i))
            assert _bits(table.entries) == _bits(oracle.entries)
            got = _fi(fi_table, i, j, s_i.tolist(), s_j.tolist())
            assert _bits(got) == _bits(_proxy_fi_oracle(fi_oracle, i, j, s_i, s_j))
            assert _bits(fi_table.mean) == _bits(fi_oracle.mean)
            assert _bits(fi_table.entries) == _bits(fi_oracle.entries)
            # vrTTEM's read: an anchor table with its own mean, against entry i
            anchor = PerSampleStatTable(np.stack([_stat(rng, k) for _ in range(n)]))
            mean, entry = np.array(anchor.mean), anchor.entries[i].copy()
            got = anchor.control(i, s_i.tolist())
            assert _bits(got) == _bits(_proxy_vr_oracle(mean, entry, s_i))
            assert _bits(anchor.control(i, entry.tolist())) == _bits(mean)

    def test_length_mismatch_is_caught(self):
        table = PerSampleStatTable(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            table.replace(0, [1.0, 2.0])
        with pytest.raises(ValueError):
            table.control(0, [1.0])
        with pytest.raises(AssertionError):
            sa_step([0.0], [0.0, 1.0], 0.5)
