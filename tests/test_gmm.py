import math
import re
from bisect import bisect_right
from dataclasses import FrozenInstanceError
from itertools import accumulate

import numpy as np
import pytest

from ttsem import VARIANTS, bench, gmm
from ttsem.engine import run
from ttsem.gmm import GmmModel, GmmParams
from ttsem.rng import named_stream


class TestDefaultInit:
    @staticmethod
    def _datasets():
        rng = named_stream(71, "test")
        for n in range(1, 51):
            yield rng.standard_normal(n)
            yield np.round(rng.standard_normal(n) * 2.0)  # ties
            yield np.sort(rng.standard_normal(n) * 1e3)  # sorted input
            yield rng.choice([-0.0, 0.0, 1.5], n)  # signed zeros
        yield rng.standard_normal(2000) + 0.5
        yield rng.standard_normal(10_000)

    def test_means_bit_equal_np_quantile(self):
        for data in self._datasets():
            for m in range(1, 13):
                init = GmmModel(data, m).default_init()
                expected = np.quantile(data, np.linspace(0.25, 0.75, m))
                assert init.mu.tobytes() == expected.tobytes(), (data, m)
                assert init.omega.tobytes() == np.full(m - 1, 1.0 / m).tobytes()


class TestParams:
    def test_full_weights_appends_implied_mass(self):
        p = GmmParams(omega=[0.2, 0.3], mu=[0.0, 1.0, 2.0])
        np.testing.assert_allclose(p.full_weights(), [0.2, 0.3, 0.5])

    def test_interior_enforced(self):
        with pytest.raises(ValueError):
            GmmParams(omega=[0.0], mu=[0.0, 1.0])
        with pytest.raises(ValueError):
            GmmParams(omega=[0.6, 0.4], mu=[0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            GmmParams(omega=[0.5], mu=[np.inf, 0.0])
        # NaN fails both "omega <= 0" and "sum >= 1"; it must still be rejected
        for omega, mu in (([np.nan], [0.0, 1.0]), ([0.2, np.nan], [0.0, 1.0, 2.0])):
            with pytest.raises(ValueError, match="interior of the simplex"):
                GmmParams(omega=omega, mu=mu)

    @pytest.mark.parametrize("m", range(2, 14))
    def test_implied_weight_and_logs_match_numpy(self, m):
        # the implied weight uses sum() below 8 free weights, ndarray.sum() from 8
        rng = named_stream(50 + m, "test")
        for _ in range(200):
            w = rng.dirichlet(np.full(m, 0.3)) * rng.uniform(0.5, 1.0)
            w = np.where(w > 0.0, w, 1e-300)
            p = GmmParams(omega=w[: m - 1], mu=np.zeros(m))
            implied = 1.0 - float(np.asarray(w[: m - 1]).sum())
            assert np.array_equal(p.full_weights(), np.append(w[: m - 1], implied))
            assert p._logw == [math.log(v) for v in p.full_weights().tolist()]
            flat = GmmModel(np.zeros(1), m).flatten_params(p)
            assert np.array(flat).tobytes() == np.concatenate([p.omega, p.mu]).tobytes()

    @pytest.mark.parametrize("omega, mu, message", [
        ([0.5], [0.0], "need M means and M-1 free weights"),
        ([[0.5]], [0.0, 1.0], "need M means and M-1 free weights"),
        ([0.0], [0.0, 1.0], "weights must lie in the interior of the simplex"),
        ([0.6, 0.4], [0.0, 1.0, 2.0], "weights must lie in the interior of the simplex"),
        ([np.nan], [np.nan, 0.0], "weights must lie in the interior of the simplex"),  # weights first
        ([0.5], [np.inf, 0.0], "means must be finite"),
        ([0.5], [0.0, np.nan], "means must be finite"),
    ])
    def test_constructor_messages(self, omega, mu, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GmmParams(omega=omega, mu=mu)

    @pytest.mark.parametrize("m", [1, 2, 3, 9, 12])
    def test_m_step_params_match_the_constructor(self, m):
        # m_step checks its floats once and builds the parameters itself; the
        # constructor, given the same floats, must build the same parameters
        # (from 8 free weights on, both take the implied weight's pairwise sum)
        rng = named_stream(60 + m, "test")
        model = GmmModel(np.zeros(1), m)
        for _ in range(100):
            s1 = rng.dirichlet(np.ones(m))[: m - 1]
            s = np.concatenate([s1, s1 * rng.uniform(-3.0, 3.0, m - 1), [rng.normal()]])
            delta, epsilon = rng.uniform(1e-4, 0.1, 2)
            built = gmm.m_step(s.tolist(), delta, epsilon, m)
            public = GmmParams(omega=built.omega.tolist(), mu=built.mu.tolist())
            for p in (built, public):
                assert p.omega.dtype == p.mu.dtype == np.float64 and p.n_components == m
            assert built.omega.tobytes() == public.omega.tobytes()
            assert built.mu.tobytes() == public.mu.tobytes()
            assert built.full_weights().tobytes() == public.full_weights().tobytes()
            assert built._logw == public._logw
            assert np.array(model.flatten_params(built)).tobytes() == np.array(model.flatten_params(public)).tobytes()

    def test_m_step_checks_its_output_once(self):
        # an unprojected statistic whose weights leave the simplex, then non-finite output
        for s in ([-0.5, 0.1, 0.0], [0.7, 0.6, 0.1, 0.1, 0.0]):
            with pytest.raises(ValueError, match="^weights must lie in the interior of the simplex$"):
                gmm.m_step(s, 1e-3, 1e-3, (len(s) + 1) // 2)
        for s in ([np.nan, 0.1, 0.0], [0.5, np.inf, 0.0], [0.5, 0.1, np.nan]):
            with pytest.raises(FloatingPointError, match="non-finite"):
                gmm.m_step(s, 1e-3, 1e-3, 2)

    def test_immutable(self):
        for p in (GmmParams(omega=[0.3], mu=[1.0, -1.0]), gmm.m_step([0.3, 0.3, 0.0], 1e-3, 1e-3, 2)):
            before = [p.omega.tobytes(), p.mu.tobytes(), p.full_weights().tobytes()]  # arrays now built
            for name in ("omega", "mu", "_wlist", "other"):
                with pytest.raises(FrozenInstanceError):
                    setattr(p, name, [0.5])
                with pytest.raises(FrozenInstanceError):
                    delattr(p, name)
            assert [p.omega.tobytes(), p.mu.tobytes(), p.full_weights().tobytes()] == before

    def test_model_arguments_checked(self):
        data = np.array([0.5, -0.5])
        with pytest.raises(ValueError, match="nonempty 1-d"):
            GmmModel(np.empty(0))
        rule = rf"^n_components must be an integer in \[1, {2**63 - 1}\], got "
        with pytest.raises(ValueError, match=rule + "0$"):
            GmmModel(data, n_components=0)
        # a non-integer count fails here, not deep in a run
        with pytest.raises(ValueError, match=rule + r"2\.5$"):
            GmmModel(data, n_components=2.5)
        assert GmmModel(data, n_components=np.int64(3)).stat_dim() == 5

    @pytest.mark.parametrize("field, value", [("delta", math.nan), ("epsilon", math.inf), ("delta", 0.0),
                                              ("epsilon", -1.0)])
    def test_regularizer_must_be_positive_and_finite(self, field, value):
        # a NaN or infinite strength fails here, not as the M-step's FloatingPointError
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got {value}$"):
            GmmModel(np.array([0.5, -0.5]), **{field: value})


def _exact(y, params):
    """exact_expectation for a single observation y, as an array."""
    return np.array(GmmModel(np.array([y]), params.n_components).exact_expectation(0, params))


class TestPosteriorWeights:
    """Posterior component probabilities: the s1 block of exact_expectation."""

    def test_equal_means_return_priors(self):
        p = GmmParams(omega=[0.3], mu=[1.5, 1.5])
        assert abs(_exact(2.0, p)[0] - 0.3) <= 1e-15

    def test_symmetric_case(self):
        p = GmmParams(omega=[0.5], mu=[0.5, -0.5])
        assert abs(_exact(0.0, p)[0] - 0.5) <= 1e-15

    def test_hand_value(self):
        # exponents 0 and -0.5: w1 = 1 / (1 + exp(-1/2))
        p = GmmParams(omega=[0.5], mu=[0.0, 1.0])
        assert abs(_exact(0.0, p)[0] - 1.0 / (1.0 + np.exp(-0.5))) < 1e-14

    def test_sums_to_one_even_for_extreme_observations(self):
        p = GmmParams(omega=[0.25, 0.25, 0.25], mu=[-1.0, 0.0, 1.0, 2.0])
        for y in (-40.0, -3.2, 0.0, 55.0):
            w = _exact(y, p)[:3]
            assert np.all(np.isfinite(w)) and np.all(w >= 0.0) and w.sum() <= 1.0 + 1e-12
            logits = np.log(p.full_weights()) - 0.5 * (y - p.mu) ** 2
            softmax = np.exp(logits - np.logaddexp.reduce(logits))
            np.testing.assert_allclose(w, softmax[:3], rtol=0.0, atol=1e-12)


class TestExactStat:
    def test_equal_means_use_prior_weights(self):
        p = GmmParams(omega=[0.3], mu=[4.0, 4.0])
        np.testing.assert_allclose(_exact(2.0, p), [0.3, 0.6, 2.0], atol=1e-15)

    def test_zero_observation_zeroes_s2(self):
        p = GmmParams(omega=[0.4], mu=[1.0, -2.0])
        s = _exact(0.0, p)
        assert s[1] == 0.0 and s[2] == 0.0


class TestSuffStat:
    """Statistic of one drawn label: mc_stat with all posterior mass on one
    component (every other mean so far away that its mass underflows to 0)."""

    @staticmethod
    def _one_draw(y, mu):
        m = len(mu)
        params = GmmParams(omega=np.full(m - 1, 1.0 / m), mu=mu)
        return GmmModel(np.array([y]), m).mc_stat(0, params, 1, named_stream(3, "test"))

    def test_last_component_has_no_indicator_slot(self):
        np.testing.assert_array_equal(self._one_draw(3.0, [100.0, 3.0]), [0.0, 0.0, 3.0])

    def test_first_component_one_hot(self):
        np.testing.assert_array_equal(self._one_draw(3.0, [3.0, 100.0]), [1.0, 3.0, 3.0])

    def test_three_components(self):
        np.testing.assert_array_equal(
            self._one_draw(-1.0, [100.0, -1.0, 100.0]), [0.0, 1.0, 0.0, -1.0, -1.0]
        )


class TestMStep:
    def test_unregularized_hand_values(self):
        theta = gmm.m_step([0.4, 0.2, 0.1], delta=0.0, epsilon=0.0, n_components=2)
        np.testing.assert_allclose(theta.omega, [0.4])
        np.testing.assert_allclose(theta.mu, [0.5, -1.0 / 6.0])

    def test_weight_shrinkage(self):
        theta = gmm.m_step([0.4, 0.2, 0.1], delta=0.0, epsilon=0.1, n_components=2)
        np.testing.assert_allclose(theta.omega, [0.5 / 1.2])

    def test_zero_numerators_zero_means(self):
        theta = gmm.m_step([0.4, 0.0, 0.0], delta=0.5, epsilon=0.0, n_components=2)
        np.testing.assert_array_equal(theta.mu, [0.0, 0.0])

    def test_hard_assignment_recovers_class_stats(self):
        # six points, hard labels: class 1 = {0,1,2}, class 2 = {10,11,12}
        ys = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        zs = [1, 1, 1, 2, 2, 2]
        rows = np.array([[1.0, y, y] if z == 1 else [0.0, 0.0, y] for y, z in zip(ys, zs)])
        theta = gmm.m_step(rows.mean(axis=0).tolist(), delta=0.0, epsilon=0.0, n_components=2)
        np.testing.assert_allclose(theta.omega, [0.5])
        np.testing.assert_allclose(theta.mu, [1.0, 11.0])

    def test_non_finite_parameters_raise(self):
        for s, delta in [
            ([1.0, 0.5, 0.7], 0.0),  # s1 = 1: the last mean's denominator is zero
            ([-0.5, 0.2, 0.1], 0.5),  # s1 = -delta: a non-last mean's denominator is zero
            ([0.0, 0.0, 0.1], 0.0),  # 0 / 0 on a non-last mean
            ([1e-300, 1e300, 0.0], 0.0),  # a finite quotient that overflows to inf
        ]:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"), \
                    pytest.raises(FloatingPointError, match="non-finite"):
                gmm.m_step(s, delta=delta, epsilon=0.0, n_components=2)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_numpy_formula_bit_for_bit(self, m):
        # the plain-float sums run left to right, as numpy's do below 8 terms
        rng = named_stream(20 + m, "test")
        for _ in range(200):
            s1 = rng.dirichlet(np.ones(m))[: m - 1]
            s2 = s1 * rng.uniform(-3.0, 3.0, m - 1)
            s = np.concatenate([s1, s2, [rng.normal()]])
            delta, epsilon = rng.uniform(1e-4, 0.1, 2)
            theta = gmm.m_step(s.tolist(), delta, epsilon, m)
            omega, mu = _m_step_oracle(s, delta, epsilon, m)
            assert theta.omega.tobytes() == omega.tobytes()
            assert theta.mu.tobytes() == mu.tobytes()


class TestLeftSum:
    """The plain-float sums run left to right from 0.0 on every interpreter.
    Python 3.12+ compensates sum(), where the first two sums below give
    1.0000000000000002 and 1.0.  Each input after them rounds differently
    under a compensated sum: 0.5 + 2**-54 ties back to 0.5, as 1.0 + 2**-53
    ties back to 1.0."""

    TINY = 2.0**-54

    def test_left_to_right_from_zero(self):
        assert gmm._left_sum([1.0, 1e-16, 1e-16]) == 1.0
        assert gmm._left_sum([0.1] * 10) == 0.9999999999999999
        assert math.copysign(1.0, gmm._left_sum([-0.0])) == 1.0 and gmm._left_sum([]) == 0.0

    def test_fill_and_m_step_match_plus_chain_at_four_components(self):
        t = self.TINY
        w = [0.5, t, t]
        assert math.fsum(w) != w[0] + w[1] + w[2]
        assert GmmParams(omega=w, mu=[0.0, 1.0, 2.0, 3.0])._wlist == w + [1.0 - (w[0] + w[1] + w[2])]
        s1, s2, s3, delta, eps = [0.5, t, t], [0.25, t / 2, t / 2], 0.1, 1e-3, 1e-3
        assert math.fsum(s2) != s2[0] + s2[1] + s2[2]
        o = [(a + eps) / (1.0 + eps * 4) for a in s1]
        mu = [b / (a + delta) for a, b in zip(s1, s2)]
        mu.append((s3 - (s2[0] + s2[1] + s2[2])) / (1.0 - (s1[0] + s1[1] + s1[2]) + delta))
        theta = gmm.m_step(s1 + s2 + [s3], delta, eps, 4)
        assert theta._wlist == o + [1.0 - (o[0] + o[1] + o[2])] and theta._mulist == mu

    def test_project_keeps_a_left_sum_of_one(self):
        s1 = [1.0, 2 * self.TINY, 2 * self.TINY]
        s = s1 + [0.0, 0.0, 0.0, 0.1]
        assert math.fsum(s1) > 1.0
        assert GmmModel(np.array([-1.0, 1.0]), 4).project(s) is s
        assert gmm._project_simplex(np.array(s1)).tolist() == s1


class TestProject:
    @staticmethod
    def model(n_components=2):
        truth = GmmParams(omega=[0.5], mu=[0.5, -0.5])
        return GmmModel(gmm.simulate(50, truth, named_stream(2, "data")), n_components)

    @staticmethod
    def in_set(model, s):
        m1 = model.n_components - 1
        s1, s2 = np.array(s[:m1]), np.array(s[m1 : 2 * m1])
        y = model.data
        return bool(
            np.all(s1 >= 0.0) and sum(s1.tolist()) <= 1.0
            and np.all(s1 * y.min() <= s2) and np.all(s2 <= s1 * y.max())
        )

    @staticmethod
    def assert_bit_equal(a, b):
        assert np.array(a).tobytes() == np.array(b).tobytes()

    def test_identity_on_exact_and_monte_carlo_stats(self):
        for m in (2, 3):
            model = self.model(m)
            theta = model.default_init()
            rng = named_stream(5, "mc")
            rows = []
            for i in range(model.n):
                for s in (model.exact_expectation(i, theta), model.mc_stat(i, theta, 3, rng)):
                    self.assert_bit_equal(model.project(s), s)
                    rows.append(s)
            mean = np.mean(rows, axis=0).tolist()
            self.assert_bit_equal(model.project(mean), mean)
            batch = model.exact_batch_stat(theta)
            self.assert_bit_equal(model.project(batch), batch)

    def test_identity_on_boundary_points(self):
        model = self.model()
        lo, hi, ybar = model.data.min(), model.data.max(), model.data.mean()
        for s in ([0.0, 0.0, ybar], [1.0, hi, ybar], [1.0, lo, ybar],
                  [0.3, 0.3 * hi, ybar], [0.3, 0.3 * lo, ybar]):
            s = np.array(s).tolist()
            self.assert_bit_equal(model.project(s), s)
        model3 = self.model(3)
        s = np.array([0.25, 0.75, 0.25 * hi, 0.75 * lo, ybar]).tolist()
        self.assert_bit_equal(model3.project(s), s)

    def test_out_of_set_point_lands_in_set_and_m_step_accepts_it(self):
        model = self.model()
        s = [-0.0319, 0.1837, -0.0582]  # the iterate acceptance 02 died on
        with pytest.raises(ValueError):
            model.m_step(s)
        out = model.project(s)
        assert self.in_set(model, out)
        np.testing.assert_array_equal(out, [0.0, 0.0, -0.0582])
        assert s == [-0.0319, 0.1837, -0.0582]  # input untouched
        theta = model.m_step(out)
        assert np.all(np.isfinite(theta.mu))

    def test_simplex_projection_hand_values(self):
        model = self.model(3)
        hi = model.data.max()
        cases = [
            ([0.8, 0.6], [0.6, 0.4]),
            ([1.5, -0.2], [1.0, 0.0]),
            ([-0.5, 0.3], [0.0, 0.3]),
        ]
        for s1, want in cases:
            s = s1 + [0.0, 0.0, 0.1]
            np.testing.assert_allclose(model.project(s)[:2], want, rtol=0, atol=1e-15)
        # s2 is clipped against the projected s1
        out = model.project(np.array([0.5, 0.25, 10.0 * hi, -10.0 * hi, 0.1]).tolist())
        np.testing.assert_array_equal(out[2:4], [0.5 * hi, 0.25 * model.data.min()])

    def test_random_points_land_in_set_and_projection_is_idempotent(self):
        rng = np.random.default_rng(0)
        for m in (2, 3, 5):
            model = self.model(m)
            for _ in range(200):
                s = rng.normal(0.0, 2.0, 2 * m - 1).tolist()
                out = model.project(s)
                assert self.in_set(model, out)
                self.assert_bit_equal(model.project(out), out)
                model.m_step(out)


class TestPenalizedNll:
    def test_single_gaussian_at_its_mean(self):
        p = GmmParams(omega=np.empty(0), mu=[1.7])
        val = GmmModel(np.array([1.7]), 1, 0.02, 1e-3).penalized_nll(p)
        expected = 0.5 * np.log(2 * np.pi) + 0.5 * 0.02 * 1.7**2
        assert abs(val - expected) < 1e-14

    def test_invariant_under_component_permutation(self):
        data = named_stream(1, "test").standard_normal(50)
        model = GmmModel(data, 2, 1e-3, 1e-3)
        a = model.penalized_nll(GmmParams(omega=[0.3], mu=[1.0, -2.0]))
        b = model.penalized_nll(GmmParams(omega=[0.7], mu=[-2.0, 1.0]))
        assert abs(a - b) < 1e-13

    def test_em_iterates_never_increase_it(self):
        data = gmm.simulate(500, GmmParams(omega=[0.5], mu=[0.5, -0.5]), named_stream(2, "test"))
        model = GmmModel(data)
        theta = model.default_init()
        prev = model.penalized_nll(theta)
        for _ in range(60):
            theta = model.m_step(model.exact_batch_stat(theta))
            cur = model.penalized_nll(theta)
            assert cur <= prev + 1e-10 * abs(prev)
            prev = cur


def _loop_reference(data, params, delta, epsilon):
    """Penalized NLL and mean exact statistic, one observation at a time in
    plain floats, with the log-sum-exp written out."""
    w, mu = params.full_weights().tolist(), params.mu.tolist()
    m = len(mu)
    log_marg, rows = [], []
    for y in data.tolist():
        logits = [math.log(w[j]) - 0.5 * (y - mu[j]) ** 2 for j in range(m)]
        top = max(logits)
        masses = [math.exp(v - top) for v in logits]
        total = math.fsum(masses)
        log_marg.append(top + math.log(total) - 0.5 * math.log(2.0 * math.pi))
        post = [v / total for v in masses[: m - 1]]
        rows.append(post + [r * y for r in post] + [y])
    n = len(rows)
    pen = 0.5 * delta * math.fsum(v * v for v in mu) - epsilon * math.fsum(map(math.log, w))
    stat = [math.fsum(col) / n for col in zip(*rows)]
    return -math.fsum(log_marg) / n + pen, np.array(stat)


def _posterior_oracle(y, theta):
    """One observation's shifted masses and their fsum, indexing the numpy
    parameter arrays element by element."""
    w, mu = theta.full_weights(), theta.mu
    logits = [math.log(w[j]) - 0.5 * (y - mu[j]) ** 2 for j in range(len(mu))]
    shift = max(logits)
    probs = [math.exp(v - shift) for v in logits]
    return probs, math.fsum(probs)


def _mc_stat_oracle(y, theta, n_samples, rng):
    """Inverse-CDF label draws with numpy: cumsum, searchsorted and bincount,
    labels past the last knot clamped to the last component."""
    probs, total = _posterior_oracle(y, theta)
    m = len(probs)
    cdf = np.cumsum(probs)
    labels = np.searchsorted(cdf, rng.random(n_samples) * total, side="right")
    counts = np.bincount(np.minimum(labels, m - 1), minlength=m)
    out = np.empty(2 * m - 1)
    out[: m - 1] = counts[: m - 1]
    out[: m - 1] /= n_samples
    out[m - 1 : 2 * m - 2] = out[: m - 1] * y
    out[-1] = y
    return out


def _exact_oracle(y, theta):
    probs, total = _posterior_oracle(y, theta)
    m = len(probs)
    out = np.empty(2 * m - 1)
    for j in range(m - 1):
        out[j] = probs[j] / total
    out[m - 1 : 2 * m - 2] = out[: m - 1] * y
    out[-1] = y
    return out


def _m_step_oracle(s, delta, epsilon, m):
    """The closed-form M-step on numpy arrays: (omega, mu)."""
    s1, s2, s3 = s[: m - 1], s[m - 1 : 2 * m - 2], s[2 * m - 2]
    omega = (s1 + epsilon) / (1.0 + epsilon * m)
    mu = np.empty(m)
    mu[: m - 1] = s2 / (s1 + delta)
    mu[m - 1] = (s3 - s2.sum()) / (1.0 - s1.sum() + delta)
    return omega, mu


class _NumpyOracleModel(GmmModel):
    """GmmModel whose single-index E-steps and M-step are the numpy oracles."""

    def mc_stat(self, i, theta, n_samples, rng, chains=None):
        return _mc_stat_oracle(float(self.data[i]), theta, n_samples, rng).tolist()

    def exact_expectation(self, i, theta):
        return _exact_oracle(float(self.data[i]), theta).tolist()

    def m_step(self, s):
        omega, mu = _m_step_oracle(np.array(s), self.delta, self.epsilon, self.n_components)
        assert np.all(np.isfinite(omega)) and np.all(np.isfinite(mu))
        return GmmParams(omega=omega, mu=mu)


class _BisectOracleModel(GmmModel):
    """GmmModel with the per-call draw that block draws replaced: one
    ``rng.random(n_samples)`` per E-step, each label by bisect_right."""

    def mc_stat(self, i, theta, n_samples, rng, chains=None):
        y, probs, total = self._posterior_unnorm(i, theta)
        m = self.n_components
        cdf = list(accumulate(probs))
        counts = [0] * m
        for u in rng.random(n_samples).tolist():
            counts[bisect_right(cdf, u * total, 0, m - 1)] += 1
        return gmm._stat_row([c / n_samples for c in counts[: m - 1]], y)


class _Draws:
    """A stand-in generator whose uniforms are given."""

    def __init__(self, values):
        self.values = values

    def random(self, n):
        assert n == len(self.values)
        return np.array(self.values)


class TestKernelParity:
    """The kernels against reference formulas.  The vectorized kernel is
    checked against a per-observation loop, including observations more
    than 40 units from every mean, whose masses all underflow unless the log
    joints are shifted first; the plain-float single-index kernels are
    checked bit for bit against the numpy formulas they replace."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_nll_and_batch_stat_match_loop(self, m):
        rng = named_stream(10 + m, "test")
        mu = np.linspace(-2.0, 2.0, m) + rng.normal(0.0, 0.3, m)
        omega = rng.dirichlet(np.ones(m))[: m - 1]
        data = np.concatenate([rng.normal(0.0, 2.0, 200), [-60.0, -45.0, 43.0, 75.5]])
        assert np.min(np.abs(data[-4:, None] - mu[None, :])) > 40.0
        params = GmmParams(omega=omega, mu=mu)
        model = GmmModel(data, m, delta=0.02, epsilon=0.01)
        nll, stat = _loop_reference(data, params, 0.02, 0.01)
        np.testing.assert_allclose(model.penalized_nll(params), nll, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(model.exact_batch_stat(params), stat, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_samples", [1, 10])
    def test_single_index_kernels_match_numpy_formulas(self, m, n_samples):
        rng = named_stream(30 + m, "test")
        data = np.concatenate([rng.normal(0.0, 2.0, 60), [-60.0, 43.0]])
        model = GmmModel(data, m)
        for _ in range(5):
            theta = GmmParams(omega=rng.dirichlet(np.ones(m))[: m - 1],
                              mu=np.linspace(-2.0, 2.0, m) + rng.normal(0.0, 0.5, m))
            seed = int(rng.integers(2**32))
            ours, ref = named_stream(seed, "mc"), named_stream(seed, "mc")
            for i in range(model.n):
                y = float(data[i])
                assert np.array(model.mc_stat(i, theta, n_samples, ours)).tobytes() == \
                    _mc_stat_oracle(y, theta, n_samples, ref).tobytes()
                assert np.array(model.exact_expectation(i, theta)).tobytes() == _exact_oracle(y, theta).tobytes()

    def test_draw_on_a_cdf_knot(self):
        theta = GmmParams(omega=[0.3, 0.2], mu=[-1.0, 0.5, 2.0])
        model = GmmModel(np.array([0.25]), 3)
        probs, total = _posterior_oracle(0.25, theta)
        knot = probs[0]
        u = knot / total
        while u * total < knot:
            u = np.nextafter(u, 1.0)
        while u * total > knot:
            u = np.nextafter(u, 0.0)
        assert u * total == knot  # searchsorted(side="right") puts it in component 2
        draws = [float(u), 0.0, 0.99]
        ours = model.mc_stat(0, theta, 3, _Draws(draws))
        np.testing.assert_array_equal(ours, _mc_stat_oracle(0.25, theta, 3, _Draws(draws)))
        np.testing.assert_array_equal(ours[:2], [1.0 / 3.0, 1.0 / 3.0])

    def test_draw_past_the_running_sum_is_clamped(self):
        # masses 1, e^-37, e^-37: the running sum stays at 1.0 while fsum
        # rounds up an ulp, so a draw near 1 lands past the last knot
        far = 1.0 + math.sqrt(74.0)
        theta = GmmParams(omega=[1.0 / 3.0, 1.0 / 3.0], mu=[1.0, far, far])
        model = GmmModel(np.array([1.0]), 3)
        probs, total = _posterior_oracle(1.0, theta)
        cdf = np.cumsum(probs)
        assert total > cdf[-1]
        u = float(np.nextafter(1.0, 0.0))
        assert np.searchsorted(cdf, u * total, side="right") == 3  # past the last knot
        ours = model.mc_stat(0, theta, 1, _Draws([u]))
        np.testing.assert_array_equal(ours, _mc_stat_oracle(1.0, theta, 1, _Draws([u])))
        np.testing.assert_array_equal(ours, [0.0, 0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_runs_match_numpy_oracle_model(self, m, variant):
        truth = GmmParams(omega=np.full(m - 1, 1.0 / m), mu=np.linspace(-1.5, 1.5, m))
        data = gmm.simulate(60, truth, named_stream(40 + m, "data"))
        cfg = bench.AlgoSpec(variant, mc_samples=3).to_config(n=60, epochs=2, seed=7, model_kind="gmm")
        ours = run(GmmModel(data, m), cfg)
        ref = run(_NumpyOracleModel(data, m), cfg)
        for name in ("thetas", "epochs", "delta_s_sq"):
            assert np.array_equal(getattr(ours, name), getattr(ref, name)), name

    @pytest.mark.parametrize("mc_samples", [1, 10, 300])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("variant", ["MCEM", "SAEM", "iSAEM", "vrTTEM", "fiTTEM"])
    def test_block_draws_match_per_call_draws(self, variant, m, mc_samples):
        # each run makes at least 300 E-steps, so its blocks refill even at
        # one draw each; an E-step of 300 draws outruns a whole block
        assert gmm._UNIFORM_BLOCK < 300
        truth = GmmParams(omega=np.full(m - 1, 1.0 / m), mu=np.linspace(-1.5, 1.5, m))
        data = gmm.simulate(100, truth, named_stream(50 + m, "data"))
        cfg = bench.AlgoSpec(variant, mc_samples=mc_samples).to_config(n=100, epochs=2, seed=9, model_kind="gmm")
        ours, ref = run(GmmModel(data, m), cfg), run(_BisectOracleModel(data, m), cfg)
        for name in ("thetas", "epochs", "delta_s_sq"):
            assert np.array_equal(getattr(ours, name), getattr(ref, name)), name


class TestPipelineIdentities:
    def test_batch_stat_matches_per_sample_mean(self):
        data = named_stream(3, "test").standard_normal(40)
        model = GmmModel(data)
        theta = GmmParams(omega=[0.4], mu=[0.3, -0.6])
        rows = np.stack([model.exact_expectation(i, theta) for i in range(model.n)])
        np.testing.assert_allclose(
            model.exact_batch_stat(theta), rows.mean(axis=0), rtol=1e-12, atol=1e-12
        )

    def test_fixed_point_of_converged_em(self):
        data = gmm.simulate(2000, GmmParams(omega=[0.5], mu=[0.5, -0.5]), named_stream(4, "test"))
        model = GmmModel(data)
        theta_hat = gmm.fit_reference_em(data)
        reimage = model.m_step(model.exact_batch_stat(theta_hat))
        np.testing.assert_allclose(
            model.flatten_params(reimage), model.flatten_params(theta_hat), rtol=1e-10, atol=1e-10
        )

    def test_batch_em_converges_on_synthetic_data(self):
        # movement below 1e-9 takes roughly 2000 iterations on this heavily
        # overlapped mixture; 2500 gives headroom across starts
        data = gmm.simulate(10_000, GmmParams(omega=[0.5], mu=[0.5, -0.5]), named_stream(5, "test"))
        model = GmmModel(data)
        for start in (model.default_init(), GmmParams(omega=[0.25], mu=[3.0, -2.0])):
            theta = start
            prev = np.array(model.flatten_params(theta))
            converged = False
            for _ in range(2500):
                theta = model.m_step(model.exact_batch_stat(theta))
                cur = np.array(model.flatten_params(theta))
                if np.max(np.abs(cur - prev)) < 1e-9:
                    converged = True
                    break
                prev = cur
            assert converged


def _plain_reference_em(data, init=None):
    """Plain EM to the reference stopping rule: the loop fit_reference_em
    ran before SQUAREM, kept as its oracle."""
    model = GmmModel(data, init.n_components if init is not None else 2)
    theta = init if init is not None else model.default_init()
    prev = np.array(model.flatten_params(theta))
    for _ in range(200_000):
        theta = model.m_step(model.exact_batch_stat(theta))
        cur = np.array(model.flatten_params(theta))
        if np.max(np.abs(cur - prev)) < 1e-14:
            return theta
        prev = cur
    raise AssertionError("plain EM did not converge")


_REF_TRUTHS = {2: GmmParams(omega=[0.5], mu=[0.5, -0.5]), 3: GmmParams(omega=[1 / 3, 1 / 3], mu=[-1.5, 0.0, 1.5])}


def _ref_case(m, seed, start):
    data = gmm.simulate(1000, _REF_TRUTHS[m], named_stream(seed, "test"))
    return data, GmmModel(data, m).default_init() if start is None else start


class TestReferenceEm:
    @pytest.mark.parametrize("m, seed, start", [
        (2, 70, None), (2, 71, None), (2, 72, None),
        (2, 73, GmmParams(omega=[0.25], mu=[3.0, -2.0])), (2, 74, GmmParams(omega=[0.25], mu=[3.0, -2.0])),
        (3, 75, None), (3, 76, None), (3, 77, GmmParams(omega=[0.1, 0.2], mu=[4.0, -3.0, 0.5])),
    ])
    def test_matches_plain_em(self, m, seed, start):
        data, init = _ref_case(m, seed, start)
        model = GmmModel(data, m)
        got = model.flatten_params(gmm.fit_reference_em(data, init))
        want = model.flatten_params(_plain_reference_em(data, init))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.fixture
    def map_log(self, monkeypatch):
        """Logs each EM-map pass ("S") and each extrapolated point ("U")."""
        log = []
        stat, unflatten = GmmModel.exact_batch_stat, GmmModel.unflatten_params
        monkeypatch.setattr(GmmModel, "exact_batch_stat",
                            lambda self, theta: log.append("S") or stat(self, theta))
        monkeypatch.setattr(GmmModel, "unflatten_params",
                            lambda self, vec: log.append("U") or unflatten(self, vec))
        return log

    def test_backtracks(self, map_log):
        # Extrapolated points of one cycle are separated by at most the one
        # EM map of the rejected try; a new cycle first takes two plain maps.
        data, init = _ref_case(2, 70, None)
        theta = gmm.fit_reference_em(data, init)
        tries = [i for i, e in enumerate(map_log) if e == "U"]
        backtracks = sum(map_log[a:b].count("S") <= 1 for a, b in zip(tries, tries[1:]))
        assert backtracks > 0
        np.testing.assert_allclose(theta.mu, _plain_reference_em(data, init).mu, rtol=0, atol=1e-10)

    def test_a_tenth_of_the_plain_maps(self, map_log):
        data = gmm.simulate(2000, GmmParams(omega=[0.5], mu=[0.5, -0.5]), named_stream(78, "test"))
        gmm.fit_reference_em(data)
        squarem = map_log.count("S")
        map_log.clear()
        _plain_reference_em(data)
        assert 0 < squarem <= map_log.count("S") / 10

    def test_unconverged_raises(self, monkeypatch):
        data, init = _ref_case(2, 70, None)
        monkeypatch.setattr(gmm, "_REFERENCE_MAX_ITER", 2)
        with pytest.raises(FloatingPointError, match=r"n=1000 unconverged in [34] EM maps; last step \d"):
            gmm.fit_reference_em(data, init)


class TestSimulate:
    def test_degenerate_weights_single_component(self):
        p = GmmParams(omega=[1.0 - 1e-12], mu=[2.5, -9.0])
        n = 4000
        data = gmm.simulate(n, p, named_stream(6, "test"))
        assert abs(data.mean() - 2.5) <= 4.0 / np.sqrt(n)

    def test_reference_truth_mixture_mean(self):
        p = GmmParams(omega=[0.5], mu=[0.5, -0.5])
        n = 50_000
        data = gmm.simulate(n, p, named_stream(7, "test"))
        # mixture mean 0, variance 1 + 0.25
        assert abs(data.mean()) <= 4.0 * np.sqrt(1.25 / n)

    def test_empty_dataset(self):
        p = GmmParams(omega=[0.5], mu=[0.5, -0.5])
        assert gmm.simulate(0, p, named_stream(8, "test")).size == 0


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        data = named_stream(9, "test").standard_normal(17)
        path = tmp_path / "data.txt"
        gmm.write_dataset(path, data)
        np.testing.assert_array_equal(gmm.read_dataset(path), data)
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_data_rejected(self, tmp_path, bad):
        path = tmp_path / "data.txt"
        path.write_text(f"0.5\n{bad}\n-0.5\n")
        with pytest.raises(ValueError, match="data must be finite"):
            GmmModel(gmm.read_dataset(path))
