import numpy as np
import pytest

from ttsem import gmm
from ttsem.gmm import GmmModel, GmmParams, GmmRegularizer
from ttsem.rng import named_stream


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

    def test_regularizer_must_be_positive(self):
        with pytest.raises(ValueError):
            GmmRegularizer(delta=0.0)
        with pytest.raises(ValueError):
            GmmRegularizer(epsilon=-1.0)


def _exact(y, params):
    """exact_expectation for a single observation y."""
    return GmmModel(np.array([y]), params.n_components).exact_expectation(0, params)


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
        theta = gmm.m_step(np.array([0.4, 0.2, 0.1]), delta=0.0, epsilon=0.0, n_components=2)
        np.testing.assert_allclose(theta.omega, [0.4])
        np.testing.assert_allclose(theta.mu, [0.5, -1.0 / 6.0])

    def test_weight_shrinkage(self):
        theta = gmm.m_step(np.array([0.4, 0.2, 0.1]), delta=0.0, epsilon=0.1, n_components=2)
        np.testing.assert_allclose(theta.omega, [0.5 / 1.2])

    def test_zero_numerators_zero_means(self):
        theta = gmm.m_step(np.array([0.4, 0.0, 0.0]), delta=0.5, epsilon=0.0, n_components=2)
        np.testing.assert_array_equal(theta.mu, [0.0, 0.0])

    def test_hard_assignment_recovers_class_stats(self):
        # six points, hard labels: class 1 = {0,1,2}, class 2 = {10,11,12}
        ys = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        zs = [1, 1, 1, 2, 2, 2]
        rows = np.array([[1.0, y, y] if z == 1 else [0.0, 0.0, y] for y, z in zip(ys, zs)])
        theta = gmm.m_step(rows.mean(axis=0), delta=0.0, epsilon=0.0, n_components=2)
        np.testing.assert_allclose(theta.omega, [0.5])
        np.testing.assert_allclose(theta.mu, [1.0, 11.0])


class TestProject:
    @staticmethod
    def model(n_components=2):
        truth = GmmParams(omega=[0.5], mu=[0.5, -0.5])
        return GmmModel(gmm.simulate(50, truth, named_stream(2, "data")), n_components)

    @staticmethod
    def in_set(model, s):
        m1 = model.n_components - 1
        s1, s2 = s[:m1], s[m1 : 2 * m1]
        y = model.data
        return bool(
            np.all(s1 >= 0.0) and sum(s1.tolist()) <= 1.0
            and np.all(s1 * y.min() <= s2) and np.all(s2 <= s1 * y.max())
        )

    @staticmethod
    def assert_bit_equal(a, b):
        assert a.tobytes() == b.tobytes()

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
            mean = np.mean(rows, axis=0)
            self.assert_bit_equal(model.project(mean), mean)
            batch = model.exact_batch_stat(theta)
            self.assert_bit_equal(model.project(batch), batch)

    def test_identity_on_boundary_points(self):
        model = self.model()
        lo, hi, ybar = model.data.min(), model.data.max(), model.data.mean()
        for s in ([0.0, 0.0, ybar], [1.0, hi, ybar], [1.0, lo, ybar],
                  [0.3, 0.3 * hi, ybar], [0.3, 0.3 * lo, ybar]):
            s = np.array(s)
            self.assert_bit_equal(model.project(s), s)
        model3 = self.model(3)
        s = np.array([0.25, 0.75, 0.25 * hi, 0.75 * lo, ybar])
        self.assert_bit_equal(model3.project(s), s)

    def test_out_of_set_point_lands_in_set_and_m_step_accepts_it(self):
        model = self.model()
        s = np.array([-0.0319, 0.1837, -0.0582])  # the iterate acceptance 02 died on
        with pytest.raises(ValueError):
            model.m_step(s)
        out = model.project(s)
        assert self.in_set(model, out)
        np.testing.assert_array_equal(out, [0.0, 0.0, -0.0582])
        assert s.tolist() == [-0.0319, 0.1837, -0.0582]  # input untouched
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
            s = np.array(s1 + [0.0, 0.0, 0.1])
            np.testing.assert_allclose(model.project(s)[:2], want, rtol=0, atol=1e-15)
        # s2 is clipped against the projected s1
        out = model.project(np.array([0.5, 0.25, 10.0 * hi, -10.0 * hi, 0.1]))
        np.testing.assert_array_equal(out[2:4], [0.5 * hi, 0.25 * model.data.min()])

    def test_random_points_land_in_set_and_projection_is_idempotent(self):
        rng = np.random.default_rng(0)
        for m in (2, 3, 5):
            model = self.model(m)
            for _ in range(200):
                s = rng.normal(0.0, 2.0, 2 * m - 1)
                out = model.project(s)
                assert self.in_set(model, out)
                self.assert_bit_equal(model.project(out), out)
                model.m_step(out)


class TestPenalizedNll:
    def test_single_gaussian_at_its_mean(self):
        reg = GmmRegularizer(delta=0.02, epsilon=1e-3)
        p = GmmParams(omega=np.empty(0), mu=[1.7])
        val = gmm.penalized_nll(np.array([1.7]), p, reg)
        expected = 0.5 * np.log(2 * np.pi) + 0.5 * 0.02 * 1.7**2
        assert abs(val - expected) < 1e-14

    def test_invariant_under_component_permutation(self):
        reg = GmmRegularizer()
        data = named_stream(1, "test").standard_normal(50)
        a = gmm.penalized_nll(data, GmmParams(omega=[0.3], mu=[1.0, -2.0]), reg)
        b = gmm.penalized_nll(data, GmmParams(omega=[0.7], mu=[-2.0, 1.0]), reg)
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
        theta_hat = gmm.fit_reference_em(data, tol=1e-14)
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
            prev = model.flatten_params(theta)
            converged = False
            for _ in range(2500):
                theta = model.m_step(model.exact_batch_stat(theta))
                cur = model.flatten_params(theta)
                if np.max(np.abs(cur - prev)) < 1e-9:
                    converged = True
                    break
                prev = cur
            assert converged


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
