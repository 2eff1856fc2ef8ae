"""Each benchmark check accepts a real ttsem output and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import WRAPPED, Aggregate, Tracer, per_layer  # noqa: E402
from ttsem import bench, engine, gmm, pk  # noqa: E402
from ttsem.samplers import MhConfig, mh_chain  # noqa: E402

WEIGHTS, MU = [0.5, 0.5], [0.5, -0.5]


@pytest.fixture(scope="module")
def gmm_data():
    return checks.simulate_gmm(300, WEIGHTS, MU, np.random.default_rng(5))


def _gmm_run(data, variant="fiTTEM", epochs=1.0):
    model = gmm.GmmModel(data)
    cfg = bench.AlgoSpec(variant).to_config(len(data), epochs, 3, "gmm")
    return model, cfg, engine.run(model, cfg, theta0=model.default_init())


class TestGmmThetas:
    def test_real_rows_pass(self, gmm_data):
        _, _, traj = _gmm_run(gmm_data)
        assert checks.check_gmm_thetas(traj.thetas, 2) == []

    @pytest.mark.parametrize("col,value", [(0, 0.0), (0, 1.0), (1, np.nan), (2, np.inf)])
    def test_corrupted_row_fails(self, gmm_data, col, value):
        _, _, traj = _gmm_run(gmm_data)
        thetas = traj.thetas.copy()
        thetas[7, col] = value
        assert checks.check_gmm_thetas(thetas, 2)


class TestNllGap:
    def test_real_run_closes_the_gap(self, gmm_data):
        model, _, traj = _gmm_run(gmm_data, "iSAEM", epochs=3.0)
        w0, mu0 = checks.gmm_default_start(gmm_data, 2)
        w, mu = checks.gmm_em(gmm_data, w0, mu0)
        end = traj.terminal_theta
        nll_end = checks.gmm_nll(gmm_data, checks.full_weights(end[:1]), end[1:])
        assert checks.check_nll_gap(checks.gmm_nll(gmm_data, w0, mu0), nll_end,
                                    checks.gmm_nll(gmm_data, w, mu)) == []

    def test_start_left_in_place_fails(self):
        assert checks.check_nll_gap(1.5, 1.49, 1.4)

    def test_em_above_start_fails(self):
        assert checks.check_nll_gap(1.5, 1.4, 1.6)

    def test_em_matches_ttsem_reference(self, gmm_data):
        w0, mu0 = checks.gmm_default_start(gmm_data, 2)
        _, mu = checks.gmm_em(gmm_data, w0, mu0, tol=1e-14)
        ref = gmm.fit_reference_em(gmm_data, init=gmm.GmmModel(gmm_data).default_init())
        np.testing.assert_allclose(mu, ref.mu, rtol=0, atol=1e-7)

    def test_nll_matches_ttsem(self, gmm_data):
        theta = gmm.GmmParams(omega=[0.3], mu=[1.0, -2.0])
        want = gmm.GmmModel(gmm_data).penalized_nll(theta)
        assert checks.gmm_nll(gmm_data, [0.3, 0.7], [1.0, -2.0]) == pytest.approx(want, rel=1e-13)


class TestTrajectoryCsv:
    @pytest.fixture(scope="class")
    def csv_text(self, gmm_data):
        model, _, traj = _gmm_run(gmm_data)
        buf = io.StringIO()
        traj.write_csv(buf, nll=lambda v: model.penalized_nll(model.unflatten_params(v)))
        return buf.getvalue()

    def test_real_csv_passes(self, csv_text, gmm_data):
        assert checks.check_trajectory_csv(csv_text, gmm_data, 2) == []

    def _replace_cell(self, text, row, col, fn):
        lines = text.split("\n")
        cells = lines[row].split(",")
        cells[col] = fn(cells[col])
        lines[row] = ",".join(cells)
        return "\n".join(lines)

    def test_bad_header_fails(self, csv_text, gmm_data):
        assert checks.check_trajectory_csv(csv_text.replace("mu2", "mu3", 1), gmm_data, 2)

    def test_too_many_rows_fails(self, csv_text, gmm_data):
        assert checks.check_trajectory_csv(csv_text, gmm_data, 2, max_rows=10)

    def test_decreasing_epoch_fails(self, csv_text, gmm_data):
        bad = self._replace_cell(csv_text, 5, 1, lambda c: "0.0")
        assert checks.check_trajectory_csv(bad, gmm_data, 2)

    def test_perturbed_nll_fails(self, csv_text, gmm_data):
        bad = self._replace_cell(csv_text, 1, -1, lambda c: repr(float(c) * (1 + 1e-10)))
        assert checks.check_trajectory_csv(bad, gmm_data, 2)

    def test_weight_outside_simplex_fails(self, csv_text, gmm_data):
        bad = self._replace_cell(csv_text, 3, 2, lambda c: "1.5")
        assert checks.check_trajectory_csv(bad, gmm_data, 2)

    def test_truncated_file_fails(self, csv_text, gmm_data):
        assert checks.check_trajectory_csv(csv_text[:-1], gmm_data, 2)


class TestReplicateSummary:
    ALGOS = ["SAEM", "iSAEM", "vrTTEM", "fiTTEM"]
    N, R, SEED = 200, 2, 11

    @pytest.fixture(scope="class")
    def study(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("rep")
        refs = []
        fit = gmm.fit_reference_em

        def recording_fit(*args, **kwargs):
            theta = fit(*args, **kwargs)
            refs.append(list(theta.mu))
            return theta

        spec = bench.ExperimentSpec(model="gmm", n=self.N, replicates=self.R, epochs=1.0,
                                    algorithms=tuple(bench.AlgoSpec(a) for a in self.ALGOS), seed=self.SEED)
        gmm.fit_reference_em = recording_fit
        try:
            bench.cmd_replicate(spec, out / "rep.csv", out / "rep.json")
        finally:
            gmm.fit_reference_em = fit
        summary = json.loads((out / "rep.json").read_text())
        em = []
        for r in range(self.R):
            data = checks.replicate_data(self.SEED, r, self.N, WEIGHTS, MU)
            em.append(checks.gmm_em(data, *checks.gmm_default_start(data, 2), tol=1e-14)[1])
        return summary, refs, em

    def _check(self, summary, refs, em):
        return checks.check_replicate_summary(summary, self.ALGOS, self.R, self.SEED, self.N,
                                              WEIGHTS, MU, refs, em)

    def test_real_summary_passes(self, study):
        assert self._check(*study) == []

    def test_inflated_wins_fail(self, study):
        summary, refs, em = study
        bad = json.loads(json.dumps(summary))
        bad["wins"]["precision"]["SAEM"]["fiTTEM"] = self.R
        bad["wins"]["precision"]["fiTTEM"]["SAEM"] = 1
        assert self._check(bad, refs, em)

    def test_wrong_median_fails(self, study):
        summary, refs, em = study
        bad = json.loads(json.dumps(summary))
        bad["final"]["iSAEM"]["precision"]["median"] += 1e-6
        assert self._check(bad, refs, em)

    def test_wrong_data_hash_fails(self, study):
        summary, refs, em = study
        bad = json.loads(json.dumps(summary))
        bad["hashes"][1]["data"] = "0" * 64
        assert self._check(bad, refs, em)

    def test_wrong_reference_fails(self, study):
        summary, refs, em = study
        bad_refs = [list(r) for r in refs]
        bad_refs[0][1] += 1e-5
        assert self._check(summary, bad_refs, em)

    def test_missing_algorithm_fails(self, study):
        summary, refs, em = study
        bad = json.loads(json.dumps(summary))
        del bad["final"]["vrTTEM"]
        assert self._check(bad, refs, em)


class TestPk:
    @pytest.fixture(scope="class")
    def pk_run(self):
        truth = pk.paper_truth()
        cohort = pk.simulate(40, truth, pk.default_design(), np.random.default_rng(3))
        theta0 = bench.pk_naive_init(cohort)
        cfg = bench.AlgoSpec("SAEM", mc_samples=20).to_config(40, 3, 1, "pk")
        traj = engine.run(pk.PkModel(cohort), cfg, theta0=theta0)
        return traj, theta0, truth

    def test_real_terminal_passes(self, pk_run):
        traj, theta0, truth = pk_run
        assert checks.check_pk_terminal(traj.terminal_theta, theta0.log_pop, truth.log_pop) == []

    def test_start_left_in_place_fails(self, pk_run):
        traj, theta0, truth = pk_run
        bad = traj.terminal_theta.copy()
        bad[:4] = theta0.log_pop
        assert checks.check_pk_terminal(bad, theta0.log_pop, truth.log_pop)

    def test_indefinite_omega_fails(self, pk_run):
        traj, theta0, truth = pk_run
        bad = traj.terminal_theta.copy()
        bad[4] = -1.0  # omega2[0, 0]
        assert checks.check_pk_terminal(bad, theta0.log_pop, truth.log_pop)

    def test_zero_sigma_fails(self, pk_run):
        traj, theta0, truth = pk_run
        bad = traj.terminal_theta.copy()
        bad[14] = 0.0
        assert checks.check_pk_terminal(bad, theta0.log_pop, truth.log_pop)

    def test_same_run_check(self, pk_run):
        thetas = pk_run[0].thetas
        assert checks.check_same_run(thetas.copy(), thetas) == []
        bad = thetas.copy()
        bad[-1, 0] = np.nextafter(bad[-1, 0], np.inf)
        assert checks.check_same_run(bad, thetas)


class TestTracing:
    @pytest.mark.parametrize("variant", ["SAEM", "iSAEM", "vrTTEM", "fiTTEM"])
    def test_estep_count_matches_configuration(self, gmm_data, variant, tmp_path):
        tracer = Tracer().install()
        try:
            _, cfg, _ = _gmm_run(gmm_data, variant, epochs=2.0)
        finally:
            tracer.remove()
        tracer.save(tmp_path / "t.npz", [])
        agg = Aggregate()
        agg.add_file(tmp_path / "t.npz")
        expected = checks.expected_esteps(variant, len(gmm_data), cfg.total_iters, cfg.epoch_len)
        assert checks.check_esteps(agg.calls["engine.estep"], expected) == []
        assert checks.check_esteps(agg.calls["engine.estep"] - 1, expected)

    def test_remove_restores_every_function(self):
        import importlib

        def current():
            out = []
            for module, cls, attr, _ in WRAPPED:
                owner = importlib.import_module(module)
                owner = getattr(owner, cls) if cls else owner
                out.append(owner.__dict__[attr] if cls else getattr(owner, attr))
            return out

        before = current()
        Tracer().install().remove()
        assert current() == before

    def test_accept_replay_counts_state_changes(self):
        tracer = Tracer().install()
        try:
            pk.mh_chain(lambda z: -0.5 * float(z @ z), MhConfig(60, np.ones(2), np.zeros(2)),
                        np.random.default_rng(4))
        finally:
            tracer.remove()
        _, accepted = tracer.accepts()
        # the same chain, collected: a state that changed was accepted
        _, kept = mh_chain(lambda z: -0.5 * float(z @ z), MhConfig(60, np.ones(2), np.zeros(2)),
                           np.random.default_rng(4), collect=True)
        prev = np.vstack([np.zeros((1, 2)), kept[:-1]])
        assert accepted == int(np.any(kept != prev, axis=1).sum())

    def test_per_layer_names_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="ascii") as fh:
            spec = json.load(fh)
        metrics = per_layer(Aggregate(), {"overhead_s": 0.0, "probe_us": 0.0})
        assert [m["name"] for m in spec["per_layer"]] == list(metrics)
        assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in metrics.values()]
