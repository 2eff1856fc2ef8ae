import concurrent.futures
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ttsem import bench, cli, gmm, pk
from ttsem.bench import AlgoSpec, ExperimentSpec
from ttsem.core import ConfigError, StepSchedule
from ttsem.engine import run
from ttsem.rng import named_stream


class TestGammaParsing:
    def test_plain_number_is_constant(self):
        assert bench.parse_gamma("1", 100, "iSAEM") == StepSchedule.constant(1.0)

    def test_const_prefix(self):
        assert bench.parse_gamma("const:0.5", 100, "iSAEM") == StepSchedule.constant(0.5)

    def test_poly_with_warmup_epochs(self):
        sched = bench.parse_gamma("poly:0.5:warmup=1ep", 100, "iSAEM")
        assert sched == StepSchedule.polynomial(0.5, warmup_iters=100)

    def test_poly_with_iteration_warmup_and_c(self):
        sched = bench.parse_gamma("poly:0.7:c=0.9:warmup=25", 100, "iSAEM")
        assert sched == StepSchedule.polynomial(0.7, c=0.9, warmup_iters=25)
        assert bench.parse_gamma("poly:0.7:warmup=2.4", 100, "iSAEM").warmup_iters == 2

    def test_bad_specs_rejected(self):
        for bad in ("poly", "poly:abc", "linear:0.5", "poly:0.5:foo=1", "const",
                    "const:0.5:warmup=3", "0.5:0.5", "poly:0.5:warmup=nan",
                    "poly:0.5:warmup=inf", "poly:0.5:warmup=1e400ep", "poly:0.5:warmup=-1",
                    "poly:0.5:warmup=1e306ep", "poly:0.5:c=2", "2"):
            with pytest.raises(ConfigError):
                bench.parse_gamma(bad, 1000, "iSAEM")

    def test_epoch_warmup_resolution_depends_on_variant(self):
        incr = bench.parse_gamma("poly:0.5:warmup=1ep", n=100, variant="iSAEM")
        batch = bench.parse_gamma("poly:0.5:warmup=1ep", n=100, variant="SAEM")
        assert incr.warmup_iters == 100
        assert batch.warmup_iters == 1

    def test_resolve_rho(self):
        assert bench.resolve_rho("auto", 1000, "vrTTEM") == pytest.approx(1000 ** (-2 / 3))
        assert bench.resolve_rho("auto", 1000, "SAEM") == 1.0
        assert bench.resolve_rho(0.25, 1000, "fiTTEM") == 0.25

    def test_epochs_to_iters(self):
        assert bench.epochs_to_iters(7.0, 100, "SAEM") == 7
        assert bench.epochs_to_iters(7.0, 100, "iSAEM") == 700
        assert bench.epochs_to_iters(2.5, 100, "EM") == 3


class TestAlgoSpec:
    def test_auto_fields(self):
        cfg = AlgoSpec("vrTTEM").to_config(n=64, epochs=2.0, seed=1, model_kind="gmm")
        assert cfg.epoch_len == 64
        assert cfg.rho == pytest.approx(64 ** (-2 / 3))
        assert cfg.mc_samples == 10
        assert cfg.total_iters == 128

    def test_exact_variant_gets_unit_gamma_by_default(self):
        cfg = AlgoSpec("EM").to_config(n=10, epochs=3.0, seed=0, model_kind="gmm")
        assert cfg.gamma.is_unit and cfg.total_iters == 3

    def test_pk_defaults(self):
        cfg = AlgoSpec("SAEM").to_config(n=50, epochs=1.0, seed=0, model_kind="pk")
        assert cfg.mc_samples == 50

    @pytest.mark.parametrize("epoch_len, message", [
        (2.5, "epoch_len must be an integer, got 2.5"),  # not truncated to 2
        ("2.5", "cannot parse epoch_len '2.5'"),
        ("x", "cannot parse epoch_len 'x'"),
    ])
    def test_epoch_len_must_be_an_integer(self, epoch_len, message):
        with pytest.raises(ConfigError, match=message):
            AlgoSpec("vrTTEM", epoch_len=epoch_len).to_config(n=100, epochs=1, seed=0, model_kind="gmm")
        assert AlgoSpec("vrTTEM", epoch_len="7").to_config(100, 1, 0, "gmm").epoch_len == 7

    @pytest.mark.parametrize("variant", ["SAEM", "iSAEM", "fiTTEM", "EM"])
    def test_epoch_len_checked_for_every_variant(self, variant):
        for bad in ("x", "2.5", 2.5):
            with pytest.raises(ConfigError, match="epoch_len"):
                AlgoSpec(variant, epoch_len=bad).to_config(100, 1, 0, "gmm")
        # a well-formed value is left unused outside vrTTEM
        assert AlgoSpec(variant, epoch_len="7").to_config(100, 1, 0, "gmm").epoch_len is None


class TestMetricPrecision:
    def test_zero_at_truth(self):
        assert bench.metric_precision_gmm([0.5, -0.5], [0.5, -0.5]) == 0.0

    def test_label_swap_is_free(self):
        assert bench.metric_precision_gmm([0.5, -0.5], [-0.5, 0.5]) == 0.0

    def test_hand_value(self):
        assert bench.metric_precision_gmm([0.6, -0.5], [0.5, -0.5]) == pytest.approx(0.01)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            bench.metric_precision_gmm([0.5], [0.5, -0.5])

    @pytest.mark.parametrize("m", [2, 3])
    def test_trajectory_series_matches_per_row_metric(self, m):
        data = gmm.simulate(120, bench.gmm_truth_default(), named_stream(65, "data"))
        model = gmm.GmmModel(data, m)
        theta0 = model.default_init()
        cfg = AlgoSpec("fiTTEM", mc_samples=2).to_config(n=120, epochs=2, seed=3, model_kind="gmm")
        traj = run(model, cfg, theta0=theta0)
        mu_star = gmm.fit_reference_em(data, init=theta0).mu
        for ref in (mu_star, mu_star[::-1].copy()):
            got = bench._metric_values("gmm", traj, ref)["precision"]
            want = np.array([bench.metric_precision_gmm(row[m - 1 :], ref) for row in traj.thetas])
            assert len(want) == traj.n_records > 200
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSimulateCommand:
    def test_gmm_line_count_and_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        h1 = bench.cmd_simulate("gmm", None, 5, 3, p1)
        h2 = bench.cmd_simulate("gmm", None, 5, 3, p2)
        assert h1 == h2
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_text().splitlines()) == 5

    def test_pk_row_count(self, tmp_path):
        path = tmp_path / "c.csv"
        bench.cmd_simulate("pk", None, 3, 1, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3 * 10  # header plus J=10 rows per patient

    @pytest.mark.parametrize("model", ["gmm", "pk"])
    def test_non_integer_n_is_config_error(self, tmp_path, model):
        path = tmp_path / "d.txt"
        with pytest.raises(ConfigError, match=r"^n must be an integer, got 2\.5$"):
            bench.cmd_simulate(model, None, 2.5, 1, path)
        assert not path.exists()


class TestRunCommand:
    def test_em_nll_non_increasing(self, tmp_path):
        data = gmm.simulate(500, bench.gmm_truth_default(), named_stream(60, "data"))
        cfg = AlgoSpec("EM").to_config(n=500, epochs=100, seed=0, model_kind="gmm")
        out = tmp_path / "em.csv"
        bench.cmd_run("gmm", data, cfg, out)
        rows = out.read_text().splitlines()
        header = rows[0].split(",")
        nll_col = header.index("nll")
        nll = np.array([float(r.split(",")[nll_col]) for r in rows[1:]])
        assert len(nll) == 101
        assert np.all(nll[1:] <= nll[:-1] + 1e-10 * np.abs(nll[:-1]))

    def test_vr_rho1_m1_delta_column_zero(self, tmp_path):
        data = gmm.simulate(100, bench.gmm_truth_default(), named_stream(61, "data"))
        cfg = AlgoSpec("vrTTEM", rho=1.0, epoch_len=1, mc_samples=2).to_config(
            n=100, epochs=0.2, seed=4, model_kind="gmm"
        )
        out = tmp_path / "vr.csv"
        bench.cmd_run("gmm", data, cfg, out)
        rows = out.read_text().splitlines()
        delta_col = rows[0].split(",").index("delta_s_sq")
        assert all(r.split(",")[delta_col] == "0.0" for r in rows[1:])

    def test_byte_identical_reruns(self, tmp_path):
        data = gmm.simulate(80, bench.gmm_truth_default(), named_stream(62, "data"))
        cfg = AlgoSpec("fiTTEM", mc_samples=3).to_config(n=80, epochs=0.5, seed=9, model_kind="gmm")
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            bench.cmd_run("gmm", data, cfg, out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestTrajectorySubsampling:
    def test_row_cap_keeps_boundaries(self, tmp_path):
        data = gmm.simulate(40, bench.gmm_truth_default(), named_stream(63, "data"))
        from ttsem.engine import run
        from ttsem.core import RunConfig

        model = gmm.GmmModel(data)
        cfg = RunConfig(variant="iSAEM", total_iters=120, seed=0,
                        gamma=StepSchedule.polynomial(0.5), mc_samples=2)
        traj = run(model, cfg)
        rows = traj.select_rows(max_rows=30)
        assert len(rows) <= 30 + 5
        assert rows[0] == 0 and rows[-1] == traj.n_records - 1
        # every integer epoch boundary is retained
        boundaries = np.flatnonzero(np.diff(np.floor(traj.epochs)) > 0) + 1
        assert set(boundaries).issubset(set(rows))


class TestReplicateCommand:
    def _spec(self, jobs=1, replicates=2):
        return ExperimentSpec(
            model="gmm", n=150, replicates=replicates, epochs=1.0,
            algorithms=(AlgoSpec("SAEM", mc_samples=2), AlgoSpec("iSAEM", mc_samples=2)),
            seed=99, jobs=jobs,
        )

    def test_single_replicate_mean_equals_median(self, tmp_path):
        spec = self._spec(replicates=1)
        mpath, spath = tmp_path / "m.csv", tmp_path / "s.json"
        bench.cmd_replicate(spec, mpath, spath)
        for line in mpath.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[3] == cells[4] == cells[5] == cells[6]

    def test_outputs_deterministic_and_parallel_invariant(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        bench.cmd_replicate(self._spec(jobs=1), f"{a}.csv", f"{a}.json")
        bench.cmd_replicate(self._spec(jobs=2), f"{b}.csv", f"{b}.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_worker_pool_capped_at_replicates(self, tmp_path, monkeypatch):
        opened = []

        class InlinePool:
            """Records the pool size asked for and runs the work in this process."""

            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 8)
        bench.cmd_replicate(self._spec(jobs=4, replicates=1), tmp_path / "a.csv", tmp_path / "a.json")
        assert opened == []  # one replicate runs inline, with no pool at all
        bench.cmd_replicate(self._spec(jobs=4, replicates=2), tmp_path / "b.csv", tmp_path / "b.json")
        assert opened == [2]
        bench.cmd_replicate(self._spec(jobs=1, replicates=2), tmp_path / "c.csv", tmp_path / "c.json")
        assert opened == [2]
        for ext in ("csv", "json"):
            assert (tmp_path / f"b.{ext}").read_bytes() == (tmp_path / f"c.{ext}").read_bytes()
        # nor outgrows the CPU count; one CPU, or an unknown count, runs inline
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 3)
        bench.cmd_replicate(self._spec(jobs=4000, replicates=4), tmp_path / "d.csv", tmp_path / "d.json")
        assert opened == [2, 3]
        for cpus in (1, None):
            monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
            bench.cmd_replicate(self._spec(jobs=4000, replicates=2), tmp_path / "e.csv", tmp_path / "e.json")
            assert opened == [2, 3]
            for ext in ("csv", "json"):
                assert (tmp_path / f"b.{ext}").read_bytes() == (tmp_path / f"e.{ext}").read_bytes()

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # only a replicate with jobs > 1 needs the pool, and importing it
        # pulls multiprocessing, socket and subprocess into every process
        src = os.path.dirname(os.path.dirname(bench.__file__))
        code = "import sys, ttsem.cli; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_unrunnable_algorithm_fails_before_simulating(self, tmp_path, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("simulated before the algorithm settings were checked")

        monkeypatch.setattr(gmm, "simulate", no_simulation)
        with pytest.raises(ConfigError, match="SAEM requires rho = 1"):
            spec = ExperimentSpec(model="gmm", n=50, replicates=1, epochs=1,
                                  algorithms=(AlgoSpec("SAEM", rho="0.5"),), seed=0)
            bench.cmd_replicate(spec, tmp_path / "m.csv", tmp_path / "s.json")
        assert list(tmp_path.iterdir()) == []

    def test_summary_contents(self, tmp_path):
        spec = self._spec()
        mpath, spath = tmp_path / "m.csv", tmp_path / "s.json"
        summary = bench.cmd_replicate(spec, mpath, spath)
        blob = json.loads(spath.read_text())
        assert blob["final"].keys() == {"SAEM", "iSAEM"}
        assert len(blob["hashes"]) == 2
        # all algorithms in one replicate consumed the same dataset and start
        assert blob["hashes"][0]["data"] != blob["hashes"][1]["data"]
        assert blob["wins"]["precision"]["SAEM"]["iSAEM"] + \
            blob["wins"]["precision"]["iSAEM"]["SAEM"] <= 2
        assert blob["integer_epochs"] == [1]
        assert len(blob["per_replicate_at_integer_epochs"]["SAEM"]["precision"]) == 2
        grid = summary["grid"]
        assert len(grid) == 10 and grid[-1] == 1.0

    def test_summary_agrees_with_metrics_csv(self, tmp_path):
        algos = ("SAEM", "iSAEM", "fiTTEM")
        spec = ExperimentSpec(model="gmm", n=120, replicates=3, epochs=2.0,
                              algorithms=tuple(AlgoSpec(a, mc_samples=2) for a in algos), seed=17)
        bench.cmd_replicate(spec, tmp_path / "m.csv", tmp_path / "s.json")
        blob = json.loads((tmp_path / "s.json").read_text())
        last = {}  # (algo, metric) -> (mean, median) cells at the last grid point
        for line in (tmp_path / "m.csv").read_text().splitlines()[1:]:
            algo, metric, epoch, mean, median, _, _ = line.split(",")
            if epoch == "2.0":
                last[algo, metric] = (mean, median)
        assert blob["integer_epochs"] == [1, 2]
        assert set(last) == {(a, m) for a in algos for m in ("delta_s_sq", "nll", "precision")}
        for (a, metric), (mean, median) in last.items():
            final = blob["final"][a][metric]
            assert (repr(final["mean"]), repr(final["median"])) == (mean, median)
            per_rep = final["per_replicate"]
            assert len(per_rep) == 3
            assert per_rep == [row[-1] for row in blob["per_replicate_at_integer_epochs"][a][metric]]
            for b in algos:
                if b != a:
                    other = blob["final"][b][metric]["per_replicate"]
                    assert blob["wins"][metric][a][b] == sum(x < y for x, y in zip(per_rep, other))


class TestPkNaiveInit:
    def test_deterministic_and_sane(self):
        cohort = pk.simulate(30, pk.paper_truth(), pk.default_design(), named_stream(64, "data"))
        a = bench.pk_naive_init(cohort)
        b = bench.pk_naive_init(cohort)
        np.testing.assert_array_equal(a.log_pop, b.log_pop)
        assert a.sigma2 == 1.0
        np.testing.assert_array_equal(a.omega2, 0.1 * np.eye(4))
        # crude estimates stay within an order of magnitude of the truth
        assert np.all(np.abs(a.log_pop - pk.paper_truth().log_pop) < 2.5)


class TestCli:
    def test_simulate_and_run_roundtrip(self, tmp_path, capsys):
        data_path = tmp_path / "d.txt"
        rc = cli.main(["simulate", "--model", "gmm", "--n", "50", "--seed", "2",
                       "--out", str(data_path)])
        assert rc == 0
        assert "sha256=" in capsys.readouterr().out
        traj_path = tmp_path / "t.csv"
        rc = cli.main(["run", "--model", "gmm", "--data", str(data_path),
                       "--algo", "iSAEM", "--epochs", "1", "--mc-samples", "2",
                       "--out", str(traj_path)])
        assert rc == 0
        assert traj_path.read_text().startswith("iter,epoch,")

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        assert cli.main(["run", "--model", "gmm"]) == 1  # missing required flags
        assert cli.main(["simulate", "--model", "nope", "--n", "1",
                         "--out", str(tmp_path / "x")]) == 1
        capsys.readouterr()

    def test_variant_model_mismatch_exits_one(self, tmp_path, capsys):
        pk_path = tmp_path / "pk.csv"
        assert cli.main(["simulate", "--model", "pk", "--n", "2", "--out", str(pk_path)]) == 0
        rc = cli.main(["run", "--model", "pk", "--data", str(pk_path),
                       "--algo", "EM", "--epochs", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 1  # exact E-step unavailable: rejected before any work
        capsys.readouterr()

    def test_conflicting_cohort_doses_exit_two(self, tmp_path, capsys):
        pk_path = tmp_path / "pk.csv"
        pk_path.write_text("id,dose,time,obs\n0,100.0,1.0,2.5\n0,50.0,2.0,3.0\n1,100.0,1.0,2.0\n")
        rc = cli.main(["run", "--model", "pk", "--data", str(pk_path),
                       "--algo", "SAEM", "--epochs", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "conflicting doses" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "replicate"])
    def test_non_finite_pk_truth_exits_two_before_work(self, command, tmp_path, capsys, monkeypatch):
        theta = tmp_path / "theta.json"
        theta.write_text('{"log_pop": [0, 0, 2, -2], "omega2": [0.1, 0.1, 0.1, 0.1], "sigma2": NaN}')

        def no_simulation(*args):
            raise AssertionError("simulated from a non-finite truth")

        monkeypatch.setattr(pk, "simulate", no_simulation)
        out = tmp_path / "out"
        rc = cli.main([command, "--model", "pk", "--n", "3", "--theta", str(theta), "--out", str(out)])
        assert rc == 2
        assert "sigma2 must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [theta]

    @pytest.mark.parametrize("command", ["simulate", "replicate"])
    @pytest.mark.parametrize("model, theta, field", [
        pytest.param("pk", {"pop": [1.0, -1.0, 8.0, 0.1], "omega2": [0.1] * 4, "sigma2": 0.1}, "pop",
                     id="negative-pop"),
        pytest.param("pk", {"pop": [1.0, 0.0, 8.0, 0.1], "omega2": [0.1] * 4, "sigma2": 0.1}, "pop",
                     id="zero-pop"),
        pytest.param("gmm", {"omega": [0.5, 0.6], "mu": [0.5, -0.5]}, "omega", id="weights-sum-1.1"),
    ])
    def test_invalid_truth_exits_two_before_work(self, command, model, theta, field, tmp_path, capsys,
                                                 monkeypatch):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(theta))

        def no_simulation(*args):
            raise AssertionError("simulated from an invalid truth")

        monkeypatch.setattr(gmm if model == "gmm" else pk, "simulate", no_simulation)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before numpy can warn
            rc = cli.main([command, "--model", model, "--n", "3", "--theta", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err and field in err
        assert list(tmp_path.iterdir()) == [path]

    def test_unconverged_reference_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gmm, "_REFERENCE_MAX_ITER", 2)
        out = tmp_path / "out"
        rc = cli.main(["replicate", "--model", "gmm", "--n", "120", "--replicates", "1", "--algos", "SAEM",
                       "--mc-samples", "1", "--epochs", "1", "--seed", "8", "--out", str(out)])
        assert rc == 2
        assert "reference EM on n=120 unconverged" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_full_gmm_weight_vector_accepted(self, tmp_path, capsys):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({"omega": [0.1, 0.2, 0.7], "mu": [1.0, 0.0, -1.0]}))
        rc = cli.main(["simulate", "--model", "gmm", "--n", "3", "--theta", str(path),
                       "--out", str(tmp_path / "d.txt")])
        assert rc == 0
        capsys.readouterr()

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 7, "seed": 5}))
        out = tmp_path / "d.txt"
        rc = cli.main(["simulate", "--model", "gmm", "--n", "3", "--seed", "1",
                       "--out", str(out), "--config", str(cfg_path)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 7
        capsys.readouterr()

    def test_replicate_command(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = cli.main(["replicate", "--model", "gmm", "--n", "120", "--replicates", "1",
                       "--algos", "SAEM,iSAEM", "--mc-samples", "2", "--epochs", "1",
                       "--seed", "8", "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "exp.csv").exists() and (tmp_path / "exp.json").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("argv, config, code", [
        (["simulate"], {"n": "9"}, 0),  # config text converted like a flag's
        (["simulate"], {"n": "abc"}, 1),
        (["simulate"], {"n": 2.5}, 1),
        (["simulate"], {"n": None}, 1),
        (["simulate"], {"model": "nope"}, 1),
        (["run", "--algo", "iSAEM"], {"epochs": "2"}, 0),
        (["run", "--algo", "iSAEM"], {"epochs": "two"}, 1),
        (["run", "--algo", "fiTTEM", "--rho", "abc"], None, 1),
        (["run", "--algo", "vrTTEM", "--epoch-len", "x"], None, 1),
        (["replicate", "--epochs", "0"], None, 1),
        (["replicate"], {"epochs": 0}, 1),
        (["replicate", "--jobs", "-3"], None, 1),
        (["simulate", "--n", "-5"], None, 1),
        (["simulate", "--n", "0"], None, 1),
        (["run", "--algo", "iSAEM", "--gamma", "const:0.5:warmup=3"], None, 1),
        (["run", "--algo", "iSAEM", "--gamma", "poly:0.5:warmup=nan"], None, 1),
        (["run", "--algo", "iSAEM", "--gamma", "poly:0.5:warmup=inf"], None, 1),
        (["run", "--algo", "iSAEM", "--gamma", "poly:0.5:warmup=1e400ep"], None, 1),
        (["run", "--algo", "iSAEM", "--seed", "-1"], None, 1),
        (["simulate", "--seed", "-1"], None, 1),
        (["simulate", "--seed", str(2**64)], None, 1),
        (["replicate", "--seed", "-1"], None, 1),
        (["replicate", "--seed", str(2**64)], None, 1),
        (["replicate", "--algos", "SAEM,SAEM"], None, 1),
        (["run", "--algo", "SAEM", "--epoch-len", "x"], None, 1),  # parsed even where unused
        (["run", "--algo", "iSAEM"], {"epoch_len": "2.5"}, 1),
        (["run", "--algo", "SAEM", "--epoch-len", "7"], None, 0),  # well-formed, unused
        (["replicate", "--epoch-len", "x"], None, 1),
        (["replicate", "--algos", "SAEM,vrTTEM", "--epoch-len", "x"], None, 1),
        (["replicate", "--epoch-len", "5"], None, 0),
    ])
    def test_bad_values_are_usage_errors(self, tmp_path, capsys, argv, config, code):
        data = tmp_path / "d.txt"
        gmm.write_dataset(data, np.linspace(-1.0, 1.0, 20))
        base = {
            "simulate": ["--model", "gmm", "--n", "5", "--out", str(tmp_path / "s.txt")],
            "run": ["--model", "gmm", "--data", str(data), "--epochs", "0.5",
                    "--mc-samples", "1", "--out", str(tmp_path / "t.csv")],
            "replicate": ["--model", "gmm", "--n", "20", "--replicates", "1", "--algos", "SAEM",
                          "--epochs", "1", "--mc-samples", "1", "--out", str(tmp_path / "r")],
        }[argv[0]]
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            base += ["--config", str(tmp_path / "c.json")]
        assert cli.main(argv[:1] + base + argv[1:]) == code  # later flags win
        err = capsys.readouterr().err
        assert ("ttsem: error:" in err) == (code == 1)
