import json

import numpy as np
import pytest

from ttsem import bench, cli, gmm, pk
from ttsem.bench import AlgoSpec, ExperimentSpec
from ttsem.core import ConfigError, StepSchedule
from ttsem.rng import named_stream


class TestGammaParsing:
    def test_plain_number_is_constant(self):
        spec = bench.parse_gamma("1")
        assert spec.kind == "constant" and spec.c == 1.0

    def test_const_prefix(self):
        assert bench.parse_gamma("const:0.5").c == 0.5

    def test_poly_with_warmup_epochs(self):
        spec = bench.parse_gamma("poly:0.5:warmup=1ep")
        assert spec.kind == "polynomial" and spec.a == 0.5
        assert spec.warmup == 1.0 and spec.warmup_in_epochs

    def test_poly_with_iteration_warmup_and_c(self):
        spec = bench.parse_gamma("poly:0.7:c=0.9:warmup=25")
        assert spec.a == 0.7 and spec.c == 0.9
        assert spec.warmup == 25.0 and not spec.warmup_in_epochs

    def test_bad_specs_rejected(self):
        for bad in ("poly", "poly:abc", "linear:0.5", "poly:0.5:foo=1"):
            with pytest.raises(ConfigError):
                bench.parse_gamma(bad)

    def test_epoch_warmup_resolution_depends_on_variant(self):
        spec = bench.parse_gamma("poly:0.5:warmup=1ep")
        incr = bench.resolve_gamma(spec, n=100, variant="iSAEM")
        batch = bench.resolve_gamma(spec, n=100, variant="SAEM")
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
