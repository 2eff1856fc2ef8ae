import concurrent.futures
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ttsem import bench, cli, gmm, pk
from ttsem.bench import AlgoSpec, ExperimentSpec
from ttsem.core import VARIANTS, ConfigError, StepSchedule
from ttsem.engine import Trajectory, run
from ttsem.rng import derive_seed, named_stream


@pytest.fixture
def pools_opened(monkeypatch):
    """The ``max_workers`` of every process pool built while the test runs."""
    opened = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return opened


class TestGammaParsing:
    def test_plain_number_is_constant(self):
        assert bench.parse_gamma("1", 100, "iSAEM") == StepSchedule(c=1.0)

    def test_const_prefix(self):
        assert bench.parse_gamma("const:0.5", 100, "iSAEM") == StepSchedule(c=0.5)

    def test_poly_with_warmup_epochs(self):
        sched = bench.parse_gamma("poly:0.5:warmup=1ep", 100, "iSAEM")
        assert sched == StepSchedule(a=0.5, warmup_iters=100)

    def test_poly_with_iteration_warmup_and_c(self):
        sched = bench.parse_gamma("poly:0.7:c=0.9:warmup=25", 100, "iSAEM")
        assert sched == StepSchedule(a=0.7, c=0.9, warmup_iters=25)
        assert bench.parse_gamma("poly:0.7:warmup=2.4", 100, "iSAEM").warmup_iters == 2

    def test_zero_exponent_is_the_constant(self):
        assert bench.parse_gamma("poly:0", 100, "iSAEM") == StepSchedule(c=1.0)
        assert bench.parse_gamma("poly:0:c=0.4", 100, "iSAEM") == StepSchedule(c=0.4)

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
        def rho(variant, given=None):
            return AlgoSpec(variant, rho=given).to_config(1000, 1, 0, "gmm").rho

        assert rho("vrTTEM") == pytest.approx(1000 ** (-2 / 3))
        assert rho("SAEM") == 1.0
        assert rho("fiTTEM", 0.25) == 0.25

    def test_epochs_to_iters(self):
        assert bench.epochs_to_iters(7.0, 100, "SAEM") == 7
        assert bench.epochs_to_iters(7.0, 100, "iSAEM") == 700
        assert bench.epochs_to_iters(2.5, 100, "EM") == 3

    def test_budget_past_a_finite_iteration_count_is_a_config_error(self):
        # finite epochs whose product with n overflows to inf, which math.ceil cannot convert
        with pytest.raises(ConfigError, match="overflows the fiTTEM iteration count at n=10"):
            AlgoSpec("fiTTEM").to_config(10, 1e308, 0, "gmm")
        with pytest.raises(ConfigError, match="overflows the iSAEM iteration count"):
            bench.epochs_to_iters(1e307, 100, "iSAEM")
        # a finite count past numpy's largest index is refused as well, in the same words, which name epochs
        with pytest.raises(ConfigError, match=r"^epochs=1e\+300 overflows the SAEM iteration count at n=10$"):
            AlgoSpec("SAEM").to_config(10, 1e300, 0, "gmm")
        assert bench.epochs_to_iters(2.0**63 - 1024, 1, "SAEM") == 2**63 - 1024  # the largest double below 2**63
        with pytest.raises(ConfigError, match="overflows the SAEM iteration count at n=1"):
            bench.epochs_to_iters(2.0**63, 1, "SAEM")  # float(2**63 - 1) rounds up to it


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

    @pytest.mark.parametrize("variant", ["EM", "iEM", "MCEM"])
    def test_default_gamma_text_rejected_where_gamma_is_forced(self, variant):
        with pytest.raises(ConfigError, match="requires gamma identically 1"):
            AlgoSpec(variant, gamma=bench.DEFAULT_GAMMA).to_config(n=10, epochs=3.0, seed=0, model_kind="gmm")

    def test_no_gamma_is_the_default_gamma(self):
        assert (AlgoSpec("SAEM").to_config(n=100, epochs=3.0, seed=0, model_kind="gmm")
                == AlgoSpec("SAEM", gamma=bench.DEFAULT_GAMMA).to_config(n=100, epochs=3.0, seed=0, model_kind="gmm"))

    @pytest.mark.parametrize("variant, gamma", [("SAEM", 0.5), ("EM", 1)])
    def test_gamma_must_be_text(self, variant, gamma):
        # a library caller's number is a ConfigError, not an AttributeError from str.split
        with pytest.raises(ConfigError, match=rf"^gamma must be schedule text such as '0\.5' or 'poly:0\.5', "
                                              rf"got {gamma}$"):
            AlgoSpec(variant, gamma=gamma).to_config(100, 1, 0, "gmm")

    def test_pk_defaults(self):
        cfg = AlgoSpec("SAEM").to_config(n=50, epochs=1.0, seed=0, model_kind="pk")
        assert cfg.mc_samples == 50

    @pytest.mark.parametrize("epoch_len, message", [
        pytest.param(2.5, "got 2.5", id="2.5"),  # not truncated to 2
        pytest.param("2.5", "got '2.5'", id="text-2.5"),  # the CLI parses text
        pytest.param("x", "got 'x'", id="text-x"),
    ])
    def test_epoch_len_must_be_an_integer(self, epoch_len, message):
        # only the type is checked here: a variant without an anchor leaves the value unused
        with pytest.raises(ConfigError, match=re.escape(f"epoch_len must be an integer in [-inf, inf], {message}")):
            AlgoSpec("vrTTEM", epoch_len=epoch_len).to_config(n=100, epochs=1, seed=0, model_kind="gmm")
        assert AlgoSpec("vrTTEM", epoch_len=7).to_config(100, 1, 0, "gmm").epoch_len == 7

    @pytest.mark.parametrize("variant", ["fiTTEM", "vrTTEM", "SAEM"])
    @pytest.mark.parametrize("n", [0, -3, 2.5, 2**63, 10**400], ids=["0", "-3", "2.5", "2**63", "10**400"])
    def test_n_must_be_a_count(self, variant, n):
        # checked before n sizes rho, the epoch length or the budget
        with pytest.raises(ConfigError, match=rf"^n must be an integer in \[1, {2**63 - 1}\], got {n!r}$"):
            AlgoSpec(variant).to_config(n, 1, 0, "gmm")

    @pytest.mark.parametrize("make", [
        lambda epochs: AlgoSpec("SAEM").to_config(10, epochs, 0, "gmm"),
        lambda epochs: ExperimentSpec(model="gmm", n=10, replicates=1, epochs=epochs,
                                      algorithms=(AlgoSpec("SAEM"),), seed=0),
    ], ids=["to_config", "ExperimentSpec"])
    @pytest.mark.parametrize("epochs", ["3", None])
    def test_epochs_must_be_a_real_number(self, make, epochs):
        with pytest.raises(ConfigError, match=f"^epochs must be a real number, got {epochs!r}$"):
            make(epochs)

    @pytest.mark.parametrize("variant", ["SAEM", "iSAEM", "fiTTEM", "EM"])
    def test_epoch_len_checked_for_every_variant(self, variant):
        for bad in ("x", "7", 2.5):
            with pytest.raises(ConfigError, match="epoch_len"):
                AlgoSpec(variant, epoch_len=bad).to_config(100, 1, 0, "gmm")
        # a well-formed value is left unused outside vrTTEM
        assert AlgoSpec(variant, epoch_len=7).to_config(100, 1, 0, "gmm").epoch_len is None


def _precision_oracle(mu: list, mu_star: list) -> float:
    """Squared mean error minimized over relabelings of ``mu_star``, in plain Python."""
    best = math.inf
    for labels in itertools.permutations(mu_star):
        total = 0.0
        for a, b in zip(mu, labels, strict=True):
            total += (a - b) * (a - b)
        best = min(best, total)
    return best


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
        data = gmm.simulate(120, bench.MODELS["gmm"].truth(), named_stream(65, "data"))
        model = gmm.GmmModel(data, m)
        theta0 = model.default_init()
        cfg = AlgoSpec("fiTTEM", mc_samples=2).to_config(n=120, epochs=2, seed=3, model_kind="gmm")
        traj = run(model, cfg, theta0=theta0)
        mu_star = gmm.fit_reference_em(data, init=theta0).mu
        for ref in (mu_star, mu_star[::-1].copy()):
            got = bench._metric_values(bench.MODELS["gmm"], traj, np.arange(traj.n_records), ref, model)["precision"]
            want = np.array([_precision_oracle(row[m - 1 :].tolist(), ref.tolist()) for row in traj.thetas])
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
        with pytest.raises(ConfigError, match=r"^n must be an integer in \[1, 9223372036854775807\], got 2\.5$"):
            bench.cmd_simulate(model, None, 2.5, 1, path)
        assert not path.exists()

    def test_unknown_model_is_config_error(self, tmp_path):
        path = tmp_path / "d.txt"
        with pytest.raises(ConfigError, match="^unknown model 'nope'$"):
            bench.cmd_simulate("nope", None, 5, 1, path)
        assert not path.exists()

    @pytest.mark.parametrize("model, blob, field", [
        ("gmm", {"omega": [0.5]}, "mu"),
        ("gmm", {"mu": [0.5, -0.5]}, "omega"),
        ("pk", {"log_pop": [0, 0, 2, -2], "omega2": [0.1] * 4}, "sigma2"),
        ("pk", {"log_pop": [0, 0, 2, -2], "sigma2": 0.5}, "omega2"),
    ])
    def test_missing_truth_field_is_named(self, model, blob, field):
        with pytest.raises(ValueError, match=f"^the truth has no '{field}' field$"):
            bench.MODELS[model].truth_from_json(blob)


class TestRunCommand:
    def test_em_nll_non_increasing(self, tmp_path):
        data = gmm.simulate(500, bench.MODELS["gmm"].truth(), named_stream(60, "data"))
        cfg = AlgoSpec("EM").to_config(n=500, epochs=100, seed=0, model_kind="gmm")
        out = tmp_path / "em.csv"
        bench.cmd_run(gmm.GmmModel(data), cfg, out)
        rows = out.read_text().splitlines()
        header = rows[0].split(",")
        nll_col = header.index("nll")
        nll = np.array([float(r.split(",")[nll_col]) for r in rows[1:]])
        assert len(nll) == 101
        assert np.all(nll[1:] <= nll[:-1] + 1e-10 * np.abs(nll[:-1]))

    def test_vr_rho1_m1_delta_column_zero(self, tmp_path):
        data = gmm.simulate(100, bench.MODELS["gmm"].truth(), named_stream(61, "data"))
        cfg = AlgoSpec("vrTTEM", rho=1.0, epoch_len=1, mc_samples=2).to_config(
            n=100, epochs=0.2, seed=4, model_kind="gmm"
        )
        out = tmp_path / "vr.csv"
        bench.cmd_run(gmm.GmmModel(data), cfg, out)
        rows = out.read_text().splitlines()
        delta_col = rows[0].split(",").index("delta_s_sq")
        assert all(r.split(",")[delta_col] == "0.0" for r in rows[1:])

    def test_byte_identical_reruns(self, tmp_path):
        data = gmm.simulate(80, bench.MODELS["gmm"].truth(), named_stream(62, "data"))
        cfg = AlgoSpec("fiTTEM", mc_samples=3).to_config(n=80, epochs=0.5, seed=9, model_kind="gmm")
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            bench.cmd_run(gmm.GmmModel(data), cfg, out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_nll_column_split_across_cpus(self, tmp_path, monkeypatch, pools_opened):
        # the column is the same bytes however many CPUs share it; one CPU
        # builds no pool, and two ask for exactly one worker
        data = gmm.simulate(300, bench.MODELS["gmm"].truth(), named_stream(64, "data"))
        cfg = AlgoSpec("SAEM", mc_samples=2).to_config(n=300, epochs=40, seed=5, model_kind="gmm")
        outs, pools = {}, {}
        for cpus in (1, 2):
            monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
            pools_opened.clear()
            bench.cmd_run(gmm.GmmModel(data), cfg, tmp_path / f"{cpus}.csv")
            pools[cpus] = list(pools_opened)
            assert multiprocessing.active_children() == []
            outs[cpus] = (tmp_path / f"{cpus}.csv").read_bytes()
        assert pools == {1: [], 2: [1]}
        assert outs[1] == outs[2]
        assert outs[1].count(b"\n") == 42  # header and 41 records, each with its nll
        assert outs[1].split(b"\n")[0].endswith(b",nll")

    def test_row_cap_holds_when_every_record_is_a_boundary(self, tmp_path):
        # vrTTEM with an anchor refresh every iteration charges a whole
        # epoch per record, so every one of its 12,001 records is a boundary
        data = gmm.simulate(4, bench.MODELS["gmm"].truth(), named_stream(65, "data"))
        cfg = AlgoSpec("vrTTEM", epoch_len=1, mc_samples=1).to_config(n=4, epochs=3000, seed=6, model_kind="gmm")
        out = tmp_path / "vr.csv"
        traj = bench.cmd_run(gmm.GmmModel(data), cfg, out)
        assert traj.n_records == 12_001
        assert np.all(np.diff(np.floor(traj.epochs)) > 0)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 10_000
        assert [int(lines[i].split(",")[0]) for i in (1, -1)] == [0, 12_000]


class TestTrajectorySubsampling:
    @staticmethod
    def _traj(epochs):
        r = len(epochs)
        return Trajectory(epochs=np.asarray(epochs, dtype=np.float64),
                          thetas=np.zeros((r, 1)), delta_s_sq=np.zeros(r), wall_ns=np.zeros(r, dtype=np.int64),
                          param_names=["a"], terminal_iter=r - 2)

    def test_boundaries_alone_past_the_cap_are_thinned(self):
        # SAEM on 30 points for 12,000 epochs: one epoch per record
        traj = self._traj(np.arange(12_001))
        rows = traj.select_rows()
        assert len(rows) == 10_000 and len(set(rows.tolist())) == 10_000
        assert rows[0] == 0 and rows[-1] == 12_000
        assert np.all(np.diff(rows) >= 1) and np.diff(rows).max() <= 2
        # far past the cap, the evenly thinned boundaries still hold both ends
        far = self._traj(np.arange(1_000_001)).select_rows()
        assert len(far) == 10_000 and far[0] == 0 and far[-1] == 1_000_000
        assert set(np.diff(far).tolist()) == {100, 101}
        with pytest.raises(ValueError, match="^3 nll values for 10000 rows$"):
            traj.write_csv(io.StringIO(), nll=[0.0, 1.0, 2.0])

    def test_stride_widens_to_fit_the_boundaries(self):
        # stride 2 plus the odd boundaries among every 7th record would pass the cap
        r = 20_000
        traj = self._traj(np.arange(r) / 7.0)
        rows = traj.select_rows()
        boundaries = set(range(7, r, 7))
        assert len(rows) <= 10_000
        assert rows[0] == 0 and rows[-1] == r - 1
        assert boundaries.issubset(rows.tolist())

    def test_rows_within_the_cap_keep_the_stride_rule(self):
        # stride-thinned rows, the last record and every boundary, when they fit
        r = 25_000
        traj = self._traj(np.arange(r) / 1000.0)
        want = set(range(0, r, 3)) | {r - 1} | set(range(1000, r, 1000))
        assert len(want) <= 10_000
        assert traj.select_rows().tolist() == sorted(want)
        assert self._traj(np.arange(10_000) / 2.0).select_rows().tolist() == list(range(10_000))


    def test_row_cap_keeps_boundaries(self):
        # an incremental run's epoch column at n = 40 for 120,000 iterations
        traj = self._traj(np.arange(120_001) / 40.0)
        rows = traj.select_rows()
        assert len(rows) <= 10_000
        assert rows[0] == 0 and rows[-1] == traj.n_records - 1
        # every integer epoch boundary is retained
        boundaries = np.flatnonzero(np.diff(np.floor(traj.epochs)) > 0) + 1
        assert len(boundaries) == 3000 and set(boundaries).issubset(set(rows))


class TestReplicateCommand:
    def _spec(self, jobs=1, replicates=2, model="gmm"):
        if model == "pk":
            algos = tuple(AlgoSpec(a, mc_samples=5) for a in ("SAEM", "iSAEM", "vrTTEM", "fiTTEM"))
            return ExperimentSpec(model="pk", n=8, replicates=replicates, epochs=1.0,
                                  algorithms=algos, seed=99, jobs=jobs)
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
        for model, metrics in [
            ("gmm", {"delta_s_sq", "nll", "precision"}),
            # PK has no likelihood, so no nll
            ("pk", {"delta_s_sq", "sqerr_tlag", "sqerr_ka", "sqerr_V", "sqerr_k"}),
        ]:
            for jobs in (2, 1):
                out = tmp_path / f"{model}{jobs}"
                summary = bench.cmd_replicate(self._spec(jobs=jobs, model=model), f"{out}.csv", f"{out}.json")
            for ext in ("csv", "json"):
                assert (tmp_path / f"{model}1.{ext}").read_bytes() == (tmp_path / f"{model}2.{ext}").read_bytes()
            for algo, final in summary["final"].items():
                assert final.keys() == metrics, algo
            lines = (tmp_path / f"{model}1.csv").read_text().splitlines()[1:]
            assert {line.split(",")[1] for line in lines} == metrics

    def test_every_metric_read_at_last_record_at_or_before_grid_point(self, tmp_path):
        # at n = 130 a grid step (13 iterations) is no multiple of select_rows' stride, so reading
        # thinned rows in place of the grid records shows
        algos, n, seed = ("iSAEM", "vrTTEM", "fiTTEM"), 130, 31
        spec = ExperimentSpec(model="gmm", n=n, replicates=1, epochs=2.0,
                              algorithms=tuple(AlgoSpec(a, mc_samples=2) for a in algos), seed=seed)
        bench.cmd_replicate(spec, tmp_path / "m.csv", tmp_path / "s.json")
        cells = {}  # (algo, metric) -> values down the grid
        for line in (tmp_path / "m.csv").read_text().splitlines()[1:]:
            algo, metric, _, mean, median, q25, q75 = line.split(",")
            assert mean == median == q25 == q75  # one replicate
            cells.setdefault((algo, metric), []).append(float(mean))

        # the replicate's dataset, start, reference and runs, rebuilt from its seeds
        data = gmm.simulate(n, bench.MODELS["gmm"].truth(), named_stream(derive_seed(seed, "rep", 0, 0), "data"))
        model = gmm.GmmModel(data)
        theta0 = model.default_init()
        ref = gmm.fit_reference_em(data, init=theta0).mu
        grid = spec.grid().tolist()
        for algo, config in zip(algos, spec.configs):
            traj = run(model, replace(config, seed=derive_seed(seed, "rep", 0, 1)), theta0=theta0)
            picks = [max(r for r in range(traj.n_records) if traj.epochs[r] <= g) for g in grid]
            if algo == "vrTTEM":  # its k = 0 anchor refresh costs a whole pass
                assert picks[:9] == [0] * 9 and picks[9] > 0
            want = {
                "delta_s_sq": [float(traj.delta_s_sq[r]) for r in picks],
                "precision": [bench.metric_precision_gmm(traj.thetas[r][1:], ref) for r in picks],
                "nll": [model.penalized_nll(model.unflatten_params(traj.thetas[r])) for r in picks],
            }
            for metric, values in want.items():
                assert cells.pop((algo, metric)) == values, (algo, metric)
        assert cells == {}

    def test_grid_ends_at_fractional_epochs(self, tmp_path):
        # SAEM's budget rounds up to 3 passes, but its final value is read
        # at epoch 2, its last record at or before the grid's end, 2.5
        n, seed = 200, 12
        spec = ExperimentSpec(model="gmm", n=n, replicates=1, epochs=2.5,
                              algorithms=(AlgoSpec("SAEM", mc_samples=2), AlgoSpec("iSAEM", mc_samples=2)), seed=seed)
        assert spec.grid()[-1] == 2.5 and [c.total_iters for c in spec.configs] == [3, 500]
        summary = bench.cmd_replicate(spec, tmp_path / "m.csv", tmp_path / "s.json")
        assert summary["integer_epochs"] == [1, 2] and summary["grid"][-1] == 2.5

        data = gmm.simulate(n, bench.MODELS["gmm"].truth(), named_stream(derive_seed(seed, "rep", 0, 0), "data"))
        model = gmm.GmmModel(data)
        theta0 = model.default_init()
        ref = gmm.fit_reference_em(data, init=theta0).mu
        traj = run(model, replace(spec.configs[0], seed=derive_seed(seed, "rep", 0, 1)), theta0=theta0)
        assert traj.epochs.tolist() == [0.0, 1.0, 2.0, 3.0]
        final = summary["final"]["SAEM"]["precision"]["per_replicate"]
        assert final == [bench.metric_precision_gmm(traj.thetas[2][1:], ref)]

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
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 8)
        bench.cmd_replicate(self._spec(jobs=4, replicates=1), tmp_path / "a.csv", tmp_path / "a.json")
        assert opened == []  # one replicate runs inline, with no pool at all
        bench.cmd_replicate(self._spec(jobs=4, replicates=2), tmp_path / "b.csv", tmp_path / "b.json")
        assert opened == [2]
        bench.cmd_replicate(self._spec(jobs=1, replicates=2), tmp_path / "c.csv", tmp_path / "c.json")
        assert opened == [2]
        for ext in ("csv", "json"):
            assert (tmp_path / f"b.{ext}").read_bytes() == (tmp_path / f"c.{ext}").read_bytes()
        # nor outgrows the usable CPUs; one CPU runs inline
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 3)
        bench.cmd_replicate(self._spec(jobs=4000, replicates=4), tmp_path / "d.csv", tmp_path / "d.json")
        assert opened == [2, 3]
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 1)
        bench.cmd_replicate(self._spec(jobs=4000, replicates=2), tmp_path / "e.csv", tmp_path / "e.json")
        assert opened == [2, 3]
        for ext in ("csv", "json"):
            assert (tmp_path / f"b.{ext}").read_bytes() == (tmp_path / f"e.{ext}").read_bytes()

    def test_one_cpu_affinity_mask_builds_no_pool(self, tmp_path, monkeypatch, pools_opened):
        # a process pinned to one CPU (taskset -c 0) counts that CPU, not the
        # machine's, for the replicate pool and the NLL column alike
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert bench._usable_cpus() == 1
        bench.cmd_replicate(self._spec(jobs=2, replicates=2), tmp_path / "a.csv", tmp_path / "a.json")
        data = gmm.simulate(200, bench.MODELS["gmm"].truth(), named_stream(66, "data"))
        cfg = AlgoSpec("SAEM", mc_samples=2).to_config(n=200, epochs=5, seed=5, model_kind="gmm")
        bench.cmd_run(gmm.GmmModel(data), cfg, tmp_path / "run.csv")
        assert pools_opened == []
        # where the platform has no affinity mask, the CPU count stands in, and an unknown count is one CPU
        monkeypatch.delattr(bench.os, "sched_getaffinity")
        assert bench._usable_cpus() == 8
        monkeypatch.setattr(bench.os, "cpu_count", lambda: None)
        assert bench._usable_cpus() == 1

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # only a replicate with jobs > 1 needs the pool, and importing it
        # pulls multiprocessing, socket and subprocess into every process
        src = os.path.dirname(os.path.dirname(bench.__file__))
        code = "import sys, ttsem.cli; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_gmm_run_leaves_numpy_ma_unloaded(self, tmp_path):
        # the default start's quantiles are interpolated by hand, since
        # np.quantile's first call imports numpy.ma (about 14 ms and 1 MB)
        data, out = str(tmp_path / "data.txt"), str(tmp_path / "run.csv")
        assert cli.main(["simulate", "--model", "gmm", "--n", "300", "--seed", "4", "--out", data]) == 0
        src = os.path.dirname(os.path.dirname(bench.__file__))
        code = ("import sys, ttsem.cli; "
                f"rc = ttsem.cli.main(['run', '--model', 'gmm', '--data', {data!r}, '--algo', 'iSAEM', "
                f"'--out', {out!r}]); print(rc, 'numpy.ma' in sys.modules)")
        res = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=60)
        assert res.stdout.split("\n")[-2] == "0 False"

    def test_unrunnable_algorithm_fails_before_simulating(self, tmp_path, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("simulated before the algorithm settings were checked")

        monkeypatch.setattr(gmm, "simulate", no_simulation)
        with pytest.raises(ConfigError, match="SAEM requires rho = 1"):
            spec = ExperimentSpec(model="gmm", n=50, replicates=1, epochs=1,
                                  algorithms=(AlgoSpec("SAEM", rho=0.5),), seed=0)
            bench.cmd_replicate(spec, tmp_path / "m.csv", tmp_path / "s.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("algos", [("SAEM", "EM"), ("iEM",), ("MCEM", "iEM", "fiTTEM")])
    def test_exact_variant_on_pk_fails_before_simulating(self, monkeypatch, algos):
        def no_simulation(*args):
            raise AssertionError("simulated before the algorithm settings were checked")

        monkeypatch.setattr(pk, "simulate", no_simulation)
        exact = next(a for a in algos if VARIANTS[a].exact)
        with pytest.raises(ConfigError, match=f"{exact} needs a model with an exact E-step"):
            ExperimentSpec(model="pk", n=20, replicates=1, epochs=1,
                           algorithms=tuple(AlgoSpec(a) for a in algos), seed=0)
        # the same settings on the GMM, which has an exact E-step, are accepted
        ExperimentSpec(model="gmm", n=20, replicates=1, epochs=1,
                       algorithms=tuple(AlgoSpec(a) for a in algos), seed=0)
        # and on an unknown model kind they are a ConfigError, not a KeyError
        with pytest.raises(ConfigError, match="^unknown model 'foo'$"):
            AlgoSpec(algos[0]).to_config(10, 1, 0, "foo")

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

    def test_model_functions_are_looked_up_when_called(self, tmp_path, monkeypatch):
        # a tracer replaces these on their modules after ttsem.bench is
        # imported; a record holding the originals would bypass it
        calls = []

        def recorder(name, original):
            def record(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return record

        for module, name in ((gmm, "fit_reference_em"), (gmm, "simulate"), (bench, "metric_precision_gmm")):
            monkeypatch.setattr(module, name, recorder(name, getattr(module, name)))
        spec = self._spec(replicates=3)
        bench.cmd_replicate(spec, tmp_path / "m.csv", tmp_path / "s.json")
        # one dataset and one reference per replicate; one precision per grid point, algorithm and replicate
        grid_reads = len(spec.grid()) * len(spec.algorithms) * spec.replicates
        assert [calls.count(n) for n in ("simulate", "fit_reference_em", "metric_precision_gmm")] == [3, 3, grid_reads]


class ThreeComponentGmm(gmm.GmmModel):
    """The GMM with three components: a model kind only the test below registers."""

    def __init__(self, data):
        super().__init__(data, n_components=3)


class RidgeGmm(gmm.GmmModel):
    """The GMM with a stronger ridge on the means than the shipped default."""

    def __init__(self, data):
        super().__init__(data, delta=0.5)


class CountingGmm(gmm.GmmModel):
    """GmmModel that records the size of every dataset it is built on."""

    built: list = []

    def __init__(self, data):
        CountingGmm.built.append(len(data))
        super().__init__(data)


class TestModelRegistry:
    def test_registered_model_serves_every_command(self, tmp_path, monkeypatch, capsys):
        truth = gmm.GmmParams(omega=[0.2, 0.3], mu=[-2.0, 0.0, 2.0])
        gmm3 = replace(bench.MODELS["gmm"], model=ThreeComponentGmm, mc_samples=3, truth=lambda: truth)
        monkeypatch.setitem(bench.MODELS, "gmm3", gmm3)
        data = tmp_path / "d.txt"
        assert cli.main(["simulate", "--model", "gmm3", "--n", "150", "--seed", "3", "--out", str(data)]) == 0
        gmm.write_dataset(tmp_path / "want.txt", gmm.simulate(150, truth, named_stream(3, "data")))
        assert data.read_bytes() == (tmp_path / "want.txt").read_bytes()

        run_args = ["run", "--model", "gmm3", "--data", str(data), "--algo", "fiTTEM", "--epochs", "0.5"]
        assert cli.main(run_args + ["--out", str(tmp_path / "t.csv")]) == 0
        assert cli.main(run_args + ["--mc-samples", "3", "--out", str(tmp_path / "t3.csv")]) == 0
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "iter,epoch,omega1,omega2,mu1,mu2,mu3,delta_s_sq,nll"
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t3.csv").read_bytes()  # the record's mc_samples

        out = tmp_path / "rep"
        assert cli.main(["replicate", "--model", "gmm3", "--n", "150", "--replicates", "2", "--algos", "SAEM,fiTTEM",
                         "--epochs", "1", "--seed", "5", "--out", str(out)]) == 0
        blob = json.loads((tmp_path / "rep.json").read_text())
        assert blob["model"] == "gmm3"
        for r, hashes in enumerate(blob["hashes"]):  # each replicate simulated from the record's truth
            values = gmm.simulate(150, truth, named_stream(derive_seed(5, "rep", r, 0), "data")).tolist()
            assert hashes["data"] == hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()
        for final in blob["final"].values():
            assert final.keys() == {"delta_s_sq", "nll", "precision"}
            assert all(map(math.isfinite, final["precision"]["per_replicate"]))  # three means against three
        assert "sha256=" in capsys.readouterr().out

    def test_run_builds_one_model(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(bench.MODELS, "gmm", replace(bench.MODELS["gmm"], model=CountingGmm))
        monkeypatch.setattr(CountingGmm, "built", [])
        data = tmp_path / "d.txt"
        gmm.write_dataset(data, np.linspace(-1.0, 1.0, 20))
        assert cli.main(["run", "--model", "gmm", "--data", str(data), "--algo", "SAEM", "--epochs", "2",
                         "--mc-samples", "1", "--out", str(tmp_path / "t.csv")]) == 0
        assert CountingGmm.built == [20]
        assert "terminal_iter=1" in capsys.readouterr().out

    def test_reference_is_the_run_models_fixed_point(self, monkeypatch):
        # the precision reference is the EM fixed point of the model the runs
        # use, regularizer included, not of a default GmmModel on the data
        monkeypatch.setitem(bench.MODELS, "ridge", replace(bench.MODELS["gmm"], model=RidgeGmm))
        fits, fit = [], gmm.fit_reference_em
        monkeypatch.setattr(gmm, "fit_reference_em", lambda *args, **kwargs: fits.append(fit(*args, **kwargs))
                            or fits[-1])
        spec = ExperimentSpec(model="ridge", n=200, replicates=1, epochs=1.0, algorithms=(AlgoSpec("SAEM"),), seed=3)
        bench._replicate_worker(spec, 0)
        (theta,) = fits
        model = RidgeGmm(bench.MODELS["gmm"].dataset(None, 200, derive_seed(3, "rep", 0, 0))[0])
        image = model.m_step(model.exact_batch_stat(theta))
        np.testing.assert_allclose(model.flatten_params(image), model.flatten_params(theta), rtol=0, atol=1e-12)

    def test_worker_missing_the_record_fails_before_simulating(self, monkeypatch):
        monkeypatch.setitem(bench.MODELS, "gmm-alias", bench.MODELS["gmm"])
        spec = ExperimentSpec(model="gmm-alias", n=20, replicates=2, epochs=1.0, algorithms=(AlgoSpec("SAEM"),),
                              seed=1, jobs=2)
        monkeypatch.delitem(bench.MODELS, "gmm-alias")  # as a worker that imported MODELS afresh sees it
        simulated = []
        monkeypatch.setattr(gmm, "simulate", lambda *args: simulated.append(args))
        with pytest.raises(ConfigError, match="'gmm-alias'") as exc:
            bench._replicate_worker(spec, 0)
        assert "not started by fork import MODELS afresh" in str(exc.value)
        assert "register its record in a module the workers import, or use jobs=1" in str(exc.value)
        assert simulated == []


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

    @pytest.mark.parametrize("argv", [
        ["run", "--data", "{data}", "--algo", "fiTTEM", "--epochs", "1e308", "--out", "{tmp}/o.csv"],
        ["replicate", "--n", "100", "--epochs", "1e307", "--algos", "iSAEM", "--out", "{tmp}/rep"],
    ], ids=["run", "replicate"])
    def test_budget_past_a_finite_iteration_count_exits_one(self, tmp_path, capsys, argv):
        data = tmp_path / "d.txt"
        gmm.write_dataset(data, np.linspace(-1.0, 1.0, 20))
        argv = [a.format(data=data, tmp=tmp_path) for a in argv]
        assert cli.main(argv[:1] + ["--model", "gmm"] + argv[1:]) == 1
        assert "ttsem: error: epochs=1e+30" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    def test_oversized_budget_message_names_the_flag(self, tmp_path, capsys):
        # not a 301-digit total_iters, which is no flag
        data = tmp_path / "d.txt"
        gmm.write_dataset(data, np.linspace(-1.0, 1.0, 20))
        argv = ["run", "--model", "gmm", "--data", str(data), "--algo", "SAEM", "--epochs", "1e300",
                "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "ttsem: error: epochs=1e+300 overflows the SAEM iteration count" in err
        assert len(err.splitlines()[-1]) < 200
        assert list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("model, n", [("gmm", 10**12), ("pk", 10**12), ("pk", 2**63 - 1)])
    def test_allocation_failure_exits_two(self, tmp_path, model, n):
        # a count inside [1, 2**63-1] whose draws cannot be held: a runtime failure, not a
        # MemoryError traceback, nor a PK cohort that grows until memory runs out
        src = os.path.dirname(os.path.dirname(bench.__file__))
        code = ("import resource, sys, ttsem.cli; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
                "sys.exit(ttsem.cli.main(sys.argv[1:]))")
        argv = ["simulate", "--model", model, "--n", str(n), "--out", str(tmp_path / "o")]
        res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=30,
                             env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr.startswith("ttsem: runtime failure:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "replicate"])
    def test_n_past_numpy_index_exits_one(self, tmp_path, capsys, command):
        # not an OverflowError from resolving rho = n**(-2/3), nor a dataset of 10**400 draws
        argv = [command, "--model", "gmm", "--n", str(10**400), "--out", str(tmp_path / "o")]
        extra = ["--epochs", "1", "--replicates", "1"] if command == "replicate" else []
        assert cli.main(argv + extra) == 1
        assert f"ttsem: error: n must be an integer in [1, {2**63 - 1}], got 1000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        assert "EM needs a model with an exact E-step" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("algos", ["SAEM,EM", "iEM"])
    def test_exact_variant_on_pk_replicate_exits_one_before_work(self, tmp_path, capsys, monkeypatch, algos):
        def no_simulation(*args):
            raise AssertionError("simulated before the algorithm settings were checked")

        monkeypatch.setattr(pk, "simulate", no_simulation)
        rc = cli.main(["replicate", "--model", "pk", "--n", "200", "--replicates", "1", "--epochs", "2",
                       "--algos", algos, "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert "needs a model with an exact E-step" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        # a field or a whole file of the wrong shape fails as a runtime failure, not a traceback
        pytest.param("gmm", {"omega": 0.5, "mu": [0.5, -0.5]}, "omega must be a list", id="scalar-omega"),
        pytest.param("gmm", {"omega": [0.5], "mu": 0.5}, "mu must be a list", id="scalar-mu"),
        pytest.param("gmm", {"omega": [[0.5]], "mu": [0.5, -0.5]}, "omega must be a list", id="nested-omega"),
        pytest.param("gmm", [0.5, 0.5], "must hold a JSON object", id="gmm-array-file"),
        pytest.param("pk", [1.0, 1.0, 8.0, 0.1], "must hold a JSON object", id="pk-array-file"),
        *(pytest.param("pk", {"log_pop": [0, 0, 2, -2], "omega2": [0.1] * 4, "sigma2": bad}, "sigma2",
                       id=f"sigma2-{name}")
          for name, bad in (("list", [0.5]), ("null", None), ("object", {"a": 1}))),
        pytest.param("pk", {"log_pop": {"a": 1}, "omega2": [0.1] * 4, "sigma2": 0.5}, "log_pop must be a list",
                     id="log_pop-object"),
        pytest.param("pk", {"pop": {"a": 1}, "omega2": [0.1] * 4, "sigma2": 0.5}, "pop must be a list",
                     id="pop-object"),
        pytest.param("pk", {"log_pop": [0, 0, 2, -2], "omega2": {"a": 1}, "sigma2": 0.5}, "omega2 must be a list",
                     id="omega2-object"),
        pytest.param("gmm", {"omega": [0.5], "mu": [1, {"a": 1}]}, "mu must be a list", id="object-in-mu"),
        # a missing field is named, not reported as a bare key
        pytest.param("gmm", {"omega": [0.5]}, "no 'mu' field", id="missing-mu"),
        pytest.param("gmm", {"mu": [0.5, -0.5]}, "no 'omega' field", id="missing-omega"),
        pytest.param("pk", {"log_pop": [0, 0, 2, -2], "omega2": [0.1] * 4}, "no 'sigma2' field",
                     id="missing-sigma2"),
        pytest.param("pk", {"log_pop": [0, 0, 2, -2], "sigma2": 0.5}, "no 'omega2' field", id="missing-omega2"),
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

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("model, content, message", [
        pytest.param("gmm", "", "data must be a nonempty 1-d array", id="gmm-empty"),
        pytest.param("pk", "id,dose,time,obs\n", "cohort must be nonempty", id="pk-header-only"),
    ])
    def test_empty_dataset_exits_two(self, tmp_path, capsys, model, content, message, variant):
        # rejected before n = 0 resolves a setting such as rho = n^(-2/3)
        path = tmp_path / "data"
        path.write_text(content)
        rc = cli.main(["run", "--model", model, "--data", str(path), "--algo", variant,
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err
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
        (["replicate", "--epochs", "0.05"], None, 1),  # below the first grid point
        (["simulate", "--n", "abc"], None, 1),  # argparse's own type errors carry the prefix too
        (["run", "--algo", "iSAEM", "--epochs", "two"], None, 1),
        (["simulate", "--model", "nope"], None, 1),
        (["run", "--algo", "EM", "--gamma", "poly:0.5:warmup=1ep"], None, 1),  # the default text, not gamma = 1
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


class TestConfigFile:
    """What a ``--config`` file may hold, and how its entries combine with the
    command line's flags."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "d.txt"
        gmm.write_dataset(path, np.linspace(-1.0, 1.0, 20))
        return path

    @staticmethod
    def _run(tmp_path, data, out, *flags, config=None):
        argv = ["run", "--model", "gmm", "--data", str(data), "--algo", "vrTTEM", "--epochs", "1",
                "--mc-samples", "1", "--out", str(out), *flags]
        if config is not None:
            (tmp_path / "c.json").write_text(config if isinstance(config, str) else json.dumps(config))
            argv += ["--config", str(tmp_path / "c.json")]
        return cli.main(argv)

    @pytest.mark.parametrize("command, config, message", [
        pytest.param("replicate", {"rep": 2}, "unknown config key 'rep'", id="abbreviated-replicates"),
        pytest.param("run", {"epoch": 1}, "unknown config key 'epoch'", id="abbreviated-epochs"),
        pytest.param("run", {"algos": "SAEM"}, "unknown config key 'algos'", id="replicate-key-on-run"),
        pytest.param("replicate", {"data": "d.txt"}, "unknown config key 'data'", id="run-key-on-replicate"),
        pytest.param("simulate", {"epochs": 1}, "unknown config key 'epochs'", id="run-key-on-simulate"),
        pytest.param("run", {"command": "run"}, "unknown config key 'command'", id="command"),
        pytest.param("run", {"help": True}, "unknown config key 'help'", id="help"),
        pytest.param("simulate", {"config": "does-not-exist.json"}, "unknown config key 'config'", id="config"),
        pytest.param("run", {"--seed": 1}, "unknown config key '--seed'", id="dashed-name"),
        pytest.param("run", {"seed": 1, "gamma": None}, "config key 'gamma': null is not a value", id="null"),
        pytest.param("run", [["seed", 1]], "config file must hold a JSON object", id="array-file"),
        pytest.param("run", "3", "config file must hold a JSON object", id="number-file"),
        # a list is read from its text, as a flag's value would be
        pytest.param("simulate", {"n": [5]}, "ttsem: error:", id="list-n"),
        pytest.param("run", {"gamma": [0.5]}, "ttsem: error:", id="list-gamma"),
    ])
    def test_rejected_files_are_usage_errors(self, tmp_path, capsys, data, command, config, message):
        (tmp_path / "c.json").write_text(config if isinstance(config, str) else json.dumps(config))
        out = tmp_path / "o"
        argv = {
            "simulate": ["simulate", "--model", "gmm", "--n", "5"],
            "run": ["run", "--model", "gmm", "--data", str(data), "--algo", "SAEM", "--epochs", "1"],
            "replicate": ["replicate", "--model", "gmm", "--n", "20", "--replicates", "1", "--algos", "SAEM",
                          "--epochs", "1"],
        }[command]
        before = set(tmp_path.iterdir())
        assert cli.main(argv + ["--mc-samples", "1"] * (command != "simulate")
                        + ["--out", str(out), "--config", str(tmp_path / "c.json")]) == 1
        err = capsys.readouterr().err
        assert "ttsem: error:" in err and message in err
        assert set(tmp_path.iterdir()) == before

    def test_abbreviation_is_a_flag_not_a_key(self, tmp_path, capsys):
        # argparse takes --rep for --replicates on the command line; a config key must be exact
        rc = cli.main(["replicate", "--model", "gmm", "--n", "20", "--rep", "1", "--algos", "SAEM", "--epochs", "1",
                       "--mc-samples", "1", "--out", str(tmp_path / "r")])
        assert rc == 0
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["epoch-len", "epoch_len"])
    def test_both_spellings_set_the_flag(self, tmp_path, capsys, data, key):
        assert self._run(tmp_path, data, tmp_path / "flag.csv", "--epoch-len", "3") == 0
        assert self._run(tmp_path, data, tmp_path / "default.csv") == 0
        assert self._run(tmp_path, data, tmp_path / "file.csv", config={key: 3}) == 0
        capsys.readouterr()
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
        assert (tmp_path / "file.csv").read_bytes() != (tmp_path / "default.csv").read_bytes()

    @pytest.mark.parametrize("flags_after", [False, True])
    def test_file_values_win_over_flags(self, tmp_path, capsys, data, flags_after):
        assert self._run(tmp_path, data, tmp_path / "flag.csv", "--seed", "5", "--mc-samples", "2") == 0
        argv = ["run", "--model", "gmm", "--data", str(data), "--algo", "vrTTEM", "--epochs", "1",
                "--out", str(tmp_path / "file.csv")]
        flags = ["--seed", "1", "--mc-samples", "7"]
        (tmp_path / "c.json").write_text(json.dumps({"seed": 5, "mc-samples": "2"}))
        config = ["--config", str(tmp_path / "c.json")]
        assert cli.main(argv + (config + flags if flags_after else flags + config)) == 0
        capsys.readouterr()
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_value_starting_with_a_dash(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({"out": "-x.csv"}))
        assert cli.main(["simulate", "--model", "gmm", "--n", "4", "--out", "o.txt", "--config", "c.json"]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["-x.csv", "c.json"]

    def test_list_value_is_converted_from_its_text(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({"out": [1, "a"], "seed": 3}))
        assert cli.main(["simulate", "--model", "gmm", "--n", "4", "--out", "o.txt", "--config", "c.json"]) == 0
        assert cli.main(["simulate", "--model", "gmm", "--n", "4", "--seed", "3", "--out", "flag.txt"]) == 0
        capsys.readouterr()
        assert (tmp_path / "[1, 'a']").read_bytes() == (tmp_path / "flag.txt").read_bytes()


@pytest.mark.parametrize("command", ["run", "replicate"])
def test_step_size_help_names_the_marked_variants(command, capsys, monkeypatch):
    # an extra row with gamma forced to 1 and a free rho, as an exact fiTTEM (FIEM) would be
    variants = {**VARIANTS, "FIEM": VARIANTS["fiTTEM"]._replace(exact=True, unit_gamma=True)}
    monkeypatch.setattr(cli, "VARIANTS", variants)
    monkeypatch.setenv("COLUMNS", "1000")  # one help line per flag
    assert cli.main([command, "--help"]) == 0
    text = capsys.readouterr().out

    def listed(pattern):
        return re.split(r", | and ", re.search(pattern, text).group(1))

    unit_gamma = [v for v, f in variants.items() if f.unit_gamma]
    free_rho = [v for v, f in variants.items() if not f.unit_rho]
    assert "FIEM" in unit_gamma and "FIEM" in free_rho
    assert listed(r"--gamma GAMMA +SA-step stepsize \(default: \S+, or 1 for (.*)\)\n") == unit_gamma
    assert listed(r"--rho RHO +Inc-step stepsize \(auto: n\^-2/3 for (.*), else 1\)\n") == free_rho
