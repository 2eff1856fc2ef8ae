#!/usr/bin/env python3
"""ttsem benchmark: end-to-end and per-layer timings on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ttsem checkout; the program is imported from
``src/``.  A run sets up its inputs from the seed several times (median
``setup_s``), then repeats whole rounds of fixed work until another round
would pass ``--seconds`` (at least two rounds), checking every round's
outputs outside the timed calls.  Every timing is scaled to a reference host
speed (hostspeed.py).  With ``--trace 1`` the first half of the time runs
untraced rounds as a baseline, one more round runs with spans around ttsem's
functions (tracing.py), and the per-layer metrics replace the end-to-end
ones.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os
import sys
import time

# One BLAS thread in this process and every child it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from hostspeed import HostSpeed, scaled  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "cli_child.py")

SETUP_REPS = 5
PROCESS_SETUP_REPS = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150


def _call(fn, *args, **kwargs):
    """(result, None) or (None, problem) for one call into the program."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # the operation failed; the run goes on
        return None, f"raised {type(exc).__name__}: {exc}"


class Round:
    """One round: its scaled time in the program and each operation's problems."""

    def __init__(self):
        self.wall_s = 0.0
        self.ops: list[tuple[str, list[str]]] = []


class Harness:
    """What every workload shares: the host-speed sampler and, in a traced
    run, the tracer.  Untraced, the tracer methods are cheap no-ops."""

    def __init__(self, trace_dir, kernel):
        self.speed = HostSpeed(kernel)
        self.probe_ns: list[float] = []
        self.trace_dir = trace_dir
        self.tracer = None
        self.child_files: list[str] = []

    def timed(self, fn, *args, **kwargs):
        """One call into the program under the host-speed sampler:
        (result, problem, scaled seconds)."""
        self.speed.start()
        t0 = time.perf_counter()
        out, err = _call(fn, *args, **kwargs)
        wall = time.perf_counter() - t0
        probe = self.speed.stop()
        self.probe_ns.append(probe["mean_ns"])
        return out, err, scaled(wall, probe)

    def trace_on(self):
        from tracing import Tracer

        self.tracer = Tracer().install()

    def esteps(self) -> int:
        if self.tracer is None or "engine.estep" not in self.tracer.names:
            return 0
        return self.tracer.name.tolist().count(self.tracer.names.index("engine.estep"))

    def check_esteps(self, observed: int, expected: int) -> list[str]:
        return [] if self.tracer is None else checks.check_esteps(observed, expected)

    def child_trace_path(self):
        if self.tracer is None:
            return None
        return os.path.join(self.trace_dir, f"child{len(self.child_files)}.npz")

    def child_done(self, path) -> int:
        """Keep a finished child's trace; returns the E-steps it made."""
        if path is None:
            return 0
        self.child_files.append(path)
        with np.load(path) as z:
            names = json.loads(str(z["names"]))
            if "engine.estep" not in names:
                return 0
            return int((z["name"] == names.index("engine.estep")).sum())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class InProcess:
    """Operations that are ``engine.run`` calls in this process."""

    expected_failures = frozenset()
    probe_kernel = "mixed"  # hostspeed.KERNELS entry whose slowdown tracks this workload's

    def __init__(self, seed, harness):
        self.seed = seed
        self.h = harness

    def epochs_per_round(self):
        return sum(checks.charged_epochs(c.variant, self.n, c.total_iters, c.epoch_len) for c in self.configs)

    def round(self):
        import ttsem.engine

        rnd = Round()
        for cfg in self.configs:
            model = self.model_for_run()
            before = self.h.esteps()
            traj, err, secs = self.h.timed(ttsem.engine.run, model, cfg, theta0=self.theta0)
            rnd.wall_s += secs
            problems = [err] if err else self.check(traj)
            problems += self.h.check_esteps(self.h.esteps() - before, checks.expected_esteps(
                cfg.variant, self.n, cfg.total_iters, cfg.epoch_len))
            rnd.ops.append((cfg.variant, problems))
        rnd.ops += self.extra_ops()
        return rnd

    def extra_ops(self):
        return []


class GmmIncremental(InProcess):
    """iSAEM and fiTTEM on a simulated GMM at n = 10^4."""

    n = 10_000
    epochs = 3
    variants = ("iSAEM", "fiTTEM")
    probe_kernel = "scalar"

    def setup(self):
        from ttsem import bench, gmm

        truth = gmm.GmmParams(omega=[0.5], mu=[0.5, -0.5])
        self.data = gmm.simulate(self.n, truth, np.random.default_rng([self.seed, 1]))
        self.model = gmm.GmmModel(self.data)
        self.theta0 = self.model.default_init()
        self.configs = [bench.AlgoSpec(v).to_config(self.n, self.epochs, self.seed, "gmm") for v in self.variants]

    def prepare(self):
        w0, mu0 = checks.gmm_default_start(self.data, 2)
        w_em, mu_em = checks.gmm_em(self.data, w0, mu0, tol=1e-10)
        self.nll_start = checks.gmm_nll(self.data, w0, mu0)
        self.nll_em = checks.gmm_nll(self.data, w_em, mu_em)

    def model_for_run(self):
        return self.model  # GmmModel keeps no state between runs

    def check(self, traj):
        problems = checks.check_gmm_thetas(traj.thetas, 2)
        if problems:
            return problems
        end = traj.terminal_theta
        nll_end = checks.gmm_nll(self.data, checks.full_weights(end[:1]), end[1:])
        return checks.check_nll_gap(self.nll_start, nll_end, self.nll_em)


class PkMh(InProcess):
    """SAEM and fiTTEM on a simulated PK cohort at n = 500, each on a fresh
    PkModel, plus a probe that re-runs fiTTEM on a PkModel SAEM has used."""

    n = 500
    epochs = 2
    variants = ("SAEM", "fiTTEM")
    # Fixed probe inputs, the same for every seed: PkModel keeps its MH warm
    # starts across run() calls, so a second run on one instance differs from
    # a fresh-model run, and the probe fails every time until that is fixed.
    probe_n = 100
    probe_seed = 20220321
    expected_failures = frozenset({"probe"})

    def setup(self):
        from ttsem import bench, pk

        self.truth = pk.paper_truth()
        design = pk.default_design()
        self.cohort = pk.simulate(self.n, self.truth, design, np.random.default_rng([self.seed, 2]))
        self.theta0 = bench.pk_naive_init(self.cohort)
        self.configs = [bench.AlgoSpec(v).to_config(self.n, self.epochs, self.seed, "pk") for v in self.variants]
        self.probe_cohort = pk.simulate(self.probe_n, self.truth, design, np.random.default_rng(self.probe_seed))
        self.probe_theta0 = bench.pk_naive_init(self.probe_cohort)
        self.probe_configs = [
            bench.AlgoSpec("SAEM").to_config(self.probe_n, 1, self.probe_seed, "pk"),
            bench.AlgoSpec("fiTTEM").to_config(self.probe_n, 0.25, self.probe_seed, "pk"),
        ]

    def prepare(self):
        import ttsem.engine
        from ttsem import pk

        fresh = pk.PkModel(self.probe_cohort)
        self.probe_reference = ttsem.engine.run(fresh, self.probe_configs[1], theta0=self.probe_theta0).thetas

    def model_for_run(self):
        from ttsem import pk

        return pk.PkModel(self.cohort)

    def check(self, traj):
        if not np.all(np.isfinite(traj.thetas)):
            return ["non-finite parameters recorded"]
        return checks.check_pk_terminal(traj.terminal_theta, self.theta0.log_pop, self.truth.log_pop)

    def extra_ops(self):
        """The probe, outside the timed calls: SAEM then fiTTEM on one
        PkModel; the fiTTEM trajectory must equal a fresh PkModel's."""
        import ttsem.engine
        from ttsem import pk

        model = pk.PkModel(self.probe_cohort)
        before = self.h.esteps()
        expected = 0
        for cfg in self.probe_configs:
            traj, err = _call(ttsem.engine.run, model, cfg, theta0=self.probe_theta0)
            if err:
                return [("probe", [err])]
            expected += checks.expected_esteps(cfg.variant, self.probe_n, cfg.total_iters)
        problems = self.h.check_esteps(self.h.esteps() - before, expected)
        return [("probe", problems + checks.check_same_run(traj.thetas, self.probe_reference))]


class GmmCli:
    """The real CLI in child processes: ``ttsem run`` on a dataset written by
    ``ttsem simulate`` in set-up, then a reduced ``ttsem replicate``."""

    n = 10_000
    run_epochs = 1
    rep_n = 2000
    rep_replicates = 2
    rep_epochs = 3
    rep_algos = ["SAEM", "iSAEM", "vrTTEM", "fiTTEM"]
    weights, mu = [0.5, 0.5], [0.5, -0.5]  # ttsem's default GMM simulation truth
    expected_failures = frozenset()
    probe_kernel = "mixed"  # the CLI children always sample with this one

    def __init__(self, seed, harness):
        self.seed = seed
        self.h = harness
        self.work = os.path.join(OUT, f"gmm-cli-{seed}-{os.getpid()}")
        self.first_hashes = None
        self.sizes = {}

    def child(self, args, refs=None):
        """One CLI command run to its end in a child process, which samples
        the host speed itself: (scaled seconds, problems, E-steps counted
        when traced)."""
        speed_path = os.path.join(self.work, "speed.json")
        opts = ["--speed", speed_path]
        trace_path = self.h.child_trace_path()
        if trace_path:
            opts += ["--trace", trace_path]
        if refs:
            opts += ["--refs", refs]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, CHILD, *opts, "--", *args], cwd=self.work,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return 0.0, [f"ttsem {args[0]} did not end within {CHILD_TIMEOUT_S} s"], 0
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            return 0.0, [f"ttsem {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"], 0
        with open(speed_path, encoding="ascii") as fh:
            probe = json.load(fh)
        self.h.probe_ns.append(probe["mean_ns"])
        return scaled(wall, probe), [], self.h.child_done(trace_path)

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        secs, problems, _ = self.child(["simulate", "--model", "gmm", "--n", str(self.n),
                                        "--seed", str(self.seed), "--out", "data.txt"])
        if problems:
            raise RuntimeError(problems[0])
        return secs

    def prepare(self):
        with open(os.path.join(self.work, "data.txt"), "rb") as fh:
            raw = fh.read()
        self.data = np.array([float(v) for v in raw.split()])
        regenerated = checks.simulate_gmm(self.n, self.weights, self.mu, checks.philox_stream(self.seed, "data"))
        self.data_problems = []
        if raw != "".join(repr(float(y)) + "\n" for y in regenerated).encode():
            self.data_problems = ["the simulated dataset differs from the independently regenerated one"]
        self.em_refs = []
        for r in range(self.rep_replicates):
            data = checks.replicate_data(self.seed, r, self.rep_n, self.weights, self.mu)
            w0, mu0 = checks.gmm_default_start(data, 2)
            self.em_refs.append(checks.gmm_em(data, w0, mu0, tol=1e-14)[1])
        from ttsem import bench

        self.run_iters = bench.epochs_to_iters(self.run_epochs, self.n, "fiTTEM")
        self.rep_configs = [bench.AlgoSpec(v).to_config(self.rep_n, self.rep_epochs, 0, "gmm")
                            for v in self.rep_algos]

    def epochs_per_round(self):
        total = checks.charged_epochs("fiTTEM", self.n, self.run_iters)
        for c in self.rep_configs:
            total += self.rep_replicates * checks.charged_epochs(c.variant, self.rep_n, c.total_iters, c.epoch_len)
        return total

    def round(self):
        rnd = Round()
        run_s, run_problems, run_esteps = self.child(
            ["run", "--model", "gmm", "--algo", "fiTTEM", "--data", "data.txt", "--epochs", str(self.run_epochs),
             "--seed", str(self.seed), "--out", "run.csv"])
        rep_s, rep_problems, rep_esteps = self.child(
            ["replicate", "--model", "gmm", "--n", str(self.rep_n), "--replicates", str(self.rep_replicates),
             "--epochs", str(self.rep_epochs), "--jobs", "1", "--seed", str(self.seed), "--out", "rep"],
            refs="refs.json")
        rnd.wall_s = run_s + rep_s

        files = {name: os.path.join(self.work, name) for name in ("run.csv", "rep.csv", "rep.json")}
        hashes = {}
        if not run_problems:
            with open(files["run.csv"], "rb") as fh:
                raw = fh.read()
            hashes["run.csv"] = hashlib.sha256(raw).hexdigest()
            run_problems = self.data_problems + checks.check_trajectory_csv(raw.decode("ascii"), self.data, 2)
            run_problems += self.h.check_esteps(run_esteps, checks.expected_esteps("fiTTEM", self.n, self.run_iters))
        if not rep_problems:
            for name in ("rep.csv", "rep.json"):
                with open(files[name], "rb") as fh:
                    hashes[name] = hashlib.sha256(fh.read()).hexdigest()
            with open(files["rep.json"], encoding="ascii") as fh:
                summary = json.load(fh)
            with open(os.path.join(self.work, "refs.json"), encoding="ascii") as fh:
                refs = json.load(fh)
            rep_problems = checks.check_replicate_summary(
                summary, self.rep_algos, self.rep_replicates, self.seed, self.rep_n,
                self.weights, self.mu, refs, self.em_refs)
            expected = sum(self.rep_replicates * checks.expected_esteps(c.variant, self.rep_n, c.total_iters,
                                                                        c.epoch_len) for c in self.rep_configs)
            rep_problems += self.h.check_esteps(rep_esteps, expected)
        # the same commands on the same inputs must write the same bytes
        if self.first_hashes is None:
            self.first_hashes = hashes
        for name, digest in hashes.items():
            if self.first_hashes.get(name, digest) != digest:
                (run_problems if name == "run.csv" else rep_problems).append(f"{name} differs from the first round")
        rnd.ops += [("run", run_problems), ("replicate", rep_problems)]
        self.sizes = {name: os.path.getsize(path) for name, path in files.items() if os.path.exists(path)}
        return rnd

    def extra(self):
        return {"write_csv_bytes": self.sizes.get("run.csv", 0),
                "out_bytes": self.sizes.get("rep.csv", 0) + self.sizes.get("rep.json", 0)}

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {"gmm-incremental": GmmIncremental, "pk-mh": PkMh, "gmm-cli": GmmCli}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_rounds(workload, seconds, min_rounds, walls, ops):
    """Whole rounds until the next would pass ``seconds`` (at least
    ``min_rounds``); appends round times and operation outcomes."""
    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rnd = workload.round()
        walls.append(rnd.wall_s)
        ops.extend(rnd.ops)
        last = time.perf_counter() - t_round
        if len(walls) >= min_rounds and time.perf_counter() - t0 + last > seconds:
            return


def setup_time(workload, harness):
    """Set-up time at the reference speed: the median of several whole
    ``ttsem simulate`` processes for the CLI; in-process, the median of
    several child processes that only start Python and import ttsem, plus
    the median of several builds of the inputs."""
    if isinstance(workload, GmmCli):
        return statistics.median(workload.setup() for _ in range(PROCESS_SETUP_REPS))
    imports = []
    for _ in range(PROCESS_SETUP_REPS):
        speed_path = os.path.join(OUT, f"import-speed-{os.getpid()}.json")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, CHILD, "--speed", speed_path, "--"], check=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        with open(speed_path, encoding="ascii") as fh:
            imports.append(scaled(wall, json.load(fh)))
        os.remove(speed_path)
    builds = []
    for _ in range(SETUP_REPS):
        _, err, secs = harness.timed(workload.setup)
        if err:
            raise RuntimeError(err)
        builds.append(secs)
    return statistics.median(imports) + statistics.median(builds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "ttsem", "__init__.py")):
        print(f"perfbench: no ttsem sources at {SRC}; run from the root of a ttsem checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ttsem.bench  # noqa: F401  (and engine, gmm, pk)

    os.makedirs(OUT, exist_ok=True)

    trace_dir = os.path.join(OUT, f"trace-{args.workload}-{args.seed}")
    cls = WORKLOADS[args.workload]
    harness = Harness(trace_dir, cls.probe_kernel)
    workload = cls(args.seed, harness)
    walls: list[float] = []
    ops: list[tuple[str, list[str]]] = []
    try:
        setup_s = setup_time(workload, harness)
        workload.prepare()
        if not args.trace:
            run_rounds(workload, args.seconds, MIN_ROUNDS, walls, ops)
            who = resource.RUSAGE_CHILDREN if isinstance(workload, GmmCli) else resource.RUSAGE_SELF
            wall = statistics.median(walls)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (wall, "s"),
                "epochs_per_s": (workload.epochs_per_round() / wall, "1/s"),
                "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
            }
        else:
            from tracing import Aggregate, per_layer

            run_rounds(workload, args.seconds / 2.0, 1, walls, ops)
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            harness.trace_on()
            try:
                workload.setup()
                traced = workload.round()
            finally:
                harness.tracer.remove()
            ops.extend(traced.ops)
            own = os.path.join(trace_dir, "harness.npz")
            harness.tracer.save(own, harness.speed.intervals)
            agg = Aggregate()
            for path in [own] + harness.child_files:
                agg.add_file(path)
            extra = workload.extra() if hasattr(workload, "extra") else {}
            children = agg.counts["cli.children"]
            extra["cli_import_s"] = agg.counts["cli.import_ns"] / children / 1e9 if children else 0.0
            extra["overhead_s"] = traced.wall_s - statistics.median(walls)
            extra["probe_us"] = statistics.median(harness.probe_ns) / 1e3
            metrics = per_layer(agg, extra)
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()

    failed = [(label, problems) for label, problems in ops if problems]
    for label, problems in failed[:5]:
        print(f"perfbench: {args.workload} {label} failed: {'; '.join(problems)}", file=sys.stderr)
    correct = all(label in workload.expected_failures for label, _ in failed)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
