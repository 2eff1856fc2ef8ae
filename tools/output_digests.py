"""SHA-256 digests of a fixed set of ``ttsem`` outputs, for checking that a
change keeps them byte-identical.

    python tools/output_digests.py CHECKOUT OUTDIR

runs the commands in ``COMMANDS`` on the package in ``CHECKOUT/src``, in
order and inside ``OUTDIR`` (created if missing), and prints one
``sha256  file`` line per file they write, datasets included, then one
``sha256  stdout:OUT`` line for what the command printed (the ``sha256=``
of ``simulate``, the ``terminal_iter=... theta=[...]`` of ``run``), where OUT
is its ``--out``.  Run it on two checkouts, each with its own OUTDIR, and
``diff`` the two listings.  A command that fails stops the script with its
stderr and exit status.

The set: ``ttsem run`` trajectories of all seven GMM variants, of three
GMM runs with the ``--gamma`` of ``GMM_GAMMAS`` (a constant, a polynomial
with ``c`` and an epoch warmup, and EM's forced 1 given explicitly), of
SAEM and fiTTEM at the ``--mc-samples`` of ``GMM_MC_SAMPLES`` (one draw
per E-step, and more draws than one block of ``gmm``'s uniforms), of the
five Monte Carlo PK variants (60 iterations each), and of the two PK
variants with rho < 1 in ``PK_LONG_VARIANTS`` over 1,350 iterations (whole
blocks of ``engine._GAP_BLOCK`` timescale gaps and a partial last one),
both commands of the ``gmm-cli`` benchmark workload at seed 401 (its
``run`` keeps 5,001 of 10,001 records, the one thinned trajectory here), a
GMM replicate study at ``--epochs 2.5`` (whose grid ends at 2.5 while
SAEM's budget rounds up to 3 passes), a PK replicate study under
``--jobs 1`` and ``--jobs 2``, and datasets simulated from the truth files in
``THETAS``, which the script writes into OUTDIR first: a GMM truth given
as all M weights and one given as the M-1 free ones, and a PK truth given
as ``pop`` (also run through a replicate study, whose metrics compare
against it) and one given as ``log_pop`` with a full ``omega2``.  Last
come one ``run`` and one ``replicate`` whose settings are in the
``--config`` files of ``CONFIGS``, written into OUTDIR with the truths;
each repeats a flag-form command above, so their files' digests match that
command's.  Then a PK dataset simulated from a truth whose ``omega2`` has a
zero variance (no Cholesky factor, so ``simulate`` factors it by ``eigh``),
and a PK ``run`` on ``RAGGED_COHORT``, a cohort the script writes into
OUTDIR whose patients are sampled on two time grids (the naive start of
patients with their own grids).  It takes about eighteen seconds on two
cores.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

GMM_VARIANTS = ("EM", "iEM", "MCEM", "SAEM", "iSAEM", "vrTTEM", "fiTTEM")
GMM_GAMMAS = (("SAEM", "const:0.8"), ("iSAEM", "poly:0.75:c=0.9:warmup=2ep"), ("EM", "1"))
GMM_MC_VARIANTS = ("SAEM", "fiTTEM")
GMM_MC_SAMPLES = ("1", "300")  # one draw per E-step, and more than a whole block of uniforms
PK_VARIANTS = ("MCEM", "SAEM", "iSAEM", "vrTTEM", "fiTTEM")
PK_LONG_VARIANTS = ("vrTTEM", "fiTTEM")
RAGGED_COHORT = "pk-ragged.csv"  # written into OUTDIR by ragged_cohort()

COMMANDS = [
    ["simulate", "--model", "gmm", "--n", "3000", "--seed", "401", "--out", "gmm.txt"],
    *(["run", "--model", "gmm", "--data", "gmm.txt", "--algo", v, "--epochs", "2", "--seed", "5",
       "--out", f"gmm-{v}.csv"] for v in GMM_VARIANTS),
    *(["run", "--model", "gmm", "--data", "gmm.txt", "--algo", v, "--gamma", g, "--epochs", "2", "--seed", "5",
       "--out", f"gmm-{v}-gamma.csv"] for v, g in GMM_GAMMAS),
    *(["run", "--model", "gmm", "--data", "gmm.txt", "--algo", v, "--mc-samples", mc, "--epochs", "2", "--seed", "5",
       "--out", f"gmm-{v}-mc{mc}.csv"] for v in GMM_MC_VARIANTS for mc in GMM_MC_SAMPLES),
    ["simulate", "--model", "pk", "--n", "30", "--seed", "3", "--out", "pk.csv"],
    *(["run", "--model", "pk", "--data", "pk.csv", "--algo", v, "--epochs", "2", "--seed", "5",
       "--mc-samples", "8", "--out", f"pk-{v}.csv"] for v in PK_VARIANTS),
    *(["run", "--model", "pk", "--data", "pk.csv", "--algo", v, "--epochs", "45", "--seed", "5",
       "--mc-samples", "5", "--out", f"pk-{v}-45ep.csv"] for v in PK_LONG_VARIANTS),
    ["simulate", "--model", "gmm", "--n", "10000", "--seed", "401", "--out", "data.txt"],
    ["run", "--model", "gmm", "--data", "data.txt", "--algo", "fiTTEM", "--epochs", "1", "--seed", "401",
     "--out", "run.csv"],
    ["replicate", "--model", "gmm", "--n", "2000", "--replicates", "2", "--epochs", "3", "--jobs", "1",
     "--seed", "401", "--out", "gmm-rep"],
    ["replicate", "--model", "gmm", "--n", "500", "--replicates", "1", "--epochs", "2.5", "--seed", "401",
     "--out", "gmm-rep-2.5ep"],
    *(["replicate", "--model", "pk", "--n", "12", "--replicates", "2", "--epochs", "2", "--mc-samples", "5",
       "--seed", "9", "--jobs", jobs, "--out", f"pk-rep-jobs{jobs}"] for jobs in ("1", "2")),
    *(["simulate", "--model", name.split("-")[0], "--n", "40", "--seed", "13", "--theta", f"{name}.json",
       "--out", f"{name}.txt"] for name in ("gmm-weights-all", "gmm-weights-free", "pk-pop", "pk-log_pop")),
    ["replicate", "--model", "pk", "--n", "10", "--replicates", "1", "--epochs", "1", "--mc-samples", "5",
     "--algos", "SAEM,fiTTEM", "--seed", "13", "--theta", "pk-pop.json", "--out", "pk-rep-theta"],
    # the settings of gmm-SAEM-mc1.csv and pk-rep-jobs1 from the files in CONFIGS, over flags they override
    ["run", "--model", "gmm", "--data", "gmm.txt", "--algo", "SAEM", "--seed", "1", "--config", "run-config.json",
     "--out", "gmm-SAEM-mc1-config.csv"],
    ["replicate", "--model", "pk", "--n", "12", "--jobs", "2", "--config", "replicate-config.json",
     "--out", "pk-rep-config"],
    ["simulate", "--model", "pk", "--n", "40", "--seed", "13", "--theta", "pk-singular.json", "--out",
     "pk-singular.txt"],
    ["run", "--model", "pk", "--data", RAGGED_COHORT, "--algo", "fiTTEM", "--epochs", "2", "--seed", "5",
     "--mc-samples", "8", "--out", "pk-ragged-fiTTEM.csv"],
]

# simulation truths, written as JSON into OUTDIR before the commands run
THETAS = {
    "gmm-weights-all": {"omega": [0.2, 0.3, 0.5], "mu": [-2.0, 0.25, 2.0]},
    "gmm-weights-free": {"omega": [0.7], "mu": [1.5, -1.0]},
    "pk-pop": {"pop": [1.2, 0.8, 9.0, 0.12], "omega2": [0.09, 0.16, 0.04, 0.09], "sigma2": 0.4},
    "pk-log_pop": {"log_pop": [0.1, -0.2, 2.2, -2.1], "sigma2": 0.3,
                   "omega2": [[0.09, 0.01, 0.0, 0.0], [0.01, 0.16, 0.0, 0.0], [0.0, 0.0, 0.04, 0.0],
                              [0.0, 0.0, 0.0, 0.09]]},
    "pk-singular": {"log_pop": [0.1, -0.2, 2.2, -2.1], "omega2": [0.09, 0.0, 0.04, 0.09], "sigma2": 0.3},
}

# --config files, written into OUTDIR with the truths; their keys use both spellings
CONFIGS = {
    "run-config": {"mc_samples": 1, "epochs": "2", "seed": 5},
    "replicate-config": {"replicates": 2, "epochs": 2, "mc-samples": "5", "seed": 9, "jobs": 1},
}


def ragged_cohort() -> str:
    """``RAGGED_COHORT``'s CSV: twelve patients, alternately on seven and on
    four sampling times, their curves plus a deterministic sine noise."""
    lines = ["id,dose,time,obs"]
    for pid in range(12):
        tlag, ka, v, k = 0.3 + 0.05 * (pid % 4), 0.8 + 0.1 * pid, 7.0 + pid % 3, 0.08 + 0.01 * (pid % 5)
        times = (0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 24.0) if pid % 2 else (1.0, 3.0, 6.0, 12.0)
        for j, t in enumerate(times):
            dt = max(t - tlag, 0.0)
            conc = 100.0 * ka / (v * (ka - k)) * (math.exp(-k * dt) - math.exp(-ka * dt))
            lines.append(f"{pid},100.0,{t!r},{conc + 0.3 * math.sin(7 * pid + 3.1 * j)!r}")
    return "\n".join(lines) + "\n"


def outputs(args: list[str]) -> list[str]:
    """The files one command writes: its ``--out``, or ``--out`` plus
    ``.csv`` and ``.json`` for ``replicate``."""
    out = args[args.index("--out") + 1]
    return [out + ".csv", out + ".json"] if args[0] == "replicate" else [out]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    src = os.path.join(os.path.abspath(argv[0]), "src")
    if not os.path.isfile(os.path.join(src, "ttsem", "cli.py")):
        print(f"no ttsem package under {src}", file=sys.stderr)
        return 1
    outdir = argv[1]
    os.makedirs(outdir, exist_ok=True)
    for name, blob in {**THETAS, **CONFIGS}.items():
        with open(os.path.join(outdir, f"{name}.json"), "w", encoding="ascii") as fh:
            json.dump(blob, fh)
    with open(os.path.join(outdir, RAGGED_COHORT), "w", encoding="ascii", newline="\n") as fh:
        fh.write(ragged_cohort())
    env = {**os.environ, "PYTHONPATH": src}
    for args in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "ttsem.cli", *args], cwd=outdir, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"ttsem {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        for name in outputs(args):
            with open(os.path.join(outdir, name), "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
        print(f"{hashlib.sha256(proc.stdout.encode()).hexdigest()}  stdout:{args[args.index('--out') + 1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
