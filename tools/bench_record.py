"""A performance record of this checkout, ``BENCH_<n>.json``, and its
comparison with an earlier record.

    python tools/bench_record.py --out BENCH_38.json [--against BENCH_37.json]

runs, from the root of the checkout that holds this script, one child
process per workload of ``BENCHMARK.json`` and per seed of ``SEEDS``:

    <BENCHMARK.json command> --workload W --seed s --seconds <run_seconds> --trace 0

then one ``--trace 1`` run per workload at seed 777 for 6 s, the setting of
every traced figure in ROADMAP.md.  It writes the median and quartiles of
each end-to-end metric over the untraced runs, every run's metrics with its
``correct`` and ``failed``, the traced run's result with its per-layer
metrics, and the machine: the head commit, whether tracked files had
changes, the git tree ids of the ``src`` and ``perfbench`` that ran (so a
record taken on uncommitted changes names the commit whose trees match),
the Python and numpy versions, the CPU count and affinity mask, and the
command lines.  With ``--against`` it then prints each metric's change
against the earlier record, and where the new median falls against the
earlier quartiles; it refuses records taken with other run settings.  It
exits 2 when any run read incorrect or failed.

The script reads no bound and enforces none; ``BENCHMARK.json`` holds the
gate.  A run takes about ``run_seconds`` plus its set-up: five seeds at
30 s over the three workloads, with the traced runs, take about 9 minutes
on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = [3701, 3702, 3703, 3704, 3705]
TRACE_SEED, TRACE_SECONDS = 777, 6.0
# the settings a comparison needs equal on both sides
SETTINGS = ("command", "seconds", "seeds", "trace_seed", "trace_seconds")


def perfbench(command: list, workload: str, seed: int, seconds: float, trace: int) -> tuple[list, dict]:
    """One benchmark child: its command line and its last stdout line's
    JSON, or ``correct: false`` with the end of stderr when it has none."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out = {"correct": False, "failed": None, "metrics": {}, "error": proc.stderr[-2000:]}
    return cmd, out


def summary(values: list[float]) -> dict:
    """Median and quartiles (the ``statistics.quantiles`` default method)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True).stdout.strip()


def record() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    command = bench["command"]
    probe = "import platform, numpy; print(platform.python_version(), numpy.__version__)"
    versions = subprocess.run([command[0], "-c", probe], capture_output=True, text=True, check=True).stdout.split()
    measured = git("stash", "create") or "HEAD"  # a commit of the tracked files as they are, when they have changes
    rec = {
        "head": git("rev-parse", "HEAD"),
        "tree_changed": measured != "HEAD",
        "trees": {path: git("rev-parse", f"{measured}:{path}") for path in ("src", "perfbench")},
        "python": versions[0],  # of the interpreter the runs use
        "numpy": versions[1],
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "command": command,
        "seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "trace_seed": TRACE_SEED,
        "trace_seconds": TRACE_SECONDS,
        "commands": [],
        "workloads": {},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in SEEDS:
            print(f"bench_record: {workload} seed {seed}", file=sys.stderr)
            cmd, out = perfbench(command, workload, seed, rec["seconds"], 0)
            rec["commands"].append(cmd)
            runs.append({"seed": seed, "correct": out["correct"], "failed": out["failed"],
                         "metrics": {name: m["value"] for name, m in out["metrics"].items()},
                         **({"error": out["error"]} if "error" in out else {})})
        print(f"bench_record: {workload} traced", file=sys.stderr)
        cmd, traced = perfbench(command, workload, TRACE_SEED, TRACE_SECONDS, 1)
        rec["commands"].append(cmd)
        names = sorted({name for run in runs for name in run["metrics"]})
        rec["workloads"][workload] = {
            "end_to_end": {name: summary([run["metrics"][name] for run in runs if name in run["metrics"]])
                           for name in names},
            "runs": runs,
            "traced": traced,
        }
    return rec


def compare(new: dict, old: dict) -> list[str]:
    """One line per metric both records hold: old → new and the change; for
    an end-to-end metric, also where the new median falls against the old
    quartiles.  Records taken with other run settings are refused."""
    if differ := [key for key in SETTINGS if old.get(key) != new.get(key)]:
        raise SystemExit(f"bench_record: the records differ in {', '.join(differ)}; they do not compare")
    lines = [f"{_measured(old)} -> {_measured(new)}"]
    for workload in sorted(set(new["workloads"]) & set(old["workloads"])):
        a, b = old["workloads"][workload], new["workloads"][workload]
        lines.append(f"{workload}:")
        for name in sorted(set(a["end_to_end"]) & set(b["end_to_end"])):
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            where = "below Q1" if y["median"] < x["q1"] else "above Q3" if y["median"] > x["q3"] else "inside [Q1, Q3]"
            lines.append(f"  {name}: {x['median']:.6g} [{x['q1']:.6g}, {x['q3']:.6g}] -> {y['median']:.6g}"
                         f" ({_change(x['median'], y['median'])}), {where}")
        layers_a, layers_b = a["traced"].get("metrics", {}), b["traced"].get("metrics", {})
        for name in sorted(set(layers_a) & set(layers_b)):
            x, y = layers_a[name]["value"], layers_b[name]["value"]
            if x or y:  # a layer the workload does not run reads 0 on both sides
                lines.append(f"  traced {name}: {x:.6g} -> {y:.6g} ({_change(x, y)})")
    return lines


def _measured(rec: dict) -> str:
    """The head commit, and the src tree when the record ran uncommitted changes."""
    head = rec["head"][:12]
    return f"{head} + changes (src tree {rec['trees']['src'][:12]})" if rec["tree_changed"] else head


def _change(old: float, new: float) -> str:
    return f"{(new / old - 1.0) * 100.0:+.1f}%" if old else "n/a"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the record to write")
    parser.add_argument("--against", help="an earlier record to compare with")
    args = parser.parse_args(argv)
    new = record()
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.against:
        with open(args.against, encoding="ascii") as fh:
            print("\n".join(compare(new, json.load(fh))))
    return 0 if all(run["correct"] and run["failed"] == 0 for w in new["workloads"].values()
                    for run in w["runs"] + [w["traced"]]) else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
