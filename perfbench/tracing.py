"""Spans around ttsem's public functions, recorded from outside the program.

A ``Tracer`` replaces each function in ``WRAPPED`` at the place its callers
look it up (a module global or a class attribute) with a wrapper that
records a span: (name, start ns, end ns, parent span).  Spans stay in
memory, in flat integer arrays, until ``save`` writes them once at the end;
``remove`` puts the original functions back.  Nothing under ``src/`` changes.

``Aggregate`` reduces spans to calls, total and self time per name (self
time is a span's duration minus its children's), and ``per_layer`` turns
aggregates into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import logging
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (module, class or None, attribute, span name).  A function imported by name
# into several modules is wrapped in each, under one span name.
WRAPPED = [
    ("ttsem.rng", None, "named_stream", "rng.named_stream"),
    ("ttsem.engine", None, "named_stream", "rng.named_stream"),
    ("ttsem.bench", None, "named_stream", "rng.named_stream"),
    ("ttsem.engine", None, "run", "engine.run"),
    ("ttsem.bench", None, "run", "engine.run"),
    ("ttsem.engine", None, "mc_step", "engine.estep"),
    ("ttsem.engine", None, "epoch_refresh", "engine.epoch_refresh"),
    ("ttsem.engine", "Trajectory", "write_csv", "engine.write_csv"),
    ("ttsem.core", "PerSampleStatTable", "replace", "core.table_replace"),
    ("ttsem.gmm", "GmmModel", "mc_stat", "gmm.mc_stat"),
    ("ttsem.gmm", "GmmModel", "m_step", "gmm.m_step"),
    ("ttsem.gmm", "GmmModel", "project", "gmm.project"),
    ("ttsem.gmm", "GmmModel", "penalized_nll", "gmm.penalized_nll"),
    ("ttsem.gmm", "GmmModel", "exact_batch_stat", "gmm.exact_batch_stat"),
    ("ttsem.gmm", None, "fit_reference_em", "gmm.fit_reference_em"),
    ("ttsem.gmm", None, "simulate", "bench.simulate"),
    ("ttsem.pk", None, "simulate", "bench.simulate"),
    ("ttsem.gmm", None, "read_dataset", "cli.read_dataset"),
    ("ttsem.pk", "PkModel", "sample_posterior", "pk.sample_posterior"),
    ("ttsem.pk", "PkModel", "m_step", "pk.m_step"),
    ("ttsem.pk", None, "mh_chain", "samplers.mh_chain"),
    ("ttsem.pk", None, "log_posterior", "pk.log_posterior"),
    ("ttsem.bench", None, "cmd_replicate", "bench.cmd_replicate"),
    ("ttsem.bench", None, "_replicate_worker", "bench.replicate_worker"),
    ("ttsem.bench", None, "metric_precision_gmm", "bench.metric_precision_gmm"),
]


class _FloorCounter(logging.Handler):
    """Counts the M-step floor events ttsem.pk logs at INFO."""

    def __init__(self, counts: Counter):
        super().__init__(logging.INFO)
        self.counts = counts

    def emit(self, record):
        self.counts["pk.m_step.floors"] += 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.iter_ns: list[np.ndarray] = []
        self.chains: list[tuple] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, owner, attr: str, span: str, inner=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        call = inner(original) if inner is not None else original
        sid = self._id(span)
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(sid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                out = call(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self):
        """Wrap every function in WRAPPED and count PK floor log records."""
        hooks = {
            "gmm.project": dict(after=self._after_project),
            "engine.run": dict(after=self._after_run),
            "samplers.mh_chain": dict(inner=self._record_chain),
        }
        for module, cls, attr, span in WRAPPED:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            self._wrap(owner, attr, span, **hooks.get(span, {}))
        self._logger = logging.getLogger("ttsem.pk")
        self._old_level = self._logger.level
        self._handler = _FloorCounter(self.counts)
        self._logger.setLevel(logging.INFO)
        self._logger.addHandler(self._handler)
        return self

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._logger.removeHandler(self._handler)
        self._logger.setLevel(self._old_level)

    # -- hooks ------------------------------------------------------------

    def _after_project(self, args, out):
        # GmmModel.project returns its argument itself when s is in the set
        if out is not args[1]:
            self.counts["gmm.project.moved"] += 1

    def _after_run(self, args, traj):
        self.iter_ns.append(traj.wall_ns.copy())

    def _record_chain(self, original):
        """mh_chain that keeps what is needed to replay its accept decisions:
        the generator state before the call and every log-target value."""
        chains = self.chains

        def chain(log_target, config, rng, *args, **kwargs):
            values = []

            def target(z):
                v = log_target(z)
                values.append(float(v))
                return v

            state = rng.bit_generator.state
            out = original(target, config, rng, *args, **kwargs)
            chains.append((type(rng.bit_generator), state, config.init.shape, config.chain_len, values))
            return out

        return chain

    def accepts(self) -> tuple[int, int]:
        """(transitions, accepted): replays each recorded chain's uniforms and
        applies mh_chain's rule, accept when log u < lp(proposal) - lp(current)."""
        transitions = accepted = 0
        for bitgen, state, shape, m, values in self.chains:
            g = np.random.Generator(bitgen())
            g.bit_generator.state = state
            g.standard_normal((m,) + tuple(shape))
            log_u = np.log(g.random(m))
            lp = values[0]
            for t in range(m):
                if log_u[t] < values[t + 1] - lp:
                    lp = values[t + 1]
                    accepted += 1
            transitions += m
        return transitions, accepted

    # -- output -----------------------------------------------------------

    def save(self, path, probes, extra: dict | None = None):
        """Write the spans, counters, iteration stamps and the host-speed
        sampler's (start, duration) intervals once, as a compressed npz."""
        transitions, accepted = self.accepts()
        counts = dict(self.counts, **(extra or {}))
        counts["samplers.mh_chain.transitions"] = transitions
        counts["samplers.mh_chain.accepted"] = accepted
        # iteration k of a run spans wall_ns[k-1]..wall_ns[k]
        iter_start = np.concatenate([w[:-1] for w in self.iter_ns] + [np.zeros(0, dtype=np.int64)])
        iter_end = np.concatenate([w[1:] for w in self.iter_ns] + [np.zeros(0, dtype=np.int64)])
        probes = np.array(sorted(probes), dtype=np.int64).reshape(-1, 2)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            counts=np.array(json.dumps(counts)),
            iter_start=iter_start,
            iter_end=iter_end,
            probe_start=probes[:, 0],
            probe_ns=probes[:, 1],
        )


def _without_probes(start, end, probe_start, probe_ns):
    """end - start less the host-speed samples that began inside each
    interval (a sample runs whole, between two bytecodes of whatever span is
    open, so it lies inside every span open when it began)."""
    cum = np.concatenate([[0], np.cumsum(probe_ns)])
    inside = cum[np.searchsorted(probe_start, end)] - cum[np.searchsorted(probe_start, start)]
    return end - start - inside


class Aggregate:
    """Calls, total and self nanoseconds per span name, summed over traces;
    the host-speed sampler's own time is taken out of every span."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.iter_ns: list[np.ndarray] = []

    def add_file(self, path):
        with np.load(path) as z:
            names = json.loads(str(z["names"]))
            probes = z["probe_start"], z["probe_ns"]
            self._add(names, z["name"], z["start"], z["end"], z["parent"], probes)
            self.counts.update(json.loads(str(z["counts"])))
            self.iter_ns.append(_without_probes(z["iter_start"], z["iter_end"], *probes))

    def _add(self, names, name, start, end, parent, probes):
        if len(name) == 0:
            return
        dur = _without_probes(start, end, *probes)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child_ns
        for sid, label in enumerate(names):
            sel = name == sid
            self.calls[label] += int(sel.sum())
            self.total[label] += int(dur[sel].sum())
            self.self_ns[label] += int(self_ns[sel].sum())
        # initialization pass: from a run's start to its first M-step
        if "engine.run" not in names:
            return
        run_id = names.index("engine.run")
        msteps = [sid for sid, label in enumerate(names) if label in ("gmm.m_step", "pk.m_step")]
        first: dict[int, int] = {}
        for idx in np.flatnonzero(np.isin(name, msteps)):
            p = int(parent[idx])
            if p >= 0 and name[p] == run_id:
                first.setdefault(p, int(idx))
        if first:
            runs, steps = np.array(list(first)), np.array(list(first.values()))
            self.counts["engine.init_pass_ns"] += int(_without_probes(start[runs], start[steps], *probes).sum())


def _s(ns) -> float:
    return ns / 1e9


def _mean_us(agg: Aggregate, span: str) -> float:
    calls = agg.calls[span]
    return agg.total[span] / calls / 1e3 if calls else 0.0


def tail_percentile(samples: int):
    """Highest of 99.9, 99 and 90 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if samples * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def per_layer(agg: Aggregate, extra: dict) -> dict:
    """The per-layer metrics, name -> (value, unit), from merged traces.

    ``extra`` carries what the harness measures itself: output sizes, the
    CLI import time, the tracing overhead and the median host-speed probe.
    """
    c = agg.counts
    iter_us = np.concatenate(agg.iter_ns) / 1e3 if agg.iter_ns else np.zeros(0)
    q = tail_percentile(len(iter_us))
    transitions = c["samplers.mh_chain.transitions"]
    run_s = _s(agg.total["engine.run"])
    estep_calls = agg.calls["engine.estep"]
    return {
        "rng.named_stream.calls": (agg.calls["rng.named_stream"], "count"),
        "rng.named_stream.s": (_s(agg.total["rng.named_stream"]), "s"),
        "samplers.mh_chain.calls": (agg.calls["samplers.mh_chain"], "count"),
        "samplers.mh_chain.us_per_transition": (
            agg.total["samplers.mh_chain"] / transitions / 1e3 if transitions else 0.0, "us"),
        "samplers.mh_chain.accept_rate": (
            c["samplers.mh_chain.accepted"] / transitions if transitions else 0.0, "ratio"),
        "pk.log_posterior.calls": (agg.calls["pk.log_posterior"], "count"),
        "pk.log_posterior.us": (_mean_us(agg, "pk.log_posterior"), "us"),
        "pk.sample_posterior.us": (_mean_us(agg, "pk.sample_posterior"), "us"),
        "pk.m_step.us": (_mean_us(agg, "pk.m_step"), "us"),
        "pk.m_step.floors": (c["pk.m_step.floors"], "count"),
        "gmm.mc_stat.calls": (agg.calls["gmm.mc_stat"], "count"),
        "gmm.mc_stat.us": (_mean_us(agg, "gmm.mc_stat"), "us"),
        "gmm.m_step.us": (_mean_us(agg, "gmm.m_step"), "us"),
        "gmm.project.us": (_mean_us(agg, "gmm.project"), "us"),
        "gmm.project.moved": (c["gmm.project.moved"], "count"),
        "core.table_replace.us": (_mean_us(agg, "core.table_replace"), "us"),
        "engine.run.s": (run_s, "s"),
        "engine.self_s": (_s(agg.self_ns["engine.run"]), "s"),
        "engine.init_pass.s": (_s(c["engine.init_pass_ns"]), "s"),
        "engine.iter_us.p50": (float(np.median(iter_us)) if len(iter_us) else 0.0, "us"),
        "engine.iter_us.tail": (float(np.percentile(iter_us, q)) if q else 0.0, "us"),
        "engine.estep.calls": (estep_calls, "count"),
        "engine.estep_per_s": (estep_calls / run_s if run_s else 0.0, "1/s"),
        "engine.epoch_refresh.s": (_s(agg.total["engine.epoch_refresh"]), "s"),
        "engine.write_csv.s": (_s(agg.total["engine.write_csv"]), "s"),
        "engine.write_csv.bytes": (extra.get("write_csv_bytes", 0), "B"),
        "gmm.penalized_nll.calls": (agg.calls["gmm.penalized_nll"], "count"),
        "gmm.penalized_nll.us": (_mean_us(agg, "gmm.penalized_nll"), "us"),
        "gmm.fit_reference_em.s": (_s(agg.total["gmm.fit_reference_em"]), "s"),
        "gmm.exact_batch_stat.calls": (agg.calls["gmm.exact_batch_stat"], "count"),
        "bench.cmd_replicate.s": (_s(agg.total["bench.cmd_replicate"]), "s"),
        "bench.aggregate_s": (_s(agg.self_ns["bench.cmd_replicate"]), "s"),
        "bench.metric_precision_gmm.us": (_mean_us(agg, "bench.metric_precision_gmm"), "us"),
        "bench.out_bytes": (extra.get("out_bytes", 0), "B"),
        "bench.simulate.s": (_s(agg.total["bench.simulate"]), "s"),
        "cli.import_s": (extra.get("cli_import_s", 0.0), "s"),
        "cli.read_dataset.s": (_s(agg.total["cli.read_dataset"]), "s"),
        "trace.overhead_s": (extra["overhead_s"], "s"),
        "host.probe_us": (extra["probe_us"], "us"),
    }
