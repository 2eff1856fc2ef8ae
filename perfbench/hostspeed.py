"""Host-speed probe: scale timings to a reference speed of the shared host.

On the shared 2-core host the reference figures come from, other tenants
slow each core 1.6-2x in spells lasting seconds, and the two cores slow
down independently: identical work timed back to back varied 0.57-1.39 s,
with CPU time tracking wall time.  A probe on the other core cannot see it, and a
probe before and after a multi-second call misses changes inside it.  So a
``HostSpeed`` sampler runs a fixed small kernel of the kinds of work ttsem
does (scalar Python arithmetic, numpy calls on a few elements, one vectorised
pass over 2000 points) from a SIGALRM handler every 50 ms, in the process
doing the work.  A timed call's wall time, minus the sampler's own time, is
scaled by ``REF_NS`` over the mean kernel time seen during the call: the
result reads in seconds on a host where the kernel takes exactly 0.6 ms,
about its time on an idle core of the reference machine.

Kinds of work slow down by different factors, so the kernel's mix follows
the workload's.  Regressing the log time of short ttsem calls on the log
time of each kernel part, sampled during the same calls (150 s, 86 calls
each), gave slopes near 1 for the incremental GMM path against the scalar
loop alone (1.0) and for PK MH against the whole mix (0.98); the whole mix
against the incremental GMM path gave 1.2, which let a slow spell raise its
scaled time by ~8%.  ``KERNELS`` holds the two mixes.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

REF_NS = 600_000
PERIOD_S = 0.05
# iterations of (scalar loop, small-vector loop, vectorised passes); each
# kernel takes about REF_NS on an idle core of the reference machine
KERNELS = {"mixed": (60, 20, 1), "scalar": (230, 0, 0)}


class HostSpeed:
    def __init__(self, kernel: str = "mixed"):
        self._loops = KERNELS[kernel]
        rng = np.random.Generator(np.random.Philox(key=0x5EED))
        self._y = rng.standard_normal(2000)
        self._v = rng.random(64)
        self._t = np.linspace(0.5, 24.0, 10)
        self._cov = 0.3 * np.eye(4)
        self._samples: list[int] = []
        self._spent_ns = 0
        # (start ns, duration ns) of every sample, kept for the tracer, which
        # takes the sampler's time out of the spans a sample lands in
        self.intervals: list[tuple[int, int]] = []
        self._busy = False
        self._old = None

    def kernel(self) -> int:
        """Run the fixed probe once; returns its duration in ns."""
        y, v, t = self._y, self._v, self._t
        scalar, small, vectorised = self._loops
        t0 = time.perf_counter_ns()
        s = np.zeros(3)
        acc = 0.0
        for i in range(scalar):
            yi = float(y[i])
            s = s + (np.array([v[i % 63], v[i % 63 + 1] * yi, yi]) - s) * 0.01
            acc += math.exp(-0.5 * (yi - float(v[i % 63])) ** 2)
        for i in range(small):
            z = np.exp(y[i : i + 4] * 0.1)
            r = y[:10] - 100.0 * z[1] / z[2] * np.exp(-z[3] * t) * -np.expm1(-z[1] * t)
            acc += float(r @ r) + float(z @ np.linalg.solve(self._cov, z))
        for _ in range(vectorised):
            a = -0.5 * (y[:, None] - s[:2]) ** 2
            acc += float(np.log(np.exp(a - a.max(axis=1, keepdims=True)).sum(axis=1)).mean())
        return time.perf_counter_ns() - t0

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        self._samples.append(self.kernel())
        spent = time.perf_counter_ns() - t0
        self._spent_ns += spent
        self.intervals.append((t0, spent))
        self._busy = False

    def start(self):
        self._samples = []
        self._spent_ns = 0
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> dict:
        """Stop sampling; returns the mean kernel ns, the sampler's own
        seconds and the sample count since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self._samples:
            self._samples.append(self.kernel())
        return {"mean_ns": sum(self._samples) / len(self._samples),
                "spent_s": self._spent_ns / 1e9, "samples": len(self._samples)}


def scaled(wall_s: float, probe: dict) -> float:
    """Wall time of a call, less the sampler's time, at the reference speed."""
    return (wall_s - probe["spent_s"]) * REF_NS / probe["mean_ns"]
