import numpy as np
import pytest

from ttsem.gmm import GmmModel


class RecordingGmm(GmmModel):
    """A GmmModel that records what a run feeds its E- and M-steps.

    ``stats`` holds (i, statistic) for every ``mc_stat`` call in call order;
    ``m_inputs`` holds every ``m_step`` input, which is the projected s_hat
    of that record.  Both keep the seam's floats as arrays.  Each call then defers to GmmModel, so a run on this
    model draws and returns exactly what it would on a plain one.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stats = []
        self.m_inputs = []

    def mc_stat(self, i, theta, n_samples, rng, chains=None):
        s = super().mc_stat(i, theta, n_samples, rng, chains)
        self.stats.append((i, np.array(s)))
        return s

    def m_step(self, s):
        self.m_inputs.append(np.array(s))
        return super().m_step(s)

    def isaem_worst_rel(self, gamma, total_iters: int) -> float:
        """After one iSAEM run on this model: the worst relative error of
        s_hat_k against s_hat_{k-1} + gamma_k * (mean_k - s_hat_{k-1}), where
        mean_k is the per-sample table mean rebuilt from the recorded
        E-steps, not read off the engine.  Record 0 is checked against the
        mean of the init pass."""
        n = self.n
        # the init pass visits every index in order, then one E-step per
        # iteration; m_step sees s_hat after each projection, init image first
        init, steps, s_hats = self.stats[:n], self.stats[n:], self.m_inputs
        assert [i for i, _ in init] == list(range(n))
        assert len(steps) == total_iters and len(s_hats) == total_iters + 1

        def rel(got, want):
            return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))

        rows = np.stack([s for _, s in init])
        worst = rel(s_hats[0], rows.mean(axis=0))
        for k, (i, s) in enumerate(steps):
            rows[i] = s
            prev = s_hats[k]
            worst = max(worst, rel(s_hats[k + 1], prev + gamma.eval(k) * (rows.mean(axis=0) - prev)))
        return worst


@pytest.fixture
def recording_gmm():
    """The RecordingGmm class, for tests that observe a run from the model side."""
    return RecordingGmm
