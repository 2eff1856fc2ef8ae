import pytest
from hypothesis import given, strategies as st

from ttsem.core import ConfigError, StepSchedule


class TestEval:
    def test_constant_is_flat(self):
        sched = StepSchedule(c=1.0)
        assert sched.eval(37) == 1.0

    def test_polynomial_hand_value(self):
        # 1 / (3 + 1)**0.5 = 0.5
        sched = StepSchedule(a=0.5)
        assert sched.eval(3) == 0.5

    def test_warmup_window_is_unit(self):
        sched = StepSchedule(a=0.5, warmup_iters=5)
        assert sched.eval(2) == 1.0
        assert sched.eval(4) == 1.0

    def test_polynomial_restarts_after_warmup(self):
        sched = StepSchedule(a=0.5, warmup_iters=5)
        assert sched.eval(5) == 1.0  # c / 1**a
        assert sched.eval(8) == 0.5  # c / 4**0.5

    def test_defined_at_zero(self):
        assert StepSchedule(a=0.5).eval(0) == 1.0

    @given(st.integers(min_value=0, max_value=10**9))
    def test_range(self, k):
        for sched in (
            StepSchedule(c=0.3),
            StepSchedule(a=0.7),
            StepSchedule(a=0.2, warmup_iters=100),
        ):
            assert 0.0 < sched.eval(k) <= 1.0

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_polynomial_non_increasing(self, k, gap, a):
        sched = StepSchedule(a=a)
        assert sched.eval(k + gap) <= sched.eval(k)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_warmup_polynomial_non_increasing(self, k, gap):
        sched = StepSchedule(a=0.5, warmup_iters=17)
        assert sched.eval(k + gap) <= sched.eval(k)


class TestValidation:
    def test_exponent_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            StepSchedule(a=1.0)
        with pytest.raises(ConfigError):
            StepSchedule(a=-0.3)

    def test_value_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            StepSchedule(c=0.0)
        with pytest.raises(ConfigError):
            StepSchedule(c=1.5)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            StepSchedule(c=1.0).eval(-1)

    def test_is_unit(self):
        assert StepSchedule(c=1.0).is_unit
        assert not StepSchedule(c=0.5).is_unit
        assert not StepSchedule(a=0.5).is_unit


class TestZeroExponentIsConstant:
    @given(st.integers(min_value=0, max_value=10**9), st.floats(min_value=1e-6, max_value=1.0))
    def test_bit_equal_to_c_after_warmup(self, k, c):
        sched = StepSchedule(a=0.0, c=c, warmup_iters=3)
        assert sched.eval(k) == (1.0 if k < 3 else c)
        assert StepSchedule(a=0.0, c=c).eval(k).hex() == float(c).hex()

    def test_zero_exponent_schedule_is_the_constant(self):
        assert StepSchedule(a=0.0, c=0.4) == StepSchedule(c=0.4)
        assert StepSchedule(a=0.0).is_unit
