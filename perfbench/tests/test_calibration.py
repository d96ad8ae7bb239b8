import pytest

from calibration import REFERENCE_S, speed_factors


def test_each_run_is_scaled_by_the_job_passes_around_it():
    job = [REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    assert speed_factors(job) == pytest.approx([1.0, 2 / 3, 0.5])


def test_a_uniform_slowdown_cancels():
    run_s, job_s = 4.0, 1.2
    fast = [run_s * f for f in speed_factors([job_s, job_s])]
    slow = [1.7 * run_s * f for f in speed_factors([1.7 * job_s, 1.7 * job_s])]
    assert slow == pytest.approx(fast)
