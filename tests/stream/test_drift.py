"""Tests for the CUSUM drift detector on roll innovations."""

import numpy as np

from repro.stream import CusumDetector


class TestCusum:
    def test_healthy_noise_never_trips(self):
        rng = np.random.default_rng(0)
        det = CusumDetector()
        assert det.update_many(rng.normal(0.0, 0.5, 200)) is False
        assert det.g_pos < det.h and det.g_neg < det.h

    def test_positive_shift_trips(self):
        det = CusumDetector()
        tripped_at = None
        for i in range(30):
            if det.update(1.5):
                tripped_at = i
                break
        # Each step adds (1.5 - k) = 1.0; h = 8 falls at step 9.
        assert tripped_at == 8

    def test_negative_shift_trips(self):
        det = CusumDetector()
        assert det.update_many(np.full(30, -1.5)) is True
        assert det.g_neg > det.h

    def test_slow_drift_eventually_trips(self):
        det = CusumDetector()
        steps = 0
        while not det.update(1.0) and steps < 100:
            steps += 1
        assert steps < 50  # 1-sigma drift accumulates at (1 - k) per step

    def test_nonfinite_trips_immediately(self):
        det = CusumDetector()
        assert det.update(np.nan) is True
        assert det.g_pos == np.inf and det.g_neg == np.inf
        # And stays tripped through subsequent healthy samples.
        assert det.update(0.0) is True

    def test_reset(self):
        det = CusumDetector()
        det.update_many(np.full(30, 2.0))
        det.reset()
        assert det.g_pos == 0.0 and det.g_neg == 0.0
        assert det.update(0.0) is False

    def test_update_many_reports_any_trip(self):
        det = CusumDetector()
        burst = np.concatenate([np.full(20, 3.0), np.zeros(50)])
        assert det.update_many(burst) is True

    def test_custom_thresholds(self):
        loose = CusumDetector(k=2.0, h=50.0)
        assert loose.update_many(np.full(30, 2.0)) is False
