"""Tests for the summation kernel."""

import pytest

from confbessel import bessel_j_series, kernel_backend
from confbessel.series import eval_series_kernel


class TestPythonKernel:
    def test_reports_backend_name(self):
        assert kernel_backend() == "python"

    def test_early_stop_and_tail(self):
        j0 = bessel_j_series(0.0, 1.0, 60)
        value, used, tail = eval_series_kernel(j0.coeffs, 1.0, 0.0, 0.5, 1e-18)
        assert used < 60
        assert tail >= 0.0
        assert value == pytest.approx(0.93846980724081283, rel=1e-12)

    def test_zero_coefficients_do_not_trigger_stop(self):
        # odd slots are zero; a zero term must not satisfy the relative
        # stop test or every series would stop after its first gap
        value, used, _ = eval_series_kernel(
            (1.0, 0.0, 1.0, 0.0, 1.0), 1.0, 0.0, 1.0, 1e-18)
        assert used == 5
        assert value == pytest.approx(3.0)


class TestSelection:
    def test_active_backend_is_known(self):
        assert kernel_backend() in ("python",)
