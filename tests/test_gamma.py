"""Tests for the gamma function.

The stdlib ``math.gamma`` serves as the independent oracle here; the
package carries its own implementation so that the coefficient formulas
depend on one audited code path, and that path must match the oracle to
at least 12 significant digits on [-20, 50].
"""

import math

import mpmath
import pytest

from confbessel import gamma
from confbessel.errors import DomainError, PoleError

SQRT_PI = math.sqrt(math.pi)


class TestGammaValues:
    @pytest.mark.parametrize("z,want", [
        (1.0, 1.0),
        (2.0, 1.0),
        (3.0, 2.0),
        (5.0, 24.0),
        (6.0, 120.0),
    ])
    def test_factorial_values(self, z, want):
        assert gamma(z) == pytest.approx(want, rel=1e-13)

    def test_exact_at_positive_integers(self):
        # gamma(n) = (n - 1)! (DLMF 5.4.1), exactly rounded, up to 170!, the
        # largest factorial a double holds
        for n in range(1, 172):
            assert gamma(float(n)) == float(math.factorial(n - 1)), n

    def test_half_integer_values(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-13)
        assert gamma(1.5) == pytest.approx(0.88622692545275801, rel=1e-13)
        assert gamma(2.5) == pytest.approx(1.5 * 0.88622692545275801, rel=1e-13)

    def test_reflection_region_value(self):
        # frozen from the reflection formula applied by hand: -2 sqrt(pi)
        assert gamma(-0.5) == pytest.approx(-3.5449077018110321, rel=1e-12)
        assert gamma(-1.5) == pytest.approx(4.0 * SQRT_PI / 3.0, rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
    def test_poles_raise(self, z):
        with pytest.raises(PoleError):
            gamma(z)

    def test_non_finite_raises(self):
        # an int beyond float range reads as +-inf
        for z, shown in ((math.nan, "nan"), (math.inf, "inf"),
                         (-math.inf, "-inf"), (10**400, "inf"),
                         (-10**400, "-inf")):
            with pytest.raises(ValueError) as info:
                gamma(z)
            assert type(info.value) is ValueError
            assert str(info.value) == (
                f"gamma requires a finite argument, got {shown}")

    @pytest.mark.parametrize("z", [142.3, 142.5, 172.5, 2001.5, -141.3,
                                   -141.5, -169.5, 172.0, 1e300])
    def test_overflow_is_a_domain_error(self, z, monkeypatch):
        # the Lanczos power t**(z - 1/2) overflows a double past z ~ 142.4,
        # and the product sqrt(2 pi) * power past z ~ 142.2; an integer above
        # 171 takes that path too, since (z - 1)! overflows a double, and so
        # never reaches math.factorial
        def refuse(n):
            raise AssertionError(f"math.factorial({n}) called")

        monkeypatch.setattr(math, "factorial", refuse)
        with pytest.raises(DomainError):
            gamma(z)


    @pytest.mark.parametrize("z", [5e-324, -5e-324, 1e-310, -1e-310,
                                   5.5e-309])
    def test_tiny_argument_is_a_domain_error(self, z):
        # the reflection pi / (sin(pi z) gamma(1 - z)) is about 1/z, which
        # overflows a double for |z| below about 5.56e-309, where
        # math.gamma raises too
        with pytest.raises(DomainError) as info:
            gamma(z)
        assert str(info.value) == (
            f"gamma({z!r}) overflows the reflection formula")

    @pytest.mark.parametrize("z", [5.6e-309, 6e-309])
    def test_smallest_arguments_that_fit_a_double(self, z):
        with mpmath.workdps(30):
            assert abs(gamma(z) / mpmath.gamma(mpmath.mpf(z)) - 1) <= 1e-15


class TestGammaAccuracy:
    def test_matches_stdlib_to_twelve_digits(self):
        checked = 0
        for k in range(-140, 351):
            z = k / 7.0
            if z <= 0.0 and k % 7 == 0:
                continue
            assert gamma(z) == pytest.approx(math.gamma(z), rel=1e-12), f"z={z}"
            checked += 1
        assert checked > 400

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 20])
    def test_near_a_pole(self, n):
        # the reflection takes its sine at the exact remainder z + n, so
        # the error stays at Lanczos's own however near z is to the pole -n;
        # math.sin(math.pi * z) there loses about n u / |z + n| (45 % one
        # ulp from -2)
        for d in (math.ulp(max(n, 1.0)), 1e-13, 1e-10, 2.0 ** -11):
            for z in (-n + d, -n - d):
                if z < 0.5:
                    assert gamma(z) == pytest.approx(math.gamma(z),
                                                     rel=1e-13), z

    @pytest.mark.parametrize("z", [0.1, 0.37, 1.2, 4.8, 11.5, 27.0, 49.5])
    def test_recurrence_identity(self, z):
        assert gamma(z + 1.0) == pytest.approx(z * gamma(z), rel=5e-13)

    @pytest.mark.parametrize("z", [-5.3, -2.7, -0.9, 0.2, 0.8])
    def test_reflection_identity(self, z):
        lhs = gamma(z) * gamma(1.0 - z)
        rhs = math.pi / math.sin(math.pi * z)
        assert lhs == pytest.approx(rhs, rel=5e-12)

    def test_half_integer_chain_from_example(self):
        # gamma(1/2 + n + 1) = (2n+1)! / (2**(2n+1) n!) * sqrt(pi)
        for n in range(0, 8):
            want = (math.factorial(2 * n + 1)
                    / (2.0 ** (2 * n + 1) * math.factorial(n)) * SQRT_PI)
            assert gamma(0.5 + n + 1.0) == pytest.approx(want, rel=1e-12)

