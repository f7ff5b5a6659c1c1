"""High-precision reference values for the four solution families.

Independent of the package: mpmath at 30 significant digits, through the
alpha-rescaling law t = x**alpha (t is formed in high precision from the
exact binary values of x and alpha).

* ``J``      -> J_p(t)
* ``Jneg``   -> J_{-p}(t)   (equals (-1)**m J_m(t) at integer order m)
* ``y2zero`` -> [(pi/2) Y_0(t) + (ln 2 - gamma) J_0(t)] / alpha
* ``K``      -> [(pi/2) Y_m(t) + (ln 2 - gamma) J_m(t)] / alpha

The log-solution form follows from the package's normalisation (log
coefficient 1); it agrees with the package to about 2e-13 for t <= 9 and
m = 0..3.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 30

#: A value misses when it is outside REL_TOL * max(1, |ref|) of the reference.
REL_TOL = 1e-9


def reference(family: str, order: float, alpha: float, x: float) -> float:
    with mp.workdps(DIGITS):
        t = mp.mpf(x) ** mp.mpf(alpha)
        if family == "J":
            return float(mp.besselj(mp.mpf(order), t))
        if family == "Jneg":
            return float(mp.besselj(-mp.mpf(order), t))
        m = 0 if family == "y2zero" else int(round(order))
        value = (mp.pi / 2) * mp.bessely(m, t) \
            + (mp.log(2) - mp.euler) * mp.besselj(m, t)
        return float(value / mp.mpf(alpha))


def misses(value: float, ref: float) -> bool:
    """True when ``value`` is outside the accuracy gate around ``ref``.

    A non-finite value always misses.
    """
    return not abs(value - ref) <= REL_TOL * max(1.0, abs(ref))
