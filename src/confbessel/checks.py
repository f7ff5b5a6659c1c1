r"""Identity and residual verification for the constructed solutions.

Every check returns a :class:`CheckReport` carrying the grid it ran on, the
worst absolute and relative deviations, and a pass flag against its
tolerance.  The six identities (weighted lowering and raising, lowering,
raising, the three-term recurrence and the reflection) are the rows of one
table, ``IDENTITIES``, run by :func:`check_identity`.  Every check forms
its absolute and relative deviation columns through one of two primitives
and hands them to ``_report``, the module's only max-error loop:

* ``_coefficientwise`` ("rel" mode): two series that should be equal term
  by term are aligned to a common offset and compared coefficient against
  coefficient; the gate is the worst per-coefficient relative error.
* ``_pointwise``: both sides of an identity are evaluated on an
  (order, alpha, x) grid; the gate is the worst absolute deviation ("abs")
  or the worst deviation relative to ``1 + |reference|`` ("rel", used by
  the residual).  A NaN deviation always fails.

The classical-oracle comparison uses the integral representation

.. math::

    J_n(z) = \frac{1}{\pi} \int_0^\pi \cos(n\theta - z\sin\theta)\,d\theta,

computed by the composite trapezoidal rule in plain ``math``.  The
integrand extends to an even 2*pi-periodic analytic function, so the rule
converges geometrically (Trefethen & Weideman, SIAM Review 56(3), 2014):
N panels on [0, pi] are the 2N-point periodic rule, whose error is of the
order of J_{2N-n}(z), and J_m(z) is negligible once m exceeds z by a few
dozen.  The panel count N = int(z) + n + 32 therefore reaches machine
accuracy at every z and n the oracle accepts, with work that grows with
z + n; that sum is capped at ORACLE_MAX_ARG.  The quadrature shares no
code with the series engine; independence is the point.
"""

import math
import random
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .bessel import (
    bessel_j_neg_integer_series,  # not called; perfbench/spans.py rebinds it
    bessel_j_neg_series,
    bessel_j_series,
    second_solution_integer_order,
    second_solution_order_zero,
)
from .errors import AlignmentError, DomainError
from .series import (
    FracSeries,
    LogSolution,
    _as_float,
    _finite,
    _whole,
    checked_alpha,
    conformable_diff_exact,
    eval_log_solution,
    eval_series,
    linspace,
    series_rebase,
    series_scale,
    series_shift,
)

__all__ = [
    "CheckReport",
    "classical_bessel_j",
    "check_ode_residual",
    "check_identity",
    "check_half_order_closed_forms",
    "check_series_vs_quadrature",
    "check_second_solution_scaling",
    "residual_suite",
    "identity_suite",
    "half_order_suite",
    "scaling_suite",
    "all_suites",
    "solution_corpus",
    "random_residual_suite",
]


# Default verification grids.  Fixed and deterministic: the suites must
# produce identical reports on every run.
# p = 0 comes last: only the identities that admit it run there
IDENTITY_ORDERS = (1, 2, 3, 0)
IDENTITY_ALPHAS = (0.3, 0.5, 0.75, 1.0)
IDENTITY_X = (0.5, 1.0, 2.0, 4.0)
HALF_ORDER_X = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
RESIDUAL_ALPHAS = (0.4, 0.7, 1.0)
RESIDUAL_X = tuple(linspace(0.5, 5.0, 9))
LOG_RESIDUAL_X = tuple(linspace(0.5, 3.0, 6))
SCALING_ALPHAS = (0.3, 0.5, 0.8)
SCALING_X = tuple(linspace(0.5, 3.0, 6))
ORACLE_ALPHAS = (0.5, 1.0)

COEFF_TOL = 1e-14
POINT_TOL = 1e-9
RESIDUAL_TOL = 1e-8
LOG_RESIDUAL_TOL = 1e-7
HALF_ORDER_TOL = 1e-10
ORACLE_TOL = 1e-9
SCALING_TOL = 1e-10
N_COEFF_COMPARE = 30

#: Largest z + n the quadrature oracle accepts.  Its panel count grows with
#: z + n, so this bounds the work of one call (a few ms at the cap).
ORACLE_MAX_ARG = 1e4


class CheckReport(NamedTuple):
    """Outcome of one named check over a sample grid."""

    check_name: str
    grid: tuple[tuple[float, float, float], ...]
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    mode: str
    passed: bool


def _report(name: str, grid: Sequence[tuple[float, float, float]],
            abs_devs: Iterable[float], rel_devs: Iterable[float],
            tolerance: float, mode: str) -> CheckReport:
    """The report of the absolute and relative deviation columns.

    A column's error is its largest entry (0.0 if it is empty), a NaN
    counting as infinite, so it fails at any tolerance (``max`` would drop
    it).  The gauge is the absolute error in "abs" mode, else the relative.
    """
    if not grid:
        raise ValueError(f"check {name!r} ran on an empty grid")
    max_abs, max_rel = [max([0.0, *[d if d == d else math.inf for d in devs]])
                        for devs in (abs_devs, rel_devs)]
    gauge = max_abs if mode == "abs" else max_rel
    return CheckReport(
        check_name=name,
        grid=tuple((float(p), float(a), float(x)) for p, a, x in grid),
        max_abs_err=float(max_abs),
        max_rel_err=float(max_rel),
        tolerance=float(tolerance),
        mode=mode,
        passed=bool(math.isfinite(gauge) and gauge <= tolerance),
    )


def _pointwise(name: str, rows: Sequence[tuple[float, float, float]],
               deviation: Callable[[float, float, float], tuple[float, float]],
               tolerance: float | None = None, mode: str = "abs"
               ) -> CheckReport:
    """Report ``deviation(p, alpha, x) -> (diff, ref)`` over rows.

    A row's absolute deviation is ``|diff|``, its relative deviation
    ``|diff| / (1 + |ref|)``; a NaN relative deviation makes both infinite.
    """
    abs_devs, rel_devs = [], []
    for p, a, x in rows:
        diff, ref = deviation(p, a, x)
        rel = abs(diff) / (1.0 + abs(ref))
        abs_devs.append(abs(diff) if rel == rel else math.inf)
        rel_devs.append(rel)
    return _report(name, rows, abs_devs, rel_devs,
                   POINT_TOL if tolerance is None else tolerance, mode)


def _coefficientwise(name: str, rows: Sequence[tuple[float, float, float]],
                     sides: tuple[FracSeries, FracSeries],
                     tolerance: float | None = None) -> CheckReport:
    """Gate two series ``(lhs, rhs)`` that should agree term by term.

    The relative column holds the per-coefficient differences
    ``|l - r| / max(|l|, |r|)`` over the first ``N_COEFF_COMPARE`` slots,
    zero-padded, of ``lhs`` and of ``rhs`` aligned to the offset of
    ``lhs``, skipping slots where both are zero; it is the gauge ("rel"
    mode), infinite for sides no whole number of steps aligns.  The absolute
    column holds the spot deviations ``|lhs(x) - rhs(x)|`` at the rows' x.
    """
    lhs, rhs = sides
    pad = (0.0,) * N_COEFF_COMPARE
    try:
        slots = zip((lhs.coeffs + pad)[:N_COEFF_COMPARE],
                    series_rebase(rhs, lhs.offset).coeffs + pad)
        rel_devs = [abs(l - r) / max(abs(l), abs(r))
                    for l, r in slots if l or r]
    except AlignmentError:
        rel_devs = [math.inf]
    abs_devs = [abs(eval_series(lhs, x).value - eval_series(rhs, x).value)
                for _, _, x in rows]
    return _report(name, rows, abs_devs, rel_devs,
                   COEFF_TOL if tolerance is None else tolerance, "rel")


def classical_bessel_j(n: int, z: float) -> float:
    """Classical Bessel J_n(z) by trapezoidal quadrature of the cosine integral.

    The rule uses ``int(z) + n + 32`` panels; see the module docstring.
    """
    n = _whole(n, 0, ValueError, "oracle needs integer n >= 0, got {}")
    z = _finite(z, ValueError, "oracle needs a finite z, got {}")
    if z < 0.0:
        raise ValueError(f"oracle needs z >= 0, got {z}")
    if z + n > ORACLE_MAX_ARG:
        raise ValueError(f"oracle needs z + n <= {ORACLE_MAX_ARG:g}, "
                         f"got {z + n:g}")
    panels = int(z) + n + 32
    h = math.pi / panels
    values = [math.cos(n * (k * h) - z * math.sin(k * h))
              for k in range(panels + 1)]
    values[0] *= 0.5
    values[-1] *= 0.5
    return math.fsum(values) / panels


def _rows(p: float, alpha: float, grid: Iterable[float]
          ) -> tuple[float, list[tuple[float, float, float]]]:
    """Validated alpha and the report rows ``(p, alpha, x)``, one per x."""
    alpha = checked_alpha(alpha)
    xs = tuple(map(_as_float, grid))
    for x in xs:
        if x <= 0.0:
            raise DomainError(f"grid points must be positive, got {x}")
        if not math.isfinite(x):
            raise DomainError(f"grid points must be finite, got {x}")
    return alpha, [(p, alpha, x) for x in xs]


def _series_lhs_operator(s: FracSeries, p: float
                         ) -> Callable[[float], tuple[float, float, float]]:
    """Left side of the Bessel equation on a plain series, as a function of x.

    The function returns ``(L[y](x), y(x), T(y)(x))``, so a caller needs no
    further evaluation of ``y`` or ``T(y)``.  The two derivatives are built
    once, not at every point.
    """
    a = s.alpha
    d1 = conformable_diff_exact(s)
    d2 = conformable_diff_exact(d1)

    def lhs(x: float) -> float:
        try:
            x2a = x ** (2.0 * a)
        except OverflowError:
            raise DomainError(f"x = {x:g} is too large for the residual: "
                              "x**(2*alpha) overflows a double") from None
        xa = x ** a
        y = eval_series(s, x).value
        ty = eval_series(d1, x).value
        return (x2a * eval_series(d2, x).value + a * xa * ty
                + a * a * (x2a - p * p) * y, y, ty)

    return lhs


def check_ode_residual(p: float, alpha: float,
                       solution: FracSeries | LogSolution,
                       grid: Iterable[float] | None = None,
                       tolerance: float | None = None,
                       name: str | None = None) -> CheckReport:
    """Residual of the Bessel equation, relative to ``1 + |y(x)|``.

    ``grid`` and ``tolerance`` default to ``RESIDUAL_X`` and
    ``RESIDUAL_TOL`` for a plain series, and to ``LOG_RESIDUAL_X`` and
    ``LOG_RESIDUAL_TOL`` for a logarithmic solution.

    Plain series go straight through exact differentiation.  For a
    logarithmic solution ``u ln x + v`` the operator expands to
    ``L[u] ln x + 2 x**alpha T(u) + L[v]`` (the derivative of ln x under
    the conformable operator is ``x**-alpha``, and the cross terms collapse
    to the single middle piece), so each ingredient is again a series.
    ``alpha`` must be the solution's own; another raises AlignmentError.
    """
    p = _finite(p, DomainError, "order must be finite, got {}")
    log = isinstance(solution, LogSolution)
    if grid is None:
        grid = LOG_RESIDUAL_X if log else RESIDUAL_X
    if tolerance is None:
        tolerance = LOG_RESIDUAL_TOL if log else RESIDUAL_TOL
    alpha, rows = _rows(p, alpha, grid)
    own = (solution.log_part if log else solution).alpha
    if alpha != own:
        raise AlignmentError(f"residual at alpha = {alpha!r} of a solution "
                             f"built at alpha = {own!r}")

    if not log:
        lhs = _series_lhs_operator(solution, p)

        def deviation(p, a, x):
            residual, y, _ = lhs(x)
            return residual, y
    else:
        op_u = _series_lhs_operator(solution.log_part, p)
        op_v = _series_lhs_operator(solution.plain_part, p)

        def deviation(p, a, x):
            (lu, u, tu), (lv, v, _) = op_u(x), op_v(x)
            lnx = math.log(x)
            return lu * lnx + 2.0 * x ** a * tu + lv, u * lnx + v

    return _pointwise(name or f"residual[p={p:g} alpha={alpha:g}]",
                      rows, deviation, tolerance, "rel")


class _Identity(NamedTuple):
    """A row of ``IDENTITIES``; ``symbol`` names the order in the report."""

    least: int
    what: str
    primitive: Callable[..., CheckReport]
    build: Callable[[int, float], object]
    symbol: str = "p"


def _weighted(p: int, alpha: float, s: int) -> tuple[FracSeries, FracSeries]:
    """T(x**(s*p*alpha) J_p) equals s*alpha * x**(s*p*alpha) J_{p-s}.

    s = 1 lowers the order, s = -1 raises it.  Both sides are whole series;
    at p = 0 the raising form is the bare statement T(J_0) = -alpha J_1.
    """
    w = s * p
    return (conformable_diff_exact(series_shift(bessel_j_series(p, alpha), w)),
            series_scale(series_shift(bessel_j_series(p - s, alpha), w),
                         s * alpha))


def _unweighted(p: int, alpha: float, s: int):
    """T(J_p) equals s*(alpha J_{p-s} - (alpha*p/x**alpha) J_p), pointwise.

    s = 1 lowers the order, s = -1 raises it.  The x**-alpha weight makes
    these pointwise identities, not aligned coefficient identities.
    """
    jp = bessel_j_series(p, alpha)
    jo = bessel_j_series(p - s, alpha)
    djp = conformable_diff_exact(jp)

    def deviation(p, a, x):
        rhs = s * (a * eval_series(jo, x).value
                   - (a * p / x ** a) * eval_series(jp, x).value)
        return eval_series(djp, x).value - rhs, rhs

    return deviation


def _three_term(p: int, alpha: float):
    """J_{p+1} equals (2p/x**alpha)*J_p - J_{p-1}, pointwise."""
    jm = bessel_j_series(p - 1, alpha)
    jp = bessel_j_series(p, alpha)
    jn = bessel_j_series(p + 1, alpha)

    def deviation(p, a, x):
        rhs = (2.0 * p / x ** a) * eval_series(jp, x).value \
            - eval_series(jm, x).value
        return eval_series(jn, x).value - rhs, rhs

    return deviation


def _reflection(m: int, alpha: float) -> tuple[FracSeries, FracSeries]:
    """Order -m equals (-1)**m times order m, coefficient for coefficient."""
    return (bessel_j_neg_series(m, alpha),
            series_scale(bessel_j_series(m, alpha), -1.0 if m % 2 else 1.0))


#: The derivative and recurrence identities of the first-kind series, by
#: report name, in the order the suite runs them.  ``build(p, alpha)`` makes
#: what the primitive compares: the two sides as series for
#: ``_coefficientwise``, a deviation function for ``_pointwise``.  The rows
#: look the constructors and the series operations up in this module when
#: they run, so a tracer that rebinds those names sees every call.
IDENTITIES = {
    "derivative-weighted-lower": _Identity(
        1, "weighted lowering identity", _coefficientwise,
        partial(_weighted, s=1)),
    "derivative-weighted-raise": _Identity(
        0, "weighted raising identity", _coefficientwise,
        partial(_weighted, s=-1)),
    "derivative-lower": _Identity(
        1, "lowering identity", _pointwise, partial(_unweighted, s=1)),
    "derivative-raise": _Identity(
        0, "raising identity", _pointwise, partial(_unweighted, s=-1)),
    "three-term-recurrence": _Identity(
        1, "three-term recurrence", _pointwise, _three_term),
    "negative-order-reflection": _Identity(
        0, "reflection check", _coefficientwise, _reflection, "m"),
}


def check_identity(name: str, p: int, alpha: float,
                   grid: Iterable[float],
                   tolerance: float | None = None) -> CheckReport:
    """The identity ``IDENTITIES[name]`` at integer order ``p`` on ``grid``.

    ``tolerance`` defaults to the primitive's: ``COEFF_TOL`` coefficient by
    coefficient, ``POINT_TOL`` pointwise.  The report is named with ``p``
    as given; everything else uses its int.
    """
    if (row := IDENTITIES.get(name)) is None:
        raise ValueError(f"unknown identity {name!r}; the identities are "
                         + ", ".join(IDENTITIES))
    m = _whole(p, row.least, ValueError,
               f"{row.what} needs an integer order >= {row.least}, got {{}}")
    alpha, rows = _rows(m, alpha, grid)
    return row.primitive(f"{name}[{row.symbol}={p} alpha={alpha:g}]",
                         rows, row.build(m, alpha), tolerance)


def check_half_order_closed_forms(alpha: float,
                                  grid: Iterable[float],
                                  tolerance: float | None = None
                                  ) -> CheckReport:
    """Orders +-1/2 against their sine and cosine closed forms.

    ``J_{1/2}(x) = sqrt(2/(pi*x**alpha)) * sin(x**alpha)`` and the order
    -1/2 function is the same envelope times cos.  ``tolerance`` defaults
    to ``HALF_ORDER_TOL``.
    """
    alpha, rows = _rows(0.5, alpha, grid)
    plus = bessel_j_series(0.5, alpha)
    minus = bessel_j_neg_series(0.5, alpha)

    def deviation(p, a, x):
        xa = x ** a
        envelope = math.sqrt(2.0 / (math.pi * xa))
        if p > 0.0:
            series, ref = plus, envelope * math.sin(xa)
        else:
            series, ref = minus, envelope * math.cos(xa)
        return eval_series(series, x).value - ref, ref

    return _pointwise(f"half-order[alpha={alpha:g}]",
                      [(s * p, a, x) for p, a, x in rows for s in (1.0, -1.0)],
                      deviation,
                      HALF_ORDER_TOL if tolerance is None else tolerance,
                      "abs")


def check_series_vs_quadrature(p: int, alpha: float,
                               grid: Iterable[float],
                               tolerance: float | None = None
                               ) -> CheckReport:
    """Series evaluation against the quadrature oracle at argument x**alpha.

    Exercises both the series engine and the alpha-scaling structure: the
    conformable function of order p at x must match the classical function
    at x**alpha, computed by an entirely independent method.  ``tolerance``
    defaults to ``ORACLE_TOL``.  The report is named with ``p`` as given;
    everything else uses its int.
    """
    n = _whole(p, 0, ValueError,
               "oracle comparison needs an integer order >= 0, got {}")
    alpha, rows = _rows(n, alpha, grid)
    series = bessel_j_series(n, alpha)

    def deviation(p, a, x):
        ref = classical_bessel_j(p, x ** a)
        return eval_series(series, x).value - ref, ref

    return _pointwise(f"series-vs-quadrature[p={p} alpha={alpha:g}]",
                      rows, deviation,
                      ORACLE_TOL if tolerance is None else tolerance, "abs")


def check_second_solution_scaling(alpha: float,
                                  grid: Iterable[float],
                                  m: int | None = None,
                                  tolerance: float | None = None
                                  ) -> CheckReport:
    """Second solutions at alpha vs the rescaled alpha = 1 instance.

    The alpha-instance evaluated at x must equal ``1/alpha`` times the
    alpha = 1 instance evaluated at x**alpha.  ``m = None`` checks the
    order-zero logarithmic solution, ``m >= 1`` the integer-order one.
    ``tolerance`` defaults to ``SCALING_TOL``.
    """
    if m is None:
        alpha, rows = _rows(0.0, alpha, grid)
        mine = second_solution_order_zero(alpha)
        classical = second_solution_order_zero(1.0)
        label = "zero"
    else:
        _whole(m, 1, ValueError, "integer-order scaling check needs an "
               "integer order >= 1, got {}")
        alpha, rows = _rows(float(m), alpha, grid)
        mine = second_solution_integer_order(m, alpha)
        classical = second_solution_integer_order(m, 1.0)
        label = f"m={m}"

    def deviation(p, a, x):
        lhs = eval_log_solution(mine, x).value
        rhs = eval_log_solution(classical, x ** a).value / a
        return lhs - rhs, rhs

    return _pointwise(f"second-solution-scaling[{label} alpha={alpha:g}]",
                      rows, deviation,
                      SCALING_TOL if tolerance is None else tolerance, "abs")


def solution_corpus(alpha: float):
    """The fixed family of constructed solutions used by the suites.

    Yields ``(label, order, solution)`` triples: first-kind series at
    p in {0, 1/2, 1, 5/2, 3}, negative orders -1/2 and -5/2, and the two
    kinds of logarithmic second solutions.
    """
    for p in (0.0, 0.5, 1.0, 2.5, 3.0):
        yield f"J[p={p:g}]", p, bessel_j_series(p, alpha)
    for p in (0.5, 2.5):
        yield f"Jneg[p={p:g}]", p, bessel_j_neg_series(p, alpha)
    yield "y2zero", 0.0, second_solution_order_zero(alpha)
    for m in (1, 2):
        yield f"K[m={m}]", float(m), second_solution_integer_order(m, alpha)


def residual_suite(tolerance: float | None = None) -> list[CheckReport]:
    """Residual checks for the whole corpus on the standard grids."""
    return [check_ode_residual(p, a, solution, tolerance=tolerance,
                               name=f"residual[{label} alpha={a:g}]")
            for a in RESIDUAL_ALPHAS
            for label, p, solution in solution_corpus(a)]


def identity_suite(tolerance: float | None = None) -> list[CheckReport]:
    """Every identity at every order it admits, on the standard grid."""
    return [check_identity(name, p, a, IDENTITY_X, tolerance)
            for a in IDENTITY_ALPHAS
            for p in IDENTITY_ORDERS
            for name, row in IDENTITIES.items() if p >= row.least]


def half_order_suite(tolerance: float | None = None) -> list[CheckReport]:
    return [check_half_order_closed_forms(a, HALF_ORDER_X, tolerance)
            for a in IDENTITY_ALPHAS]


def scaling_suite(tolerance: float | None = None) -> list[CheckReport]:
    """Oracle agreement for integer orders plus second-solution rescaling."""
    reports = []
    for a in ORACLE_ALPHAS:
        xs = [x for x in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
              if x ** a <= 8.0]
        for p in (0, 1, 2):
            reports.append(check_series_vs_quadrature(p, a, xs, tolerance))
    for a in SCALING_ALPHAS:
        for m in (None, 1, 2):
            reports.append(
                check_second_solution_scaling(a, SCALING_X, m, tolerance))
    return reports


def all_suites(tolerance: float | None = None) -> list[CheckReport]:
    return (residual_suite(tolerance) + identity_suite(tolerance)
            + half_order_suite(tolerance) + scaling_suite(tolerance))


def random_residual_suite(seed: int, cases: int = 8,
                          tolerance: float | None = None) -> list[CheckReport]:
    """Seeded exploratory fuzzing: residual checks at random orders and grids.

    Deterministic for a given seed, so a surprising failure can be replayed.
    Not part of the acceptance gate; the gating suites use fixed grids.
    Orders mix generic reals, half-odd integers and integers; a random subset
    takes the negative-order family, the sign reduction at integer orders.
    """
    cases = _whole(cases, 0, ValueError,
                   "cases must be a whole number >= 0, got {}")
    rng = random.Random(seed)
    reports = []
    for i in range(cases):
        a = rng.uniform(0.25, 1.0)
        roll = rng.random()
        if roll < 0.4:
            p = rng.uniform(0.0, 3.5)
        elif roll < 0.7:
            p = rng.randrange(0, 4) + 0.5
        else:
            p = float(rng.randrange(0, 4))
        xs = sorted(rng.uniform(0.3, 4.0) for _ in range(5))
        if rng.random() < 0.3 and p > 0.0:
            solution = bessel_j_neg_series(p, a)
            label = f"Jneg[p={p:g}]"
        else:
            solution = bessel_j_series(p, a)
            label = f"J[p={p:g}]"
        reports.append(check_ode_residual(
            p, a, solution, xs, tolerance,
            name=f"fuzz-residual[{i}: {label} alpha={a:.3f}]"))
    return reports
