"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of operations (one *pass*) and
knows how to run one operation and judge its output.  Judging happens outside
the timed region.  Only the first run of each operation -- the first whole
pass -- is scored and counted in ``attempted`` and ``failed``, so both depend
on the seed and the program alone, not on how many passes fit in the run.
Every later run of the operation is compared with that first run, so any
non-determinism is caught; the checksum covers the first whole pass.

* ``cli-oneshot`` -- one client, closed loop, ``python -m confbessel``
  invocations; each one pays interpreter start and ``import confbessel``.
* ``grid-eval``   -- in-process: build a solution, evaluate it on a dense grid
  with t = x**alpha spread over (0, 20]; the summation kernel dominates.
* ``verify``      -- in-process: the 133 gating checks, a seeded residual fuzz
  and a numeric-vs-exact operator cross-check; many short-lived series.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import subprocess
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout

import confbessel.bessel as B
import confbessel.checks as C
import confbessel.cli as CLI
import confbessel.conformable as CF
import confbessel.series as S

FAMILIES = ("J", "Jneg", "y2zero", "K")

#: Largest t = x**alpha on the grids.  Past t ~ 15 the series loses digits
#: to cancellation; those misses are meant to show, so t is not capped lower.
T_MAX = 20.0


def draw_order(rng: random.Random, family: str) -> float:
    """Order for a family: integers, half-odd integers and generic reals."""
    if family == "y2zero":
        return 0.0
    if family == "K":
        return float(rng.randint(1, 3))
    roll = rng.random()
    if roll < 1 / 3:
        return float(rng.randint(0, 4))
    if roll < 2 / 3:
        return rng.randint(0, 3) + 0.5
    return round(rng.uniform(0.05, 4.0), 3)


def draw_alpha(rng: random.Random) -> float:
    return round(rng.uniform(0.3, 1.0), 4)


def build(family: str, order: float, alpha: float, terms: int):
    """Construct a solution the way a library user would, by family."""
    if family == "J":
        return B.bessel_j_series(order, alpha, terms)
    if family == "Jneg":
        if order == int(order):
            return B.bessel_j_neg_integer_series(int(order), alpha, terms)
        return B.bessel_j_neg_series(order, alpha, terms)
    if family == "y2zero":
        return B.second_solution_order_zero(alpha, terms)
    return B.second_solution_integer_order(int(order), alpha, terms)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


class Workload:
    """Shared bookkeeping: tallies, determinism and the checksum."""

    name = ""
    #: What one unit of throughput is ("invocations", "points", "checks").
    unit = ""
    #: False when the timed loop runs each operation in a child process.
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = None
        self.attempted = 0
        self.failed = 0
        self.nondeterministic = 0
        self._first: dict[int, str] = {}

    def setup(self) -> None:
        """Generate the inputs from the seed (timed as part of setup_s)."""
        self.inputs = None  # never hold two copies: they would count in the peak RSS
        self.inputs = self.generate()

    def generate(self):
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed preparation before the loop."""

    def run_op(self, spec):
        """One operation as the timed loop runs it."""
        return self.run_op_inprocess(spec)

    def run_op_inprocess(self, spec):
        raise NotImplementedError

    def judge(self, index: int, spec, output) -> int:
        """Account one operation's output; return its throughput units.

        Only an operation's first run adds to ``attempted`` and ``failed``.
        """
        raise NotImplementedError

    def _seen(self, index: int, digest: str) -> bool:
        """Record an output digest; True on the first run of the operation.

        A later run whose digest differs is counted as non-deterministic.
        """
        first = self._first.get(index)
        if first is None:
            self._first[index] = digest
            return True
        if first != digest:
            self.nondeterministic += 1
        return False

    def checksum(self) -> str:
        return _digest(self._first[i] for i in sorted(self._first))

    def finish(self) -> None:
        """Deferred scoring against the oracle, after the loop.

        The oracle module (and so mpmath) is imported only here, after the
        peak RSS has been read, so it does not count in ``peak_rss_mb``.
        """

    def extras(self) -> dict:
        return {}


# --------------------------------------------------------------- grid-eval

GRID_POINTS = 1024
GRID_TERMS = (30, 60, 120)
GRID_DRAWS_PER_CELL = 9
SCORED_PER_GRID = 16


class GridEval(Workload):
    """Dense tables: per draw, build one solution and evaluate a whole grid.

    Draws are stratified, GRID_DRAWS_PER_CELL per (family, n_terms) cell,
    so every seed has the same mix of kernel work; order and alpha vary.
    The t-grid is the same for every draw, so the work per point depends on
    family, order and n_terms only.
    """

    name = "grid-eval"
    unit = "points"

    def generate(self):
        rng = random.Random(self.seed)
        ts = [T_MAX * (i + 1) / GRID_POINTS for i in range(GRID_POINTS)]
        draws = []
        for _ in range(GRID_DRAWS_PER_CELL):
            for family in FAMILIES:
                for terms in GRID_TERMS:
                    order = draw_order(rng, family)
                    alpha = draw_alpha(rng)
                    xs = [t ** (1.0 / alpha) for t in ts]
                    draws.append((family, order, alpha, terms, xs))
        rng.shuffle(draws)
        return draws

    def prepare(self) -> None:
        step = GRID_POINTS // SCORED_PER_GRID
        self.scored = [k * step + step // 2 for k in range(SCORED_PER_GRID)]
        self._scored_set = set(self.scored)
        #: The scored-point values of each grid's first run, for finish().
        self.first_values: dict[int, list[float]] = {}
        self.scored_misses = 0

    def run_op_inprocess(self, spec):
        family, order, alpha, terms, xs = spec
        solution = build(family, order, alpha, terms)
        ev = S.eval_log_solution if isinstance(solution, S.LogSolution) \
            else S.eval_series
        return [ev(solution, x).value for x in xs]

    def judge(self, index, spec, output):
        """Account the verified point evaluations of one grid.

        The oracle is too slow for every point, so the operations counted
        as attempted are the scored sample of the grid plus any non-finite
        value elsewhere on it (a failure with no oracle needed).  A grid
        that raises counts as its scored sample, all failed.  Oracle misses
        are added in finish().
        """
        n = len(spec[4])
        if isinstance(output, BaseException):
            if self._seen(index, _digest([repr(output)])):
                self.attempted += SCORED_PER_GRID
                self.failed += SCORED_PER_GRID
            return n
        if self._seen(index, _digest([array("d", output).tobytes()])):
            unscored_nonfinite = sum(
                not math.isfinite(v) for i, v in enumerate(output)
                if i not in self._scored_set)
            self.attempted += SCORED_PER_GRID + unscored_nonfinite
            self.failed += unscored_nonfinite
            self.first_values[index] = [output[i] for i in self.scored]
        return n

    def finish(self) -> None:
        import oracle  # late, as in Workload.finish
        for index, values in self.first_values.items():
            family, order, alpha, _, xs = self.inputs[index]
            self.scored_misses += sum(
                oracle.misses(v, oracle.reference(family, order, alpha, xs[i]))
                for i, v in zip(self.scored, values))
        self.failed += self.scored_misses

    def extras(self):
        scored = SCORED_PER_GRID * len(self.first_values)
        return {"grid_points": GRID_POINTS,
                "grids_per_pass": len(self.inputs),
                "scored_points": scored,
                "accuracy_miss_frac": self.scored_misses / scored if scored else 0.0}


# ------------------------------------------------------------------ verify

FUZZ_CASES = 8
VERIFY_DRAWS = 50
CROSS_TOL = 1e-4


def cross_check(alpha: float, xs) -> list:
    """Numeric sequential derivative against the exact series operator.

    One entry per plain-series member of the corpus: the pairs
    (numeric, exact) at each x.  The numeric operator's own accuracy is
    about 1e-6, so the gate is CROSS_TOL * max(1, |exact|).
    """
    cfg = CF.DiffConfig(alpha)
    out = []
    for label, _, solution in C.solution_corpus(alpha):
        if isinstance(solution, S.LogSolution):
            continue
        d2 = S.conformable_diff_exact(S.conformable_diff_exact(solution))

        def f(t, s=solution):
            return S.eval_series(s, t).value

        out.append((label, [(CF.conformable_diff2_numeric(f, x, cfg),
                             S.eval_series(d2, x).value) for x in xs]))
    return out


class Verify(Workload):
    """Self-verification: all_suites, seeded fuzz suites, operator cross-checks.

    One pass is a single ``all_suites()`` call followed by VERIFY_DRAWS
    seeded residual-fuzz suites and VERIFY_DRAWS cross-checks, interleaved.
    """

    name = "verify"
    unit = "checks"

    def generate(self):
        rng = random.Random(self.seed)
        ops = [("all_suites",)]
        for _ in range(VERIFY_DRAWS):
            ops.append(("fuzz", rng.randrange(2 ** 31)))
            xs = sorted(round(rng.uniform(0.5, 4.0), 6)
                        for _ in range(rng.randint(4, 9)))
            ops.append(("cross", draw_alpha(rng), xs))
        return ops

    def run_op_inprocess(self, spec):
        if spec[0] == "all_suites":
            return C.all_suites(), []
        if spec[0] == "fuzz":
            return C.random_residual_suite(spec[1], FUZZ_CASES), []
        return [], cross_check(spec[1], spec[2])

    def judge(self, index, spec, output):
        if isinstance(output, BaseException):
            if self._seen(index, _digest([repr(output)])):
                self.attempted += 1
                self.failed += 1
            return 1
        reports, cross = output
        units = len(reports) + len(cross)
        if self._seen(index, _digest(
                [(r.check_name, r.passed, r.max_abs_err, r.max_rel_err)
                 for r in reports] + cross)):
            bad = sum(not r.passed for r in reports)
            for _, rows in cross:
                bad += any(not abs(num - exact) <= CROSS_TOL * max(1.0, abs(exact))
                           for num, exact in rows)
            self.attempted += units
            self.failed += bad
        return units


# ------------------------------------------------------------- cli-oneshot

CLI_REQUESTS = 48

#: Malformed requests, one per error class of the README contract (usage or
#: domain error: exit 2, never a traceback).  They are drawn uniformly,
#: whatever the program does with them today.
MALFORMED = (
    ("eval", "--order", "nan", "--x", "1"),
    ("eval", "--order", "inf", "--x", "1"),
    ("eval", "--order", "200", "--x", "1"),
    ("eval", "--family", "Jneg", "--order", "170.5", "--x", "1"),
    ("check", "--family", "J", "--order", "nan"),
    ("eval", "--family", "K", "--order", "1.5", "--x", "1"),
    ("eval", "--order", "-1", "--x", "1"),
    ("eval", "--alpha", "1.5", "--x", "1"),
    ("eval", "--alpha", "0", "--x", "1"),
    ("eval", "--x", "-2"),
    ("eval", "--x", "0"),
    ("eval",),
    ("eval", "--family", "Q", "--x", "1"),
    ("eval", "--terms", "0", "--x", "1"),
    ("table", "--range", "3:1:5"),
    ("table", "--range", "1:2"),
    ("table", "--range", "0:2:5"),
    ("check", "--name", "identities", "--family", "J"),
)


def _cli_request(rng: random.Random):
    """(kind, argv, (family, order, alpha)) for one seeded request."""
    roll = rng.random()
    if roll < 0.12:
        return "malformed", list(rng.choice(MALFORMED)), None
    family = rng.choice(FAMILIES)
    order = draw_order(rng, family)
    alpha = draw_alpha(rng)
    common = ["--family", family, "--alpha", repr(alpha)]
    if family != "y2zero":
        common += ["--order", repr(order)]
    if roll < 0.28:
        argv = ["check", "--name", "residual", *common, "--format", "json"]
        return "check", argv, (family, order, alpha)
    if roll < 0.50:
        t0 = rng.uniform(0.05, T_MAX / 2)
        t1 = rng.uniform(t0, T_MAX)
        span = f"{t0 ** (1 / alpha)!r}:{t1 ** (1 / alpha)!r}:{rng.randint(5, 50)}"
        argv = ["table", *common, "--range", span,
                "--format", rng.choice(("csv", "json"))]
        return "table", argv, (family, order, alpha)
    x = rng.uniform(1e-3, T_MAX) ** (1 / alpha)
    argv = ["eval", *common, "--x", repr(x),
            "--format", rng.choice(("plain", "json", "csv"))]
    return "eval", argv, (family, order, alpha)


def parse_values(argv, stdout: str) -> list[tuple[float, float]]:
    """(x, value) pairs from eval/table output in any of the three formats."""
    fmt = argv[argv.index("--format") + 1]
    lines = stdout.splitlines()
    if fmt == "json":
        rows = [json.loads(line) for line in lines]
        return [(r["x"], r["value"]) for r in rows]
    if fmt == "csv":
        if lines[0] != CLI.CSV_HEADER:
            raise ValueError(f"bad CSV header {lines[0]!r}")
        return [tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]]
    fields = dict(line.split(" = ", 1) for line in lines)
    return [(float(fields["x"]), float(fields["value"]))]


class CliOneshot(Workload):
    """Closed loop, one client: each request is a fresh interpreter."""

    name = "cli-oneshot"
    unit = "invocations"
    in_process = False

    def __init__(self, seed, python: str, env: dict, cwd: str):
        super().__init__(seed)
        self.python, self.env, self.cwd = python, env, cwd

    def generate(self):
        rng = random.Random(self.seed)
        return [_cli_request(rng) for _ in range(CLI_REQUESTS)]

    def prepare(self) -> None:
        #: Each request's first output, scored in finish().
        self.outputs: dict[int, tuple[int, str, str]] = {}

    def run_op(self, spec):
        proc = subprocess.run([self.python, "-m", "confbessel", *spec[1]],
                              env=self.env, cwd=self.cwd, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run_op_inprocess(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = CLI.main(spec[1])
            except Exception:  # uncaught, as the interpreter would exit
                code = 1
                traceback.print_exc()
        return code, out.getvalue(), err.getvalue()

    def judge(self, index, spec, output):
        if isinstance(output, BaseException):  # the child did not finish
            output = (-1, "", repr(output))
        code, stdout, stderr = output
        if self._seen(index, _digest([code, stdout.encode(),
                                      "Traceback" in stderr])):
            self.outputs[index] = output
        return 1

    def _outcome(self, index: int) -> tuple[bool, int, int]:
        """(failed, scored values, misses) for a request's first output."""
        import oracle  # late, as in Workload.finish
        kind, argv, params = self.inputs[index]
        code, stdout, stderr = self.outputs[index]
        if kind == "malformed":
            ok = code == 2 and not stdout and stderr.strip() \
                and "Traceback" not in stderr
            return not ok, 0, 0
        if code != 0 or stderr:
            return True, 0, 0
        try:
            if kind == "check":
                reports = [json.loads(line) for line in stdout.splitlines()]
                return not (reports and all(r["passed"] for r in reports)), 0, 0
            pairs = parse_values(argv, stdout)
        except (ValueError, KeyError, IndexError):
            return True, 0, 0
        misses = sum(oracle.misses(v, oracle.reference(*params, x))
                     for x, v in pairs)
        return misses > 0, len(pairs), misses

    def finish(self) -> None:
        outcomes = [self._outcome(i) for i in self.outputs]
        self.attempted += len(outcomes)
        self.failed += sum(o[0] for o in outcomes)
        self.scored = sum(o[1] for o in outcomes)
        self.scored_misses = sum(o[2] for o in outcomes)

    def extras(self):
        kinds = [k for k, _, _ in self.inputs]
        return {"requests": len(kinds),
                "malformed_requests": kinds.count("malformed"),
                "scored_values": self.scored,
                "accuracy_miss_frac":
                    self.scored_misses / self.scored if self.scored else 0.0}


def layer_probe() -> None:
    """One call into every layer, at the start of every traced-run pass.

    It gives each layer a measured time on every workload, including those
    whose own operations never reach it.  The probe is the same on every
    workload and every commit, so it shifts no comparison.
    """
    with redirect_stdout(io.StringIO()):
        CLI.main(["eval", "--family", "Jneg", "--order", "1", "--alpha", "0.5",
                  "--x", "2"])
    j1 = B.bessel_j_series(1.0, 0.5)
    C.check_ode_residual(1.0, 0.5, j1, (1.0, 2.0))
    C.classical_bessel_j(1, 2.0 ** 0.5)
    CF.conformable_diff2_numeric(lambda t: S.eval_series(j1, t).value, 2.0,
                                 CF.DiffConfig(0.5))
