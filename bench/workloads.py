"""The benchmark's workloads: seeded inputs and one closed-loop evaluation per point.

Each workload turns ``--seed`` into a fixed list of points. Its ``run_pass``
evaluates every point once, in order, calling ``pause`` between points (the
host speed samples run there, outside the point times), and returns each
point's outcome, start time and duration. A point's outcome maps each curve
name (``sd_tin``, ``tdma_tin``, ``pc_tin``, ``tdma``, ``ub1``, ``ub2``) or
call name to the value returned, or to the exception raised. ``pimac`` is
always reached through its namespaces at call time, so the traced run can
wrap its public functions.

Why these workloads:

* ``figure_sweep`` is the paper's figure, the job users run: ``run_sweep``
  over ``h12 = h31 = h`` in [0, 1] with 101 steps, ``h22 = 0.2`` and all
  powers 10. PC-TIN's 3-D grid and the genie bound dominate it. The seed
  does not change it.
* ``tin_draws`` are random instances with moderate gains and powers on
  the four cheap calls (SD-TIN, TDMA-TIN, plain TDMA, the closed-form bound).
  Per-call overhead and TDMA-TIN's 1-D search dominate; no PC-TIN and no
  genie bound run here.
* ``genie_wide`` draws gains and powers over many decades, with signs, plus a
  fixed panel of extreme instances (gains up to 1e150, powers from 1e-300 to
  1e200). The genie bound dominates, and it raises on some draws: those
  calls are counted as failed, never dropped.

Random draws come from a randomly shifted additive-recurrence (R_d) lattice,
so the point set covers the input box evenly for every seed and the means
taken over it vary little from seed to seed.
"""

import math
import time
from array import array

import numpy as np

import pimac
from pimac import experiments

CLOCK = time.perf_counter

FIGURE = {"h22": 0.2, "p1": 10.0, "p2": 10.0, "p3": 10.0}
PROBE_HS = (0.2, 1.0)
PROBE_PARAMS = (0.2, 0.2, 0.2, 10.0, 10.0, 10.0)

ACHIEVABLE = ("sd_tin", "tdma_tin", "pc_tin", "tdma")
BOUNDS = ("ub1", "ub2")

# Points per pass. "tiny" serves the smoke test only.
SIZES = {
    "full": {"figure_sweep": 101, "tin_draws": 2000, "genie_wide": 600},
    "tiny": {"figure_sweep": 3, "tin_draws": 20, "genie_wide": 20},
}

# The two inputs on which ROADMAP reports c_sigma_1 raising, placed first in
# the extreme panel.
ROADMAP_EXTREMES = (
    (1e150, 0.2, 1e150, 10.0, 10.0, 10.0),
    (0.5, 0.2, 0.5, 1e200, 10.0, 10.0),
)


def rd_lattice(n, dim, shift):
    """``n`` points of the R_d additive recurrence in [0, 1)^dim, shifted.

    Point i is ``frac(shift + (i + 1) * alpha)`` with ``alpha_j = phi**-(j+1)``,
    where ``phi`` solves ``phi**(dim + 1) = phi + 1``.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1.0, dim + 1.0)
    return np.mod(np.asarray(shift) + np.outer(np.arange(1, n + 1), alpha), 1.0)


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a raising call is a measured outcome
        # Keep the exception, not its frames: a traceback would hold the
        # failed call's arrays alive and inflate peak memory.
        exc.__traceback__ = exc.__context__ = exc.__cause__ = None
        return exc


def _rate(fn, params):
    out = _call(fn, params)
    return out if isinstance(out, Exception) else out.sum_rate


class FigureSweep:
    """One ``run_sweep`` over the figure's 101 gains per pass.

    A wrapper around ``experiments.PimacParams``, installed for the pass,
    marks where each row starts inside ``run_sweep`` and calls ``pause``
    between rows. A point's time runs from its row's start to the next
    row's (the first from the call, the last to the return).
    """

    name = "figure_sweep"
    min_passes = 2  # the CSV must be compared across two complete passes
    host_kernels = ("cpu", "memory")  # PC-TIN's grid streams 24 MB arrays

    def __init__(self, seed, size="full"):
        steps = SIZES[size][self.name]
        self.cfg = pimac.SweepConfig(h_min=0.0, h_max=1.0, steps=steps, **FIGURE)
        self.points = [float(h) for h in np.linspace(0.0, 1.0, steps)]

    def run_pass(self, pause):
        starts, ends = array("d"), array("d")
        make = experiments.PimacParams
        first_row = True

        def next_row(*args, **kwargs):
            nonlocal first_row
            if first_row:
                first_row = False
            else:
                ends.append(CLOCK())
                pause()
                starts.append(CLOCK())
            return make(*args, **kwargs)

        experiments.PimacParams = next_row
        try:
            pause()
            starts.append(CLOCK())
            rows = _call(pimac.run_sweep, self.cfg)
            ends.append(CLOCK())
        finally:
            experiments.PimacParams = make
        n = len(self.points)
        if isinstance(rows, Exception):
            outcomes = [{"run_sweep": rows}] * n
        else:
            outcomes = [{"run_sweep": row} for row in rows]
        if len(starts) == n:
            return outcomes, np.asarray(starts), np.subtract(ends, starts)
        # Without one PimacParams per row to go by, split the pass evenly.
        span = ends[-1] - starts[0]
        return outcomes, starts[0] + span / n * np.arange(n), np.full(n, span / n)

    @staticmethod
    def end_pass(outcomes):
        rows = [o["run_sweep"] for o in outcomes]
        if any(isinstance(r, Exception) for r in rows):
            return RuntimeError("render_csv not called: run_sweep raised")
        return _call(pimac.render_csv, rows)

    @staticmethod
    def params(h):
        return (h, FIGURE["h22"], h, FIGURE["p1"], FIGURE["p2"], FIGURE["p3"])

    @staticmethod
    def values(outcome):
        row = outcome["run_sweep"]
        if isinstance(row, Exception):
            return {}
        return {c: getattr(row, c) for c in ACHIEVABLE + BOUNDS
                if getattr(row, c) is not None}

    @staticmethod
    def call_of(curve):
        return "run_sweep"

    @staticmethod
    def warm_up():
        cfg = pimac.SweepConfig(h_min=PROBE_HS[0], h_max=PROBE_HS[0], steps=1, **FIGURE)
        pimac.run_sweep(cfg)


class _Draws:
    """One call of ``evaluate`` per point, timed on its own."""

    min_passes = 1
    host_kernels = ("cpu",)

    def run_pass(self, pause):
        outcomes, starts, times = [], array("d"), array("d")
        for point in self.points:
            pause()
            t0 = CLOCK()
            outcomes.append(self.evaluate(point))
            starts.append(t0)
            times.append(CLOCK() - t0)
        return outcomes, np.asarray(starts), np.asarray(times)

    @staticmethod
    def end_pass(outcomes):
        return None

    @staticmethod
    def params(point):
        return point

    @staticmethod
    def values(outcome):
        return {c: v for c, v in outcome.items() if not isinstance(v, Exception)}

    @staticmethod
    def call_of(curve):
        return curve

    @classmethod
    def warm_up(cls):
        cls.evaluate(PROBE_PARAMS)


class TinDraws(_Draws):
    """Gains ``h12, h22`` U[0, 2], ``h31`` U[0, 1], powers U(0, 50]."""

    name = "tin_draws"

    def __init__(self, seed, size="full"):
        rng = np.random.default_rng(seed)
        u = rd_lattice(SIZES[size][self.name], 6, rng.random(6))
        gains = u[:, :3] * np.array([2.0, 2.0, 1.0])
        powers = 50.0 * (1.0 - u[:, 3:])
        self.points = [tuple(map(float, row)) for row in np.hstack([gains, powers])]

    @staticmethod
    def evaluate(point):
        params = _call(pimac.PimacParams, *point)
        if isinstance(params, Exception):
            return {c: params for c in ("sd_tin", "tdma_tin", "tdma", "ub2")}
        return {
            "sd_tin": _rate(pimac.sd_tin_sum_rate, params),
            "tdma_tin": _rate(pimac.tdma_tin_sum_rate, params),
            "tdma": _rate(pimac.plain_tdma_sum_rate, params),
            "ub2": _call(pimac.c_sigma_2, params),
        }


def _log_uniform(u, lo_exp, hi_exp):
    return 10.0 ** (lo_exp + (hi_exp - lo_exp) * u)


def _extreme_panel(n):
    """Fixed, seed-independent extreme instances, ROADMAP cases first."""
    u = rd_lattice(n, 6, np.zeros(6))
    signs = np.where(rd_lattice(n, 3, np.full(3, 0.5)) < 0.5, -1.0, 1.0)
    gains = signs * _log_uniform(u[:, :3], -150.0, 150.0)
    powers = _log_uniform(u[:, 3:], -300.0, 200.0)
    panel = list(ROADMAP_EXTREMES)
    panel += [tuple(map(float, row)) for row in np.hstack([gains, powers])]
    return panel[:n]


class GenieWide(_Draws):
    """Gains log-uniform in 1e-3..1e3 with random signs, powers log-uniform in
    1e-6..1e8; every tenth point comes from the fixed extreme panel."""

    name = "genie_wide"

    def __init__(self, seed, size="full"):
        n = SIZES[size][self.name]
        rng = np.random.default_rng(seed)
        u = rd_lattice(n, 6, rng.random(6))
        signs = rng.choice([-1.0, 1.0], size=(n, 3))
        gains = signs * _log_uniform(u[:, :3], -3.0, 3.0)
        powers = _log_uniform(u[:, 3:], -6.0, 8.0)
        draws = [tuple(map(float, row)) for row in np.hstack([gains, powers])]
        extremes = iter(_extreme_panel(math.ceil(n / 10)))
        self.points = [next(extremes) if i % 10 == 0 else draws[i] for i in range(n)]

    @staticmethod
    def evaluate(point):
        params = _call(pimac.PimacParams, *point)
        if isinstance(params, Exception):
            return {c: params for c in ("ub1", "sd_tin", "tdma_tin", "tdma")}
        out = {"ub1": _rate(pimac.c_sigma_1, params)}
        if params.h31 * params.h31 <= 1.0:
            out["ub2"] = _call(pimac.c_sigma_2, params)
        out["sd_tin"] = _rate(pimac.sd_tin_sum_rate, params)
        out["tdma_tin"] = _rate(pimac.tdma_tin_sum_rate, params)
        out["tdma"] = _rate(pimac.plain_tdma_sum_rate, params)
        return out


WORKLOADS = {w.name: w for w in (FigureSweep, TinDraws, GenieWide)}
