"""Deterministic derivative-free optimization kernels.

Two entry points back the schemes and bounds: scalar maximization on an
interval, and constrained minimization with projection. Both take one
vectorised objective and evaluate each of their stages as a single call:
a uniform grid together with a set of mandatory seed points, then local
refinement (nested grids for the scalar solver, a compass pattern search
for the constrained one). The returned value can never be worse than the
objective at any seed. Tie-breaks are lexicographic on the argument, which
makes results reproducible across runs and platforms.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, DomainError, InfeasibleError, NumericError


@dataclass(frozen=True)
class OptConfig:
    """Grid resolution, refinement tolerance and mandatory seed points."""

    grid_points_per_axis: int = 101
    refine_tolerance: float = 1e-6
    max_refine_iters: int = 100
    seeds: tuple = ()

    def __post_init__(self):
        if self.grid_points_per_axis < 2:
            raise DomainError("grid_points_per_axis must be >= 2")
        if not (self.refine_tolerance > 0.0 and math.isfinite(self.refine_tolerance)):
            raise DomainError("refine_tolerance must be a positive real")
        if self.max_refine_iters < 0:
            raise DomainError("max_refine_iters must be >= 0")


@dataclass(frozen=True)
class OptResult:
    """Optimizer output: argument, objective value and run diagnostics.

    ``details`` holds solver diagnostics: ``stages`` (evaluations per
    stage), the stop reason ``stop``, and ``levels`` (``maximize_scalar``)
    or ``iterations`` (``minimize_constrained``).
    """

    arg: object
    value: float
    evaluations: int
    status: str
    details: dict = field(default_factory=dict)

    def diagnostics(self) -> dict:
        return {"evaluations": self.evaluations, "status": self.status,
                **self.details}


# A refinement level puts a 65-point grid over plus or minus one spacing of
# the previous level around each of that level's 3 best points.
_WINDOW = np.linspace(0.0, 1.0, 65)
_CENTRES = 3


def _finite_values(f, xs) -> np.ndarray:
    """One call of ``f`` on the 1-D array ``xs``.

    A non-finite value raises NumericError naming its point.
    """
    values = np.asarray(f(xs), dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NumericError(f"objective is not finite at {float(xs[i])!r}: {values[i]!r}")
    return values


@functools.lru_cache(maxsize=8)
def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """The uniform grid on [lo, hi], built once per interval and size."""
    grid = np.linspace(lo, hi, n)
    grid.flags.writeable = False
    return grid


def _ranked(xs, values, k) -> list[tuple[float, float]]:
    """``(value, arg)`` of the k best distinct arguments, ties to the smaller."""
    top: list[tuple[float, float]] = []
    for i in np.lexsort((xs, -values)):
        x = float(xs[i])
        if not top or x != top[-1][1]:
            top.append((float(values[i]), x))
            if len(top) == k:
                break
    return top


def maximize_scalar(f, lo: float, hi: float, cfg: OptConfig | None = None) -> OptResult:
    """Maximize the vectorised ``f`` on [lo, hi] by a grid and nested grids.

    ``f`` maps a 1-D array of arguments to their values. The first call
    evaluates every point of ``cfg.seeds`` (each must lie inside the
    interval) together with a uniform grid of ``cfg.grid_points_per_axis``
    points. Each refinement level is one more call: a 65-point grid over
    plus or minus one spacing of the previous level (cut to the interval)
    around each of that level's 3 best distinct points, so the spacing
    shrinks 32-fold. Levels repeat until the spacing is below
    ``cfg.refine_tolerance`` or ``cfg.max_refine_iters`` levels have run.
    Every evaluated point is a candidate, so the value is never below the
    objective at a seed; ties go to the smallest argument. A non-finite
    value raises NumericError.

    ``details`` reports ``stages`` (``seeds``, ``grid`` and ``refine``
    evaluations, summing to ``evaluations``), ``levels`` and ``stop``
    (``tolerance`` or ``level-cap``).
    """
    cfg = cfg if cfg is not None else OptConfig()
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    seeds = [float(s) for s in cfg.seeds]
    for s in seeds:
        if not lo <= s <= hi:
            raise DomainError(f"seed {s!r} lies outside [{lo!r}, {hi!r}]")

    xs = np.concatenate((seeds, _grid(lo, hi, cfg.grid_points_per_axis)))
    stages = {"seeds": len(seeds), "grid": cfg.grid_points_per_axis, "refine": 0}
    spacing = (hi - lo) / (cfg.grid_points_per_axis - 1)
    levels = 0
    best = []  # (value, arg) of each level's best point
    while True:
        top = _ranked(xs, _finite_values(f, xs), _CENTRES)
        best.append(top[0])
        if spacing < cfg.refine_tolerance or levels == cfg.max_refine_iters:
            break
        left = [max(x - spacing, lo) for _, x in top]
        width = [min(x + spacing, hi) - a for (_, x), a in zip(top, left)]
        xs = np.minimum(np.array(left)[:, None] + np.array(width)[:, None] * _WINDOW,
                        hi).ravel()
        stages["refine"] += xs.size
        spacing *= 2.0 / (_WINDOW.size - 1)
        levels += 1

    value = max(v for v, _ in best)
    arg = min(x for v, x in best if v == value)
    return OptResult(arg=arg, value=value, evaluations=sum(stages.values()),
                     status="grid+nested-grid",
                     details={"stages": stages, "levels": levels,
                              "stop": "tolerance" if spacing < cfg.refine_tolerance
                              else "level-cap"})


def _checked_min(f, pts) -> np.ndarray:
    """One call of the vectorised objective on the (n, d) array ``pts``."""
    values = np.asarray(f(pts), dtype=float)
    bad = np.isnan(values) | (values == -math.inf)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise NumericError(
            f"objective is not usable at {tuple(pts[i].tolist())!r}: {values[i]!r}")
    return values


def minimize_constrained(f, candidates, cfg: OptConfig | None = None, *,
                         project, feasible=None, step_init=None) -> OptResult:
    """Minimize ``f`` over a feasible set given by a predicate and projection.

    ``f`` maps an (n, d) array of points to n values; it is called once for
    the seeds, once for the grid and once per compass iteration.
    ``candidates`` is the caller-supplied grid of feasible points, shape
    (n, d). ``cfg.seeds`` are mandatory starting points and must satisfy
    ``feasible``. Objective values of ``+inf`` are legal and simply
    discarded, so a degenerate plateau cannot poison the result; if no
    finite value is seen, InfeasibleError is raised. The best point (ties
    to the lexicographically smallest) seeds a compass pattern search: the
    2·d axis moves are projected with ``project``, evaluated together, the
    best improving one (ties as before) is taken, else the steps halve.
    """
    cfg = cfg if cfg is not None else OptConfig()
    pts = np.asarray(candidates, dtype=float)
    if pts.ndim != 2:
        raise DomainError("candidates must be a 2-D array of points")
    ndim = pts.shape[1]

    seeds = [tuple(map(float, s)) for s in cfg.seeds]
    for s in seeds:
        if feasible is not None and not feasible(s):
            raise ConstraintError(f"mandatory seed {s!r} is infeasible")
    seed_pts = np.array(seeds, dtype=float).reshape(-1, ndim)
    seed_v, grid_v = _checked_min(f, seed_pts), _checked_min(f, pts)
    stages = {"seeds": len(seed_pts), "grid": len(pts), "refine": 0}

    vx = float(min(seed_v.min(initial=math.inf), grid_v.min(initial=math.inf)))
    if not vx < math.inf:
        raise InfeasibleError("no feasible point with a finite objective value")
    x = min(map(tuple, seed_pts[seed_v == vx].tolist() + pts[grid_v == vx].tolist()))

    steps = np.full(ndim, 0.1) if step_init is None else np.asarray(step_init, float).copy()
    gained_since_shrink = 0.0
    shrinks = 0
    iterations = 0
    stop = "iteration-cap"
    while iterations < cfg.max_refine_iters:
        iterations += 1
        trials = []
        for i in range(ndim):
            for sgn in (1.0, -1.0):
                trial = list(x)
                trial[i] += sgn * steps[i]
                t = tuple(map(float, project(tuple(trial))))
                if t != x:
                    trials.append(t)
        values = _checked_min(f, np.array(trials, dtype=float).reshape(-1, ndim))
        stages["refine"] += len(trials)
        best_trial = None
        best_trial_v = vx
        for t, v in zip(trials, values.tolist()):
            if v < best_trial_v or (v == best_trial_v and best_trial is not None
                                    and t < best_trial):
                best_trial, best_trial_v = t, v
        if best_trial is not None:
            gained_since_shrink += vx - best_trial_v
            x, vx = best_trial, best_trial_v
        else:
            if shrinks >= 2 and gained_since_shrink < cfg.refine_tolerance:
                stop = "tolerance"
                break
            steps *= 0.5
            shrinks += 1
            gained_since_shrink = 0.0
            if float(np.max(steps)) < 1e-9:
                stop = "step-floor"
                break

    return OptResult(arg=x, value=vx, evaluations=sum(stages.values()),
                     status="grid+pattern-search",
                     details={"stages": stages, "iterations": iterations,
                              "stop": stop})
