"""Deterministic derivative-free optimization kernels.

Two entry points back the schemes and bounds: scalar maximization on an
interval, and constrained minimization with projection. Both evaluate a
uniform grid plus a set of mandatory seed points and then refine locally,
so the returned value can never be worse than the objective at any seed.
Tie-breaks are lexicographic on the argument, which makes results
reproducible across runs and platforms.

``maximize_scalar`` may be given a vectorized twin (``f_vec``) of its
objective for the grid phase; the best grid cells and the golden-section
steps go through the scalar objective. ``minimize_constrained`` takes one
vectorized objective and evaluates each of its stages as a single call.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, DomainError, InfeasibleError, NumericError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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

    ``details`` holds solver-specific diagnostics: ``minimize_constrained``
    reports ``stages`` (evaluations per stage), ``iterations`` and ``stop``
    (``tolerance``, ``iteration-cap`` or ``step-floor``).
    """

    arg: object
    value: float
    evaluations: int
    status: str
    details: dict = field(default_factory=dict)

    def diagnostics(self) -> dict:
        return {"evaluations": self.evaluations, "status": self.status,
                **self.details}


def _checked_max(f, x) -> float:
    v = float(f(x))
    if not math.isfinite(v):
        raise NumericError(f"objective is not finite at {x!r}: {v!r}")
    return v


def _golden_max(f, lo, hi, width_tol, max_iters):
    """Golden-section ascent on [lo, hi]; ties prefer the smaller argument."""
    a, b = float(lo), float(hi)
    evals = 0

    best_x, best_v = a, _checked_max(f, a)
    evals += 1

    def consider(x, v):
        nonlocal best_x, best_v
        if v > best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v

    vb = _checked_max(f, b)
    evals += 1
    consider(b, vb)

    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc = _checked_max(f, c)
    fd = _checked_max(f, d)
    evals += 2
    consider(c, fc)
    consider(d, fd)

    it = 0
    while (b - a) > width_tol and it < max_iters:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = _checked_max(f, c)
            consider(c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = _checked_max(f, d)
            consider(d, fd)
        evals += 1
        it += 1
    return best_x, best_v, evals


def _grid_values(f, f_vec, pts):
    """Evaluate the grid, preferring the vectorized path when available."""
    if f_vec is not None:
        values = np.asarray(f_vec(pts), dtype=float)
    else:
        values = np.array([float(f(float(p))) for p in pts], dtype=float)
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise NumericError(
            f"objective is not finite at grid point index {idx}: {values[idx]!r}"
        )
    return values


def _top_indices(values, k):
    """Indices of the k largest values, ordered by value then by index.

    Uses a partial partition so large grids avoid a full sort; the
    selection is deterministic for identical inputs.
    """
    n = values.size
    k = min(k, n)
    if k == 0:
        return []
    if n > 4 * k:
        idx = np.argpartition(-values, k - 1)[:k]
    else:
        idx = np.arange(n)
    idx = idx[np.lexsort((idx, -values[idx]))][:k]
    return [int(i) for i in idx]


def maximize_scalar(f, lo: float, hi: float, cfg: OptConfig | None = None,
                    f_vec=None) -> OptResult:
    """Maximize ``f`` on [lo, hi] by grid search plus golden-section refinement.

    The candidate set is a uniform grid of ``cfg.grid_points_per_axis``
    points, every point in ``cfg.seeds`` (each must lie inside the
    interval), and golden-section refinements launched from the best three
    grid cells. The returned value is never below the objective at any seed.
    """
    cfg = cfg if cfg is not None else OptConfig()
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")

    evals = 0
    grid = np.linspace(lo, hi, cfg.grid_points_per_axis)
    gv = _grid_values(f, f_vec, grid)
    evals += grid.size

    candidates: list[tuple[float, float]] = []  # (value, arg), scalar-evaluated
    for s in cfg.seeds:
        s = float(s)
        if not lo <= s <= hi:
            raise DomainError(f"seed {s!r} lies outside [{lo!r}, {hi!r}]")
        candidates.append((_checked_max(f, s), s))
        evals += 1

    for i in _top_indices(gv, 3):
        x = float(grid[i])
        if f_vec is not None:
            candidates.append((_checked_max(f, x), x))
            evals += 1
        else:
            candidates.append((float(gv[i]), x))
        a = float(grid[max(i - 1, 0)])
        b = float(grid[min(i + 1, grid.size - 1)])
        if a < b:
            xb, vb, e = _golden_max(f, a, b, cfg.refine_tolerance,
                                    cfg.max_refine_iters)
            candidates.append((vb, xb))
            evals += e

    best_v = max(v for v, _ in candidates)
    best_x = min(x for v, x in candidates if v == best_v)
    return OptResult(arg=best_x, value=best_v, evaluations=evals,
                     status="grid+golden")


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
