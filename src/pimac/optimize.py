"""Deterministic derivative-free optimization kernels.

Two entry points back the schemes and bounds: scalar maximization on an
interval, and constrained minimization with projection. Both evaluate a
uniform grid plus a set of mandatory seed points and then refine locally,
so the returned value can never be worse than the objective at any seed.
Tie-breaks are lexicographic on the argument, which makes results
reproducible across runs and platforms.

Objectives may optionally provide a vectorized twin (``f_vec``) used for
the grid phase; seeds, the best grid cells and all refinement steps are
always re-evaluated through the scalar objective, which is authoritative.
"""

import math
from dataclasses import dataclass

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
    """Optimizer output: argument, objective value and run diagnostics."""

    arg: object
    value: float
    evaluations: int
    status: str

    def diagnostics(self) -> dict:
        return {"evaluations": self.evaluations, "status": self.status}


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


def _grid_values(f, f_vec, pts, to_point=None, allow_posinf=False):
    """Evaluate the grid, preferring the vectorized path when available."""
    if f_vec is not None:
        values = np.asarray(f_vec(pts), dtype=float)
    else:
        convert = to_point if to_point is not None else float
        values = np.array([float(f(convert(p))) for p in pts], dtype=float)
    bad = ~np.isfinite(values)
    if allow_posinf:
        bad &= ~np.isposinf(values)
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


def _checked_min(f, x) -> float:
    v = float(f(x))
    if math.isnan(v) or v == -math.inf:
        raise NumericError(f"objective is not usable at {x!r}: {v!r}")
    return v


def minimize_constrained(f, candidates, cfg: OptConfig | None = None, *,
                         project, feasible=None, f_vec=None,
                         step_init=None,
                         candidates_feasible: bool = False) -> OptResult:
    """Minimize ``f`` over a feasible set given by a predicate and projection.

    ``candidates`` is the caller-supplied grid (array of shape (n, d));
    infeasible entries are skipped. ``cfg.seeds`` are mandatory starting
    points and must be feasible. Objective values of ``+inf`` are legal and
    simply discarded, so a degenerate plateau cannot poison the result; if
    no finite feasible value is ever seen, InfeasibleError is raised. The
    best point then seeds a compass pattern search whose trial moves are
    projected back onto the feasible set (step halves on stalls).
    """
    cfg = cfg if cfg is not None else OptConfig()
    pts = np.asarray(candidates, dtype=float)
    if pts.ndim != 2:
        raise DomainError("candidates must be a 2-D array of points")
    ndim = pts.shape[1]
    evals = 0

    pool: list[tuple[float, tuple]] = []

    for s in cfg.seeds:
        s = tuple(map(float, s))
        if feasible is not None and not feasible(s):
            raise ConstraintError(f"mandatory seed {s!r} is infeasible")
        v = _checked_min(f, s)
        evals += 1
        if v < math.inf:
            pool.append((v, s))

    if pts.shape[0]:
        if feasible is not None and not candidates_feasible:
            mask = np.fromiter((feasible(tuple(p)) for p in pts), dtype=bool,
                               count=pts.shape[0])
            pts = pts[mask]
    if pts.shape[0]:
        values = _grid_values(f, f_vec, pts, to_point=tuple, allow_posinf=True)
        evals += pts.shape[0]
        finite = np.isfinite(values)
        if np.any(finite):
            fin_idx = np.flatnonzero(finite)
            # Re-evaluate the best few through the scalar objective, which
            # is the authoritative value for the returned point.
            best_of = [fin_idx[i] for i in _top_indices(-values[fin_idx], 3)]
            for i in best_of:
                p = tuple(float(v) for v in pts[int(i)])
                v = _checked_min(f, p) if f_vec is not None else float(values[int(i)])
                evals += 1 if f_vec is not None else 0
                if v < math.inf:
                    pool.append((v, p))

    if not pool:
        raise InfeasibleError("no feasible point with a finite objective value")

    vx = min(v for v, _ in pool)
    x = min(p for v, p in pool if v == vx)

    steps = np.full(ndim, 0.1) if step_init is None else np.asarray(step_init, float).copy()
    gained_since_shrink = math.inf
    shrinks = 0
    for _ in range(cfg.max_refine_iters):
        best_trial = None
        best_trial_v = vx
        for i in range(ndim):
            for sgn in (1.0, -1.0):
                trial = list(x)
                trial[i] += sgn * steps[i]
                t = tuple(map(float, project(tuple(trial))))
                if t == x:
                    continue
                v = _checked_min(f, t)
                evals += 1
                if v < best_trial_v or (v == best_trial_v and best_trial is not None
                                        and t < best_trial):
                    best_trial, best_trial_v = t, v
        if best_trial is not None and best_trial_v < vx:
            if gained_since_shrink is math.inf:
                gained_since_shrink = 0.0
            gained_since_shrink += vx - best_trial_v
            x, vx = best_trial, best_trial_v
        else:
            if shrinks >= 2 and gained_since_shrink < cfg.refine_tolerance:
                break
            steps *= 0.5
            shrinks += 1
            gained_since_shrink = 0.0
            if float(np.max(steps)) < 1e-9:
                break

    return OptResult(arg=x, value=vx, evaluations=evals,
                     status="grid+pattern-search")
