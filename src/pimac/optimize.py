"""Deterministic derivative-free optimization.

One solver backs the schemes and bounds: maximization of a vectorised
objective on a 1- or 2-D box. Each of its stages is a single call of the
objective: a uniform grid together with a set of mandatory seed points,
then nested grids around the best points found so far. Each caller passes
its schedule directly: grid points per axis, the tolerance that fixes the
number of nested levels, and the seeds. The returned value
can never be worse than the objective at any seed. Tie-breaks are
lexicographic on the argument, which makes results reproducible across
runs and platforms.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, NumericError


@dataclass(frozen=True)
class OptResult:
    """Optimizer output: argument, objective value and run diagnostics.

    ``diagnostics`` holds the number of objective ``evaluations``, their
    split by ``stages`` and the number of refinement ``levels``.
    """

    arg: object
    value: float
    diagnostics: dict


# A refinement level puts a grid over plus or minus one spacing of the
# previous level around each of that level's 3 best points: 65 points in
# 1-D and 9 per axis in 2-D, so the spacing shrinks 32-fold or 4-fold.
# _WINDOWS[d] is (points per axis, that grid on the unit box, one point per
# row, a point being a float in 1-D and a pair in 2-D).
_WINDOWS = {1: (65, np.linspace(0.0, 1.0, 65)),
            2: (9, np.linspace(0.0, 1.0, 9)[np.indices((9, 9)).reshape(2, -1).T])}
_CENTRES = 3


def _values(f, pts) -> np.ndarray:
    """One call of ``f`` on ``pts``. ``-inf`` marks an infeasible point; NaN
    or ``+inf`` raises NumericError naming its point."""
    values = np.asarray(f(pts), dtype=float)
    if not values.max() < math.inf:  # NaN or +inf
        i = int(np.flatnonzero(~(values < math.inf))[0])
        x = pts[i].tolist()
        raise NumericError(f"objective is not usable at "
                           f"{x if pts.ndim == 1 else tuple(x)!r}: {values[i]!r}")
    return values


@functools.lru_cache(maxsize=8)
def _grid(box: tuple, n: int) -> np.ndarray:
    """The uniform grid on ``box`` (one ``(lo, hi)`` pair per axis), one point
    per row, built once per box and size."""
    if len(box) == 1:
        grid = np.linspace(*box[0], n)
    else:
        axes = [np.linspace(a, b, n) for a, b in box]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))
    grid.flags.writeable = False
    return grid


def _ranked(pts, values, k) -> list:
    """``(value, point)`` of the k best distinct points, ties to the
    lexicographically smallest; a point is a float in 1-D and a tuple in 2-D."""
    n = len(values)
    cand = None
    if pts.ndim == 2 and n > 3 * k:
        # In 2-D, sort only the points at least as good as the 3k-th best
        # value (ties included): they lead the full order and hold k distinct
        # points unless one repeats more than 3 times (3 windows overlap it).
        # In 1-D the grid and each window are sorted runs, cheap to sort whole.
        cand = np.flatnonzero(values >= np.partition(values, n - 3 * k)[n - 3 * k])
    while True:
        p, v = (pts, values) if cand is None else (pts[cand], values[cand])
        top: list = []
        for i in np.lexsort(((p,) if p.ndim == 1 else (p[:, 1], p[:, 0])) + (-v,)):
            x = float(p[i]) if p.ndim == 1 else tuple(p[i].tolist())
            if not top or x != top[-1][1]:
                top.append((float(v[i]), x))
                if len(top) == k:
                    return top
        if cand is None:
            return top
        cand = None


def maximize_box(f, lo, hi, grid: int, tol: float, seeds=()) -> OptResult:
    """Maximize the vectorised ``f`` on a 1- or 2-D box by a grid and nested grids.

    With scalar ``lo`` and ``hi`` the box is the interval [lo, hi], ``f``
    maps a 1-D array of arguments to their values and the argument returned
    is a float. With two-element ``lo`` and ``hi`` the box is their
    product, ``f`` maps an (n, 2) array of points to n values and the
    argument returned is a tuple. Seeds have the shape of ``lo``.

    The first call evaluates every point of ``seeds`` (each must lie in the
    box) together with a uniform grid of ``grid`` points per axis (at least
    2). Each refinement level is one more call: a grid over plus or minus
    one spacing of the previous level (cut to the box) around each of that
    level's 3 best distinct points, with 65 points in 1-D and 9 per axis in
    2-D, so the spacing shrinks 32-fold or 4-fold. Levels repeat until the
    spacing is below ``tol`` (a positive real), so their number is fixed by
    ``grid`` and ``tol`` before the first call. Every evaluated point is a
    candidate, so the value is never below the objective at a seed; ties go
    to the lexicographically smallest point.

    A value of ``-inf`` marks an infeasible point; if every seed and grid
    point has it, InfeasibleError is raised. NaN or ``+inf`` raises
    NumericError. To minimize ``g``, pass ``-g``.

    ``diagnostics`` reports ``evaluations``, their split by ``stages``
    (``seeds``, ``grid`` and ``refine``) and the number of ``levels``.
    """
    if grid < 2:
        raise DomainError(f"grid must be >= 2, got {grid!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be a positive real, got {tol!r}")
    lo_a, hi_a = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    shape = lo_a.shape
    box = tuple(zip(lo_a.ravel().tolist(), hi_a.ravel().tolist()))
    if shape not in ((), (2,)) or hi_a.shape != shape or not all(
            math.isfinite(a) and math.isfinite(b) and a < b for a, b in box):
        raise DomainError(f"need a 1- or 2-D box with finite lo < hi, got "
                          f"[{lo!r}, {hi!r}]")
    seeds = np.array(seeds, dtype=float).reshape((-1,) + shape)
    inside = ((seeds >= lo_a) & (seeds <= hi_a)).reshape(-1, len(box)).all(axis=1)
    if not inside.all():
        raise DomainError(f"seed {seeds[np.argmin(inside)].tolist()!r} lies outside "
                          f"[{lo!r}, {hi!r}]")

    per_axis, window = _WINDOWS[len(box)]
    pts = _grid(box, grid)
    if len(seeds):
        pts = np.concatenate((seeds, pts))
    stages = {"seeds": len(seeds), "grid": grid ** len(box), "refine": 0}
    spacing = (hi_a - lo_a) / (grid - 1)
    shrink = 2.0 / (per_axis - 1)
    # Count the levels: the spacing shrinks until below the tolerance.
    step, levels = max((b - a) / (grid - 1) for a, b in box), 0
    while not step < tol:
        step, levels = step * shrink, levels + 1

    top = _ranked(pts, _values(f, pts), _CENTRES)
    if top[0][0] == -math.inf:
        raise InfeasibleError("no seed or grid point has a finite objective value")
    best = [top[0]]  # (value, point) of each level's best point
    for _ in range(levels):
        centres = np.array([x for _, x in top])
        left = np.maximum(centres - spacing, lo_a)
        width = np.minimum(centres + spacing, hi_a) - left
        pts = np.minimum(left[:, None] + width[:, None] * window, hi_a).reshape((-1,) + shape)
        stages["refine"] += len(pts)
        spacing = spacing * shrink
        top = _ranked(pts, _values(f, pts), _CENTRES)
        best.append(top[0])

    value = max(v for v, _ in best)
    arg = min(x for v, x in best if v == value)
    return OptResult(arg=arg, value=value,
                     diagnostics={"evaluations": sum(stages.values()),
                                  "stages": stages, "levels": levels})
