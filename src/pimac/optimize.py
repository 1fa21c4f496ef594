"""Deterministic derivative-free search for the two quantities that need one.

TDMA-TIN's time share and the genie bound's correlations are each found by
``maximize_box``: the maximum of a vectorised objective on ``[0, 1]`` or
``[0, 1]^2``, for a batch of instances at once. Each of its stages is a
single call of the objective for the whole batch: a uniform grid, together
with each instance's seed points in 1-D, then nested grids around each
instance's best points found so far. Each search passes its constant
schedule (grid points per axis and the tolerance that fixes the number of
nested levels), and the 1-D search its seeds. The returned value can never
be worse than the objective at any seed. Tie-breaks are lexicographic on
the argument, which makes results reproducible across runs and platforms.
"""

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericError


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
# _WINDOWS[d] is that grid's points on the unit interval, per axis: a 2-D
# window is the product of two such axes (see _windows).
_WINDOWS = {1: np.linspace(0.0, 1.0, 65), 2: np.linspace(0.0, 1.0, 9)}
_CENTRES = 3

# Cap on the points of one objective call. Callers cut a batch of
# instances into blocks whose refinement stages are one call each
# (_blocks): 84 instances of TDMA-TIN's three 65-point windows or 67 of the
# genie bound's three 9 x 9 windows. TDMA-TIN's grid stage, 1 027 points
# per instance, is evaluated in calls of at most this many points
# (_values), and the genie bound's, 81 points per instance, is smaller than
# its windows, so the kernels' work arrays (_Workspace) stay at one block's
# size: 2.97 MiB per thread that has run a batch of the figure sweep.
_BLOCK_POINTS = 16_384
_BLOCK_ROWS = {dim: _BLOCK_POINTS // (_CENTRES * len(w) ** dim) for dim, w in _WINDOWS.items()}


class _Workspace(threading.local):
    """The batched searches' work arrays, one set per thread, kept from one
    block and one call to the next, so that a sweep does not free and
    re-fault about 3 MB per block.

    A role names one use: the work block of the objective's kernel (one
    kernel runs at a time), and a stage's points (``_points``), values
    (``_values``) and partition copy (``_ranked``). Its buffer is flat and
    as large as the largest call it has served, and ``take`` returns a
    C-ordered view of its leading elements, so a shorter block or a
    refinement stage uses its front. Every view is written before it is
    read, and none outlives the search that took it: the searches return
    Python floats. For one instance (``m = 1``) ``take`` returns a new
    array instead, and a search leaves its stages' points for numpy to
    allocate: such arrays are small enough for the allocator to reuse
    without page faults, and a kernel may return one to a caller that
    keeps it (``genie_bound_batch``).
    """

    def __init__(self):
        self.buffers = {}

    def take(self, role: str, shape: tuple) -> np.ndarray:
        if shape[-2] == 1:
            return np.empty(shape)
        size = math.prod(shape)
        buf = self.buffers.get(role)
        if buf is None or buf.size < size:
            buf = self.buffers[role] = np.empty(size)
        return buf[:size].reshape(shape)


_WORK = _Workspace()


def _values(f, pts, m: int, step: int) -> tuple:
    """``f`` at the points ``pts`` of a stage of m instances: an (m, n) array
    of values, and its largest value.

    In 1-D ``pts`` is an (m, n) array, the seeds and grid or the windows,
    and ``f`` returns (m, n) values. A 1-D stage of more than ``step``
    points per instance (the grid stage of a full block) is evaluated in
    calls of at most that many, cut along axis 1, into one workspace array.
    A 2-D stage has no seeds and is one call: ``pts`` is a pair (x, y) of
    coordinate arrays of four axes, instances (m or 1) first, which
    broadcast against each other: the tuple of a batch's axes, or one
    instance's explicit points as one (2, 1, n, 1, 1) array
    (``maximize_box``). ``f`` returns their values in the points' broadcast
    shape, read row-major per instance, with an instance axis of m, or of 1
    where they do not depend on the instance, which is broadcast to m
    (``_per_instance``; any other length raises ValueError). ``-inf`` marks
    an infeasible point; NaN or ``+inf`` raises NumericError naming its
    point."""
    if not (isinstance(pts, np.ndarray) and pts.ndim == 2):
        values = _per_instance(f(pts), m)
    elif pts.shape[1] <= step:
        values = f(pts)
    else:
        values = _WORK.take("values", pts.shape)
        for j in range(0, pts.shape[1], step):
            values[:, j:j + step] = f(pts[:, j:j + step])
    peak = np.maximum.reduce(values, axis=None)
    if not peak < math.inf:  # NaN or +inf
        i, j = np.argwhere(~(values < math.inf))[0].tolist()
        x = _keys(pts, np.array([i * values.shape[1] + j]), values.shape[1])[1][0].item()
        raise NumericError(f"objective of instance {i} is not usable at "
                           f"{(x.real, x.imag) if isinstance(x, complex) else x!r}: "
                           f"{values[i, j]!r}")
    return values, peak


def _per_instance(values, m: int) -> np.ndarray:
    """An objective's values as m rows, one per instance, read row-major:
    values with an instance axis of 1 are the same for every instance."""
    values = values.reshape(len(values), -1)
    return values if len(values) == m else np.broadcast_to(values, (m, values.shape[1]))


@functools.lru_cache(maxsize=16)
def _grid(dim: int, n: int, m: int) -> np.ndarray:
    """The uniform grid of n points per axis on ``[0, 1]^dim``, row-major,
    as read-only explicit points for m instances (``_values``): an (m, n)
    view in 1-D, and a (2, m, n^2, 1, 1) view in 2-D."""
    grid = np.linspace(0.0, 1.0, n)
    if dim == 1:
        return np.broadcast_to(grid, (m, n))
    grid = np.stack(np.meshgrid(grid, grid, indexing="ij")).reshape(2, 1, -1, 1, 1)
    return np.broadcast_to(grid, (2, m) + grid.shape[2:])


@functools.lru_cache(maxsize=4)
def _grid_axes(n: int) -> tuple:
    """``_grid(2, n, m)`` as a batch's axes: n rows of n points each, the
    read-only pair x (1, n, 1, 1) and y (1, 1, 1, n)."""
    axis = np.linspace(0.0, 1.0, n)
    axis.flags.writeable = False
    return axis.reshape(1, n, 1, 1), axis.reshape(1, 1, 1, n)


def _ranked_one(pts, values, k) -> list:
    """``(value, point)`` of the k best distinct points of one instance, ties
    to the lexicographically smallest, padded with repeats of the last one
    where there are fewer; a point is a float in 1-D and a tuple in 2-D.
    ``pts`` is (n[, 2]) and ``values`` (n,). A 2-D stage sorts its
    3k best candidates, which is exact where the best value left out (the
    cut) is below the k-th distinct one. Where it ties the cut, the stage
    walks every point at least as good as the cut in sorted order, and on a
    plateau, where the best candidate ties the cut, it does so without the
    sort. 1-D stages (sorted runs, cheap to sort) and those with fewer than
    k distinct points at or above the cut walk all their points."""
    n, c = len(values), 3 * k
    p, v = pts, values
    if pts.ndim == 2 and n > c:
        part = values.argpartition(n - c - 1)[n - c - 1:]  # the 3k best, after the cut
        cut = values[part[0]]  # the best value left out
        neg = (-values[part[1:]]).tolist()
        if -min(neg) > cut:
            top: list = []
            for neg, x in sorted(zip(neg, map(tuple, pts[part[1:]].tolist()))):
                if not top or x != top[-1][1]:
                    top.append((-neg, x))
                    if len(top) == k:
                        break
            if len(top) == k and top[-1][0] > cut:
                return top
        p, v = pts[values >= cut], values[values >= cut]
    while True:  # the points at or above the cut, then all points if needed
        top = []
        for i in np.lexsort(((p,) if p.ndim == 1 else (p[:, 1], p[:, 0])) + (-v,)):
            x = float(p[i]) if p.ndim == 1 else tuple(p[i].tolist())
            if not top or x != top[-1][1]:
                top.append((float(v[i]), x))
                if len(top) == k:
                    return top
        if len(v) == n:
            return top + top[-1:] * (k - len(top))
        p, v = pts, values


def _keys(pts, flat, n: int) -> tuple:
    """The row and the ranking key of each entry ``flat`` of a stage's
    (m, n) values, whose points are ``pts`` (``_values``): the point in 1-D
    and ``p0 + i p1`` in 2-D, which numpy orders lexicographically.

    In 2-D each coordinate array is C-ordered and read at its flat index.
    An entry is ``((r w1 + w) x2 + i) y3 + j`` for its instance r, its
    window w (or explicit point, or grid row) on axis 1, and its indices i
    and j on the x (m, w1, x2, 1) and y (m, w1, 1, y3) axes of its window.
    An x shared by the instances (length 1 on axis 0) is read at that index
    modulo its size, and a y of one row (the grid's) at j."""
    if isinstance(pts, np.ndarray) and pts.ndim == 2:
        r, j = np.divmod(flat, n)
        return r, pts[r, j]
    x, y = pts[0], pts[1]
    cols = y.shape[3]
    ix = flat // cols
    if len(x) == 1:
        ix %= x.size
    iy = flat % cols
    if y.size > cols:
        iy += flat // (x.shape[2] * cols) * cols
    z = np.empty(len(flat), complex)
    z.real = x.reshape(-1)[ix]
    z.imag = y.reshape(-1)[iy]
    return flat // n, z


def _ranked(pts, values, k):
    """Each row's k best distinct points, ties to the lexicographically
    smallest, for m instances at once: their values (m, k) and points
    (m, k[, 2]), for the (m, n) ``values`` of a stage whose points are
    ``pts`` (see ``_values``); a row with fewer than k is padded with
    repeats of its last one.

    Points are ranked by one key each (``_keys``). Each row's 3k-th best
    value is found by a values-only partition, in a workspace copy of
    ``values``, and every point at least that good is a candidate: the
    candidates come first in the row's order, ties included, and hold k
    distinct points unless one point repeats more than 3 times (3 windows
    overlap it). The candidates of all rows are sorted once, as one flat
    array, by (row, -value, key), and each row's first k distinct ones are
    read. The one fallback: a row with fewer than k distinct candidates is
    ranked again from all its points.
    """
    m, n = values.shape
    within = np.ones((m, n), dtype=bool)
    if n > 3 * k:
        part = _WORK.take("partition", (m, n))
        np.copyto(part, values)
        part.partition(n - 3 * k, axis=1)
        np.greater_equal(values, part[:, n - 3 * k, None], out=within)
    while True:
        flat = np.flatnonzero(within)
        r, z = _keys(pts, flat, n)
        v = values.reshape(-1)[flat]
        order = np.lexsort((z, -v, r))
        r, v, z = r[order], v[order], z[order]
        # The distinct entries, row by row, best first: not the entry before.
        first = np.flatnonzero(np.concatenate(([True], (z[1:] != z[:-1]) | (r[1:] != r[:-1]))))
        found = np.bincount(r[first], minlength=m)
        # Each row's first k of them, padded with repeats of its last one.
        pick = first[(np.cumsum(found) - found)[:, None]
                     + np.minimum(np.arange(k), found[:, None] - 1)]
        redo = found < k
        if not redo.any() or within[redo].all():
            z = z[pick]
            return v[pick], z if z.dtype != complex else z.view(float).reshape(m, k, 2)
        within[redo] = True


def _windows(top_p, spacing, out=None):
    """The windows around the centres ``top_p`` (m, k[, 2]): plus or minus
    ``spacing``, cut to ``[0, 1]``. Each axis is ``left + width t`` over the
    ``_WINDOWS`` points t, written into ``out`` (an ([2, ]m, k, n) array) or
    a new array where it is None. In 1-D they are the (m, k n) points. In
    2-D, with ``out``, they are a batch's pair of axes, x (m, k, n, 1) and
    y (m, k, 1, n); without, the explicit points of their products,
    row-major, as one new (2, m, k n n, 1, 1) array (``_values``).

    No point exceeds 1, so the axes need no upper clip. With
    ``left = max(c - s, 0)``, ``r = min(c + s, 1)``, ``width`` the rounded
    ``r - left`` and t <= 1, the rounded ``width t`` is at most ``width``.
    Where ``left >= r/2`` the subtraction is exact (Sterbenz), so
    ``left + width = r <= 1``. Otherwise ``left < 1/2``, ``width`` exceeds
    ``r - left`` by at most half an ulp of a number below 1, and the exact
    sum is below ``1 + 2^-53``, which rounds to at most 1."""
    centres = top_p if top_p.ndim == 2 else top_p.transpose(2, 0, 1)
    left = np.maximum(centres - spacing, 0.0)
    width = np.minimum(centres + spacing, 1.0) - left
    ax = np.multiply(width[..., None], _WINDOWS[top_p.ndim - 1], out=out)
    ax += left[..., None]  # ([2, ]m, k, n)
    if top_p.ndim == 2:
        return ax.reshape(len(ax), -1)
    if out is not None:
        return ax[0, ..., None], ax[1, :, :, None, :]
    _, m, k, n = ax.shape
    pts = np.empty((2, m, k, n, n))
    pts[0] = ax[0, ..., None]
    pts[1] = ax[1, :, :, None, :]
    return pts.reshape(2, m, -1, 1, 1)


def _points(shape: tuple) -> np.ndarray:
    """A workspace array of ``shape`` for the points of a stage of m > 1
    instances. A batch of one passes numpy ``out=None`` instead, which
    allocates at less cost per call."""
    return _WORK.take("points", (shape[0], math.prod(shape[1:]))).reshape(shape)


def _blocks(rows, dim: int) -> list:
    """``rows`` cut into consecutive blocks whose refinement stages, of 3
    windows per instance, are one objective call of at most
    ``_BLOCK_POINTS`` points: 84 rows in 1-D and 67 in 2-D."""
    step = _BLOCK_ROWS[dim]
    return [rows[i:i + step] for i in range(0, len(rows), step)]


def maximize_box(f, dim: int, grid: int, tol: float, seeds=((),)) -> list:
    """Maximize the vectorised ``f`` on the unit cube ``[0, 1]^dim`` by a
    grid and nested grids, for a batch of instances at once: TDMA-TIN's
    time share on ``[0, 1]`` (``dim`` 1, ``grid`` 1 025, ``tol`` 1e-7, its
    shares as seeds) and the genie bound's correlations on ``[0, 1]^2``
    (2, 9 and 1e-6, no seeds).

    ``seeds`` holds one sequence of seed points per instance, so the number
    m of instances is its length. Seeds are 1-D only: a seed is a float,
    and a 2-D search passes an empty sequence per instance. In 1-D ``f``
    maps an (m, n) array of points, row i for instance i, to their (m, n)
    values. In 2-D its one argument is a pair (x, y) of coordinate arrays
    of four axes, instances first, which broadcast against each other, and
    it returns the values at the points of their product, read row-major
    per instance, with an instance axis of m (or of 1 for values that do
    not depend on the instance; ``_values``). A batch passes axes: its grid
    stage as the grid's rows x (1, grid, 1, 1) against its columns
    y (1, 1, 1, grid), shared by the instances, and each refinement stage
    as 3 windows per instance, x (m, 3, 9, 1) against y (m, 3, 1, 9). A
    batch of one, whose stages are bound by numpy's cost per call, passes
    its explicit points, as the columns x and y of one (2, 1, n, 1, 1)
    array. Each point's value is its own. Every stage is one call of ``f``
    for the whole batch (see below for large 1-D stages); instances do not
    interact. The arguments are the two searches' constants and seeds, so
    none of them is checked: ``dim`` is 1 or 2, ``grid`` is an integer of
    at least 2, ``tol`` is positive and every seed is a point of
    ``[0, 1]``.

    The first stage evaluates each instance's seeds together with a uniform
    grid of ``grid`` points per axis. An instance with fewer seeds than
    another has its list padded with the grid point 0.0, which is not
    counted. Each refinement level is one more call: a grid over plus or
    minus one spacing of the previous level (cut to the cube) around each of
    that level's 3 best distinct points of each instance (its last one
    repeated where it has fewer), with 65 points in 1-D and 9 per axis in
    2-D, so the spacing shrinks 32-fold or 4-fold. Levels repeat until the
    spacing is below ``tol``, so their number is fixed before the first
    call. Every evaluated point is a candidate, so an instance's value is
    never below its objective at a seed; ties go to the lexicographically
    smallest point. Windows are built per axis. A 1-D stage of more than
    ``_BLOCK_POINTS`` points is evaluated in several calls of ``f`` of at
    most that many, each on consecutive points of all instances
    (``_values``), which gives the same values as one call, since ``f``
    treats every point on its own. A batch of one is ranked in Python,
    2-D stages from their few best candidates, and a larger batch in array
    form (``_ranked``, which reads each candidate's coordinates from the
    axes by index), with the same results; the larger batch keeps its
    windows' axes and its 1-D seeded points in workspace arrays, and its
    stage bests as (m, stages) arrays, ranked once at the end. With no
    finite value on the grid the search stops before ranking.

    Returns one entry per instance: an OptResult whose argument is a float
    in 1-D and a tuple in 2-D, or None where the instance is infeasible. A
    value of ``-inf`` marks an infeasible point, and an instance is
    infeasible when every one of its seeds and grid points has it; the
    other instances of the batch are not affected. NaN or ``+inf`` at any
    point raises NumericError. To minimize ``g``, pass ``-g``.

    ``diagnostics`` reports the instance's ``evaluations``, their split by
    ``stages`` (``seeds``, ``grid`` and ``refine``, which is ``levels``
    times 3 windows of ``65`` or ``9 x 9`` points) and the number of
    ``levels``.
    """
    n_seeds = [len(s) for s in seeds]
    m, k_max = len(n_seeds), max(n_seeds)
    if dim == 2:  # a batch's grid axes, or one instance's explicit grid
        pts = _grid_axes(grid) if m > 1 else _grid(2, grid, 1)
    elif k_max:  # the seeds, padded with the first grid point 0.0, then the grid
        padded = [list(s) + [0.0] * (k_max - len(s)) for s in seeds]
        pts = np.concatenate((padded, _grid(1, grid, m)), axis=1,
                             out=None if m == 1 else _points((m, k_max + grid)))
    else:
        pts = _grid(1, grid, m)

    per_axis = len(_WINDOWS[dim])
    # The grid's spacing, then each level's: it shrinks until below tol, and
    # each level's windows span plus or minus the spacing before it.
    spacings = [1 / (grid - 1)]
    while not spacings[-1] < tol:
        spacings.append(spacings[-1] * (2.0 / (per_axis - 1)))
    levels = len(spacings) - 1

    step = max(1, _BLOCK_POINTS // m)  # points per instance in one call of f
    # The last stage needs its best point only.
    centres = [_CENTRES] * levels + [1]
    # Each stage's best value and point: in Python for a batch of one, as
    # (m, stages[, 2]) arrays otherwise.
    best = []
    if m > 1:
        best_v, best_p = np.empty((m, len(centres))), np.empty((m, len(centres), 2)[:dim + 1])
    # The windows of every refinement stage, written into one work array
    # (the grid stage's points, which it may overlap, are ranked by then).
    out = None if m == 1 else _points((2,)[:dim - 1] + (m, _CENTRES, per_axis))
    for stage, k in enumerate(centres):
        if stage:
            pts = _windows(top_p, spacings[stage - 1], out)
        values, peak = _values(f, pts, m, step)
        if not stage and not peak > -math.inf:
            return [None] * m  # no instance is feasible: nothing to rank
        if m == 1:  # ranking in Python costs fewer numpy calls than the array form
            top = _ranked_one(pts[0] if dim == 1 else pts[:, 0, :, 0, 0].T, values[0], k)
            best.append(top[0])
            top_p = np.array([[x for _, x in top]])
        else:
            top_v, top_p = _ranked(pts, values, k)
            best_v[:, stage], best_p[:, stage] = top_v[:, 0], top_p[:, 0]

    if m == 1:
        value = max(v for v, _ in best)
        found = [(best[0][0], value, min(x for v, x in best if v == value))]
    else:  # the best stage of each instance, ranked as a stage of its own
        pts = best_p if dim == 1 else best_p.transpose(2, 0, 1)[..., None, None]
        value, arg = (a[:, 0].tolist() for a in _ranked(pts, best_v, 1))
        found = zip(best_v[:, 0].tolist(), value, map(tuple, arg) if dim > 1 else arg)
    refine = levels * _CENTRES * per_axis ** dim
    # None where an instance has no finite seed or grid value
    return [OptResult(arg=arg, value=value, diagnostics={
                "evaluations": n + grid ** dim + refine,
                "stages": {"seeds": n, "grid": grid ** dim, "refine": refine}, "levels": levels})
            if grid_v > -math.inf else None for (grid_v, value, arg), n in zip(found, n_seeds)]
