"""Deterministic derivative-free search for the two quantities that need one.

TDMA-TIN's time share and the genie bound's correlations are each found by
``maximize_box``: the maximum of a vectorised objective on ``[0, 1]`` or
``[0, 1]^2``, for a batch of instances at once. Each of its stages is a
single call of the objective for the whole batch: a uniform grid together
with each instance's seed points, then nested grids around each instance's
best points found so far. Each search passes its constant schedule (grid
points per axis and the tolerance that fixes the number of nested levels)
and its seeds. The returned value can never be worse than the objective at
any seed. Tie-breaks are lexicographic on the argument, which makes results
reproducible across runs and platforms.
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

# Cap on the points of one objective call when callers cut a batch of
# instances into blocks: 15 instances of the genie bound's 33 x 33 grid or
# of TDMA-TIN's 1 025-point grid. The work arrays of both searches, sized
# for such a block (_Workspace), are three roles: the genie kernel's 6
# float rows (786 432 bytes) and 2 mask rows (32 768), and TDMA-TIN's 8
# float rows (1 048 576), 1 867 776 bytes (1.78 MiB) in all per thread that
# has run a batch. A warm figure sweep then allocates at most 0.45 MiB more
# (tracemalloc peak), against 1.21 MiB when every block allocated its own
# arrays; the same rows one instance at a time take 0.12 MiB.
_BLOCK_POINTS = 16_384


class _Workspace(threading.local):
    """The batched searches' work arrays, one set per thread, kept from one
    block and one call to the next, so that a sweep does not free and
    re-fault about 1 MB per block.

    Every kernel takes its arrays here, one block per role: a role names
    the work array of one kernel. Its buffer is flat and sized for a full
    block, an (..., m, n) array with ``m n = _BLOCK_POINTS`` (it grows if a
    call needs more), and ``take`` returns a C-ordered view of its leading
    elements, so a shorter block or a refinement stage uses its front.
    Every kernel writes a view before reading it, and no view outlives the
    objective call that took it: the searches return Python floats. For
    one instance (``m = 1``) ``take`` returns a new array instead, the
    kernels' only rule that depends on the batch size: such arrays are
    small enough for the allocator to reuse without page faults, and a
    kernel may return one to a caller that keeps it (``genie_bound_batch``).
    """

    def __init__(self):
        self.buffers = {}

    def take(self, role: str, shape: tuple, dtype=float) -> np.ndarray:
        if shape[-2] == 1:
            return np.empty(shape, dtype)
        size = math.prod(shape)
        buf = self.buffers.get(role)
        if buf is None or buf.size < size:
            full = _BLOCK_POINTS * math.prod(shape[:-2])
            buf = self.buffers[role] = np.empty(max(size, full), dtype)
        return buf[:size].reshape(shape)


_WORK = _Workspace()


def _values(f, pts) -> tuple:
    """One call of ``f`` on the (m, n[, 2]) array ``pts``: an (m, n) array,
    and its largest value. ``-inf`` marks an infeasible point; NaN or
    ``+inf`` raises NumericError naming its point."""
    values = f(pts)
    peak = np.maximum.reduce(values, axis=None)
    if not peak < math.inf:  # NaN or +inf
        i, j = np.argwhere(~(values < math.inf))[0].tolist()
        x = pts[i, j].tolist()
        raise NumericError(f"objective of instance {i} is not usable at "
                           f"{x if pts.ndim == 2 else tuple(x)!r}: {values[i, j]!r}")
    return values, peak


@functools.lru_cache(maxsize=16)
def _grid(dim: int, n: int, m: int) -> np.ndarray:
    """The uniform grid of n points per axis on ``[0, 1]^dim``, one point
    per row, as a read-only (m, n[, 2]) view for m instances."""
    grid = np.linspace(0.0, 1.0, n)
    if dim == 2:
        grid = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    return np.broadcast_to(grid, (m,) + grid.shape)


def _ranked_one(pts, values, k) -> list:
    """``(value, point)`` of the k best distinct points of one instance, ties
    to the lexicographically smallest; a point is a float in 1-D and a tuple
    in 2-D. ``pts`` is (n[, 2]) and ``values`` (n,). 2-D stages sort few
    candidates by the rule of ``_ranked``; 1-D stages (sorted runs, cheap to
    sort) and those where the rule fails walk their sorted points."""
    n, c = len(values), 3 * k
    p, v = pts, values
    if pts.ndim == 2 and n > c:
        part = values.argpartition(n - c - 1)[n - c - 1:]  # the 3k best, after the cut
        top: list = []
        for neg, x in sorted(zip((-values[part[1:]]).tolist(), map(tuple, pts[part[1:]].tolist()))):
            if not top or x != top[-1][1]:
                top.append((-neg, x))
                if len(top) == k:
                    break
        cut = values[part[0]]  # the best value left out
        if len(top) == k and top[-1][0] > cut:
            return top
        if len(top) == k:  # a tie at the cut: walk every point at least as good
            p, v = pts[values >= cut], values[values >= cut]
    top = []
    for i in np.lexsort(((p,) if p.ndim == 1 else (p[:, 1], p[:, 0])) + (-v,)):
        x = float(p[i]) if p.ndim == 1 else tuple(p[i].tolist())
        if not top or x != top[-1][1]:
            top.append((float(v[i]), x))
            if len(top) == k:
                break
    return top


def _first_distinct(v, key, k):
    """The first k distinct points of each row of ``v`` and ``key`` (m, c),
    sorted best first, so that equal points are adjacent: their values and
    keys (m, k), and the number of them in each row (m,). A row with fewer
    than k is padded with repeats of them. Every row is read through a
    stable ``argsort`` of its duplicate flags: windows overlap, so most
    rows of a refinement stage repeat a point among their first k."""
    dup = np.zeros(v.shape, dtype=bool)  # the same point as the entry before
    np.equal(key[:, 1:], key[:, :-1], out=dup[:, 1:])
    rows = np.arange(len(v))[:, None]
    pick = dup.argsort(axis=1, kind="stable")[:, :k]  # the distinct entries first
    count = np.minimum(v.shape[1] - dup.sum(axis=1), k)
    return v[rows, pick], key[rows, pick], count


def _ranked(pts, values, k):
    """Each row's k best distinct points, ties to the lexicographically
    smallest, for m instances at once: their values (m, k) and points
    (m, k[, 2]) of the (m, n[, 2]) ``pts``, and their number in each row
    (m,); a row with fewer than k is padded with repeats of them.

    Points are ranked by one key each: the point in 1-D and ``p0 + i p1``
    in 2-D, which numpy orders lexicographically. With k = 1 (the last
    stage) only the best value is needed, and the smallest key that has it.
    Otherwise the 3k first points of each row's order are read: they hold
    k distinct points unless one point repeats more than 3 times (3 windows
    overlap it). In 1-D, where the grid and each window are sorted runs,
    cheap to sort, rows are sorted whole; in 2-D only the 3k best values of
    a row are sorted, which is exact where the best value left out is below
    the k-th distinct one. The one fallback: a row where either shortcut
    fails is sorted and read whole, once.
    """
    (m, n), whole = values.shape, pts.ndim == 2
    key = pts if whole else pts.view(complex)[..., 0]
    as_point = (lambda z: z) if whole else (lambda z: z.view(float).reshape(z.shape + (2,)))
    if k == 1:
        v = np.maximum.reduce(values, axis=1, keepdims=True)
        return v, as_point(np.minimum.reduce(np.where(values == v, key, np.inf), axis=1,
                                             keepdims=True)), np.ones(m, dtype=int)
    rows, c = np.arange(m)[:, None], 3 * k
    cand_v, cand_key, cut = values, key, None
    if not whole and n > c:
        part = values.argpartition(n - c - 1, axis=1)[:, n - c - 1:]
        cut = values[rows, part[:, :1]]  # the best value left out
        cand_v, cand_key = values[rows, part[:, 1:]], key[rows, part[:, 1:]]
    order = np.lexsort((cand_key, -cand_v), axis=-1)[:, :c]
    top_v, top_key, count = _first_distinct(cand_v[rows, order], cand_key[rows, order], k)
    redo = count < k
    if cut is not None:
        redo |= top_v[:, k - 1] == cut[:, 0]
    i = np.flatnonzero(redo)
    if i.size:
        order = np.lexsort((key[i], -values[i]), axis=-1)
        r = rows[:len(i)]
        top_v[i], top_key[i], count[i] = _first_distinct(values[i][r, order],
                                                         key[i][r, order], k)
    return top_v, as_point(top_key), count


def _windows(top_p, spacing) -> np.ndarray:
    """The (m, k n[, 2]) points of the windows around the centres ``top_p``
    (m, k[, 2]): plus or minus ``spacing``, cut to ``[0, 1]``. Each axis is
    ``left + width t`` over the ``_WINDOWS`` points t, and a 2-D window
    their product, written row-major into one C-ordered buffer.

    No point exceeds 1, so the axes need no upper clip. With
    ``left = max(c - s, 0)``, ``r = min(c + s, 1)``, ``width`` the rounded
    ``r - left`` and t <= 1, the rounded ``width t`` is at most ``width``.
    Where ``left >= r/2`` the subtraction is exact (Sterbenz), so
    ``left + width = r <= 1``. Otherwise ``left < 1/2``, ``width`` exceeds
    ``r - left`` by at most half an ulp of a number below 1, and the exact
    sum is below ``1 + 2^-53``, which rounds to at most 1."""
    left = np.maximum(top_p - spacing, 0.0)
    width = np.minimum(top_p + spacing, 1.0) - left
    ax = np.multiply(width[..., None], _WINDOWS[top_p.ndim - 1])
    ax += left[..., None]  # (m, k[, 2], n)
    if top_p.ndim == 2:
        return ax.reshape(len(ax), -1)
    m, k, _, n = ax.shape
    pts = np.empty((m, k, n, n, 2))
    pts[..., 0] = ax[:, :, 0, :, None]
    pts[..., 1] = ax[:, :, 1, None, :]
    return pts.reshape(m, -1, 2)


def _blocks(rows, points: int) -> list:
    """``rows`` cut into consecutive blocks of at most ``_BLOCK_POINTS //
    points`` rows (at least one), for objectives of ``points`` per row."""
    step = max(1, _BLOCK_POINTS // points)
    return [rows[i:i + step] for i in range(0, len(rows), step)]


def _columns(table, n_values: int) -> list:
    """An objective's per-instance constants, from one tuple per instance
    in ``table``: its first ``n_values`` entries as (m, 1) float arrays and
    the rest, flags, as (m, 1) masks, or None where no instance sets the
    flag, so that the objective skips it. A batch of one keeps Python
    floats and bools, which broadcast as (1, 1) arrays do, at a lower cost
    per numpy call."""
    if len(table) == 1:
        return [*table[0][:n_values], *(flag or None for flag in table[0][n_values:])]
    values = np.array([r[:n_values] for r in table]).T[:, :, None]
    flags = zip(*(r[n_values:] for r in table))
    return [*values, *(np.array(f)[:, None] if any(f) else None for f in flags)]


def maximize_box(f, dim: int, grid: int, tol: float, seeds=((),)) -> list:
    """Maximize the vectorised ``f`` on the unit cube ``[0, 1]^dim`` by a
    grid and nested grids, for a batch of instances at once: TDMA-TIN's
    time share on ``[0, 1]`` (``dim`` 1, ``grid`` 1 025, ``tol`` 1e-7, its
    shares as seeds) and the genie bound's correlations on ``[0, 1]^2``
    (2, 33 and 1e-6, no seeds).

    ``seeds`` holds one sequence of seed points per instance, so the number
    m of instances is its length. A point is a float in 1-D and a pair in
    2-D, and ``f`` maps an (m, n) or (m, n, 2) array of points, row i for
    instance i, to their (m, n) values. Every stage is one call of ``f``
    for the whole batch; instances do not interact. The arguments are the
    two searches' constants and seeds, so none of them is checked: ``dim``
    is 1 or 2, ``grid`` is an integer of at least 2, ``tol`` is positive
    and every seed is a point of the cube.

    The first call evaluates each instance's seeds together with a uniform
    grid of ``grid`` points per axis. An instance with fewer seeds than
    another has its list padded with a grid point, which is not counted.
    Each refinement level is one more call: a grid over plus or minus one
    spacing of the previous level (cut to the cube) around each of that
    level's 3 best distinct points of each instance, with 65 points in 1-D
    and 9 per axis in 2-D, so the spacing shrinks 32-fold or 4-fold. Levels
    repeat until the spacing is below ``tol``, so their number is fixed
    before the first call. Every evaluated point is a candidate, so an
    instance's value is never below its objective at a seed; ties go to
    the lexicographically smallest point. Windows are built per axis. A
    batch of one is ranked in Python, 2-D stages from their few best
    candidates, and a larger batch in array form, with the same results.
    With no finite value on the grid the search stops before ranking.

    Returns one entry per instance: an OptResult whose argument is a float
    in 1-D and a tuple in 2-D, or None where the instance is infeasible. A
    value of ``-inf`` marks an infeasible point, and an instance is
    infeasible when every one of its seeds and grid points has it; the
    other instances of the batch are not affected. NaN or ``+inf`` at any
    point raises NumericError. To minimize ``g``, pass ``-g``.

    ``diagnostics`` reports the instance's ``evaluations``, their split by
    ``stages`` (``seeds``, ``grid`` and ``refine``) and the number of
    ``levels``.
    """
    n_seeds = [len(s) for s in seeds]
    m, k_max = len(n_seeds), max(n_seeds)
    pts = _grid(dim, grid, m)
    if k_max:
        pad = [pts[0, 0].tolist()]  # the first grid point
        padded = np.array([list(s) + pad * (k_max - len(s)) for s in seeds], dtype=float)
        pts = np.concatenate((padded, pts), axis=1)

    per_axis = len(_WINDOWS[dim])
    spacing = 1 / (grid - 1)
    shrink = 2.0 / (per_axis - 1)
    # Count the levels: the spacing shrinks until below the tolerance.
    step, levels = spacing, 0
    while not step < tol:
        step, levels = step * shrink, levels + 1

    # The last stage needs its best point only.
    centres = [_CENTRES] * levels + [1]
    best = [[] for _ in range(m)]  # each instance's (value, point) per stage
    refine = 0  # refinement evaluations: one count, or one per instance
    for stage, k in enumerate(centres):
        if stage:
            refine = refine + count * per_axis ** dim
            pts = _windows(top_p, spacing)
            spacing = spacing * shrink
        values, peak = _values(f, pts)
        if not stage and not peak > -math.inf:
            return [None] * m  # no instance is feasible: nothing to rank
        if m == 1:  # ranking in Python costs fewer numpy calls than the array form
            top = _ranked_one(pts[0], values[0], k)
            best[0].append(top[0])
            top_p, count = np.array([[x for _, x in top]]), len(top)
        else:
            top_v, top_p, count = _ranked(pts, values, k)
            for b, v, x in zip(best, top_v[:, 0].tolist(), top_p[:, 0].tolist()):
                b.append((v, x if dim == 1 else tuple(x)))

    refine = refine.tolist() if isinstance(refine, np.ndarray) else [refine] * m
    results = []
    for b, n, r in zip(best, n_seeds, refine):
        if not b[0][0] > -math.inf:  # no finite seed or grid value
            results.append(None)
            continue
        value = max(v for v, _ in b)
        arg = min(x for v, x in b if v == value)
        stages = {"seeds": n, "grid": grid ** dim, "refine": r}
        results.append(OptResult(arg=arg, value=value,
                                 diagnostics={"evaluations": sum(stages.values()),
                                              "stages": stages, "levels": levels}))
    return results
