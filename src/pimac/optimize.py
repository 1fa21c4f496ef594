"""Deterministic derivative-free optimization.

One solver backs the schemes and bounds: maximization of a vectorised
objective on a 1- or 2-D box, for a batch of instances at once. Each of its
stages is a single call of the objective for the whole batch: a uniform
grid together with each instance's mandatory seed points, then nested grids
around each instance's best points found so far. Each caller passes
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

from .errors import DomainError, NumericError


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
# of TDMA-TIN's 1 025-point grid. With the in-place kernels the figure
# sweep's traced peak allocation is then about 1 MB above what one instance
# at a time needs (1.2 against 0.2 MiB, tracemalloc).
_BLOCK_POINTS = 16_384


def _values(f, pts, feasible=None) -> tuple:
    """One call of ``f`` on the (m, n[, 2]) array ``pts``: an (m, n) array,
    and its largest value. ``-inf`` marks an infeasible point. NaN or
    ``+inf`` raises NumericError naming its point, except in the instances
    that ``feasible`` marks False, whose values are not used."""
    values = np.asarray(f(pts), dtype=float)
    if values.shape != pts.shape[:2]:
        raise DomainError(f"objective gave shape {values.shape} for points of "
                          f"shape {pts.shape}")
    peak = np.maximum.reduce(values, axis=None)
    if not peak < math.inf:  # NaN or +inf
        bad = ~(values < math.inf)
        if feasible is not None:
            bad &= feasible[:, None]
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            x = pts[i, j].tolist()
            raise NumericError(f"objective of instance {i} is not usable at "
                               f"{x if pts.ndim == 2 else tuple(x)!r}: {values[i, j]!r}")
        values = np.where(values < math.inf, values, -math.inf)
        peak = np.maximum.reduce(values, axis=None)
    return values, peak


@functools.lru_cache(maxsize=16)
def _grid(box: tuple, n: int, m: int) -> np.ndarray:
    """The uniform grid on ``box`` (one ``(lo, hi)`` pair per axis), one point
    per row, as a read-only (m, n[, 2]) view for m instances."""
    if len(box) == 1:
        grid = np.linspace(*box[0], n)
    else:
        axes = [np.linspace(a, b, n) for a, b in box]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))
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
    k = min(k, n)  # a row of fewer than k points has only those
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


def _windows(top_p, spacing, lo, hi) -> np.ndarray:
    """The (m, k n[, 2]) points of the windows around the centres ``top_p``
    (m, k[, 2]): plus or minus ``spacing``, cut to ``[lo, hi]``. Each axis
    is ``min(left + width t, hi)`` over the ``_WINDOWS`` points t, and a 2-D
    window their product, written row-major into one C-ordered buffer."""
    left = np.maximum(top_p - spacing, lo)
    width = np.minimum(top_p + spacing, hi) - left
    ax = np.multiply(width[..., None], _WINDOWS[top_p.ndim - 1])
    ax += left[..., None]
    np.minimum(ax, hi[..., None], out=ax)  # (m, k[, 2], n)
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


def maximize_box(f, lo, hi, grid: int, tol: float, seeds=((),)) -> list:
    """Maximize the vectorised ``f`` on a 1- or 2-D box by a grid and nested
    grids, for a batch of instances at once.

    ``seeds`` holds one sequence of seed points per instance, so the number
    of instances m is its length; the default is one instance without
    seeds. With scalar ``lo`` and ``hi`` the box is the interval [lo, hi],
    a point is a float and ``f`` maps an (m, n) array of points, row i for
    instance i, to their (m, n) values. With two-element ``lo`` and ``hi``
    the box is their product, a point is a pair and ``f`` maps an
    (m, n, 2) array to (m, n) values. Every stage is one call of ``f`` for
    the whole batch; instances do not interact.

    The first call evaluates each instance's seeds (each must lie in the
    box) together with a uniform grid of ``grid`` points per axis (at least
    2). An instance with fewer seeds than another has its list padded with
    a grid point, which is not counted. Each refinement level is one more
    call: a grid over plus or minus one spacing of the previous level (cut
    to the box) around each of that level's 3 best distinct points of each
    instance, with 65 points in 1-D and 9 per axis in 2-D, so the spacing
    shrinks 32-fold or 4-fold. Levels repeat until the spacing is below
    ``tol`` (a positive real), so their number is fixed by ``grid`` and
    ``tol`` before the first call. Every evaluated point is a candidate, so
    an instance's value is never below its objective at a seed; ties go to
    the lexicographically smallest point. Windows are built per axis. A
    batch of one is ranked in Python, 2-D stages from their few best
    candidates, and a larger batch in array form, with the same results.
    With no finite value on the grid the search stops before ranking.

    Returns one entry per instance: an OptResult whose argument is a float
    in 1-D and a tuple in 2-D, or None where the instance is infeasible. A
    value of ``-inf`` marks an infeasible point, and an instance is
    infeasible when every one of its seeds and grid points has it; the
    other instances of the batch are not affected. NaN or ``+inf`` at a
    point of an instance that is not infeasible raises NumericError. To
    minimize ``g``, pass ``-g``.

    ``diagnostics`` reports the instance's ``evaluations``, their split by
    ``stages`` (``seeds``, ``grid`` and ``refine``) and the number of
    ``levels``.
    """
    if not (isinstance(grid, (int, np.integer)) and grid >= 2):
        raise DomainError(f"grid must be an integer >= 2, got {grid!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be a positive real, got {tol!r}")
    lo_a, hi_a = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    shape = lo_a.shape
    box = tuple(zip(lo_a.ravel().tolist(), hi_a.ravel().tolist()))
    if shape not in ((), (2,)) or hi_a.shape != shape or not all(
            math.isfinite(a) and math.isfinite(b) and a < b for a, b in box):
        raise DomainError(f"need a 1- or 2-D box with finite lo < hi, got "
                          f"[{lo!r}, {hi!r}]")
    n_seeds = [len(s) for s in seeds]
    m, k_max = len(n_seeds), max(n_seeds, default=0)
    if m == 0:
        raise DomainError("need at least one instance, that is one entry of seeds")
    pts = _grid(box, grid, m)
    if k_max:
        pad = [lo_a.tolist()]  # the first grid point
        padded = np.array([list(s) + pad * (k_max - len(s)) for s in seeds], dtype=float)
        flat = padded.reshape(m * k_max, -1)
        if flat.shape[1] != len(box) or not all(
                a <= min(xs) and max(xs) <= b for (a, b), xs in zip(box, flat.T.tolist())):
            raise DomainError(f"seeds {seeds!r} are not all points of [{lo!r}, {hi!r}]")
        pts = np.concatenate((padded, pts), axis=1)

    per_axis = len(_WINDOWS[len(box)])
    spacing = (hi_a - lo_a) / (grid - 1)
    shrink = 2.0 / (per_axis - 1)
    # Count the levels: the spacing shrinks until below the tolerance.
    step, levels = max((b - a) / (grid - 1) for a, b in box), 0
    while not step < tol:
        step, levels = step * shrink, levels + 1

    # The last stage needs its best point only.
    centres = [_CENTRES] * levels + [1]
    best = [[] for _ in range(m)]  # each instance's (value, point) per stage
    mask = None  # which instances are feasible, once one of them is not
    refine = 0  # refinement evaluations: one count, or one per instance
    for stage, k in enumerate(centres):
        if stage:
            refine = refine + count * per_axis ** len(box)
            pts = _windows(top_p, spacing, lo_a, hi_a)
            spacing = spacing * shrink
        values, peak = _values(f, pts, mask)
        if not stage and not peak > -math.inf:
            return [None] * m  # no instance is feasible: nothing to rank
        if m == 1:  # ranking in Python costs fewer numpy calls than the array form
            top = _ranked_one(pts[0], values[0], k)
            best[0].append(top[0])
            top_p, count = np.array([[x for _, x in top]]), len(top)
        else:
            top_v, top_p, count = _ranked(pts, values, k)
            for b, v, x in zip(best, top_v[:, 0].tolist(), top_p[:, 0].tolist()):
                b.append((v, x if shape == () else tuple(x)))
        if not stage:
            feasible = [b[0][0] > -math.inf for b in best]
            if not all(feasible):
                mask = np.array(feasible)

    refine = refine.tolist() if isinstance(refine, np.ndarray) else [refine] * m
    results = []
    for b, ok, n, r in zip(best, feasible, n_seeds, refine):
        if not ok:
            results.append(None)
            continue
        value = max(v for v, _ in b)
        arg = min(x for v, x in b if v == value)
        stages = {"seeds": n, "grid": grid ** len(box), "refine": r}
        results.append(OptResult(arg=arg, value=value,
                                 diagnostics={"evaluations": sum(stages.values()),
                                              "stages": stages, "levels": levels}))
    return results
