import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimac import NumericError, PimacParams
from pimac.bounds import _genie_coeffs, _genie_sum
from pimac.optimize import _grid, _grid_axes, _ranked, _ranked_one, _windows, maximize_box
from pimac.schemes import _tdma_coeffs, _tdma_parts

from _support import KERNEL_ROWS, WIDE_GAIN, WIDE_POWER, figure3_params, same_bits
from oracle_tools import dense_tdma_objective, ranked_ref, windows_ref


def test_scalar_quadratic_argument_within_tolerance():
    (res,) = maximize_box(lambda x: -(x - 0.3) ** 2, 1, 65, 1e-6)
    assert abs(res.arg - 0.3) <= 1e-6
    assert res.diagnostics["evaluations"] > 65


def test_scalar_boundary_maximum_with_seed():
    (res,) = maximize_box(lambda x: x, 1, 8, 1e-6, seeds=[(1.0,)])
    assert res.arg == 1.0
    assert res.value == 1.0


def test_scalar_interior_peak_at_unit_gain():
    # Dense-grid oracle: the time-share objective at the unit-gain sweep
    # point peaks well inside the interval, close to the left edge.
    params = figure3_params(1.0)
    grid, values = dense_tdma_objective(params, 400_001)
    oracle_arg = float(grid[int(np.argmax(values))])
    oracle_value = float(np.max(values))
    assert abs(oracle_value - 1.9998298574551758) <= 1e-11  # frozen from oracle

    c = _tdma_coeffs([params])
    (res,) = maximize_box(lambda a: np.add(*_tdma_parts(c, a)), 1, 1025, 1e-6)
    assert res.value >= oracle_value - 1e-12
    assert abs(res.value - oracle_value) <= 1e-9
    assert abs(res.arg - oracle_arg) <= 1e-3
    assert 0.0 < res.arg < 0.1


def test_scalar_seed_dominance_is_exact():
    def jagged(x):
        return np.sin(37.0 * x) - 0.2 * x

    seeds = (0.17, 0.5, 0.93)
    (res,) = maximize_box(jagged, 1, 9, 1e-6, seeds=[seeds])
    for s in seeds:
        assert res.value >= jagged(s)


def test_scalar_non_finite_objective_identifies_point():
    def f(x):
        return np.where(x > 0.5, math.inf, x)

    with pytest.raises(NumericError):
        maximize_box(f, 1, 11, 1e-6)


def test_scalar_stop_reasons_and_stage_counts():
    def peak(x):
        return -(x - 0.3) ** 2

    cases = (
        # the spacing 1/64 shrinks to 1/64/32 > 1e-4, then to 1/64/32**2 < 1e-4
        (1e-4, (0.25, 1.0), 2),
        # the spacing 1/64 is already below 0.1: no refinement level runs
        (0.1, (), 0),
    )
    for tol, seeds, levels in cases:
        (res,) = maximize_box(peak, 1, 65, tol, [seeds])
        diag = res.diagnostics
        assert set(diag) == {"evaluations", "stages", "levels"}
        assert diag["levels"] == levels
        assert diag["stages"] == {"seeds": len(seeds), "grid": 65,
                                  "refine": 3 * 65 * levels}
        assert diag["evaluations"] == sum(diag["stages"].values())


def test_scalar_ties_go_to_smallest_argument():
    (res,) = maximize_box(lambda x: np.zeros_like(x), 1, 9, 1e-6, seeds=[(0.75,)])
    assert (res.arg, res.value) == (0.0, 0.0)
    (plateau,) = maximize_box(lambda x: np.minimum(x, 0.25), 1, 9, 1e-6)
    assert plateau.arg == 0.25 and plateau.value == 0.25


def _spike(x):
    # 0.5 is the best grid point of a 5-point grid; only a window around
    # 1.0 reaches the spike at 0.9.
    base = np.interp(x, [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 2.0, 3.0, 0.0, 1.0])
    return np.where(np.abs(x - 0.9) < 0.01, 10.0, base)


def test_refinement_centres_are_distinct_points():
    # 0.5 is the best grid point, evaluated three times (two seeds and the
    # grid). The windows go around the 3 best distinct points, 0.5, 0.25 and
    # 1.0, and only the one around 1.0 reaches the spike at 0.9.
    (res,) = maximize_box(_spike, 1, 5, 0.01, [(0.5, 0.5)])
    assert res.value == 10.0 and abs(res.arg - 0.9) < 0.01
    assert res.diagnostics["stages"] == {"seeds": 2, "grid": 5, "refine": 3 * 65}


def test_batch_instances_rank_and_fail_on_their_own():
    # Three instances in one batch, with 0, 2 and 1 seeds: a plateau, which
    # ties every point from 0.25 up and so goes to 0.25; an instance that is
    # -inf everywhere; and one whose only good point is its seed.
    rows = (lambda x: np.minimum(x, 0.25),
            lambda x: np.full(x.shape, -math.inf),
            lambda x: np.where(x == 0.37, 1.0, 0.0))
    seeds = [(), (0.5, 0.9), (0.37,)]

    def batch(x):
        return np.stack([row(x[i]) for i, row in enumerate(rows)])

    plateau, infeasible, seeded = maximize_box(batch, 1, 9, 1e-6, seeds)
    assert (plateau.arg, plateau.value) == (0.25, 0.25)
    assert infeasible is None
    assert (seeded.arg, seeded.value) == (0.37, 1.0)
    # Padded seeds are not counted.
    assert [r.diagnostics["stages"]["seeds"] for r in (plateau, seeded)] == [0, 1]
    # Each instance gets what it gets alone.
    alone = [maximize_box(row, 1, 9, 1e-6, [s])[0] for row, s in zip(rows, seeds)]
    assert alone == [plateau, None, seeded]



def test_batch_ranking_equals_the_walk_of_one_instance():
    # A batch of one walks its sorted points; a larger batch ranks all rows
    # in array form. Both give the same results on each case: ties
    # everywhere, a plateau, a ridge whose ties cross the 3k-th best value
    # in 2-D, one point repeated 9 times at the top, a grid of 2 points
    # (fewer than 3 distinct, with and without a seed on one of them), and
    # an infeasible region.
    cases = (
        (lambda x: np.zeros_like(x), 1, 9, (0.75,)),
        (lambda x: np.minimum(x, 0.25), 1, 9, ()),
        (_spike, 1, 5, (0.5, 0.5)),
        (lambda x: np.where(x == 0.5, 1.0, 0.0), 1, 5, (0.5,) * 8),
        (lambda x: -(x - 0.3) ** 2, 1, 2, ()),
        (lambda x: -(x - 0.3) ** 2, 1, 2, (0.0,)),
        (_pair(_zeros), 2, 5, ((0.75, 0.75),)),
        (_pair(lambda x, y: np.minimum(x + 0.0 * y, 0.25)), 2, 9, ()),
        (_pair(lambda x, y: np.where(x + 0.0 * y == 0.5, 1.0, 0.0)), 2, 5, ((0.5, 0.0),) * 9),
        (_pair(_in_disk(_bowl)), 2, 17, ((0.75, 0.75),)),
    )
    for f, dim, grid, seeds in cases:
        alone = maximize_box(f, dim, grid, 1e-6, [seeds])
        assert alone[0] is not None
        # The same instance twice, the second time without seeds: its 2-D
        # stages are explicit points, and without any seeds a batch's axes.
        for both_seeds in ([seeds, ()], [(), ()]):
            both = maximize_box(lambda p: np.stack([f(_instance(p, 0)), f(_instance(p, 1))]),
                                dim, grid, 1e-6, both_seeds)
            first = alone if both_seeds[0] else maximize_box(f, dim, grid, 1e-6)
            assert both == first + maximize_box(f, dim, grid, 1e-6)


@st.composite
def _stages(draw):
    # A stage of m instances whose n points come from a pool of a few: 1-D
    # points i/16, 2-D points (i mod 4, i div 4)/4. Each instance gives each
    # pool point one of four levels, -inf among them, so that plateaus,
    # infeasible rows and points repeated up to n times occur.
    dim, k = draw(st.sampled_from((1, 2))), draw(st.sampled_from((1, 2, 3)))
    m, n, pool = draw(st.integers(1, 4)), draw(st.integers(1, 30)), draw(st.integers(1, 16))
    points = [i / 16 if dim == 1 else (i % 4 / 4, i // 4 / 4) for i in range(pool)]
    levels = st.sampled_from((-math.inf, 0.0, 0.5, 1.0))
    pts, values = [], []
    for _ in range(m):
        level = draw(st.lists(levels, min_size=pool, max_size=pool))
        index = draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n))
        pts.append([points[i] for i in index])
        values.append([level[i] for i in index])
    return np.array(pts), np.array(values), k


def _plateau_and_repeats():
    # 2-D, k = 3: a 5 x 5 grid whose line p0 = 0.5 ties at the top, with
    # nine copies of one of its points ahead of it, and the same points
    # -inf everywhere. The second example is 1-D rows of 2 points (fewer
    # than 3k), one of them a plateau.
    grid = _grid(2, 5, 1)[:, 0, :, 0, 0].T
    pts = np.concatenate((np.tile([0.5, 0.0], (9, 1)), grid))
    values = np.where(pts[:, 0] == 0.5, 1.0, 0.0)
    return (np.array([pts, pts]), np.array([values, np.full(values.shape, -math.inf)]), 3)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(stage=_stages())
@example(stage=_plateau_and_repeats())
@example(stage=(np.array([[0.0, 1.0], [0.5, 0.5]]), np.array([[0.0, 0.0], [1.0, 1.0]]), 3))
def test_batch_ranking_equals_a_whole_row_sort(stage):
    # The batched ranking (a values-only partition, then one sort of the
    # candidates of all rows) equals sorting every row whole by (-value,
    # point) and taking its first k distinct points, padding included.
    pts, values, k = stage
    pair = pts if pts.ndim == 2 else pts.transpose(2, 0, 1)[..., None, None]
    (got_v, got_p), (want_v, want_p) = _ranked(pair, values, k), ranked_ref(pts, values, k)
    assert same_bits(got_v, want_v) and same_bits(got_p, want_p)


def _repeats_above_distinct_points():
    # 2-D, k = 3: ten copies of one point at 1.0 fill the 3k best and the
    # cut, and five distinct points at 0.0 follow. The points at or above
    # the cut hold one distinct point, so the walk goes over all points.
    pts = np.concatenate((np.tile([0.5, 0.5], (10, 1)), [[i / 4, 0.0] for i in range(5)]))
    return pts[None], np.where(np.arange(15) < 10, 1.0, 0.0)[None], 3


@settings(derandomize=True, deadline=None, max_examples=200)
@given(stage=_stages())
@example(stage=_plateau_and_repeats())
@example(stage=_repeats_above_distinct_points())
@example(stage=(np.array([[0.0, 1.0], [0.5, 0.5]]), np.array([[0.0, 0.0], [1.0, 1.0]]), 3))
def test_one_instance_ranking_equals_a_whole_row_sort(stage):
    # The ranking of a batch of one (the 3k best candidates in 2-D, a walk
    # over sorted points otherwise) equals the whole-row sort of each row,
    # padding included: floats in 1-D and tuples in 2-D.
    pts, values, k = stage
    want_v, want_p = ranked_ref(pts, values, k)
    for p, v, top_v, top_p in zip(pts, values, want_v.tolist(), want_p.tolist()):
        want = [(x, y if p.ndim == 1 else tuple(y)) for x, y in zip(top_v, top_p)]
        assert _ranked_one(p, v, k) == want


def test_refinement_count_is_levels_times_three_windows():
    # Every instance reports levels x 3 windows of 65 or 9 x 9 points as its
    # refinement count, at batch sizes 1 and 3, and the objective receives
    # exactly that many points per instance after the grid stage. Its points
    # have an instance axis of 1 or m at the grid stage (a batch's 2-D grid
    # axes are shared) and of m after it. A grid of 2 points has fewer than
    # 3 distinct points: its last centre repeats.
    cases = ((lambda x: -(x - 0.3) ** 2, 1, 2, 1e-4, 3),
             (lambda x: -(x - 0.3) ** 2, 1, 65, 1e-4, 2),
             (_pair(lambda x, y: -_bowl(x, y)), 2, 17, 1e-4, 5))
    for g, dim, grid, tol, levels in cases:
        refine = levels * 3 * (65 if dim == 1 else 9 * 9)
        for m in (1, 3):
            shapes = []

            def f(pts):
                # The instance axes of each call's points (its array in 1-D,
                # x and y in 2-D) and its points per instance.
                values = g(pts)
                rows = {len(pts)} if dim == 1 else {len(a) for a in pts}
                shapes.append((rows, values.size // len(values)))
                return values

            results = maximize_box(f, dim, grid, tol, [()] * m)
            assert [r.diagnostics["levels"] for r in results] == [levels] * m
            assert [r.diagnostics["stages"]["refine"] for r in results] == [refine] * m
            assert shapes[0][1] == grid ** dim and len(shapes) == levels + 1
            assert sum(n for _, n in shapes[1:]) == refine
            assert shapes[0][0] <= {1, m} and all(rows == {m} for rows, _ in shapes[1:])


# The 2-D objectives are functions g(x, y) of two coordinate arrays that
# broadcast against each other, with values in their broadcast shape.
# maximize_box passes the pair (x, y) as one argument (_pair). The tests
# minimize g by maximizing -g, as the genie bound does.
def _pair(g):
    return lambda xy: g(*xy)


def _instance(pts, i):
    # Instance i's points of a stage: its row in 1-D, and in 2-D its
    # coordinate arrays, whose instance axis may be shared (of length 1).
    if isinstance(pts, np.ndarray) and pts.ndim == 2:
        return pts[i]
    return [a[min(i, len(a) - 1)] for a in pts]


def _zeros(x, y):
    return 0.0 * (x + y)


def _bowl(x, y):
    return (x - 0.65) ** 2 + 2.0 * (y - 0.275) ** 2


def _in_disk(g):
    # Feasible on the disk inscribed in the unit square, -inf outside it.
    return lambda x, y: np.where((x - 0.5) ** 2 + (y - 0.5) ** 2 <= 0.25, -g(x, y), -math.inf)


def test_windows_equal_expression_form():
    # The refinement windows, built per axis with no upper clip, equal the
    # expression form, which clips them to [0, 1], over a table of window
    # points byte for byte: so no window point exceeds 1. 1-D and 2-D, one
    # instance and 15, at every level of both searches (TDMA-TIN's spacings
    # 2^-10 32^-k for k = 0..2, the genie's 2^-5 4^-k for k = 0..7). The
    # centres are 0, 1, 1 - s, 1 - 0.9 s and s for the level's spacing s,
    # each pair of them in 2-D, and random points, some within s of 1.
    rng = np.random.default_rng(21)
    for dim, spacing, shrink, levels in ((1, 2.0 ** -10, 1 / 32, 3), (2, 2.0 ** -5, 1 / 4, 8)):
        point = () if dim == 1 else (2,)
        lo, hi = np.zeros(point), np.ones(point)
        for _ in range(levels):
            edges = np.array([0.0, 1.0, 1.0 - spacing, 1.0 - 0.9 * spacing, spacing])
            if dim == 2:
                edges = np.stack(np.meshgrid(edges, edges, indexing="ij"), axis=-1).reshape(-1, 2)
            for m in (1, 15):
                shape = (m, 40) + point
                near_one = 1.0 - spacing * rng.uniform(0.0, 1.0, shape)
                centres = np.concatenate((np.broadcast_to(edges, (m,) + edges.shape),
                                          rng.uniform(0.0, 1.0, shape), near_one), axis=1)
                want = windows_ref(centres, spacing, lo, hi)
                got = _windows(centres, spacing)
                if dim == 2:  # explicit points, as the columns (2, m, n, 1, 1)
                    got = np.moveaxis(got[..., 0, 0], 0, -1)
                    # A batch's axes, x (m, k, 9, 1) and y (m, k, 1, 9),
                    # expand to the same points.
                    axes = _windows(centres, spacing, np.empty((2,) + centres.shape[:2] + (9,)))
                    expanded = np.stack(np.broadcast_arrays(*axes), axis=-1)
                    assert same_bits(expanded.reshape(want.shape), want)
                assert same_bits(got, want)
            spacing = spacing * shrink


def test_minimize_unit_disk_quadratic():
    (res,) = maximize_box(_pair(_in_disk(_bowl)), 2, 17, 1e-8, seeds=[((0.75, 0.75),)])
    assert isinstance(res.arg, tuple) and len(res.arg) == 2
    assert abs(res.arg[0] - 0.65) <= 1e-8 and abs(res.arg[1] - 0.275) <= 1e-8
    assert -res.value <= 1e-15


def test_minimize_skips_infinite_plateau():
    # Only a pocket is feasible; its best point is the corner nearest (0.95, 0.95).
    def pocket(x, y):
        inside = (np.abs(x - 0.5) <= 0.15) & (np.abs(y - 0.5) <= 0.15)
        return np.where(inside, (x - 0.95) ** 2 + (y - 0.95) ** 2, math.inf)

    (res,) = maximize_box(_pair(lambda x, y: -pocket(x, y)), 2, 21, 1e-9, seeds=[((0.5, 0.5),)])
    assert math.isfinite(res.value)
    assert abs(res.arg[0] - 0.65) <= 1e-9 and abs(res.arg[1] - 0.65) <= 1e-9


def test_minimize_infeasible_when_everything_is_infinite():
    # An instance whose every seed and grid point is infeasible has no result.
    assert maximize_box(_pair(lambda x, y: _zeros(x, y) - math.inf), 2, 5, 1e-6,
                        seeds=[((0.0, 0.0),)]) == [None]
    assert maximize_box(lambda x: np.full(x.shape, -math.inf), 1, 101, 1e-6) == [None]


def test_minimize_determinism():
    def f(x, y):
        return -(np.cos(6 * x - 3) + (2 * y - 1.2) ** 2)

    a = maximize_box(_pair(f), 2, 21, 1e-6, seeds=[((0.5, 0.5),)])
    b = maximize_box(_pair(f), 2, 21, 1e-6, seeds=[((0.5, 0.5),)])
    assert a == b


def test_minimize_stop_reasons_and_stage_counts():
    cases = (
        # the spacing 1/16 shrinks 4-fold per level: 1/16/4**4 > 1e-4 > 1/16/4**5
        (1e-4, ((0.25, 1.0),), 5),
        # the spacing 1/16 is already below 0.5: no refinement level runs
        (0.5, (), 0),
    )
    for tol, seeds, levels in cases:
        (res,) = maximize_box(_pair(lambda x, y: -_bowl(x, y)), 2, 17, tol, [seeds])
        diag = res.diagnostics
        assert set(diag) == {"evaluations", "stages", "levels"}
        assert diag["levels"] == levels
        assert diag["stages"] == {"seeds": len(seeds), "grid": 17 * 17,
                                  "refine": 3 * 81 * levels}
        assert diag["evaluations"] == sum(diag["stages"].values())


def test_box_nan_or_plus_infinity_identifies_point():
    # One instance (explicit points) and the last of a batch of 3 (axes
    # shared by the batch) are not usable where x + y > 1.5: the first such
    # point in row-major order is named with its instance.
    last = np.arange(3).reshape(3, 1, 1, 1) == 2
    for bad in (math.nan, math.inf):
        def f(x, y):
            return np.where(x + y > 1.5, bad, 0.0)

        with pytest.raises(NumericError, match=r"instance 0 is not usable at \(0\.75, 1\.0\)"):
            maximize_box(_pair(f), 2, 5, 1e-6)
        with pytest.raises(NumericError, match=r"instance 2 is not usable at \(0\.75, 1\.0\)"):
            maximize_box(_pair(lambda x, y: np.where(last, f(x, y), 0.0)), 2, 5, 1e-6,
                         [()] * 3)
        # Values of the shared grid axes alone have an instance axis of 1.
        with pytest.raises(NumericError, match=r"instance 0 is not usable at \(0\.75, 1\.0\)"):
            maximize_box(_pair(f), 2, 5, 1e-6, [()] * 3)


def test_batch_objective_without_instance_axis():
    # An objective that does not depend on the instance returns values of
    # instance axis 1 on the shared grid axes, which stand for every
    # instance: batches of 3 (1 089 grid points, a multiple of 3) and of 20
    # (grid stage cut into whole rows) find one instance's result for each,
    # as the same objective with an instance axis of m does. Values of
    # another instance axis length raise.
    g = _pair(lambda x, y: -_bowl(x, y))
    (one,) = maximize_box(g, 2, 33, 1e-6)
    for m in (3, 20):
        assert maximize_box(g, 2, 33, 1e-6, [()] * m) == [one] * m
        assert maximize_box(lambda xy: g(xy) + np.zeros((m, 1, 1, 1)), 2, 33, 1e-6,
                            [()] * m) == [one] * m
        with pytest.raises(ValueError):
            maximize_box(lambda xy: g(xy) + np.zeros((2, 1, 1, 1)), 2, 33, 1e-6, [()] * m)


def test_box_ties_go_to_lexicographically_smallest_point():
    (res,) = maximize_box(_pair(_zeros), 2, 5, 1e-6, seeds=[((0.75, 0.75),)])
    assert (res.arg, res.value) == ((0.0, 0.0), 0.0)
    # A ridge along p0 = 0.25: every point on it ties, the smallest p1 wins.
    (ridge,) = maximize_box(_pair(lambda x, y: np.minimum(x + 0.0 * y, 0.25)), 2, 9, 1e-6)
    assert ridge.arg == (0.25, 0.0) and ridge.value == 0.25


_UNIT = st.floats(0.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(rows=st.lists(st.builds(PimacParams, WIDE_GAIN, WIDE_GAIN, WIDE_GAIN,
                               WIDE_POWER, WIDE_POWER, WIDE_POWER), min_size=1, max_size=15),
       rho=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=32),
       alphas=st.lists(_UNIT, min_size=1, max_size=32))
def test_search_objectives_are_never_nan_or_plus_infinity(rows, rho, alphas):
    # maximize_box raises on NaN or +inf at any point of any instance. Its two
    # objectives never give either: the genie bound (the search minimizes it,
    # sign-canonical as c_sigma_1 evaluates it) lies in [0, +inf] on the 33 x
    # 33 start grid and at any point of [0, 1]^2, and TDMA-TIN's sum is finite
    # on its 1 025-point grid and at any share. Wide draws with exact zeros,
    # and the kernel rows' degenerate cases.
    rows = KERNEL_ROWS + rows
    m = len(rows)
    genie = _genie_coeffs(rows)
    with np.errstate(all="ignore"):
        for pts in (_grid_axes(33), _grid(2, 33, m),
                    np.repeat(np.array(rho).T[:, None], m, axis=1)[..., None, None]):
            bound = _genie_sum(genie, pts)
            assert not np.isnan(bound).any() and (bound >= 0.0).all()
    tdma = _tdma_coeffs(rows)
    for shares in (_grid(1, 1025, m), np.repeat(np.array(alphas)[None], m, axis=0)):
        assert np.isfinite(np.add(*_tdma_parts(tdma, shares))).all()


def test_kernels_of_one_instance_return_new_arrays():
    # The work arrays of a batch of one are new arrays, not views of the
    # per-thread workspace, so a first result outlives a second call.
    p = figure3_params(0.5)
    genie, tdma = _genie_coeffs([p]), _tdma_coeffs([p])
    rho, alphas = _grid(2, 33, 1), _grid(1, 1025, 1)
    with np.errstate(all="ignore"):
        first = _genie_sum(genie, rho)
        want = first.copy()
        _genie_sum(genie, 0.5 * rho)
    assert same_bits(first, want)
    first = _tdma_parts(tdma, alphas)
    want = [part.copy() for part in first]
    _tdma_parts(tdma, 0.5 * alphas)
    assert all(same_bits(g, w) for g, w in zip(first, want))
