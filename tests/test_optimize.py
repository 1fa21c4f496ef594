import math

import numpy as np
import pytest

from pimac import (
    DomainError,
    NumericError,
    maximize_box,
)
from pimac.optimize import _windows
from pimac.schemes import _tdma_coeffs, _tdma_parts

from _support import figure3_params, same_bits
from oracle_tools import dense_tdma_objective, windows_ref


def test_scalar_quadratic_argument_within_tolerance():
    (res,) = maximize_box(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 65, 1e-6)
    assert abs(res.arg - 0.3) <= 1e-6
    assert res.diagnostics["evaluations"] > 65


def test_scalar_boundary_maximum_with_seed():
    (res,) = maximize_box(lambda x: x, 0.0, 1.0, 8, 1e-6, seeds=[(1.0,)])
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
    (res,) = maximize_box(lambda a: np.add(*_tdma_parts(c, a)), 0.0, 1.0, 1025, 1e-6)
    assert res.value >= oracle_value - 1e-12
    assert abs(res.value - oracle_value) <= 1e-9
    assert abs(res.arg - oracle_arg) <= 1e-3
    assert 0.0 < res.arg < 0.1


def test_scalar_seed_dominance_is_exact():
    def jagged(x):
        return np.sin(37.0 * x) - 0.2 * x

    seeds = (0.17, 0.5, 0.93)
    (res,) = maximize_box(jagged, 0.0, 1.0, 9, 1e-6, seeds=[seeds])
    for s in seeds:
        assert res.value >= jagged(s)


def test_scalar_rejects_bad_interval_and_seed():
    with pytest.raises(DomainError):
        maximize_box(lambda x: x, 1.0, 0.0, 101, 1e-6)
    with pytest.raises(DomainError):
        maximize_box(lambda x: x, 0.0, 1.0, 101, 1e-6, seeds=[(2.0,)])


def test_scalar_non_finite_objective_identifies_point():
    def f(x):
        return np.where(x > 0.5, math.inf, x)

    with pytest.raises(NumericError):
        maximize_box(f, 0.0, 1.0, 11, 1e-6)


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
        (res,) = maximize_box(peak, 0.0, 1.0, 65, tol, [seeds])
        diag = res.diagnostics
        assert set(diag) == {"evaluations", "stages", "levels"}
        assert diag["levels"] == levels
        assert diag["stages"] == {"seeds": len(seeds), "grid": 65,
                                  "refine": 3 * 65 * levels}
        assert diag["evaluations"] == sum(diag["stages"].values())


def test_scalar_ties_go_to_smallest_argument():
    (res,) = maximize_box(lambda x: np.zeros_like(x), -1.0, 1.0, 9, 1e-6, seeds=[(0.5,)])
    assert (res.arg, res.value) == (-1.0, 0.0)
    (plateau,) = maximize_box(lambda x: np.minimum(x, 0.25), 0.0, 1.0, 9, 1e-6)
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
    (res,) = maximize_box(_spike, 0.0, 1.0, 5, 0.01, [(0.5, 0.5)])
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

    plateau, infeasible, seeded = maximize_box(batch, 0.0, 1.0, 9, 1e-6, seeds)
    assert (plateau.arg, plateau.value) == (0.25, 0.25)
    assert infeasible is None
    assert (seeded.arg, seeded.value) == (0.37, 1.0)
    # Padded seeds are not counted.
    assert [r.diagnostics["stages"]["seeds"] for r in (plateau, seeded)] == [0, 1]
    # Each instance gets what it gets alone.
    alone = [maximize_box(row, 0.0, 1.0, 9, 1e-6, [s])[0] for row, s in zip(rows, seeds)]
    assert alone == [plateau, None, seeded]



def test_batch_ranking_equals_the_walk_of_one_instance():
    # A batch of one walks its sorted points; a larger batch ranks all rows
    # in array form. Both give the same results on each case: ties
    # everywhere, a plateau, a ridge whose ties cross the 3k-th best value
    # in 2-D, one point repeated 9 times at the top, a grid of 2 points
    # (fewer than 3 distinct, with and without a seed on one of them), and
    # an infeasible region.
    cases = (
        (lambda x: np.zeros_like(x), -1.0, 1.0, 9, (0.5,)),
        (lambda x: np.minimum(x, 0.25), 0.0, 1.0, 9, ()),
        (_spike, 0.0, 1.0, 5, (0.5, 0.5)),
        (lambda x: np.where(x == 0.5, 1.0, 0.0), 0.0, 1.0, 5, (0.5,) * 8),
        (lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 2, ()),
        (lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 2, (0.0,)),
        (lambda p: np.zeros(p.shape[:-1]), (-1.0, -1.0), (1.0, 1.0), 5, ((0.5, 0.5),)),
        (lambda p: np.minimum(p[..., 0], 0.25), (0.0, 0.0), (1.0, 1.0), 9, ()),
        (lambda p: np.where(p[..., 0] == 0.5, 1.0, 0.0), (0.0, 0.0), (1.0, 1.0), 5,
         ((0.5, 0.0),) * 9),
        (_in_disk(_bowl), (-1.0, -1.0), (1.0, 1.0), 17, ((0.5, 0.5),)),
    )
    for f, lo, hi, grid, seeds in cases:
        alone = maximize_box(f, lo, hi, grid, 1e-6, [seeds])
        assert alone[0] is not None
        # The same instance twice, the second time without seeds.
        both = maximize_box(lambda p: np.stack([f(p[0]), f(p[1])]), lo, hi, grid, 1e-6,
                            [seeds, ()])
        assert both == alone + maximize_box(f, lo, hi, grid, 1e-6)


# The 2-D tests minimize g by maximizing -g, as the genie bound does.
def _bowl(p):
    return (p[..., 0] - 0.3) ** 2 + 2.0 * (p[..., 1] + 0.45) ** 2


def _in_disk(g):
    return lambda p: np.where(p[..., 0] ** 2 + p[..., 1] ** 2 <= 1.0, -g(p), -math.inf)


def test_windows_equal_expression_form():
    # The refinement windows, built per axis, equal the expression form over
    # a table of window points byte for byte: 1-D and 2-D, one instance and
    # 15, at the spacings of the first six levels, with four centres per
    # instance: at lo, at hi, 0.9 spacings below hi and inside. The boxes
    # straddle 0 with a small hi, where the first level's window around the
    # third centre ends one ulp above hi before the clip.
    rng = np.random.default_rng(21)
    for lo, hi in ((-3.0, 0.1), ((-1.5, -2.5), (0.05, 0.15))):
        lo, hi = np.array(lo), np.array(hi)
        shrink = 1 / 32 if lo.ndim == 0 else 1 / 4
        spacing = (hi - lo) / 32
        for m in (1, 15):
            centres = rng.uniform(lo, hi, (m, 4) + lo.shape)
            centres[:, :3] = lo, hi, hi - 0.9 * spacing
            level_spacing = spacing
            for _ in range(6):
                assert same_bits(_windows(centres, level_spacing, lo, hi),
                                 windows_ref(centres, level_spacing, lo, hi))
                level_spacing = level_spacing * shrink


def test_minimize_unit_disk_quadratic():
    (res,) = maximize_box(_in_disk(_bowl), (-1.0, -1.0), (1.0, 1.0), 17, 1e-8,
                          seeds=[((0.5, 0.5),)])
    assert isinstance(res.arg, tuple) and len(res.arg) == 2
    assert abs(res.arg[0] - 0.3) <= 1e-8 and abs(res.arg[1] + 0.45) <= 1e-8
    assert -res.value <= 1e-15


def test_minimize_skips_infinite_plateau():
    # Only a pocket is feasible; its best point is the corner nearest (0.9, 0.9).
    def pocket(p):
        inside = (np.abs(p[..., 0]) <= 0.3) & (np.abs(p[..., 1]) <= 0.3)
        return np.where(inside, (p[..., 0] - 0.9) ** 2 + (p[..., 1] - 0.9) ** 2, math.inf)

    (res,) = maximize_box(lambda p: -pocket(p), (-1.0, -1.0), (1.0, 1.0), 21, 1e-9,
                          seeds=[((0.0, 0.0),)])
    assert math.isfinite(res.value)
    assert abs(res.arg[0] - 0.3) <= 1e-9 and abs(res.arg[1] - 0.3) <= 1e-9


def test_minimize_infeasible_when_everything_is_infinite():
    # An instance whose every seed and grid point is infeasible has no result.
    assert maximize_box(lambda p: np.full(p.shape[:-1], -math.inf), (0.0, 0.0),
                        (1.0, 1.0), 5, 1e-6, seeds=[((0.0, 0.0),)]) == [None]
    assert maximize_box(lambda x: np.full(x.shape, -math.inf), 0.0, 1.0, 101,
                        1e-6) == [None]


def test_minimize_rejects_infeasible_seed():
    with pytest.raises(DomainError):
        maximize_box(_in_disk(_bowl), (-1.0, -1.0), (1.0, 1.0), 101, 1e-6,
                     seeds=[((2.0, 2.0),)])
    for lo, hi in (((0.0, 1.0), (1.0, 1.0)), ((0.0,) * 3, (1.0,) * 3),
                   ((0.0, 0.0), (1.0, math.inf)), ((0.0, 0.0), 1.0)):
        with pytest.raises(DomainError):
            maximize_box(_in_disk(_bowl), lo, hi, 101, 1e-6)


def test_minimize_determinism():
    def f(p):
        return -(np.cos(3 * p[..., 0]) + (p[..., 1] - 0.2) ** 2)

    a = maximize_box(f, (-1.0, -1.0), (1.0, 1.0), 21, 1e-6, seeds=[((0.0, 0.0),)])
    b = maximize_box(f, (-1.0, -1.0), (1.0, 1.0), 21, 1e-6, seeds=[((0.0, 0.0),)])
    assert a == b


def test_minimize_stop_reasons_and_stage_counts():
    cases = (
        # the spacing 2/16 shrinks 4-fold per level: 1/8/4**5 > 1e-4 > 1/8/4**6
        (1e-4, ((0.25, 1.0),), 6),
        # the spacing 2/16 is already below 0.5: no refinement level runs
        (0.5, (), 0),
    )
    for tol, seeds, levels in cases:
        (res,) = maximize_box(lambda p: -_bowl(p), (-1.0, -1.0), (1.0, 1.0), 17, tol,
                              [seeds])
        diag = res.diagnostics
        assert set(diag) == {"evaluations", "stages", "levels"}
        assert diag["levels"] == levels
        assert diag["stages"] == {"seeds": len(seeds), "grid": 17 * 17,
                                  "refine": 3 * 81 * levels}
        assert diag["evaluations"] == sum(diag["stages"].values())


def test_box_nan_or_plus_infinity_identifies_point():
    for bad in (math.nan, math.inf):
        def f(p):
            return np.where(p[..., 0] + p[..., 1] > 1.5, bad, 0.0)

        with pytest.raises(NumericError, match=r"\(0\.75, 1\.0\)"):
            maximize_box(f, (0.0, 0.0), (1.0, 1.0), 5, 1e-6)


def test_box_ties_go_to_lexicographically_smallest_point():
    (res,) = maximize_box(lambda p: np.zeros(p.shape[:-1]), (-1.0, -1.0), (1.0, 1.0), 5,
                          1e-6, seeds=[((0.5, 0.5),)])
    assert (res.arg, res.value) == ((-1.0, -1.0), 0.0)
    # A ridge along p0 = 0.25: every point on it ties, the smallest p1 wins.
    (ridge,) = maximize_box(lambda p: np.minimum(p[..., 0], 0.25), (0.0, 0.0),
                            (1.0, 1.0), 9, 1e-6)
    assert ridge.arg == (0.25, 0.0) and ridge.value == 0.25


def test_opt_config_validation():
    # A grid that is not an integer >= 2 is a DomainError, not numpy's
    # TypeError from linspace.
    for grid in (1, 2.5, 33.0):
        with pytest.raises(DomainError):
            maximize_box(lambda x: x, 0.0, 1.0, grid, 1e-6)
    with pytest.raises(DomainError):
        maximize_box(lambda x: x, 0.0, 1.0, 101, 0.0)
