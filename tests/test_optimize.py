import math

import numpy as np
import pytest

from pimac import (
    ConstraintError,
    DomainError,
    InfeasibleError,
    NumericError,
    OptConfig,
    maximize_scalar,
    minimize_constrained,
)
from pimac.schemes import _tdma_parts

from _support import figure3_params
from oracle_tools import dense_tdma_objective


def test_scalar_quadratic_argument_within_tolerance():
    cfg = OptConfig(grid_points_per_axis=65, refine_tolerance=1e-6)
    res = maximize_scalar(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, cfg)
    assert abs(res.arg - 0.3) <= cfg.refine_tolerance
    assert res.evaluations > 65


def test_scalar_boundary_maximum_with_seed():
    cfg = OptConfig(grid_points_per_axis=8, seeds=(1.0,))
    res = maximize_scalar(lambda x: x, 0.0, 1.0, cfg)
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

    res = maximize_scalar(lambda a: np.add(*_tdma_parts(params, a)), 0.0, 1.0,
                          cfg=OptConfig(grid_points_per_axis=1025))
    assert res.value >= oracle_value - 1e-12
    assert abs(res.value - oracle_value) <= 1e-9
    assert abs(res.arg - oracle_arg) <= 1e-3
    assert 0.0 < res.arg < 0.1


def test_scalar_seed_dominance_is_exact():
    def jagged(x):
        return np.sin(37.0 * x) - 0.2 * x

    seeds = (0.17, 0.5, 0.93)
    cfg = OptConfig(grid_points_per_axis=9, seeds=seeds)
    res = maximize_scalar(jagged, 0.0, 1.0, cfg)
    for s in seeds:
        assert res.value >= jagged(s)


def test_scalar_rejects_bad_interval_and_seed():
    with pytest.raises(DomainError):
        maximize_scalar(lambda x: x, 1.0, 0.0)
    with pytest.raises(DomainError):
        maximize_scalar(lambda x: x, 0.0, 1.0, OptConfig(seeds=(2.0,)))


def test_scalar_non_finite_objective_identifies_point():
    def f(x):
        return np.where(x > 0.5, math.inf, x)

    with pytest.raises(NumericError):
        maximize_scalar(f, 0.0, 1.0, OptConfig(grid_points_per_axis=11))


def test_scalar_stop_reasons_and_stage_counts():
    def peak(x):
        return -(x - 0.3) ** 2

    cases = (
        (OptConfig(grid_points_per_axis=65, max_refine_iters=1), 1, "level-cap"),
        # the spacing 1/64 shrinks to 1/64/32 > 1e-4, then to 1/64/32**2 < 1e-4
        (OptConfig(grid_points_per_axis=65, refine_tolerance=1e-4,
                   seeds=(0.25, 1.0)), 2, "tolerance"),
        (OptConfig(grid_points_per_axis=65, max_refine_iters=0), 0, "level-cap"),
    )
    for cfg, levels, stop in cases:
        diag = maximize_scalar(peak, 0.0, 1.0, cfg).diagnostics()
        assert diag["status"] == "grid+nested-grid"
        assert diag["stop"] == stop
        assert diag["levels"] == levels
        assert diag["stages"] == {"seeds": len(cfg.seeds), "grid": 65,
                                  "refine": 3 * 65 * levels}
        assert diag["evaluations"] == sum(diag["stages"].values())


def test_scalar_ties_go_to_smallest_argument():
    res = maximize_scalar(lambda x: np.zeros_like(x), -1.0, 1.0,
                          OptConfig(grid_points_per_axis=9, seeds=(0.5,)))
    assert (res.arg, res.value) == (-1.0, 0.0)
    plateau = maximize_scalar(lambda x: np.minimum(x, 0.25), 0.0, 1.0,
                              OptConfig(grid_points_per_axis=9))
    assert plateau.arg == 0.25 and plateau.value == 0.25


def _disk_candidates(n=21):
    xs = np.linspace(-1.0, 1.0, n)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[np.sum(pts ** 2, axis=1) <= 1.0]


def _disk_project(p):
    r = math.hypot(p[0], p[1])
    if r <= 1.0:
        return (p[0], p[1])
    return (p[0] / r, p[1] / r)


def test_minimize_unit_disk_quadratic():
    res = minimize_constrained(
        lambda p: p[:, 0] ** 2 + p[:, 1] ** 2,
        _disk_candidates(),
        OptConfig(refine_tolerance=1e-9, max_refine_iters=60,
                  seeds=((0.5, 0.5),)),
        project=_disk_project,
        feasible=lambda p: p[0] ** 2 + p[1] ** 2 <= 1.0,
    )
    assert abs(res.arg[0]) <= 1e-6 and abs(res.arg[1]) <= 1e-6
    assert res.value <= 1e-10


def test_minimize_skips_infinite_plateau():
    def pocket(p):
        inside = (np.abs(p[:, 0]) <= 0.3) & (np.abs(p[:, 1]) <= 0.3)
        return np.where(inside, (p[:, 0] - 0.1) ** 2 + p[:, 1] ** 2, math.inf)

    res = minimize_constrained(
        pocket,
        _disk_candidates(31),
        OptConfig(refine_tolerance=1e-9, max_refine_iters=60,
                  seeds=((0.0, 0.0),)),
        project=_disk_project,
        feasible=lambda p: True,
    )
    assert math.isfinite(res.value)
    assert abs(res.arg[0] - 0.1) <= 1e-4


def test_minimize_infeasible_when_everything_is_infinite():
    with pytest.raises(InfeasibleError):
        minimize_constrained(
            lambda p: np.full(len(p), math.inf),
            _disk_candidates(5),
            OptConfig(seeds=((0.0, 0.0),)),
            project=_disk_project,
            feasible=lambda p: True,
        )


def test_minimize_rejects_infeasible_seed():
    with pytest.raises(ConstraintError):
        minimize_constrained(
            lambda p: p[:, 0] ** 2,
            _disk_candidates(5),
            OptConfig(seeds=((2.0, 2.0),)),
            project=_disk_project,
            feasible=lambda p: p[0] ** 2 + p[1] ** 2 <= 1.0,
        )


def test_minimize_determinism():
    def f(p):
        return np.cos(3 * p[:, 0]) + (p[:, 1] - 0.2) ** 2

    kwargs = dict(project=_disk_project,
                  feasible=lambda p: p[0] ** 2 + p[1] ** 2 <= 1.0)
    a = minimize_constrained(f, _disk_candidates(), OptConfig(seeds=((0.0, 0.0),)), **kwargs)
    b = minimize_constrained(f, _disk_candidates(), OptConfig(seeds=((0.0, 0.0),)), **kwargs)
    assert a == b


def test_minimize_stop_reasons_and_stage_counts():
    def toward(target):
        return lambda p: (p[:, 0] - target) ** 2 + (p[:, 1] - target / 2) ** 2

    cases = (
        (toward(0.3), OptConfig(max_refine_iters=3), "iteration-cap"),
        (toward(0.3), OptConfig(), "tolerance"),
        # 1/3 is no dyadic fraction, so every halving of the steps still gains.
        (toward(1 / 3), OptConfig(refine_tolerance=1e-300, max_refine_iters=1000),
         "step-floor"),
    )
    for f, cfg, stop in cases:
        res = minimize_constrained(f, _disk_candidates(), cfg, project=_disk_project)
        diag = res.diagnostics()
        assert diag["stop"] == stop
        assert diag["stages"]["seeds"] == 0
        assert diag["stages"]["grid"] == len(_disk_candidates())
        assert diag["evaluations"] == sum(diag["stages"].values())
        assert 0 < diag["stages"]["refine"] <= 4 * diag["iterations"]
        assert diag["iterations"] <= cfg.max_refine_iters


def test_opt_config_validation():
    with pytest.raises(DomainError):
        OptConfig(grid_points_per_axis=1)
    with pytest.raises(DomainError):
        OptConfig(refine_tolerance=0.0)
