"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria that need the full 101-point gain sweep
share one session-scoped run (its wall time is asserted in criterion 5).
"""

import math
import time

import numpy as np
import pytest

from pimac import (
    GenieParams,
    PimacParams,
    alpha_prime,
    alpha_star,
    c_sigma_1,
    c_sigma_2,
    detect_pc_tin_regimes,
    half_log,
    montecarlo_covariance_check,
    pc_tin_sum_rate,
    plain_tdma_sum_rate,
    render_csv,
    run_sweep,
    sd_tin_sum_rate,
    tdma_tin_sum_rate,
)
from pimac.experiments import CURVES, _evaluate_rows
from pimac.schemes import _tdma_tin_batch

from _support import draw_feasible_genie, draw_params, tdma_parts

FULL_POWER = "FULL_POWER"
USER1_SILENT = "USER1_SILENT"
USER3_SILENT = "USER3_SILENT"


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_dominance():
    rng = np.random.default_rng(20250101)
    n = 10_000
    t0 = time.perf_counter()
    worst_gap = math.inf
    strict_violations = 0
    n_strict = 0
    dominance_violations = 0
    # The draws in their usual order, through the batched search the sweep uses.
    draws = [draw_params(rng) for _ in range(n)]
    for p, tdma_tin in zip(draws, _tdma_tin_batch(draws)):
        gap = tdma_tin.sum_rate - sd_tin_sum_rate(p).sum_rate
        if gap < -1e-12:
            dominance_violations += 1
        worst_gap = min(worst_gap, gap)
        if (abs(p.h12 ** 2 - p.h22 ** 2) >= 0.1
                and min(p.p1_max, p.p2_max, p.p3_max) >= 1.0):
            n_strict += 1
            if gap <= 1e-9:
                strict_violations += 1
    elapsed = time.perf_counter() - t0
    ok = (dominance_violations == 0 and strict_violations == 0
          and elapsed < 30.0)
    _report(1, ok,
            f"{n} instances, min gap {worst_gap:.3e}, "
            f"{n_strict} strict-subset instances, {elapsed:.1f}s")


def test_criterion_2_equality_anchor():
    rng = np.random.default_rng(20250102)
    worst = 0.0
    for _ in range(1000):
        h12 = float(rng.uniform(0.0, 2.0))
        h22 = h12 if rng.uniform() < 0.5 else -h12   # h12^2 == h22^2 bitwise
        h31 = float(rng.uniform(0.0, 2.0))
        powers = 50.0 * (1.0 - rng.uniform(0.0, 1.0, 3))
        p = PimacParams(h12, h22, h31, *map(float, powers))
        mac, p2p = tdma_parts(p, [alpha_star(p).alpha])
        anchor = float(mac[0] + p2p[0])
        worst = max(worst, abs(anchor - sd_tin_sum_rate(p).sum_rate))
    _report(2, worst <= 1e-12, f"max |A(a*)+B(a*) - sd_tin| = {worst:.3e}")


def test_criterion_3_convexity_stationarity_minimizer():
    rng = np.random.default_rng(20250103)
    grid = np.linspace(0.0, 1.0, 1001)   # step 1e-3
    worst_d2 = math.inf
    worst_deriv = 0.0
    worst_minloc = 0.0
    n_interior = 0
    for _ in range(1000):
        p = draw_params(rng)
        _, b_vals = tdma_parts(p, grid)
        # second central finite differences on the grid
        d2 = b_vals[2:] - 2.0 * b_vals[1:-1] + b_vals[:-2]
        worst_d2 = min(worst_d2, float(d2.min()))
        share = alpha_prime(p)
        if share is None:
            continue
        ap = share.alpha
        worst_minloc = max(worst_minloc,
                           abs(float(grid[int(np.argmin(b_vals))]) - ap))
        if 1e-3 <= ap <= 1.0 - 1e-3:
            n_interior += 1
            delta = 1e-4 * min(ap, 1.0 - ap)
            _, (up, down) = tdma_parts(p, [ap + delta, ap - delta])
            worst_deriv = max(worst_deriv, abs((up - down) / (2.0 * delta)))
    ok = (worst_d2 >= -1e-9 and worst_deriv <= 1e-6
          and worst_minloc <= 1e-3 + 1e-12)
    _report(3, ok,
            f"min second difference {worst_d2:.3e}, "
            f"max |dB/da| at interior alpha' {worst_deriv:.3e} "
            f"({n_interior} interior), max minimizer offset {worst_minloc:.3e}")


def test_criterion_4_plain_tdma_identity():
    rng = np.random.default_rng(20250104)
    worst = 0.0
    for _ in range(1000):
        p = draw_params(rng)
        got = plain_tdma_sum_rate(p).sum_rate
        want = half_log(p.p1_max + p.p2_max + p.p3_max)
        worst = max(worst, abs(got - want))
    _report(4, worst <= 1e-12, f"max |value - half_log(P1+P2+P3)| = {worst:.3e}")


def test_criterion_5_figure_sweep(figure3_sweep):
    rows = figure3_sweep["rows"]
    elapsed = figure3_sweep["elapsed"]

    row_02 = rows[20]
    assert abs(row_02.h - 0.2) < 1e-12
    gap_02 = row_02.ub1 - row_02.sd_tin
    ok_a = gap_02 <= 0.02

    row_10 = rows[100]
    ok_b = abs(row_10.ub2 - row_10.tdma) <= 1e-9

    intervals = detect_pc_tin_regimes(rows)
    labels = [lab for _, lab in intervals]
    ok_c = False
    transition = None
    if FULL_POWER in labels and USER1_SILENT in labels:
        i_full = labels.index(FULL_POWER)
        i_silent = labels.index(USER1_SILENT)
        if i_silent == i_full + 1:
            transition = intervals[i_full][0][1]
            ok_c = 0.37 <= transition <= 0.41

    ok_d = all(abs(r.pc_tin - r.sd_tin) <= 1e-9 for r in rows if r.h <= 0.37)
    ok_e = intervals[-1][1] == USER3_SILENT and abs(intervals[-1][0][1] - 1.0) < 1e-12
    ok_time = elapsed < 300.0

    ok = ok_a and ok_b and ok_c and ok_d and ok_e and ok_time
    _report(5, ok,
            f"(a) ub1-sd at h=0.2 {gap_02:.2e} (<=0.02: {ok_a}); "
            f"(b) |ub2-tdma| at h=1 (<=1e-9: {ok_b}); "
            f"(c) transition at {transition} (in [0.37,0.41]: {ok_c}); "
            f"(d) pc=sd below 0.37: {ok_d}; (e) final {intervals[-1][1]}; "
            f"sweep {elapsed:.0f}s (<300s: {ok_time})")


def test_criterion_6_bound_validity(figure3_sweep):
    rows = figure3_sweep["rows"]
    row_fail = None
    for r in rows:
        achievable = max(r.sd_tin, r.tdma_tin, r.pc_tin, r.tdma)
        if r.ub1 < achievable - 1e-9 or (r.ub2 is not None
                                         and r.ub2 < achievable - 1e-9):
            row_fail = r.h
            break

    rng = np.random.default_rng(20250106)
    worst_margin = math.inf
    # The draws in their usual order, through the batched searches the sweep uses.
    draws = [draw_params(rng, h31_high=1.0) for _ in range(1000)]
    for r in _evaluate_rows(draws, CURVES):
        achievable = max(r.sd_tin, r.tdma_tin, r.pc_tin, r.tdma)
        worst_margin = min(worst_margin, r.ub1 - achievable, r.ub2 - achievable)
    ok = row_fail is None and worst_margin >= -1e-9
    _report(6, ok,
            f"sweep rows valid: {row_fail is None}; random-instance "
            f"min(ub - best achievable) = {worst_margin:.3e}")


def test_criterion_7_montecarlo_mi_agreement():
    rng = np.random.default_rng(20250107)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        p = PimacParams(float(rng.uniform(-2.0, 2.0)),
                        float(rng.uniform(-2.0, 2.0)),
                        float(rng.uniform(-2.0, 2.0)),
                        *(20.0 * (1.0 - rng.uniform(0.0, 0.975, 3))))
        genie = GenieParams(*draw_feasible_genie(rng))
        report = montecarlo_covariance_check(p, genie, 1_000_000,
                                             seed=int(rng.integers(2 ** 31)))
        worst = max(worst, report.max_gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 60.0
    _report(7, ok, f"max |analytic - sampled| = {worst:.2e} bits over 20 "
                   f"pairs at 1e6 samples, {elapsed:.1f}s")


def test_criterion_8_sign_invariance():
    rng = np.random.default_rng(20250108)
    mismatches = 0
    for _ in range(100):
        p = draw_params(rng, h31_high=1.0)   # keep ub2 defined for all flips

        def six(params):
            return (sd_tin_sum_rate(params).sum_rate,
                    tdma_tin_sum_rate(params).sum_rate,
                    pc_tin_sum_rate(params).sum_rate,
                    plain_tdma_sum_rate(params).sum_rate,
                    c_sigma_1(params).sum_rate,
                    c_sigma_2(params))

        base = six(p)
        for field in ("h12", "h22", "h31"):
            kwargs = dict(h12=p.h12, h22=p.h22, h31=p.h31, p1_max=p.p1_max,
                          p2_max=p.p2_max, p3_max=p.p3_max)
            kwargs[field] = -kwargs[field]
            if six(PimacParams(**kwargs)) != base:
                mismatches += 1
    _report(8, mismatches == 0,
            f"{mismatches} mismatches over 100 instances x 3 single-gain flips "
            f"(bit-identical comparison)")


def test_criterion_9_sweep_determinism(figure3_sweep):
    first = render_csv(figure3_sweep["rows"])
    second = render_csv(run_sweep(figure3_sweep["cfg"]))
    ok = first.encode() == second.encode()
    _report(9, ok, f"two full sweep runs, byte-identical CSV: {ok} "
                   f"({len(first)} bytes)")
