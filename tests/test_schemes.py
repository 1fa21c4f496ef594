import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimac import (
    ConstraintError,
    PimacParams,
    PowerAllocation,
    alpha_prime,
    alpha_star,
    c_sigma_2,
    effective_noise_at_rx1,
    half_log,
    pc_tin_objective,
    pc_tin_sum_rate,
    plain_tdma_sum_rate,
    sd_tin_sum_rate,
    tdma_tin_sum_rate,
)
from pimac.schemes import _tdma_coeffs, _tdma_parts

from _support import (
    KERNEL_ROWS,
    WIDE_GAIN,
    WIDE_POWER,
    draw_params,
    figure3_params,
    same_bits,
    tdma_parts,
)
from oracle_tools import (
    dense_pc_grid_max,
    dense_tdma_objective,
    half_log_mp,
    pc_objective_mp,
    sd_region_mp,
    tdma_components_mp,
    tdma_parts_ref,
)

# Canonical instance used by most hand-checked values below.
CANON = PimacParams(h12=0.5, h22=0.2, h31=0.5, p1_max=10.0, p2_max=10.0,
                    p3_max=10.0)

# Frozen from the mpmath oracle (tests/oracle_tools.py) at 40 digits.
CANON_R1 = 0.97376629005293222
CANON_R12 = 1.3736169648100166
CANON_R3 = 0.91676942693062954
CANON_SD = 2.2903863917406462
CANON_A_HALF = 1.3736169648100166
CANON_B_HALF = 1.0319388867995932
CANON_B_ZERO = 1.5127675460535688
CANON_PC_USER1_SILENT = 2.486533836106501
PLAIN_TDMA_P10 = 2.4770981551934376


def test_sd_tin_region_frozen_values():
    # The region's corner rates are TDMA-TIN's MAC part at the endpoint
    # shares (r1, r2) and at alpha* (r12), and its P2P part at alpha' (r3).
    (r1, r2, r12), _ = tdma_parts(CANON, [1.0, 0.0, alpha_star(CANON).alpha])
    _, (r3,) = tdma_parts(CANON, [alpha_prime(CANON).alpha])
    assert r1 == pytest.approx(CANON_R1, abs=1e-14)
    assert r2 == pytest.approx(CANON_R1, abs=1e-14)
    assert r12 == pytest.approx(CANON_R12, abs=1e-14)
    assert r3 == pytest.approx(CANON_R3, abs=1e-14)
    assert sd_tin_sum_rate(CANON).sum_rate == pytest.approx(CANON_R12 + CANON_R3,
                                                            abs=1e-14)


def test_sd_tin_region_trivial_cases():
    # Without interference the P2P part is half_log(P3) at every share.
    zero_gain = PimacParams(0, 0, 0, 10, 10, 10)
    (r1,), (r3,) = tdma_parts(zero_gain, [1.0])
    assert r1 == half_log(10.0)
    assert r3 == half_log(10.0)
    assert sd_tin_sum_rate(zero_gain).sum_rate == half_log(20.0) + half_log(10.0)

    # With both MAC budgets zero alpha* is undefined and every MAC rate is 0.
    silent_mac = PimacParams(0.7, -1.2, 0.4, 0.0, 0.0, 10.0)
    (r1, r2), (r3, _) = tdma_parts(silent_mac, [1.0, 0.0])
    assert r1 == 0.0
    assert r2 == 0.0
    assert r3 == half_log(10.0)
    assert sd_tin_sum_rate(silent_mac).sum_rate == half_log(10.0)


def test_sd_tin_sum_rate():
    assert sd_tin_sum_rate(CANON).sum_rate == pytest.approx(CANON_SD, abs=1e-14)
    zero_gain = PimacParams(0, 0, 0, 10, 10, 10)
    assert sd_tin_sum_rate(zero_gain).sum_rate == pytest.approx(
        half_log(20.0) + half_log(10.0), abs=1e-14)
    no_p2p = PimacParams(0.9, 0.4, 0.3, 10, 10, 0.0)
    assert sd_tin_sum_rate(no_p2p).sum_rate == pytest.approx(half_log(20.0),
                                                             abs=1e-14)


def test_sd_tin_matches_oracle_on_random_draws():
    # The region's corner rates are TDMA-TIN's MAC part at the endpoint
    # shares, its sum rate the MAC part at alpha* and its P2P rate the P2P
    # part at alpha'; full-power TIN adds the last two.
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = draw_params(rng)
        r1, r2, r12, r3 = (float(r) for r in sd_region_mp(
            p.h12, p.h22, p.h31, p.p1_max, p.p2_max, p.p3_max))
        mac, _ = tdma_parts(p, [1.0, 0.0, alpha_star(p).alpha])
        _, (b_prime,) = tdma_parts(p, [alpha_prime(p).alpha])
        assert mac[0] == pytest.approx(r1, abs=1e-12)
        assert mac[1] == pytest.approx(r2, abs=1e-12)
        assert mac[2] == pytest.approx(r12, abs=1e-12)
        assert b_prime == pytest.approx(r3, abs=1e-12)
        assert mac[2] <= mac[0] + mac[1] + 1e-12
        assert sd_tin_sum_rate(p).sum_rate == pytest.approx(r12 + r3, abs=2e-12)


def test_tdma_components_frozen_values():
    (a_half,), (b_half,) = tdma_parts(CANON, [0.5])
    assert a_half == pytest.approx(CANON_A_HALF, abs=1e-14)
    assert b_half == pytest.approx(CANON_B_HALF, abs=1e-14)

    _, (b_prime,) = tdma_parts(CANON, [alpha_prime(CANON).alpha])
    assert b_prime == pytest.approx(CANON_R3, abs=1e-12)

    (a_zero, a_one), (b_zero, _) = tdma_parts(CANON, [0.0, 1.0])
    assert a_zero == pytest.approx(CANON_R1, abs=1e-14)
    assert a_one == pytest.approx(CANON_R1, abs=1e-14)
    assert b_zero == pytest.approx(CANON_B_ZERO, abs=1e-14)


def test_tdma_kernel_matches_oracle():
    # Seeded draws at random shares plus the shares where a slot weight is
    # 0, denormal-scale or one ulp; each part within 1e-12 of mpmath.
    rng = np.random.default_rng(11)
    edges = np.array([0.0, 1.0, 1e-300, 1.0 - 2.0 ** -53])
    for _ in range(25):
        p = draw_params(rng)
        alphas = np.concatenate((edges, rng.uniform(0.0, 1.0, 8)))
        mac, p2p = tdma_parts(p, alphas)
        for a, got_mac, got_p2p in zip(alphas, mac, p2p):
            a_mp, b_mp = tdma_components_mp(p.h12, p.h22, p.h31, p.p1_max,
                                            p.p2_max, p.p3_max, float(a))
            assert got_mac == pytest.approx(float(a_mp), abs=1e-12)
            assert got_p2p == pytest.approx(float(b_mp), abs=1e-12)


def test_tdma_kernel_equals_expression_form():
    # The in-place kernel equals the expression form bit for bit, for a batch
    # of 15 rows holding every degenerate case and for each row alone, at the
    # shares 0 and 1, each row's seeds (alpha*, alpha') and random shares.
    rng = np.random.default_rng(17)
    seeds = [[s.alpha if s is not None else 0.5 for s in (alpha_star(p), alpha_prime(p))]
             for p in KERNEL_ROWS]
    alphas = np.hstack((np.tile([0.0, 1.0], (len(KERNEL_ROWS), 1)), seeds,
                        rng.uniform(0.0, 1.0, (len(KERNEL_ROWS), 61))))
    for c, a in [(_tdma_coeffs(KERNEL_ROWS), alphas)] + [
            (_tdma_coeffs([p]), row[None]) for p, row in zip(KERNEL_ROWS, alphas)]:
        with np.errstate(all="ignore"):
            got, want = _tdma_parts(c, a), tdma_parts_ref(c, a)
        assert all(same_bits(g, w) for g, w in zip(got, want))


def test_alpha_star():
    assert alpha_star(PimacParams(0, 0, 0, 10, 30, 0)).alpha == 0.25
    assert alpha_star(PimacParams(0, 0, 0, 7, 7, 0)).alpha == 0.5
    assert alpha_star(PimacParams(0, 0, 0, 10, 0, 0)).alpha == 1.0
    assert alpha_star(PimacParams(0.5, 0.5, 0.5, 0.0, 0.0, 10.0)) is None
    # P1 + P2 overflows to inf: the share is still 1/2, not 1e308 / inf = 0.
    assert alpha_star(PimacParams(0, 0, 0, 1e308, 1e308, 1.0)).alpha == 0.5
    # The sum 1.1e308 is finite; it rounds, so the share is 10/11 to one ulp.
    assert alpha_star(PimacParams(0, 0, 0, 1e308, 1e307, 1.0)).alpha == pytest.approx(
        10 / 11, rel=2.0 ** -52)


def test_alpha_prime():
    assert alpha_prime(CANON).alpha == pytest.approx(2.5 / 2.9, abs=1e-15)
    assert alpha_prime(PimacParams(0.7, 0.7, 0, 5, 5, 1)).alpha == 0.5
    assert alpha_prime(PimacParams(0.5, 0.0, 0, 10, 10, 1)).alpha == 1.0
    assert alpha_prime(PimacParams(0.0, 0.0, 0.5, 10, 10, 10)) is None


def test_tdma_tin_dominates_value_at_alpha_star():
    res = tdma_tin_sum_rate(CANON)
    (anchor,) = np.add(*tdma_parts(CANON, [alpha_star(CANON).alpha]))
    assert anchor == pytest.approx(CANON_A_HALF + CANON_B_HALF, abs=1e-14)
    assert res.sum_rate >= anchor
    assert res.sum_rate >= CANON_SD - 1e-12


def test_tdma_tin_zero_gain_maximizer():
    res = tdma_tin_sum_rate(PimacParams(0, 0, 0, 10, 10, 10))
    assert res.sum_rate == pytest.approx(half_log(20.0) + half_log(10.0), abs=1e-12)
    assert abs(res.arg.alpha - 0.5) <= 1e-5


def test_tdma_tin_equality_when_interference_profile_matches():
    # With h12^2 = h22^2 and equal powers the MAC-optimal and P2P-optimal
    # shares coincide, so the objective at that share equals the full-power
    # TIN rate (the maximum may still exceed it).
    p = PimacParams(0.8, -0.8, 0.6, 7.0, 7.0, 12.0)
    (anchor,) = np.add(*tdma_parts(p, [alpha_star(p).alpha]))
    assert anchor == pytest.approx(sd_tin_sum_rate(p).sum_rate, abs=1e-12)
    assert tdma_tin_sum_rate(p).sum_rate >= anchor


def test_tdma_tin_matches_dense_grid_oracle():
    for h in (0.0, 0.35, 1.0):
        p = figure3_params(h)
        _, values = dense_tdma_objective(p, 200_001)
        oracle = float(np.max(values))
        res = tdma_tin_sum_rate(p)
        assert res.sum_rate >= oracle - 1e-12
        assert res.sum_rate <= oracle + 1e-6


def test_tdma_tin_diagnostics():
    # One grid call with the two seeds alpha* and alpha' (the grid holds both
    # endpoints), then three nested-grid levels of 3 x 65 points before the
    # spacing 2**-10 / 32**3 drops below 1e-7.
    res = tdma_tin_sum_rate(figure3_params(0.5))
    assert res.diagnostics == {
        "evaluations": 1612,
        "stages": {"seeds": 2, "grid": 1025, "refine": 585},
        "levels": 3}


def test_pc_tin_objective_frozen_values():
    full = pc_tin_objective(CANON, PowerAllocation(10, 10, 10))
    assert full == pytest.approx(CANON_SD, abs=1e-14)
    user1_silent = pc_tin_objective(CANON, PowerAllocation(0, 10, 10))
    assert user1_silent == pytest.approx(CANON_PC_USER1_SILENT, abs=1e-14)
    no_p2p = pc_tin_objective(CANON, PowerAllocation(10, 10, 0))
    assert no_p2p == pytest.approx(half_log(20.0), abs=1e-14)


def test_pc_tin_objective_matches_oracle_on_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = draw_params(rng)
        alloc = PowerAllocation(*(rng.uniform(0.0, 1.0, 3)
                                  * (p.p1_max, p.p2_max, p.p3_max)))
        got = pc_tin_objective(p, alloc)
        want = float(pc_objective_mp(p.h12, p.h22, p.h31,
                                     alloc.p1, alloc.p2, alloc.p3))
        assert got == pytest.approx(want, abs=1e-12)


def test_pc_tin_objective_enforces_budgets():
    with pytest.raises(ConstraintError):
        pc_tin_objective(CANON, PowerAllocation(10.5, 10, 10))


@pytest.mark.parametrize("h,expected_corner", [
    (0.2, (10.0, 10.0, 10.0)),
    (0.5, (0.0, 10.0, 10.0)),
    (1.0, (10.0, 10.0, 0.0)),
])
def test_pc_tin_regime_corners(h, expected_corner):
    p = figure3_params(h)
    res = pc_tin_sum_rate(p)
    assert res.arg.as_tuple() == expected_corner
    # cross-check against a brute-force grid over the budget box
    _, oracle = dense_pc_grid_max(p, 41)
    assert res.sum_rate >= oracle - 1e-12
    corner_value = pc_tin_objective(p, PowerAllocation(*expected_corner))
    assert res.sum_rate == pytest.approx(corner_value, abs=1e-12)


def test_pc_tin_dominates_sd_and_plain_tdma():
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = draw_params(rng)
        pc = pc_tin_sum_rate(p).sum_rate
        assert pc >= sd_tin_sum_rate(p).sum_rate - 1e-12
        # Not pc >= plain TDMA: PC-TIN does not time-share, and this seed's
        # first draw gives 2.520 against TDMA's 2.840. It does reach TDMA's
        # end shares, the MAC-alone and link-alone vertices of the box.
        budgets = (p.p1_max, p.p2_max, p.p3_max)
        for on in itertools.product((False, True), repeat=3):
            vertex = PowerAllocation(*(b if o else 0.0 for b, o in zip(budgets, on)))
            assert pc >= pc_tin_objective(p, vertex) - 1e-12


# P1 + P2 overflows to inf while every budget is finite.
_SUM_OVERFLOWS = ((0.5, 0.2, 0.5), (1e308, 1e308, 10.0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gains=st.tuples(WIDE_GAIN, WIDE_GAIN, WIDE_GAIN),
       powers=st.tuples(WIDE_POWER, WIDE_POWER, WIDE_POWER))
@example(*_SUM_OVERFLOWS)
def test_pc_tin_vertex_over_extreme_range(gains, powers):
    # Gains up to 1e150 and powers from 1e-300 to 1e200, and budgets whose
    # sum overflows: the result is a finite box vertex whose value matches
    # mpmath, no grid point beats it, and nothing overflows.
    p = PimacParams(*gains, *powers)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = pc_tin_sum_rate(p)
    assert math.isfinite(res.sum_rate)
    assert res.arg.as_tuple() in set(itertools.product(*((0.0, b) for b in powers)))
    assert res.diagnostics == {"evaluations": 8}
    assert res.sum_rate == pytest.approx(
        float(pc_objective_mp(*gains, *res.arg.as_tuple())), rel=1e-12, abs=1e-12)
    with np.errstate(over="ignore"):
        _, oracle = dense_pc_grid_max(p, 21)
    if math.isfinite(oracle):  # float64 grid sums of 1e308 overflow
        assert res.sum_rate >= oracle - 1e-12 * max(1.0, abs(res.sum_rate))


# genie_wide's extreme panel, point 300: alpha' = 1.3e-257, where the plain
# form w log2(1 + P/(w N)) of the MAC slot overflows to inf.
_TDMA_POINT_300 = ((-1.937759477503557e-132, 8.568571513207532e-25,
                    -7.597887117416644e-137),
                   (4.506882001480703e+156, 1.8076522270089212e+198,
                    9.779286297207784e-164))
# Panel point 590: h22^2 P2 overflows to inf, so alpha' = 0.
_TDMA_CROSS_INF = ((-3.754911792654859e-114, -7.342041777695163e+101,
                    -5.772788864900581e-123),
                   (2.031198537527071e+113, 3.2676065738103122e+196,
                    9.563444048275592e-27))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gains=st.tuples(WIDE_GAIN, WIDE_GAIN, WIDE_GAIN),
       powers=st.tuples(WIDE_POWER, WIDE_POWER, WIDE_POWER))
@example(*_TDMA_POINT_300)
@example(*_TDMA_CROSS_INF)
def test_tdma_tin_over_extreme_range(gains, powers):
    # Gains up to 1e150 and powers from 1e-300 to 1e200: a finite value at a
    # share in [0, 1], no worse than any seed or a dense grid, and no
    # numpy warning on the way.
    p = PimacParams(*gains, *powers)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = tdma_tin_sum_rate(p)
        seeds = [0.0, 1.0] + [share.alpha for share in (alpha_star(p), alpha_prime(p))
                              if share is not None]
        at_seeds = np.add(*tdma_parts(p, seeds))
    v = res.sum_rate
    assert math.isfinite(v)
    assert 0.0 <= res.arg.alpha <= 1.0
    assert v >= at_seeds.max()
    with np.errstate(over="ignore"):
        _, dense = dense_tdma_objective(p, 200_001)
    assert v >= float(np.max(dense)) - 1e-12 * max(1.0, abs(v))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gains=st.tuples(WIDE_GAIN, WIDE_GAIN, WIDE_GAIN),
       powers=st.tuples(WIDE_POWER, WIDE_POWER, WIDE_POWER))
@example((0.5, 0.2, 0.5), (0.0, 0.0, 0.0))
@example(*_SUM_OVERFLOWS)
@example((0.5, 0.2, 0.5), (1e308, 0.0, 1e308))
def test_closed_forms_over_extreme_range(gains, powers):
    # Gains up to 1e150 and powers from 1e-300 to 1e200, all powers zero, and
    # budgets whose sums overflow: SD-TIN, plain TDMA and, in its regime, the
    # closed-form bound return finite values, SD-TIN is PC-TIN's objective
    # at the full-power vertex bit for bit, plain TDMA equals its closed
    # form half_log(P1+P2+P3), and the bound is above both schemes.
    p = PimacParams(*gains, *powers)
    sd = sd_tin_sum_rate(p).sum_rate
    assert sd == pc_tin_objective(p, PowerAllocation(p.p1_max, p.p2_max, p.p3_max))
    tdma = plain_tdma_sum_rate(p).sum_rate
    assert math.isfinite(sd) and math.isfinite(tdma)
    assert tdma == pytest.approx(float(half_log_mp(sum(map(mp.mpf, powers)))),
                                 rel=1e-12, abs=1e-12)
    if p.h31 * p.h31 <= 1.0:
        ub2 = c_sigma_2(p)
        assert math.isfinite(ub2)
        assert ub2 >= max(sd, tdma) - 1e-9


@settings(derandomize=True, deadline=None, max_examples=100)
@given(alphas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       power_exp=st.floats(20.0, 200.0))
def test_gdof_at_high_snr(alphas, power_exp):
    """Each rate divided by ``1/2 log2 P`` is within ``4 / log2 P`` of its
    generalized degrees of freedom, with ``P1 = P2 = P3 = P`` and
    ``h_ij^2 P = P^a_ij``.

    Every rate here is a sum of at most two terms ``half_log(S / I)``, or
    lies between two such sums (TDMA-TIN is at least its value at the better
    endpoint share and at most the MAC part at alpha* plus the larger P2P
    part of the two endpoints, by convexity; PC-TIN is the best vertex). In each
    term ``I`` is 1 plus at most two powers ``P^b`` and ``I + S`` at most
    four, so ``log2(I + S)`` exceeds the largest exponent times ``log2 P`` by
    0 to 2 and ``log2 I`` by 0 to ``log2 3``. A term is thus within 1 bit of
    its limit ``1/2 (s - i)^+ log2 P``, a rate within 2 bits of its GDoF times
    ``1/2 log2 P``, and the ratio within ``2 * 2 / log2 P``: ``K = 4``.
    """
    a12, a22, a31 = alphas
    power = 10.0 ** power_exp
    p = PimacParams(*(math.sqrt(power ** (a - 1.0)) for a in (a12, a22, a31)),
                    power, power, power)
    checks = {
        "sd_tin": (sd_tin_sum_rate(p).sum_rate, 2.0 - a31 - max(a12, a22)),
        "tdma_tin": (tdma_tin_sum_rate(p).sum_rate, 2.0 - a31 - min(a12, a22)),
        "pc_tin": (pc_tin_sum_rate(p).sum_rate, max(1.0, 2.0 - a31 - min(a12, a22))),
        "tdma": (plain_tdma_sum_rate(p).sum_rate, 1.0),
        "ub2": (c_sigma_2(p), 2.0 - a31),
    }
    for name, (rate, limit) in checks.items():
        assert abs(rate / (0.5 * math.log2(power)) - limit) <= 4.0 / math.log2(power), name


def test_tdma_tin_cross_product_overflow_keeps_value():
    res = tdma_tin_sum_rate(PimacParams(*_TDMA_CROSS_INF[0], *_TDMA_CROSS_INF[1]))
    assert res.sum_rate == 326.40307044428636
    assert res.arg.alpha == 0.0


def test_alpha_prime_when_cross_products_overflow():
    # h^2 P is 1e500 for both users: the ratio is taken in the log domain.
    assert alpha_prime(PimacParams(1e150, -1e150, 0.0, 1e200, 1e200, 1.0)).alpha == 0.5
    share = alpha_prime(PimacParams(1e150, 1e149, 0.0, 1e200, 1e200, 1.0)).alpha
    assert share == pytest.approx(100.0 / 101.0, rel=1e-14)
    assert alpha_prime(PimacParams(1e150, 0.0, 0.0, 1e200, 1e200, 1.0)).alpha == 1.0
    assert alpha_prime(PimacParams(1e-3, 1e150, 0.0, 1e-300, 1e200, 1.0)).alpha == 0.0


def test_plain_tdma_examples():
    res = plain_tdma_sum_rate(PimacParams(0.3, 0.1, 0.9, 10, 10, 10))
    assert res.arg.alpha == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert res.sum_rate == pytest.approx(PLAIN_TDMA_P10, abs=1e-14)

    only_p2p = plain_tdma_sum_rate(PimacParams(0, 0, 0, 0, 0, 10))
    assert only_p2p.arg.alpha == 0.0
    assert only_p2p.sum_rate == half_log(10.0)

    only_mac = plain_tdma_sum_rate(PimacParams(0, 0, 0, 10, 10, 0))
    assert only_mac.arg.alpha == 1.0
    assert only_mac.sum_rate == half_log(20.0)

    # All budgets zero: every share gives the limit 0, and the smallest wins.
    silent = plain_tdma_sum_rate(PimacParams(0.5, 0.5, 0.5, 0, 0, 0))
    assert (silent.arg.alpha, silent.sum_rate) == (0.0, 0.0)


def test_plain_tdma_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = draw_params(rng)
        res = plain_tdma_sum_rate(p)
        assert abs(res.sum_rate
                   - half_log(p.p1_max + p.p2_max + p.p3_max)) <= 1e-12


def test_dominance_chain_on_random_draws():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = draw_params(rng)
        sd = sd_tin_sum_rate(p).sum_rate
        td = tdma_tin_sum_rate(p).sum_rate
        assert td >= sd - 1e-12


def test_mac_part_is_maximized_at_alpha_star():
    rng = np.random.default_rng(10)
    grid = np.linspace(0.0, 1.0, 501)
    for _ in range(20):
        p = draw_params(rng)
        (a_star,), _ = tdma_parts(p, [alpha_star(p).alpha])
        noise = effective_noise_at_rx1(p, p.p3_max)
        assert a_star == pytest.approx(half_log((p.p1_max + p.p2_max) / noise), abs=1e-12)
        a_vals, _ = tdma_parts(p, grid)
        assert max(a_vals) <= a_star + 1e-12


def test_scheme_determinism():
    a = tdma_tin_sum_rate(CANON)
    b = tdma_tin_sum_rate(CANON)
    assert a == b
    assert pc_tin_sum_rate(CANON) == pc_tin_sum_rate(CANON)
