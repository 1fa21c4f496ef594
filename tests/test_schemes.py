import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimac import (
    ConstraintError,
    DegenerateInputError,
    DomainError,
    PimacParams,
    PowerAllocation,
    TimeShare,
    alpha_prime,
    alpha_star,
    half_log,
    pc_tin_objective,
    pc_tin_sum_rate,
    plain_tdma_sum_rate,
    sd_tin_region,
    sd_tin_sum_rate,
    tdma_tin_components,
    tdma_tin_sum_rate,
)
from pimac.schemes import _tdma_parts

from _support import draw_params, figure3_params
from oracle_tools import (
    dense_pc_grid_max,
    dense_tdma_objective,
    pc_objective_mp,
    sd_region_mp,
    tdma_components_mp,
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
    region = sd_tin_region(CANON)
    assert region.r1 == pytest.approx(CANON_R1, abs=1e-14)
    assert region.r2 == pytest.approx(CANON_R1, abs=1e-14)
    assert region.r12 == pytest.approx(CANON_R12, abs=1e-14)
    assert region.r3 == pytest.approx(CANON_R3, abs=1e-14)


def test_sd_tin_region_matches_oracle_on_random_draws():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = draw_params(rng)
        region = sd_tin_region(p)
        r1, r2, r12, r3 = sd_region_mp(p.h12, p.h22, p.h31,
                                       p.p1_max, p.p2_max, p.p3_max)
        assert region.r1 == pytest.approx(float(r1), abs=1e-12)
        assert region.r2 == pytest.approx(float(r2), abs=1e-12)
        assert region.r12 == pytest.approx(float(r12), abs=1e-12)
        assert region.r3 == pytest.approx(float(r3), abs=1e-12)
        assert region.r12 <= region.r1 + region.r2 + 1e-12


def test_sd_tin_region_trivial_cases():
    region = sd_tin_region(PimacParams(0, 0, 0, 10, 10, 10))
    assert region.r1 == half_log(10.0)
    assert region.r12 == half_log(20.0)
    assert region.r3 == half_log(10.0)

    silent_mac = sd_tin_region(PimacParams(0.7, -1.2, 0.4, 0.0, 0.0, 10.0))
    assert silent_mac.r1 == 0.0
    assert silent_mac.r2 == 0.0
    assert silent_mac.r12 == 0.0
    assert silent_mac.r3 == half_log(10.0)


def test_sd_tin_sum_rate():
    assert sd_tin_sum_rate(CANON).sum_rate == pytest.approx(CANON_SD, abs=1e-14)
    zero_gain = PimacParams(0, 0, 0, 10, 10, 10)
    assert sd_tin_sum_rate(zero_gain).sum_rate == pytest.approx(
        half_log(20.0) + half_log(10.0), abs=1e-14)
    no_p2p = PimacParams(0.9, 0.4, 0.3, 10, 10, 0.0)
    assert sd_tin_sum_rate(no_p2p).sum_rate == pytest.approx(half_log(20.0),
                                                             abs=1e-14)


def test_tdma_components_frozen_values():
    comp = tdma_tin_components(CANON, TimeShare(0.5))
    assert comp.a_of_alpha == pytest.approx(CANON_A_HALF, abs=1e-14)
    assert comp.b_of_alpha == pytest.approx(CANON_B_HALF, abs=1e-14)

    at_prime = tdma_tin_components(CANON, alpha_prime(CANON))
    assert at_prime.b_of_alpha == pytest.approx(CANON_R3, abs=1e-12)

    endpoint = tdma_tin_components(CANON, TimeShare(0.0))
    assert endpoint.a_of_alpha == pytest.approx(CANON_R1, abs=1e-14)
    assert endpoint.b_of_alpha == pytest.approx(CANON_B_ZERO, abs=1e-14)


def test_tdma_components_match_oracle_on_random_draws():
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = draw_params(rng)
        a = float(rng.uniform(0.0, 1.0))
        comp = tdma_tin_components(p, TimeShare(a))
        a_mp, b_mp = tdma_components_mp(p.h12, p.h22, p.h31, p.p1_max,
                                        p.p2_max, p.p3_max, a)
        assert comp.a_of_alpha == pytest.approx(float(a_mp), abs=1e-12)
        assert comp.b_of_alpha == pytest.approx(float(b_mp), abs=1e-12)


def test_tdma_components_share_validation():
    with pytest.raises(DomainError):
        tdma_tin_components(CANON, TimeShare(1.5))


def test_tdma_kernel_matches_oracle():
    # Seeded draws at random shares plus the shares where a slot weight is
    # 0, denormal-scale or one ulp; each part within 1e-12 of mpmath.
    rng = np.random.default_rng(11)
    edges = np.array([0.0, 1.0, 1e-300, 1.0 - 2.0 ** -53])
    for _ in range(25):
        p = draw_params(rng)
        alphas = np.concatenate((edges, rng.uniform(0.0, 1.0, 8)))
        mac, p2p = _tdma_parts(p, alphas)
        for a, got_mac, got_p2p in zip(alphas, mac, p2p):
            a_mp, b_mp = tdma_components_mp(p.h12, p.h22, p.h31, p.p1_max,
                                            p.p2_max, p.p3_max, float(a))
            assert got_mac == pytest.approx(float(a_mp), abs=1e-12)
            assert got_p2p == pytest.approx(float(b_mp), abs=1e-12)


def test_alpha_star():
    assert alpha_star(PimacParams(0, 0, 0, 10, 30, 0)).alpha == 0.25
    assert alpha_star(PimacParams(0, 0, 0, 7, 7, 0)).alpha == 0.5
    assert alpha_star(PimacParams(0, 0, 0, 10, 0, 0)).alpha == 1.0
    with pytest.raises(DegenerateInputError):
        alpha_star(PimacParams(0.5, 0.5, 0.5, 0.0, 0.0, 10.0))


def test_alpha_prime():
    assert alpha_prime(CANON).alpha == pytest.approx(2.5 / 2.9, abs=1e-15)
    assert alpha_prime(PimacParams(0.7, 0.7, 0, 5, 5, 1)).alpha == 0.5
    assert alpha_prime(PimacParams(0.5, 0.0, 0, 10, 10, 1)).alpha == 1.0
    with pytest.raises(DegenerateInputError):
        alpha_prime(PimacParams(0.0, 0.0, 0.5, 10, 10, 10))


def test_tdma_tin_dominates_value_at_alpha_star():
    res = tdma_tin_sum_rate(CANON)
    anchor = tdma_tin_components(CANON, alpha_star(CANON)).total
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
    anchor = tdma_tin_components(p, alpha_star(p)).total
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
    # One grid call with the four seeds, then three nested-grid levels of
    # 3 x 65 points before the spacing 2**-10 / 32**3 drops below 1e-7.
    res = tdma_tin_sum_rate(figure3_params(0.5))
    assert res.diagnostics == {
        "evaluations": 1614, "status": "grid+nested-grid",
        "stages": {"seeds": 4, "grid": 1025, "refine": 585},
        "levels": 3, "stop": "tolerance"}


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


def _zero_or_log_uniform(low_exp, high_exp):
    return st.one_of(st.just(0.0),
                     st.floats(low_exp, high_exp).map(lambda e: 10.0 ** e))


_WIDE_GAIN = st.builds(lambda m, sign: sign * m, _zero_or_log_uniform(-3, 150),
                       st.sampled_from((1.0, -1.0)))
_WIDE_POWER = _zero_or_log_uniform(-300, 200)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gains=st.tuples(_WIDE_GAIN, _WIDE_GAIN, _WIDE_GAIN),
       powers=st.tuples(_WIDE_POWER, _WIDE_POWER, _WIDE_POWER))
def test_pc_tin_vertex_over_extreme_range(gains, powers):
    # Gains up to 1e150 and powers from 1e-300 to 1e200: the result is a
    # finite box vertex, no grid point beats it, and nothing overflows.
    p = PimacParams(*gains, *powers)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = pc_tin_sum_rate(p)
    assert math.isfinite(res.sum_rate)
    assert res.arg.as_tuple() in set(itertools.product(*((0.0, b) for b in powers)))
    assert res.diagnostics == {"evaluations": 8, "status": "vertex-enumeration"}
    with np.errstate(over="ignore"):
        _, oracle = dense_pc_grid_max(p, 21)
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
@given(gains=st.tuples(_WIDE_GAIN, _WIDE_GAIN, _WIDE_GAIN),
       powers=st.tuples(_WIDE_POWER, _WIDE_POWER, _WIDE_POWER))
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
        seeds = [0.0, 1.0]
        for share in (alpha_star, alpha_prime):
            try:
                seeds.append(share(p).alpha)
            except DegenerateInputError:
                pass
        at_seeds = np.add(*_tdma_parts(p, seeds))
    v = res.sum_rate
    assert math.isfinite(v)
    assert 0.0 <= res.arg.alpha <= 1.0
    assert v >= at_seeds.max()
    with np.errstate(over="ignore"):
        _, dense = dense_tdma_objective(p, 200_001)
    assert v >= float(np.max(dense)) - 1e-12 * max(1.0, abs(v))


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

    with pytest.raises(DegenerateInputError):
        plain_tdma_sum_rate(PimacParams(0.5, 0.5, 0.5, 0, 0, 0))


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
        star = alpha_star(p)
        a_star = tdma_tin_components(p, star).a_of_alpha
        assert a_star == pytest.approx(sd_tin_region(p).r12, abs=1e-12)
        a_vals, _ = _tdma_parts(p, grid)
        assert max(a_vals) <= a_star + 1e-12


def test_scheme_determinism():
    a = tdma_tin_sum_rate(CANON)
    b = tdma_tin_sum_rate(CANON)
    assert a == b
    assert pc_tin_sum_rate(CANON) == pc_tin_sum_rate(CANON)
