import dataclasses
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
    GenieParams,
    InfeasibleError,
    InvalidRegimeError,
    PimacParams,
    c_sigma_1,
    c_sigma_2,
    genie_bound_objective,
    half_log,
    pc_tin_sum_rate,
    plain_tdma_sum_rate,
    sd_tin_sum_rate,
    tdma_tin_sum_rate,
)
from pimac.bounds import (
    _c_sigma_1_batch,
    _genie_coeffs,
    _genie_kernel,
    _genie_sum,
    _sampling_map,
    genie_bound_batch,
)
from pimac.optimize import _grid, _grid_axes, _windows

from _support import (
    KERNEL_ROWS,
    WIDE_GAIN,
    WIDE_POWER,
    draw_feasible_genie,
    draw_params,
    figure3_params,
    log_uniform,
    same_bits,
)
from oracle_tools import (
    MAC_INPUTS,
    P2P_INPUT,
    RX1_OUTPUTS,
    RX2_OUTPUTS,
    certified_genie_min,
    genie_box_bits,
    genie_box_coeffs,
    genie_independent,
    genie_joint_cov,
    genie_kernel_ref,
    genie_reduced,
    genie_reduced_ref,
    mutual_info_bits,
)

# Frozen from the mpmath oracle.
UB2_CANON = 3.1033327741286653          # h31 = 0.5, P = 10 each
UB2_UNIT_GAIN = 2.4770981551934376      # h31 = 1, equals plain TDMA

# Regression constant: the deterministic minimizer output at the sweep
# point h = 0.5 (validity against all achievable rates and tightness
# against dense grids are asserted independently below).
UB1_CANON_REGRESSION = 3.019308097794974


def test_c_sigma_2_frozen_values():
    assert c_sigma_2(PimacParams(0.5, 0.2, 0.5, 10, 10, 10)) == pytest.approx(
        UB2_CANON, abs=1e-14)
    assert c_sigma_2(PimacParams(1.0, 0.2, 1.0, 10, 10, 10)) == pytest.approx(
        UB2_UNIT_GAIN, abs=1e-14)
    assert c_sigma_2(PimacParams(0.4, 0.7, 0.0, 10, 10, 10)) == pytest.approx(
        half_log(20.0) + half_log(10.0), abs=1e-14)


def test_c_sigma_2_equals_plain_tdma_at_unit_cross_gain():
    p = PimacParams(1.0, 0.2, 1.0, 10, 10, 10)
    assert abs(c_sigma_2(p) - plain_tdma_sum_rate(p).sum_rate) <= 1e-12


def test_c_sigma_2_invalid_regime():
    with pytest.raises(InvalidRegimeError):
        c_sigma_2(PimacParams(0.5, 0.2, 1.2, 10, 10, 10))


def test_genie_params_feasibility():
    GenieParams(0.0, 0.0, 1.0, 1.0)
    GenieParams(1.0, 0.0, 1.0, 0.0)        # boundary: rho1=1 forces eta2=0
    GenieParams(-0.6, 0.8, 0.6, 0.8)
    with pytest.raises(ConstraintError):
        GenieParams(1.5, 0.0, 0.0, 0.0)
    with pytest.raises(ConstraintError):
        GenieParams(0.0, 0.8, 0.9, 1.0)    # eta1^2 > 1 - rho2^2
    with pytest.raises(ConstraintError):
        GenieParams(0.8, 0.0, 1.0, 0.9)    # eta2^2 > 1 - rho1^2
    # the constraint pairing is crosswise: rho2 bounds eta1, rho1 bounds eta2
    GenieParams(0.9, 0.0, 1.0, 0.4)
    for field in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            fields = [0.0, 0.0, 0.5, 0.5]
            fields[field] = bad
            with pytest.raises(ConstraintError, match="must be finite"):
                GenieParams(*fields)


def test_joint_cov_zero_gain_structure():
    params = PimacParams(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    cov = genie_joint_cov(params, (0.0, 0.0, 1.0, 1.0))
    assert cov[3, 3] == 3.0   # Var(Y1) = P1 + P2 + 1
    assert cov[4, 4] == 1.0   # Var(S1) = eta1^2
    assert cov[6, 6] == 1.0   # Var(S2) = eta2^2
    # receiver-1 block decouples from receiver-2 block
    for i in (0, 1, 3, 4):
        for j in (5, 6):
            assert cov[i, j] == 0.0
    assert cov[2, 5] == 1.0   # Cov(X3, Y2) = P3


def test_joint_cov_matches_linear_map_oracle():
    # The Monte-Carlo check samples the seven variables through its own map
    # of standard normals, with each genie noise built from its receiver
    # noise and a fresh normal; their covariance m m^T is the oracle's
    # L B L^T over the correlated noises.
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = draw_params(rng)
        genie = draw_feasible_genie(rng)
        m = _sampling_map(p, GenieParams(*genie))
        oracle = genie_joint_cov(p, genie)
        assert np.max(np.abs(m @ m.T - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


def test_joint_cov_cross_term_formula():
    p = PimacParams(0.7, -0.3, 0.4, 5.0, 8.0, 3.0)
    cov = genie_joint_cov(p, (0.5, -0.2, 0.6, 0.7))
    # Cov(Y1, S1) = h12 P1 + h22 P2 + eta1 rho1
    assert cov[3, 4] == pytest.approx(0.7 * 5.0 - 0.3 * 8.0 + 0.6 * 0.5, abs=1e-14)
    # Cov(Y2, S2) = h31 P3 + eta2 rho2
    assert cov[5, 6] == pytest.approx(0.4 * 3.0 + 0.7 * -0.2, abs=1e-14)


def test_joint_cov_psd_at_constraint_boundary():
    p = PimacParams(0.5, 0.2, 0.5, 10, 10, 10)
    cov = genie_joint_cov(p, (1.0, 0.0, 1.0, 0.0))
    assert np.linalg.eigvalsh(cov)[0] >= -1e-10


def test_joint_cov_psd_over_random_draws():
    rng = np.random.default_rng(12)
    worst = math.inf
    for _ in range(10_000):
        p = draw_params(rng)
        genie = draw_feasible_genie(rng, rho_high=1.0, frac_low=0.0)
        worst = min(worst, np.linalg.eigvalsh(genie_joint_cov(p, genie))[0])
    assert worst >= -1e-10


def test_mutual_info_scalar_channel():
    # I(X; X+Z) with P=15 and unit noise is exactly 2 bits.
    p = PimacParams(0.0, 0.0, 0.0, 15.0, 0.0, 0.0)
    cov = genie_joint_cov(p, (0.0, 0.0, 1.0, 1.0))
    assert mutual_info_bits(cov, (0,), (3,)) == pytest.approx(2.0, abs=1e-12)


def test_mutual_info_independence_and_zero_variance():
    p = PimacParams(0.0, 0.0, 0.0, 10.0, 10.0, 10.0)
    cov = genie_joint_cov(p, (0.0, 0.0, 1.0, 1.0))
    assert mutual_info_bits(cov, (0,), RX2_OUTPUTS) == 0.0
    # zero-variance members are dropped; an all-constant group carries nothing
    silent = PimacParams(0.5, 0.2, 0.5, 0.0, 0.0, 10.0)
    cov = genie_joint_cov(silent, (0.0, 0.0, 1.0, 1.0))
    assert mutual_info_bits(cov, MAC_INPUTS, RX1_OUTPUTS) == 0.0


def test_mutual_info_symmetry_and_nonnegativity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = draw_params(rng)
        cov = genie_joint_cov(p, draw_feasible_genie(rng))
        a, b = MAC_INPUTS, RX1_OUTPUTS
        forward = mutual_info_bits(cov, a, b)
        backward = mutual_info_bits(cov, b, a)
        assert forward == backward
        assert forward >= 0.0
        p2p = mutual_info_bits(cov, P2P_INPUT, RX2_OUTPUTS)
        assert p2p == mutual_info_bits(cov, RX2_OUTPUTS, P2P_INPUT)
        assert forward == mutual_info_bits(cov, (1, 0), b)


def test_mutual_info_degenerate_noiseless_genie():
    # A zero scaling with nonvanishing signal reveals the inputs exactly.
    p = PimacParams(0.5, 0.2, 0.5, 10, 10, 10)
    cov = genie_joint_cov(p, (0.0, 1.0, 0.0, 1.0))
    assert mutual_info_bits(cov, MAC_INPUTS, RX1_OUTPUTS) == math.inf
    assert genie_bound_objective(p, GenieParams(0.0, 1.0, 0.0, 1.0)) == math.inf


def test_genie_objective_zero_gain_value():
    p = PimacParams(0.0, 0.0, 0.0, 10.0, 10.0, 10.0)
    expected = half_log(20.0) + half_log(10.0)
    got = genie_bound_objective(p, GenieParams(0.0, 0.0, 1.0, 1.0))
    assert got == pytest.approx(expected, abs=1e-12)


def test_genie_kernel_equals_expression_form():
    # The search's objective (_genie_sum: the scalings and the kernel, with
    # rho^2 and 1/sqrt(1 - rho^2) of both coordinates in one call) equals
    # the expression form bit for bit at explicit points, given as their
    # (2, m, n, 1, 1) columns: on the 33 x 33 grid (stride 0 over
    # instances) and on per-instance windows, for a batch of 15 rows holding
    # every degenerate case and for each row alone. The kernel is also
    # compared at scalings t = 1/eta from 1 to inf, and genie_bound_batch,
    # whose path the Monte-Carlo check shares, row by row at eta from 0 to 1.
    rng = np.random.default_rng(13)
    for rows in [KERNEL_ROWS] + [[p] for p in KERNEL_ROWS]:
        c, m = _genie_coeffs(rows), len(rows)
        windows = rng.uniform(0.0, 1.0, (2, m, 243, 1, 1))
        windows[:, :, :3, 0, 0] = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]).T[:, None]
        for xy in (_grid(2, 33, m), windows):
            with np.errstate(all="ignore"):
                assert same_bits(_genie_sum(c, xy), genie_reduced_ref(c, xy[0], xy[1]))
        r1, r2 = windows
        with np.errstate(all="ignore"):
            t1 = 1.0 / (rng.uniform(0.0, 1.0, r1.shape) * np.sqrt(1.0 - r2 * r2))
            t2 = 1.0 / (rng.uniform(0.0, 1.0, r1.shape) * np.sqrt(1.0 - r1 * r1))
            t1[:, 3:6], t2[:, 6:9] = math.inf, math.inf
            arrays = np.empty((4,) + r1.shape)
            w = np.subtract(t1, r1 * c.s_a, out=arrays[0])
            got = _genie_kernel(c, r2, (r1 * r1, r2 * r2), w, t1, t2, arrays)
            want = genie_kernel_ref(c, r1, r2, t1, t2)
        assert all(same_bits(g, w) for g, w in zip(got, want))
    for p in KERNEL_ROWS:
        genie = rng.uniform(0.0, 1.0, (60, 4))
        genie[:3] = [(0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)]
        r1, r2, e1, e2 = genie.T[:, None]
        with np.errstate(all="ignore"):
            mac, p2p = genie_kernel_ref(_genie_coeffs([p], signed=True), r1, r2,
                                        1.0 / e1, 1.0 / e2)
        assert same_bits(genie_bound_batch(p, genie), (mac + p2p)[0])


def test_genie_objective_on_axes_equals_points():
    # A batch evaluates the genie objective on its stages' axes: the shared
    # 33-point grid, whole and cut into whole rows as the search cuts it
    # for a block of 67 rows, and 3 windows of 9 x 9 per instance, around
    # centres that put them against 0 and 1, at the first and the last
    # level's spacing. Each call equals the objective at the same axes
    # expanded into explicit points, and the expression form there, bit for
    # bit, for the kernel rows (every degenerate case, gains of 1e150,
    # powers of 1e200 and 1e-300) as a batch and one by one. The expression
    # form pairs each one-coordinate term with its coordinate on its own.
    gx, gy = _grid_axes(33)
    centres = np.array([(0.0, 0.5), (1.0, 1.0), (0.99, 0.01)])
    for rows in [KERNEL_ROWS] + [[p] for p in KERNEL_ROWS]:
        c, m = _genie_coeffs(rows), len(rows)
        stages = [(gx, gy)] + [(gx[:, j:j + 7], gy) for j in range(0, 33, 7)]
        stages += [_windows(np.broadcast_to(centres, (m, 3, 2)), spacing, np.empty((2, m, 3, 9)))
                   for spacing in (2.0 ** -5, 2.0 ** -19)]
        for x, y in stages:
            points = np.array(np.broadcast_arrays(x, y, np.empty((m, 1, 1, 1)))[:2])
            with np.errstate(all="ignore"):
                got = _genie_sum(c, (x, y)).copy()
                want = _genie_sum(c, points)
            assert got.shape == points.shape[1:]
            assert same_bits(got, want) and same_bits(got, genie_reduced_ref(c, *points))


def test_genie_objective_validity_over_random_draws():
    # Any feasible genie point upper-bounds every achievable sum-rate.
    rng = np.random.default_rng(14)
    for _ in range(100):
        p = draw_params(rng)
        genie = GenieParams(*draw_feasible_genie(rng))
        bound = genie_bound_objective(p, genie)
        achievable = max(sd_tin_sum_rate(p).sum_rate,
                         tdma_tin_sum_rate(p).sum_rate,
                         pc_tin_sum_rate(p).sum_rate,
                         plain_tdma_sum_rate(p).sum_rate)
        assert bound >= achievable - 1e-9


def _covariance_oracle(p, genie):
    cov = genie_joint_cov(p, genie)
    return (mutual_info_bits(cov, MAC_INPUTS, RX1_OUTPUTS)
            + mutual_info_bits(cov, P2P_INPUT, RX2_OUTPUTS))


def test_genie_kernel_matches_covariance_oracle():
    rng = np.random.default_rng(15)
    for _ in range(20):
        p = draw_params(rng)
        signs = rng.choice([-1.0, 1.0], 3)
        p = PimacParams(signs[0] * p.h12, signs[1] * p.h22, signs[2] * p.h31,
                        p.p1_max, p.p2_max, p.p3_max)
        pts = np.array([draw_feasible_genie(rng) for _ in range(20)])
        oracle = np.array([_covariance_oracle(p, g) for g in pts])
        assert np.max(np.abs(genie_bound_batch(p, pts) - oracle)) <= 1e-11

    # Edge lattice: exact correlations, zero and full-radius scalings, zero
    # gains and powers. It holds every special case of the covariance oracle:
    # dropped zero-variance groups, noiseless genies (+inf) and 0/0 ratios.
    genies = sorted({(r1, r2, e1, e2)
                     for r1, r2 in itertools.product((-1.0, 0.0, 1.0), repeat=2)
                     for e1 in (0.0, math.sqrt(1.0 - r2 * r2))
                     for e2 in (0.0, math.sqrt(1.0 - r1 * r1))})
    seen_inf = seen_finite = 0
    for gains in itertools.product((-1.0, 0.0, 0.5, 1.0), repeat=3):
        for powers in itertools.product((0.0, 10.0), repeat=3):
            p = PimacParams(*gains, *powers)
            got = genie_bound_batch(p, genies)
            for g, v in zip(genies, got):
                want = _covariance_oracle(p, g)
                assert v == want or abs(v - want) <= 1e-11, (p, g, v, want)
                seen_inf += want == math.inf
                seen_finite += want < math.inf
    assert seen_inf and seen_finite
    # S1 carries no variance and is dropped, X3 is silent: I(X1,X2; Y1)
    # alone, where the ratio form reads 0/0.
    dropped = genie_bound_batch(PimacParams(0.0, 0.0, 0.5, 10.0, 10.0, 0.0),
                                [(0.0, 1.0, 0.0, 1.0)])
    assert dropped[0] == pytest.approx(2.19615871138938, abs=1e-12)
    assert dropped[0] == pytest.approx(half_log(20.0), abs=1e-15)


def test_genie_bound_batch_takes_rows_of_four():
    # Points of another width raise, as GenieParams does: a fifth column was
    # ignored, and three columns or no rows raised IndexError. No rows give
    # no values.
    p = PimacParams(0.5, 0.2, 0.5, 10, 10, 10)
    for bad in ([(0.1, 0.2, 0.9, 0.9, 0.5)], [(0.1, 0.2, 0.9)], (0.1, 0.2, 0.9, 0.9), [[], []]):
        with pytest.raises(ConstraintError, match="rows"):
            genie_bound_batch(p, bad)
    for empty in ([], np.empty((0, 4))):
        assert same_bits(genie_bound_batch(p, empty), np.empty(0))


def test_c_sigma_1_zero_gain_collapses_to_exact_capacity():
    p = PimacParams(0.0, 0.0, 0.0, 10.0, 10.0, 10.0)
    res = c_sigma_1(p)
    assert res.sum_rate == pytest.approx(half_log(20.0) + half_log(10.0),
                                         abs=1e-12)


def test_c_sigma_1_regression_and_monotone_sanity():
    p = figure3_params(0.5)
    res = c_sigma_1(p)
    assert res.sum_rate == pytest.approx(UB1_CANON_REGRESSION, abs=1e-9)
    # never worse than the always-seeded independent-noise genie
    seed_value = genie_bound_objective(
        PimacParams(abs(p.h12), abs(p.h22), abs(p.h31),
                    p.p1_max, p.p2_max, p.p3_max),
        GenieParams(0.0, 0.0, 1.0, 1.0))
    assert res.sum_rate <= seed_value
    # the value is attained at the returned (feasible) genie point
    assert genie_bound_objective(p, res.arg) == pytest.approx(res.sum_rate, abs=1e-12)
    # Evaluation counts are deterministic, so they show a regression in the
    # solver's work even where wall time is too noisy to.
    diag = res.diagnostics
    assert diag["stages"] == {"seeds": 0, "grid": 81, "refine": 2187}
    assert diag["evaluations"] == sum(diag["stages"].values()) == 2268
    assert diag["levels"] == 9


def test_c_sigma_1_near_tight_at_matched_gain():
    p = figure3_params(0.2)
    res = c_sigma_1(p)
    sd = sd_tin_sum_rate(p).sum_rate
    assert res.sum_rate >= sd - 1e-9
    assert res.sum_rate - sd <= 0.02


_MATCHED_GAIN = log_uniform(-3.0, math.log10(1.6))
_MATCHED_POWER = log_uniform(-2.0, 4.0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(g=_MATCHED_GAIN, sign=st.sampled_from((1.0, -1.0)), h31=_MATCHED_GAIN,
       powers=st.tuples(_MATCHED_POWER, _MATCHED_POWER, _MATCHED_POWER))
def test_c_sigma_1_is_sd_tin_in_the_noisy_interference_regime(g, sign, h31, powers):
    # On the matched line h12 = +-h22 = g the MAC pair acts as one user of
    # power P1 + P2, and the network is a two-user interference channel.
    # Where h31 (1 + g^2 (P1+P2)) + g (1 + h31^2 P3) <= 1, TIN achieves its
    # sum capacity (Shang, Kramer and Chen; Motahari and Khandani;
    # Annapureddy and Veeravalli; IEEE Trans. IT 2009), so the genie bound
    # equals SD-TIN there; outside it the bound is strictly above SD-TIN.
    p1, p2, p3 = powers
    p = PimacParams(g, sign * g, h31, p1, p2, p3)
    bound = c_sigma_1(p).sum_rate
    sd = sd_tin_sum_rate(p).sum_rate
    if h31 * (1.0 + g * g * (p1 + p2)) + g * (1.0 + h31 * h31 * p3) <= 1.0:
        assert abs(bound - sd) <= 1e-12
    else:
        assert bound > sd


_SIGNED_GAIN = st.builds(lambda g, sign: sign * g, log_uniform(-3.0, 3.0),
                        st.sampled_from((1.0, -1.0)))
_POWER = log_uniform(-6.0, 8.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gains=st.tuples(_SIGNED_GAIN, _SIGNED_GAIN, _SIGNED_GAIN),
       powers=st.tuples(_POWER, _POWER, _POWER))
def test_c_sigma_1_tight_and_valid_over_wide_range(gains, powers):
    # Where the bound returns, it is no looser than the always-seeded
    # rho = 0, eta = 1 genie and no lower than what SD-TIN or plain TDMA
    # achieve. Raising InfeasibleError is the documented EPS_DET outcome.
    p = PimacParams(*gains, *powers)
    try:
        bound = c_sigma_1(p).sum_rate
    except InfeasibleError:
        return
    seed = float(genie_independent(*gains, *powers))
    assert bound <= seed + 1e-9 * max(1.0, abs(seed))
    achievable = max(sd_tin_sum_rate(p).sum_rate, plain_tdma_sum_rate(p).sum_rate)
    assert bound >= achievable - 1e-9


# Two extreme instances, (gains, powers, bound in bits), at which the
# product forms of the genie's covariance determinants cancel to 0 at 40
# digits.
_CANCELLING_GENIES = [
    ((1.2447217903559244e-71, 2.4311474115304843e+91, -2.7583225826744517e+28),
     (29569.92640358197, 1.4805303090486762e+112, 2.0013380848059533e-190), 497.314070),
    ((-9.952152167196834e+68, -1.676970616168655e+148, -2.7621186371920736e+71),
     (5.736863851837604e+156, 1.7952999847713108e-62, 8.196986486817249e-107), 650.204080),
]


@pytest.mark.parametrize("gains,powers,bits", _CANCELLING_GENIES)
def test_genie_independent_oracle_at_cancelling_gains(gains, powers, bits):
    # The oracle against the covariance determinants themselves, evaluated
    # at 400 digits, where the cancellation leaves enough digits.
    with mp.workdps(400):
        h12, h22, h31, p1, p2, p3 = map(mp.mpf, gains + powers)
        n1, n2 = 1 + h31 ** 2 * p3, 1 + h12 ** 2 * p1 + h22 ** 2 * p2
        s = h12 * p1 + h22 * p2
        det1 = mp.det(mp.matrix([[p1 + p2 + n1, s], [s, n2]]))
        det2 = mp.det(mp.matrix([[n2 + p3, h31 * p3], [h31 * p3, h31 ** 2 * p3 + 1]]))
        want = (mp.log(det1 / n1, 2) + mp.log(det2 / n2, 2)) / 2
    assert abs(want - bits) < 1e-6
    assert abs(genie_independent(*gains, *powers) - want) <= 1e-30 * want


@settings(derandomize=True, deadline=None, max_examples=100)
@given(gains=st.tuples(WIDE_GAIN, WIDE_GAIN, WIDE_GAIN),
       powers=st.tuples(WIDE_POWER, WIDE_POWER, WIDE_POWER))
def test_c_sigma_1_over_extreme_range(gains, powers):
    # Gains up to 1e150 and powers from 1e-300 to 1e200, with exact zeros:
    # a finite bound no lower than any achievable rate, or the documented
    # InfeasibleError of the EPS_DET rule, and no numpy warning either way.
    p = PimacParams(*gains, *powers)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            bound = c_sigma_1(p).sum_rate
        except InfeasibleError:
            return
    achievable = max(sd_tin_sum_rate(p).sum_rate, tdma_tin_sum_rate(p).sum_rate,
                     pc_tin_sum_rate(p).sum_rate, plain_tdma_sum_rate(p).sum_rate)
    assert math.isfinite(bound)
    assert bound >= achievable - 1e-9


def test_c_sigma_1_determinism():
    p = figure3_params(0.3)
    assert c_sigma_1(p) == c_sigma_1(p)


def test_c_sigma_1_sign_canonicalization():
    base = c_sigma_1(figure3_params(0.5)).sum_rate
    for flip in (PimacParams(-0.5, 0.2, 0.5, 10, 10, 10),
                 PimacParams(0.5, -0.2, 0.5, 10, 10, 10),
                 PimacParams(0.5, 0.2, -0.5, 10, 10, 10)):
        assert c_sigma_1(flip).sum_rate == base


_GAIN = st.one_of(st.just(0.0), log_uniform(-3.0, 3.0))
_POWER_OR_ZERO = st.one_of(st.just(0.0), _POWER)
_UNIT = st.floats(-1.0, 1.0)
_FRACTION = st.floats(0.0, 1.0, exclude_min=True)
_SIGN = st.sampled_from((1.0, -1.0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gains=st.tuples(_GAIN, _GAIN, _GAIN), signs=st.tuples(_SIGN, _SIGN, _SIGN),
       powers=st.tuples(_POWER_OR_ZERO, _POWER_OR_ZERO, _POWER_OR_ZERO))
@example(gains=(0.5, 0.2, 0.5), signs=(-1.0, -1.0, 1.0), powers=(10.0, 10.0, 10.0))
@example(gains=(0.5, 0.2, 0.5), signs=(1.0, 1.0, -1.0), powers=(0.0, 3.0, 5.0))
@example(gains=(0.5, 0.2, 0.5), signs=(-1.0, 1.0, -1.0), powers=(10.0, 0.0, 10.0))
def test_c_sigma_1_arg_is_a_point_of_the_signed_channel(gains, signs, powers):
    # Where P1 P2 h12 h22 >= 0 (MAC gains of one sign, or a zero power) the
    # signed channel differs from its nonnegative-gain equivalent only in
    # the signs of s and h31, so the returned genie point, with rho1 and
    # rho2 negated where those are, gives the signed channel's kernel the
    # value returned, bit for bit, and no correlation reads -0.0. The first
    # two examples read 3.1397 and 2.8737 bits at the unmapped point,
    # against 3.0193 and 1.8363.
    (g12, g22, g31), (s12, s22, s31), (p1, p2, p3) = gains, signs, powers
    if p1 > 0.0 and p2 > 0.0:
        s22 = s12  # mixed MAC signs only where a power is zero
    p = PimacParams(s12 * g12, s22 * g22, s31 * g31, p1, p2, p3)
    try:
        res = c_sigma_1(p)
    except InfeasibleError:
        return
    assert genie_bound_objective(p, res.arg) == res.sum_rate
    assert all(math.copysign(1.0, r) == 1.0 for r in (res.arg.rho1, res.arg.rho2) if r == 0.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gains=st.tuples(_GAIN, _GAIN, _GAIN),
       powers=st.tuples(_POWER_OR_ZERO, _POWER_OR_ZERO, _POWER_OR_ZERO),
       rho=st.tuples(_UNIT, _UNIT), fractions=st.tuples(_FRACTION, _FRACTION))
def test_closed_form_scalings_beat_any_feasible_eta(gains, powers, rho, fractions):
    # Nonnegative gains, as c_sigma_1 sees them. At fixed rho, the kernel at
    # t* = 1/eta* (the reduced objective) is not above the kernel at any
    # feasible eta, each a fraction of its radius.
    p = PimacParams(*gains, *powers)
    r1, r2 = rho
    eta = (fractions[0] * math.sqrt(1.0 - r2 * r2), fractions[1] * math.sqrt(1.0 - r1 * r1))
    at_eta = genie_bound_batch(p, [(r1, r2, *eta)])[0]
    reduced = genie_reduced(_genie_coeffs([p]), np.array([[[r1, r2]]]))[0, 0]
    assert at_eta >= reduced - 1e-12


_PROBE_HS = (0.0, 0.2, 0.5, 0.8, 1.0)


def _dense_reduced_min(p, n):
    """Minimum of the reduced objective over an n x n grid of [0, 1]^2, and
    that minimum polished by two 201 x 201 grids over plus or minus one
    spacing around the best node (an interior optimum lies between nodes)."""
    c = _genie_coeffs([p])

    def grid_min(ax1, ax2):
        rho = np.stack(np.meshgrid(ax1, ax2, indexing="ij"), axis=-1).reshape(-1, 2)
        values = genie_reduced(c, rho[None])[0]
        i = int(np.argmin(values))
        return float(values[i]), rho[i]

    axis = np.linspace(0.0, 1.0, n)
    grid_best, best_at = min((grid_min(rows, axis) for rows in np.array_split(axis, 8)),
                             key=lambda pair: pair[0])
    polished, step = grid_best, 1.0 / (n - 1)
    for _ in range(2):
        value, best_at = grid_min(*(np.linspace(max(x - step, 0.0), min(x + step, 1.0), 201)
                                    for x in best_at))
        polished, step = min(polished, value), step / 100.0
    return grid_best, polished


def _dense_genie_min(p, n):
    # Minimum of genie_bound_batch over a 4-D feasible grid: rho in [-1, 1],
    # each eta a fraction in [0, 1] of its feasible radius. No closed-form
    # scalings are used.
    rho = np.linspace(-1.0, 1.0, n)
    frac = np.linspace(0.0, 1.0, n)
    r2, f1, f2 = (a.ravel() for a in np.meshgrid(rho, frac, frac, indexing="ij"))
    best = math.inf
    for r1 in rho:
        pts = np.stack([np.full_like(r2, r1), r2,
                        f1 * np.sqrt(1.0 - r2 * r2), f2 * math.sqrt(1.0 - r1 * r1)], axis=1)
        best = min(best, float(np.min(genie_bound_batch(p, pts))))
    return best


@pytest.mark.parametrize("h", _PROBE_HS)
def test_c_sigma_1_matches_dense_grids(h):
    p = figure3_params(h)
    bound = c_sigma_1(p).sum_rate
    grid_best, polished = _dense_reduced_min(p, 1201)
    assert bound <= grid_best + 1e-12
    assert abs(bound - polished) <= 1e-9
    assert bound <= _dense_genie_min(p, 31) + 1e-12


def test_c_sigma_1_certifies_tin_optimality_at_matched_gain():
    # At h = 0.2 (h12 = h22) the genie bound meets the best achievable
    # rate: TIN-type schemes are sum-capacity optimal there.
    p = figure3_params(0.2)
    achievable = max(sd_tin_sum_rate(p).sum_rate, tdma_tin_sum_rate(p).sum_rate,
                     pc_tin_sum_rate(p).sum_rate, plain_tdma_sum_rate(p).sum_rate)
    assert abs(c_sigma_1(p).sum_rate - achievable) <= 1e-9


def _wide_draw(rng):
    # Draws over genie_wide's ranges: gains log-uniform in 1e-3..1e3 with
    # random signs, powers log-uniform in 1e-6..1e8.
    return PimacParams(*(rng.choice((-1.0, 1.0), 3) * 10.0 ** rng.uniform(-3.0, 3.0, 3)),
                       *10.0 ** rng.uniform(-6.0, 8.0, 3))


# genie_wide seed 3 point 274: a narrow basin near rho = 0. A 33 x 33 start
# grid stopped 1.0e-5 bits above the minimum, at 11.717994136400492.
_NARROW_BASIN = PimacParams(0.019611952838597208, 0.08421319698694905, -0.18525852047786165,
                            11347975.492099306, 0.0056439956004705775, 0.006552031265274089)


def test_genie_box_bounds_hold_inside_their_boxes():
    # The oracle's interval bound is not above the search's objective at
    # any sampled point of its box, corners included, and its centre value
    # is the objective's, on boxes of widths 1e-6..1 for ordinary, wide and
    # degenerate instances (A = 0, h31 = 0, P = 0 and P3 = 0).
    rng = np.random.default_rng(41)
    rows = [draw_params(rng) for _ in range(20)] + [_wide_draw(rng) for _ in range(20)]
    rows += [p for p in KERNEL_ROWS if all(v == 0.0 or 1e-3 <= abs(v) <= 1e3
                                           for v in dataclasses.astuple(p))]
    for p in rows:
        width = 10.0 ** rng.uniform(-6.0, 0.0, 100)
        a0, b0 = rng.uniform(0.0, 1.0 - width), rng.uniform(0.0, 1.0 - width)
        bound, centre = genie_box_bits(np.repeat(genie_box_coeffs([p]), 100, axis=1),
                                       np.array([a0, a0 + width, b0, b0 + width]))
        c = _genie_coeffs([p])
        at_centre = genie_reduced(c, np.stack([a0 + width / 2, b0 + width / 2], -1)[None])[0]
        assert np.allclose(centre, at_centre, rtol=1e-12, atol=0.0)
        for u in [(0.0, 0.0), (1.0, 1.0)] + [rng.uniform(0.0, 1.0, (2, 100)) for _ in range(5)]:
            rho = np.stack([a0 + width * u[0], b0 + width * u[1]], axis=-1)[None]
            assert np.all(genie_reduced(c, rho)[0] >= bound * (1.0 - 1e-12))


def test_c_sigma_1_is_within_1e_4_bits_of_the_certified_minimum():
    # Interval branch and bound certifies the genie minimum to 5e-5 bits,
    # and ub1 lies within 1e-4 bits above it, on the 101 figure rows, 200
    # random draws, and 300 wide draws, where a search can stop in a wrong
    # basin. ub1 comes from the batched search, which equals c_sigma_1 bit
    # for bit; wide draws on which it finds no finite value (the EPS_DET
    # rule) are left out.
    rng = np.random.default_rng(31)
    rows = [figure3_params(h) for h in np.linspace(0.0, 1.0, 101)]
    rows += [draw_params(rng) for _ in range(200)]
    rows += [_wide_draw(rng) for _ in range(300)]
    found = [(p, res.sum_rate) for p, res in zip(rows, _c_sigma_1_batch(rows)) if res is not None]
    assert len(found) >= 550
    params, ub1 = zip(*found)
    lower = certified_genie_min(params, 5e-5)[0]
    assert np.all(np.array(ub1) >= lower - 1e-12 * lower)
    assert np.max(np.array(ub1) - lower) <= 1e-4
    # The narrow basin: within 1e-9 bits of its minimum, certified to 1e-10.
    ub1 = c_sigma_1(_NARROW_BASIN).sum_rate
    lower = certified_genie_min([_NARROW_BASIN], 1e-10)[0][0]
    assert lower <= ub1 <= lower + 1e-9
