import dataclasses
import math
import warnings

import numpy as np
import pytest

from pimac import (
    DomainError,
    InfeasibleError,
    InvalidRegimeError,
    PimacParams,
    PowerAllocation,
    SchemeResult,
    TimeShare,
    c_sigma_1,
    c_sigma_2,
    effective_noise_at_rx1,
    half_log,
    pc_tin_sum_rate,
    plain_tdma_sum_rate,
    sd_tin_sum_rate,
    tdma_tin_sum_rate,
)


def test_half_log_exact_values():
    assert half_log(0.0) == 0.0
    assert half_log(3.0) == 1.0
    assert half_log(15.0) == 2.0
    assert half_log(np.int64(3)) == half_log(np.float32(3.0)) == 1.0


def test_half_log_monotone():
    xs = np.linspace(0.0, 100.0, 101)
    vals = [half_log(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.inf, math.nan])
def test_half_log_domain_errors(bad):
    with pytest.raises(DomainError):
        half_log(bad)


def test_effective_noise_examples():
    assert effective_noise_at_rx1(PimacParams(0, 0, 0.5, 1, 1, 10), 10.0) == 3.5
    assert effective_noise_at_rx1(PimacParams(0, 0, 0.0, 1, 1, 10), 10.0) == 1.0
    assert effective_noise_at_rx1(PimacParams(0, 0, 1.0, 1, 1, 0), 0.0) == 1.0


def test_effective_noise_rejects_negative_power():
    with pytest.raises(DomainError):
        effective_noise_at_rx1(PimacParams(0, 0, 1, 1, 1, 1), -0.5)


def test_params_validation():
    with pytest.raises(DomainError):
        PimacParams(0.5, 0.2, 0.5, -1.0, 10, 10)
    with pytest.raises(DomainError):
        PimacParams(math.inf, 0.2, 0.5, 10, 10, 10)
    # negative gains are fine, zero budgets are fine
    PimacParams(-0.5, 0.2, -1.5, 0.0, 0.0, 0.0)
    # -0.0 is stored as +0.0
    signed_zeros = PimacParams(-0.0, 0.2, -0.0, -0.0, 10.0, -0.0)
    assert all(math.copysign(1.0, v) == 1.0 for v in dataclasses.astuple(signed_zeros))


def _outcome(quantity, params):
    try:
        value = quantity(params)
    except (InfeasibleError, InvalidRegimeError) as exc:
        return type(exc)
    return getattr(value, "sum_rate", value)


def test_numpy_scalar_inputs_match_python_floats():
    # Fields are stored as Python floats. Kept as numpy.float64, the first
    # instance made c_sigma_1 warn on overflow instead of raising
    # InfeasibleError, and plain TDMA returned a numpy.float64.
    for point in ((-4.45e-119, -5.40e38, -1.40e128, 1.54e-80, 1.97e177, 8.87e-51),
                  (0.5, 0.2, 0.5, 10.0, 10.0, 10.0)):
        from_numpy, from_float = PimacParams(*np.array(point)), PimacParams(*point)
        assert all(type(v) is float for v in dataclasses.astuple(from_numpy))
        for quantity in (sd_tin_sum_rate, tdma_tin_sum_rate, pc_tin_sum_rate,
                         plain_tdma_sum_rate, c_sigma_1, c_sigma_2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _outcome(quantity, from_numpy)
            want = _outcome(quantity, from_float)
            assert got == want and type(got) is type(want), quantity.__name__


def test_time_share_and_allocation_validation():
    with pytest.raises(DomainError):
        TimeShare(-0.01)
    with pytest.raises(DomainError):
        TimeShare(1.01)
    with pytest.raises(DomainError):
        PowerAllocation(-1.0, 0.0, 0.0)
    assert PowerAllocation(1.0, 2.0, 3.0).as_tuple() == (1.0, 2.0, 3.0)


def test_scheme_result_validation():
    with pytest.raises(DomainError):
        SchemeResult(sum_rate=-0.1)
    with pytest.raises(DomainError):
        SchemeResult(sum_rate=math.nan)


def test_scale_convention_zero_gains():
    # With all gains zero the three TIN schemes reach the interference-free
    # value half_log(P1+P2) + half_log(P3); plain TDMA stays strictly below
    # it (orthogonalizing the links wastes degrees of freedom).
    params = PimacParams(0.0, 0.0, 0.0, 10.0, 10.0, 10.0)
    expected = half_log(20.0) + half_log(10.0)
    assert abs(sd_tin_sum_rate(params).sum_rate - expected) <= 1e-12
    assert abs(tdma_tin_sum_rate(params).sum_rate - expected) <= 1e-12
    assert abs(pc_tin_sum_rate(params).sum_rate - expected) <= 1e-12


def test_silent_user_gain_does_not_matter():
    # User 1 has no power, so its cross gain must not change anything, even
    # where h12 * h12 overflows (cross products are h * (h * P)).
    silent = PimacParams(1e200, 0.5, 0.5, 0.0, 10.0, 10.0)
    reference = PimacParams(0.0, 0.5, 0.5, 0.0, 10.0, 10.0)
    for scheme in (sd_tin_sum_rate, tdma_tin_sum_rate, pc_tin_sum_rate, c_sigma_1):
        assert scheme(silent).sum_rate == scheme(reference).sum_rate
    assert effective_noise_at_rx1(PimacParams(0.5, 0.2, 1e200, 10.0, 10.0, 0.0), 0.0) == 1.0


def test_sign_invariance_of_tin_schemes():
    rng = np.random.default_rng(8)
    for _ in range(20):
        h = rng.uniform(0.0, 2.0, 3)
        pw = 50.0 * (1.0 - rng.uniform(0.0, 1.0, 3))
        base = PimacParams(*h, *pw)
        ref = (sd_tin_sum_rate(base).sum_rate,
               tdma_tin_sum_rate(base).sum_rate,
               pc_tin_sum_rate(base).sum_rate)
        for i in range(3):
            flipped = list(h)
            flipped[i] = -flipped[i]
            params = PimacParams(*flipped, *pw)
            got = (sd_tin_sum_rate(params).sum_rate,
                   tdma_tin_sum_rate(params).sum_rate,
                   pc_tin_sum_rate(params).sum_rate)
            assert got == ref
