"""Shared helpers for the test suite: instance generators."""

import numpy as np
from hypothesis import strategies as st

from pimac import PimacParams
from pimac.schemes import _tdma_coeffs, _tdma_parts


def log_uniform(low_exp, high_exp):
    """``10**e`` for an exponent ``e`` uniform in [low_exp, high_exp].

    The exponent is drawn through a unit float: hypothesis draws those
    nearly uniformly, but an exponent range's own "nice" values (0 among
    them) in about half of the examples."""
    return st.floats(0.0, 1.0).map(lambda u: 10.0 ** (low_exp + (high_exp - low_exp) * u))


def _zero_or_log_uniform(low_exp, high_exp):
    """0.0 or ``log_uniform(low_exp, high_exp)``, from one unit float u. The
    zero is the slice u > 0.9, so that it takes about a tenth of the
    examples, not the half that a choice between two strategies gives it."""
    return st.floats(0.0, 1.0).map(
        lambda u: 0.0 if u > 0.9 else 10.0 ** (low_exp + (high_exp - low_exp) * u / 0.9))


# Extreme dynamic range with exact zeros: signed gains up to 1e150, powers
# from 1e-300 to 1e200.
WIDE_GAIN = st.builds(lambda m, sign: sign * m, _zero_or_log_uniform(-3, 150),
                      st.sampled_from((1.0, -1.0)))
WIDE_POWER = _zero_or_log_uniform(-300, 200)


# Fifteen instances for the kernels' bit-identity tests, one row each of
# every degenerate case: A = 0 (and q = 0), h31 = 0, P3 = 0, P1 = P2 = 0, all
# powers 0, D = 0, gains of 1e150, powers of 1e200 and of 1e-300, an
# overflowed cross product, signed gains, and ordinary rows.
KERNEL_ROWS = [PimacParams(*row) for row in (
    (0.5, 0.2, 0.5, 10.0, 10.0, 10.0),
    (0.2, 0.2, 0.2, 10.0, 10.0, 10.0),
    (0.0, 0.0, 0.5, 10.0, 10.0, 10.0),
    (0.0, 0.2, 0.5, 10.0, 0.0, 10.0),
    (0.5, 0.2, 0.0, 10.0, 10.0, 10.0),
    (0.5, 0.2, 0.5, 10.0, 10.0, 0.0),
    (0.5, 0.2, 0.5, 0.0, 0.0, 10.0),
    (0.5, 0.2, 0.5, 0.0, 0.0, 0.0),
    (1e150, 1e150, 1e150, 10.0, 10.0, 10.0),
    (0.5, 0.2, 0.5, 1e200, 1e200, 1e200),
    (1e150, 0.2, 1e150, 1e200, 1e-300, 1e200),
    (0.5, 0.2, 0.5, 1e-300, 1e-300, 1e-300),
    (-1.3, 0.7, -0.9, 3.0, 40.0, 0.5),
    (2.0, 1e120, 0.3, 5.0, 1e100, 20.0),
    (0.9, 0.0, 1.0, 25.0, 5.0, 0.01),
)]


def figure3_params(h: float) -> PimacParams:
    """Sweep-convention instance: h12 = h31 = h, h22 = 0.2, P = 10."""
    return PimacParams(h12=h, h22=0.2, h31=h,
                       p1_max=10.0, p2_max=10.0, p3_max=10.0)


def tdma_parts(params: PimacParams, alphas):
    """TDMA-TIN's MAC and point-to-point parts of one instance at a 1-D
    sequence of shares: the kernel for a batch of one."""
    mac, p2p = _tdma_parts(_tdma_coeffs([params]), np.asarray(alphas, dtype=float)[None])
    return mac[0], p2p[0]


def same_bits(got, want) -> bool:
    """Equal shapes and equal bytes: bit-identical arrays, NaN and signed
    zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def draw_params(rng: np.random.Generator, gain_high: float = 2.0,
                power_high: float = 50.0, h31_high: float | None = None) -> PimacParams:
    """Random instance: gains uniform in [0, gain_high], powers in (0, power_high]."""
    h = rng.uniform(0.0, gain_high, 3)
    if h31_high is not None:
        h[2] = rng.uniform(0.0, h31_high)
    powers = power_high * (1.0 - rng.uniform(0.0, 1.0, 3))
    return PimacParams(h12=float(h[0]), h22=float(h[1]), h31=float(h[2]),
                       p1_max=float(powers[0]), p2_max=float(powers[1]),
                       p3_max=float(powers[2]))


def draw_feasible_genie(rng: np.random.Generator, rho_high: float = 0.85,
                        frac_low: float = 0.25):
    """Random genie point comfortably inside the feasible set."""
    rho1 = float(rng.uniform(-rho_high, rho_high))
    rho2 = float(rng.uniform(-rho_high, rho_high))
    eta1 = float(rng.uniform(frac_low, 1.0) * np.sqrt(1.0 - rho2 ** 2))
    eta2 = float(rng.uniform(frac_low, 1.0) * np.sqrt(1.0 - rho1 ** 2))
    return rho1, rho2, eta1, eta2
