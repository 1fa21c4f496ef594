"""Core types and the elementary rate kernel.

The network couples a two-user Gaussian multiple-access link (transmitters
1 and 2 into receiver 1) with a point-to-point link (transmitter 3 into
receiver 2). Noise variances and direct gains are normalized to one, so an
instance is fully described by three cross gains and three power budgets.
All rates are in bits per real channel use, i.e. the basic kernel is
``0.5 * log2(1 + SINR)``.

Every type here is an immutable value and every function is pure, so
concurrent use needs no synchronization.
"""

import math
import numbers
from dataclasses import dataclass, field

from .errors import DomainError


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be a finite real, got {value!r}")


@dataclass(frozen=True)
class PimacParams:
    """Channel gains and power budgets of one network instance.

    Gains are stored as signed amplitudes and squared at use sites, so the
    rate formulas only ever see ``h**2``. Powers are linear and
    noise-normalized; budgets of exactly zero are legal and simply remove
    the corresponding terms. All six are stored as Python floats, whose
    overflow to ``inf`` is silent where a numpy scalar's would warn, and
    ``-0.0`` as ``+0.0``, so that a zero budget's share or vertex is never
    printed as ``-0``.
    """

    h12: float
    h22: float
    h31: float
    p1_max: float
    p2_max: float
    p3_max: float

    def __post_init__(self):
        for name in ("h12", "h22", "h31", "p1_max", "p2_max", "p3_max"):
            value = getattr(self, name)
            _require_finite(name, value)
            if name.startswith("p") and value < 0.0:
                raise DomainError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, float(value) + 0.0)


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit powers actually used, one per transmitter."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        for name in ("p1", "p2", "p3"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value < 0.0:
                raise DomainError(f"{name} must be >= 0, got {value!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)


@dataclass(frozen=True)
class TimeShare:
    """Fraction of channel uses assigned to MAC user 1."""

    alpha: float

    def __post_init__(self):
        _require_finite("alpha", self.alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha!r}")


@dataclass(frozen=True)
class SchemeResult:
    """A sum-rate plus the optimizing argument and solver diagnostics.

    ``arg`` is a TimeShare, PowerAllocation or GenieParams depending on the
    scheme, or None for schemes with nothing to optimize. ``diagnostics``
    carries the number of objective ``evaluations`` and, for a grid search,
    the ``stages`` and ``levels`` of ``maximize_box``.
    """

    sum_rate: float
    arg: object = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_finite("sum_rate", self.sum_rate)
        if self.sum_rate < 0.0:
            raise DomainError(f"sum_rate must be >= 0, got {self.sum_rate!r}")


def half_log(x: float) -> float:
    """Rate of a real Gaussian channel at SINR ``x``: ``0.5 * log2(1 + x)``.

    Monotone nondecreasing in ``x``; exact at powers of two (``half_log(3)
    == 1.0``). ``x`` may be any real scalar, numpy's included. Negative or
    non-finite input raises DomainError.
    """
    if not ((type(x) is float or isinstance(x, numbers.Real)) and math.isfinite(x)):
        raise DomainError(f"SINR must be a finite real, got {x!r}")
    if x < 0.0:
        raise DomainError(f"SINR must be >= 0, got {x!r}")
    return 0.5 * math.log2(1.0 + x)


def _half_log_sum(powers, noise: float = 1.0) -> float:
    """``half_log(sum(powers) / noise)`` for finite powers ``>= 0`` and
    ``noise >= 1`` (``inf`` included), also where the sum overflows to
    ``inf``. There the quarters of the powers, whose sum ``Q`` is finite,
    give ``0.5 log2(1 + 4Q/noise) = 1 + 0.5 log2(1/4 + Q/noise)``. Every sum
    that does not overflow takes the plain form."""
    total = 0.0
    for p in powers:
        total += p
    if total < math.inf:
        return half_log(total / noise)
    quarters = 0.0
    for p in powers:
        quarters += 0.25 * p
    return 1.0 + 0.5 * math.log2(0.25 + quarters / noise)


def effective_noise_at_rx1(params: PimacParams, p3: float) -> float:
    """Noise-plus-interference power at the MAC receiver: ``1 + h31**2 * p3``."""
    _require_finite("p3", p3)
    if p3 < 0.0:
        raise DomainError(f"p3 must be >= 0, got {p3!r}")
    return 1.0 + params.h31 * (params.h31 * p3)
