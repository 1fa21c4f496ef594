"""Achievable sum-rates: full-power TIN, TDMA-TIN, power-controlled TIN,
and plain TDMA between the MAC and the point-to-point user.

All receivers treat whatever interference they see as extra Gaussian
noise. The MAC receiver additionally decodes its two users successively,
so its sum constraint is the single log term with both powers pooled.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstraintError, DegenerateInputError
from .model import (
    MacRegionBounds,
    PimacParams,
    PowerAllocation,
    SchemeResult,
    TimeShare,
    effective_noise_at_rx1,
    half_log,
)
from .optimize import OptConfig, maximize_scalar

TDMA_TIN_OPT_CFG = OptConfig(grid_points_per_axis=1025, refine_tolerance=1e-7)


@dataclass(frozen=True)
class TdmaTinDecomposition:
    """Time-sharing sum-rate split: MAC part and point-to-point part.

    Both parts are defined on the whole closed interval of shares; at the
    endpoints the vanishing-weight terms take their (zero) limits.
    """

    a_of_alpha: float
    b_of_alpha: float

    @property
    def total(self) -> float:
        return self.a_of_alpha + self.b_of_alpha


def _mac_slot(weight: float, power: float, noise: float) -> float:
    # weight * half_log((power/weight)/noise); continuous limit 0 at weight=0.
    if weight == 0.0:
        return 0.0
    return 0.5 * weight * math.log2(1.0 + power / (weight * noise))


def sd_tin_region(params: PimacParams) -> MacRegionBounds:
    """Rate bounds when all users transmit at full power.

    The MAC receiver sees noise ``1 + h31^2 P3``; the point-to-point
    receiver sees noise ``1 + h12^2 P1 + h22^2 P2``.
    """
    noise = effective_noise_at_rx1(params, params.p3_max)
    r1 = half_log(params.p1_max / noise)
    r2 = half_log(params.p2_max / noise)
    r12 = half_log((params.p1_max + params.p2_max) / noise)
    p2p_noise = (1.0 + params.h12 * params.h12 * params.p1_max
                 + params.h22 * params.h22 * params.p2_max)
    r3 = half_log(params.p3_max / p2p_noise)
    return MacRegionBounds(r1=r1, r2=r2, r12=r12, r3=r3)


def sd_tin_sum_rate(params: PimacParams) -> SchemeResult:
    """Full-power TIN sum-rate: the pooled MAC constraint plus the P2P rate."""
    region = sd_tin_region(params)
    return SchemeResult(sum_rate=region.r12 + region.r3, arg=None,
                        diagnostics={"evaluations": 1, "status": "closed-form"})


def _tdma_parts(params: PimacParams, alphas) -> tuple[np.ndarray, np.ndarray]:
    """MAC and point-to-point parts of TDMA-TIN at an array of shares.

    User 1's slot has weight ``w = alpha`` and user 2's ``w = 1 - alpha``.
    A slot adds ``w/2 log2(1 + P/(w N))`` to the MAC part, with
    ``N = 1 + h31^2 P3``, and ``w/2 log2(1 + P3/(1 + c/w))`` to the
    point-to-point part, with ``c = h^2 P`` of that user. They are computed
    as ``w/2 (log2(w + P/N) - log2 w)`` and ``w/2 log2(1 + P3 w/(w + c))``,
    which stay finite for every finite input (an overflowed ``c = inf``
    gives the correct limit 0), and a slot of weight 0 adds its limit 0.
    """
    a = np.asarray(alphas, dtype=float)
    noise = effective_noise_at_rx1(params, params.p3_max)
    snr = np.array([[params.p1_max / noise], [params.p2_max / noise]])
    cross = np.array([[params.h12 * params.h12 * params.p1_max],
                      [params.h22 * params.h22 * params.p2_max]])
    w = np.empty((2,) + a.shape)
    w[0] = a
    np.subtract(1.0, a, out=w[1])
    s = np.maximum(w, 5e-324)  # w, but 5e-324 where w = 0 (its term is weighted by 0)
    mac = w * (np.log2(s + snr) - np.log2(s))
    p2p = w * np.log2(1.0 + params.p3_max * s / (s + cross))
    return 0.5 * (mac[0] + mac[1]), 0.5 * (p2p[0] + p2p[1])


def tdma_tin_components(params: PimacParams, share: TimeShare) -> TdmaTinDecomposition:
    """MAC and point-to-point contributions at a given time share.

    User 1 gets fraction ``alpha`` with power boosted to ``P1/alpha``;
    user 2 gets the rest. The point-to-point user transmits throughout and
    faces one boosted interferer per slot. This is ``_tdma_parts`` on a
    batch of one.
    """
    mac, p2p = _tdma_parts(params, (share.alpha,))
    return TdmaTinDecomposition(a_of_alpha=float(mac[0]), b_of_alpha=float(p2p[0]))


def alpha_star(params: PimacParams) -> TimeShare:
    """Share that maximizes the MAC part: ``P1 / (P1 + P2)``."""
    total = params.p1_max + params.p2_max
    if total <= 0.0:
        raise DegenerateInputError(
            "both MAC power budgets are zero; any share is optimal")
    return TimeShare(params.p1_max / total)


def alpha_prime(params: PimacParams) -> TimeShare:
    """Share that minimizes the point-to-point part.

    Equals ``h12^2 P1 / (h12^2 P1 + h22^2 P2)``; the P2P part is convex in
    the share and flat exactly when both interference products vanish.
    """
    c1 = params.h12 * params.h12 * params.p1_max
    c2 = params.h22 * params.h22 * params.p2_max
    if c1 + c2 <= 0.0:
        raise DegenerateInputError(
            "no interference into the point-to-point receiver; "
            "its rate does not depend on the share")
    if math.isinf(c1 + c2):
        # The products overflow. The share is the logistic function of
        # ln(c1/c2), which is taken from the logs of their factors.
        if c1 == 0.0 or c2 == 0.0:
            return TimeShare(float(c2 == 0.0))
        d = (2.0 * (math.log(abs(params.h12)) - math.log(abs(params.h22)))
             + math.log(params.p1_max) - math.log(params.p2_max))
        return TimeShare(1.0 / (1.0 + math.exp(-d)) if d >= 0.0
                         else math.exp(d) / (1.0 + math.exp(d)))
    return TimeShare(c1 / (c1 + c2))


def tdma_tin_sum_rate(params: PimacParams) -> SchemeResult:
    """Best TDMA-TIN sum-rate over the time share.

    The candidate set always contains both endpoints and, when defined, the
    MAC-optimal and P2P-optimal shares, so the result is never below the
    full-power TIN sum-rate. The objective can have two interior local
    maxima, so the search starts from a global grid.
    """
    seeds = [0.0, 1.0]
    try:
        seeds.append(alpha_star(params).alpha)
    except DegenerateInputError:
        pass
    try:
        seeds.append(alpha_prime(params).alpha)
    except DegenerateInputError:
        pass
    res = maximize_scalar(lambda a: np.add(*_tdma_parts(params, a)), 0.0, 1.0,
                          replace(TDMA_TIN_OPT_CFG, seeds=tuple(seeds)))
    return SchemeResult(sum_rate=res.value, arg=TimeShare(res.arg),
                        diagnostics=res.diagnostics())


def pc_tin_objective(params: PimacParams, alloc: PowerAllocation) -> float:
    """Sum-rate of full-power TIN evaluated at an arbitrary allocation."""
    budgets = (params.p1_max, params.p2_max, params.p3_max)
    for value, budget, name in zip(alloc.as_tuple(), budgets, ("p1", "p2", "p3")):
        if value > budget:
            raise ConstraintError(f"{name}={value!r} exceeds its budget {budget!r}")
    mac = half_log((alloc.p1 + alloc.p2) / (1.0 + params.h31 * params.h31 * alloc.p3))
    p2p = half_log(alloc.p3 / (1.0 + params.h12 * params.h12 * alloc.p1
                               + params.h22 * params.h22 * alloc.p2))
    return mac + p2p


def pc_tin_sum_rate(params: PimacParams) -> SchemeResult:
    """Best TIN sum-rate over transmit powers in the budget box.

    The maximum over ``[0,P1] x [0,P2] x [0,P3]`` is attained at a vertex,
    so the 8 vertices are the whole candidate set (binary power control, as
    in Gjendemsjoe, Gesbert, Oien and Kiani, IEEE Trans. Wireless Commun.,
    2008). Ties go to the lexicographically smallest vertex.

    Proof. Write ``g_ij = h_ij^2``, ``S = p1 + p2``, ``L = g12 p1 + g22 p2``
    and ``u = 1 + g31 p3``; up to the factor ``1/(2 ln 2)`` the objective is
    ``F = ln(u + S) - ln(u) + ln(1 + L + p3) - ln(1 + L)``.

    1. For fixed ``S`` and ``p3``, ``F`` depends on ``(p1, p2)`` only
       through ``L`` and does not increase in it. The least ``L`` fills the
       user with the smaller cross gain first, so ``L_min(S)`` is piecewise
       affine with a single kink at ``S = P_small``, that user's budget.
    2. On one affine piece ``L = a + g S``:
       - at fixed ``S``, every stationary point in ``p3`` has
         ``F'' = 2 g31^2 S u / (u^2 (u + S)^2) > 0``;
       - at fixed ``p3``, every stationary point in ``S`` has
         ``F'' = 2 g^2 p3 (1 + L) / ((1 + L)^2 (1 + L + p3)^2) > 0``;
       - where ``g31 S = 0`` (resp. ``g p3 = 0``) ``F`` increases strictly
         in that coordinate instead.
    3. So on a piece neither coordinate has an interior maximiser. Take any
       maximiser with the least ``L`` for its ``S`` (step 1); moving ``p3``
       to the better endpoint of ``[0, P3]``, then ``S`` to the better
       endpoint of its piece, loses nothing. That leaves ``p3 in {0, P3}``
       and ``S in {0, P_small, P1 + P2}``, where the least ``L`` is reached
       at a box vertex.

    The result therefore dominates full-power TIN and the schedules that
    leave only one side on (the MAC alone, ``half_log(P1+P2)``, or the link
    alone, ``half_log(P3)``). It does not dominate plain TDMA, which
    time-shares: at ``h12=1.076, h22=0.687, h31=0.738, P=(31.28, 0.628,
    18.36)`` PC-TIN gives 2.520 bits and plain TDMA 2.840.
    """
    budgets = (params.p1_max, params.p2_max, params.p3_max)
    vertices = [PowerAllocation(*v)
                for v in itertools.product(*((0.0, float(b)) for b in budgets))]
    # max() keeps the first of equal values: product order is lexicographic.
    value, alloc = max(((pc_tin_objective(params, v), v) for v in vertices),
                       key=lambda pair: pair[0])
    return SchemeResult(sum_rate=value, arg=alloc,
                        diagnostics={"evaluations": len(vertices),
                                     "status": "vertex-enumeration"})


def plain_tdma_sum_rate(params: PimacParams) -> SchemeResult:
    """TDMA between the MAC pair and the point-to-point user.

    The optimal share is ``(P1+P2) / (P1+P2+P3)`` in closed form, where the
    achieved sum-rate collapses to ``half_log(P1+P2+P3)``.
    """
    mac_power = params.p1_max + params.p2_max
    total = mac_power + params.p3_max
    if total <= 0.0:
        raise DegenerateInputError("all power budgets are zero")
    alpha = mac_power / total
    value = (_mac_slot(alpha, mac_power, 1.0)
             + _mac_slot(1.0 - alpha, params.p3_max, 1.0))
    return SchemeResult(sum_rate=value, arg=TimeShare(alpha),
                        diagnostics={"evaluations": 1, "status": "closed-form"})
