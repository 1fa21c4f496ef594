"""Achievable sum-rates: full-power TIN, TDMA-TIN, power-controlled TIN,
and plain TDMA between the MAC and the point-to-point user.

All receivers treat whatever interference they see as extra Gaussian
noise. The MAC receiver additionally decodes its two users successively,
so its sum constraint is the single log term with both powers pooled.
Each scheme returns a SchemeResult whose ``diagnostics`` count the
objective ``evaluations``; TDMA-TIN adds the ``stages`` and ``levels`` of
its grid search.
"""

import itertools
import math

import numpy as np

from .errors import ConstraintError
from .model import (
    PimacParams,
    PowerAllocation,
    SchemeResult,
    TimeShare,
    _half_log_sum,
    effective_noise_at_rx1,
    half_log,
)
from .optimize import _blocks, maximize_box


def _mac_slot(weight: float, power: float, noise: float) -> float:
    # weight * half_log((power/weight)/noise); continuous limit 0 at weight=0.
    if weight == 0.0:
        return 0.0
    return 0.5 * weight * math.log2(1.0 + power / (weight * noise))


def sd_tin_sum_rate(params: PimacParams) -> SchemeResult:
    """Full-power TIN sum-rate: the pooled MAC constraint plus the P2P rate.

    The MAC receiver sees noise ``1 + h31^2 P3``; the point-to-point
    receiver sees noise ``1 + h12^2 P1 + h22^2 P2``. This is PC-TIN's
    objective at its full-power vertex ``(P1, P2, P3)``.
    """
    return SchemeResult(sum_rate=_tin_value(params, params.p1_max, params.p2_max,
                                            params.p3_max),
                        diagnostics={"evaluations": 1})


def _tdma_coeffs(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TDMA-TIN's per-instance constants for ``_tdma_parts``: the MAC users'
    SNRs ``P/N`` and interference products ``h^2 P``, each (2, m, 1), and
    ``P3``, (m, 1), with ``N = 1 + h31^2 P3``."""
    table = []
    for p in rows:
        noise = effective_noise_at_rx1(p, p.p3_max)
        table.append((p.p1_max / noise, p.p2_max / noise, p.h12 * (p.h12 * p.p1_max),
                      p.h22 * (p.h22 * p.p2_max), p.p3_max))
    c = np.array(table).T[:, :, None]
    return c[0:2], c[2:4], c[4]


def _tdma_parts(c: tuple, alphas) -> tuple[np.ndarray, np.ndarray]:
    """MAC and point-to-point parts of TDMA-TIN at an (m, n) array of shares,
    row i for instance i of ``c = _tdma_coeffs(rows)``.

    User 1's slot has weight ``w = alpha`` and user 2's ``w = 1 - alpha``.
    A slot adds ``w/2 log2(1 + P/(w N))`` to the MAC part, with
    ``N = 1 + h31^2 P3``, and ``w/2 log2(1 + P3/(1 + c/w))`` to the
    point-to-point part, with ``c = h^2 P`` of that user. They are computed
    as ``w/2 (log2(w + P/N) - log2 w)`` and ``w/2 log2(1 + P3 w/(w + c))``,
    which stay finite for every finite input (an overflowed ``c = inf``
    gives the correct limit 0), and a slot of weight 0 adds its limit 0.
    Every operation writes into one of four (2, m, n) buffers the kernel
    owns, in that association order; each part is its buffer's first row,
    where the halved sum of the two slots is formed in place.
    """
    snr, cross, p3 = c
    a = np.asarray(alphas, dtype=float)
    w = np.empty((2,) + a.shape)
    w[0] = a
    np.subtract(1.0, a, out=w[1])
    s = np.maximum(w, 5e-324)  # w, but 5e-324 where w = 0 (its term is weighted by 0)
    mac = np.add(s, snr)
    np.log2(mac, out=mac)
    t = np.log2(s)
    mac -= t
    mac *= w
    np.add(s, cross, out=t)
    s *= p3
    s /= t
    s += 1.0
    p2p = np.log2(s, out=s)
    p2p *= w
    for part in (mac, p2p):
        np.add(part[0], part[1], out=part[0])
        part[0] *= 0.5
    return mac[0], p2p[0]


def alpha_star(params: PimacParams) -> TimeShare | None:
    """Share that maximizes the MAC part: ``P1 / (P1 + P2)``.

    None when both MAC budgets are zero: then every share is optimal. Where
    ``P1 + P2`` overflows, the share is taken as ``1 / (1 + P2/P1)``.
    """
    p1, p2 = params.p1_max, params.p2_max
    total = p1 + p2
    if total <= 0.0:
        return None
    return TimeShare(p1 / total if total < math.inf else 1.0 / (1.0 + p2 / p1))


def alpha_prime(params: PimacParams) -> TimeShare | None:
    """Share that minimizes the point-to-point part.

    Equals ``h12^2 P1 / (h12^2 P1 + h22^2 P2)``; the P2P part is convex in
    the share and flat exactly when both interference products vanish,
    where the share is undefined and None is returned.
    """
    c1 = params.h12 * (params.h12 * params.p1_max)
    c2 = params.h22 * (params.h22 * params.p2_max)
    if c1 + c2 <= 0.0:
        return None
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


def _tdma_tin_block(rows) -> list:
    seeds = [[share.alpha for share in (alpha_star(p), alpha_prime(p)) if share is not None]
             for p in rows]
    c = _tdma_coeffs(rows)

    def objective(alphas):
        mac, p2p = _tdma_parts(c, alphas)
        return np.add(mac, p2p, out=mac)

    return [SchemeResult(sum_rate=res.value, arg=TimeShare(res.arg),
                         diagnostics=res.diagnostics)
            for res in maximize_box(objective, 0.0, 1.0, 1025, 1e-7, seeds)]


def _tdma_tin_batch(rows) -> list:
    """``tdma_tin_sum_rate`` of each instance of ``rows``. Each block of
    instances (``optimize._blocks``) makes one kernel call per solver
    stage."""
    return [res for block in _blocks(rows, 1025 + 2) for res in _tdma_tin_block(block)]


def tdma_tin_sum_rate(params: PimacParams) -> SchemeResult:
    """Best TDMA-TIN sum-rate over the time share.

    ``maximize_box`` searches ``[0, 1]`` with one call on a 1 025-point grid,
    which holds both endpoints, and the MAC-optimal and P2P-optimal shares
    as seeds where they are defined; then nested 65-point grids around the
    3 best points down to a spacing below 1e-7. The result is therefore never
    below the full-power TIN sum-rate. The objective can have two interior
    local maxima, so the search starts from a global grid. The code is that
    of ``_tdma_tin_batch``, for a batch of one.
    """
    return _tdma_tin_block([params])[0]


def _tin_value(params: PimacParams, p1: float, p2: float, p3: float) -> float:
    # Full-power TIN's formula at the powers (p1, p2, p3).
    mac = _half_log_sum((p1, p2), 1.0 + params.h31 * (params.h31 * p3))
    p2p = half_log(p3 / (1.0 + params.h12 * (params.h12 * p1)
                         + params.h22 * (params.h22 * p2)))
    return mac + p2p


def pc_tin_objective(params: PimacParams, alloc: PowerAllocation) -> float:
    """Sum-rate of full-power TIN evaluated at an arbitrary allocation."""
    budgets = (params.p1_max, params.p2_max, params.p3_max)
    for value, budget, name in zip(alloc.as_tuple(), budgets, ("p1", "p2", "p3")):
        if value > budget:
            raise ConstraintError(f"{name}={value!r} exceeds its budget {budget!r}")
    return _tin_value(params, *alloc.as_tuple())


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
    vertices = list(itertools.product(*((0.0, float(b)) for b in budgets)))
    # max() keeps the first of equal values: product order is lexicographic.
    value, vertex = max(((_tin_value(params, *v), v) for v in vertices),
                        key=lambda pair: pair[0])
    return SchemeResult(sum_rate=value, arg=PowerAllocation(*vertex),
                        diagnostics={"evaluations": len(vertices)})


def plain_tdma_sum_rate(params: PimacParams) -> SchemeResult:
    """TDMA between the MAC pair and the point-to-point user.

    The optimal share is ``(P1+P2) / (P1+P2+P3)`` in closed form, where the
    achieved sum-rate collapses to ``half_log(P1+P2+P3)``. With all budgets
    zero every share gives the limit 0; the share returned is 0.0, the
    smallest. Where ``P1+P2+P3`` overflows, the slots' powers would too:
    the share is then taken from the quarters of the budgets and the value
    in its closed form.
    """
    mac_power = params.p1_max + params.p2_max
    total = mac_power + params.p3_max
    if total == math.inf:
        quarter = 0.25 * params.p1_max + 0.25 * params.p2_max
        return SchemeResult(
            sum_rate=_half_log_sum((params.p1_max, params.p2_max, params.p3_max)),
            arg=TimeShare(quarter / (quarter + 0.25 * params.p3_max)),
            diagnostics={"evaluations": 1})
    alpha = mac_power / total if total > 0.0 else 0.0
    value = (_mac_slot(alpha, mac_power, 1.0)
             + _mac_slot(1.0 - alpha, params.p3_max, 1.0))
    return SchemeResult(sum_rate=value, arg=TimeShare(alpha),
                        diagnostics={"evaluations": 1})
