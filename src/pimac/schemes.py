"""Achievable sum-rates: full-power TIN, TDMA-TIN, power-controlled TIN,
and plain TDMA between the MAC and the point-to-point user.

All receivers treat whatever interference they see as extra Gaussian
noise. The MAC receiver additionally decodes its two users successively,
so its sum constraint is the single log term with both powers pooled.
Full-power TIN and plain TDMA are closed forms, PC-TIN compares the 8
vertices of the budget box, and TDMA-TIN searches its time share. Each
scheme returns a SchemeResult whose ``diagnostics`` count the formula's
``evaluations``; TDMA-TIN adds the ``stages`` and ``levels`` of its grid
search.

Each closed form has a private value helper, which the sweep calls with no
result object per row: ``_tin_value`` (full-power TIN at the budgets),
``_pc_tin_vertex`` (PC-TIN's value and vertex, from the 10 distinct log
terms of its 8 vertices) and ``model._half_log_sum`` (plain TDMA). TDMA-TIN
has its batch search, ``_tdma_tin_batch``.
"""

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
from .optimize import _WORK, _blocks, maximize_box


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
    Every operation writes into one of the four (2, m, n) rows of the
    kernel's work block, taken from the workspace, in that association
    order; each part is its array's first row, where the halved sum of the
    two slots is formed in place. The returned rows are views into the
    block: valid until the next call, or new arrays for one instance.
    """
    snr, cross, p3 = c
    a = np.asarray(alphas, dtype=float)
    block = _WORK.take("kernel", (4, 2) + a.shape)
    w, s, mac, t = block[0], block[1], block[2], block[3]
    w[0] = a
    np.subtract(1.0, a, out=w[1])
    np.maximum(w, 5e-324, out=s)  # w, but 5e-324 where w = 0 (its term is weighted by 0)
    np.add(s, snr, out=mac)
    np.log2(mac, out=mac)
    np.log2(s, out=t)
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


def _tdma_tin_batch(rows) -> list:
    """``tdma_tin_sum_rate`` of each instance of ``rows``. Each block of
    instances (``optimize._blocks``) makes one kernel call per refinement
    stage, and its grid stage a few."""
    results = []
    for block in _blocks(rows, 1):
        c = _tdma_coeffs(block)

        def objective(alphas):
            mac, p2p = _tdma_parts(c, alphas)
            return np.add(mac, p2p, out=mac)

        seeds = [[share.alpha for share in (alpha_star(p), alpha_prime(p)) if share is not None]
                 for p in block]
        results += [SchemeResult(sum_rate=res.value, arg=TimeShare(res.arg),
                                 diagnostics=res.diagnostics)
                    for res in maximize_box(objective, 1, 1025, 1e-7, seeds)]
    return results


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
    return _tdma_tin_batch([params])[0]


def _tin_value(params: PimacParams, p1: float, p2: float, p3: float) -> float:
    # Full-power TIN's formula at the powers (p1, p2, p3).
    mac = _half_log_sum((p1, p2), 1.0 + params.h31 * (params.h31 * p3))
    p2p = half_log(p3 / (1.0 + params.h12 * (params.h12 * p1)
                         + params.h22 * (params.h22 * p2)))
    return mac + p2p


def _pc_tin_vertex(params: PimacParams) -> tuple[float, tuple]:
    """PC-TIN's value and box vertex: ``_tin_value`` at the 8 vertices in
    ``itertools.product`` order, the first of equal values kept, bit for bit.

    The vertices share their log terms. With ``p3 = 0`` the P2P term is 0.0
    and the MAC noise 1; with ``p3 = P3`` the MAC noise is ``N = 1 + h31^2
    P3``, and the P2P term depends on the interference sum of ``(p1, p2)``.
    A MAC pair of zeros adds 0.0. So the 8 values take 10 log terms: the MAC
    term of the 3 other pairs at both noises, and the P2P term of the 4
    pairs, each written as in ``_tin_value``.
    """
    h12, h22, p1, p2, p3 = params.h12, params.h22, params.p1_max, params.p2_max, params.p3_max
    noise = 1.0 + params.h31 * (params.h31 * p3)
    value, vertex = 0.0, (0.0, 0.0, 0.0)
    for a, b in ((0.0, 0.0), (0.0, p2), (p1, 0.0), (p1, p2)):
        p2p = 0.5 * math.log2(1.0 + p3 / (1.0 + h12 * (h12 * a) + h22 * (h22 * b)))
        macs = (_half_log_sum((a, b)), _half_log_sum((a, b), noise)) if a or b else (0.0, 0.0)
        for v, c in ((macs[0], 0.0), (macs[1] + p2p, p3)):
            if v > value:
                value, vertex = v, (a, b, c)
    return value, vertex


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
    2008). Ties go to the lexicographically smallest vertex. The values come
    from ``_pc_tin_vertex``, which shares the vertices' log terms and gives
    ``_tin_value`` at each vertex bit for bit; the sweep calls it directly.

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
    value, vertex = _pc_tin_vertex(params)
    return SchemeResult(sum_rate=value, arg=PowerAllocation(*vertex),
                        diagnostics={"evaluations": 8})


def plain_tdma_sum_rate(params: PimacParams) -> SchemeResult:
    """TDMA between the MAC pair and the point-to-point user, in closed form.

    At the optimal share ``(P1+P2) / (P1+P2+P3)`` the sum-rate is
    ``half_log(P1+P2+P3)``, which ``_half_log_sum`` evaluates also where the
    sum overflows; there the share is taken from the quarters of the
    budgets. With all budgets zero every share gives the limit 0; the share
    returned is 0.0, the smallest.
    """
    p1, p2, p3 = params.p1_max, params.p2_max, params.p3_max
    value = _half_log_sum((p1, p2, p3))
    if p1 + p2 + p3 == math.inf:
        p1, p2, p3 = 0.25 * p1, 0.25 * p2, 0.25 * p3
    total = p1 + p2 + p3
    return SchemeResult(sum_rate=value, arg=TimeShare((p1 + p2) / total if total > 0.0 else 0.0),
                        diagnostics={"evaluations": 1})
