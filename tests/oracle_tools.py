"""Independent oracles used to derive the frozen expected values.

High-precision evaluation goes through mpmath at 40 digits; maximizations
are cross-checked with dense numpy grids; the genie bound against log-det
mutual informations of a covariance built from the linear channel map. These
routines deliberately do not call into the package's own code. The
expression forms of the two search kernels at the end take the package's
coefficient tables as inputs only: they are the references that the
in-place kernels must equal bit for bit. The expression form of the
refinement windows is the reference of the solver's windows in the same way.
``genie_reduced`` alone runs package code: the genie search's objective,
outside the search that holds its ``np.errstate``.
"""

import math

import mpmath as mp
import numpy as np

from pimac.bounds import _genie_sum

mp.mp.dps = 40


def half_log_mp(x):
    return mp.log(1 + mp.mpf(x), 2) / 2


def sd_region_mp(h12, h22, h31, p1, p2, p3):
    h12, h22, h31 = mp.mpf(h12), mp.mpf(h22), mp.mpf(h31)
    p1, p2, p3 = mp.mpf(p1), mp.mpf(p2), mp.mpf(p3)
    noise = 1 + h31 ** 2 * p3
    r1 = half_log_mp(p1 / noise)
    r2 = half_log_mp(p2 / noise)
    r12 = half_log_mp((p1 + p2) / noise)
    r3 = half_log_mp(p3 / (1 + h12 ** 2 * p1 + h22 ** 2 * p2))
    return r1, r2, r12, r3


def tdma_components_mp(h12, h22, h31, p1, p2, p3, alpha):
    h12, h22, h31 = mp.mpf(h12), mp.mpf(h22), mp.mpf(h31)
    p1, p2, p3 = mp.mpf(p1), mp.mpf(p2), mp.mpf(p3)
    alpha = mp.mpf(alpha)
    noise = 1 + h31 ** 2 * p3
    c1, c2 = h12 ** 2 * p1, h22 ** 2 * p2

    a_val = mp.mpf(0)
    b_val = mp.mpf(0)
    if alpha > 0:
        a_val += alpha / 2 * mp.log(1 + (p1 / alpha) / noise, 2)
        b_val += alpha / 2 * mp.log(1 + p3 / (1 + c1 / alpha), 2)
    if alpha < 1:
        a_val += (1 - alpha) / 2 * mp.log(1 + (p2 / (1 - alpha)) / noise, 2)
        b_val += (1 - alpha) / 2 * mp.log(1 + p3 / (1 + c2 / (1 - alpha)), 2)
    return a_val, b_val


def pc_objective_mp(h12, h22, h31, p1, p2, p3):
    h12, h22, h31 = mp.mpf(h12), mp.mpf(h22), mp.mpf(h31)
    p1, p2, p3 = mp.mpf(p1), mp.mpf(p2), mp.mpf(p3)
    return (half_log_mp((p1 + p2) / (1 + h31 ** 2 * p3))
            + half_log_mp(p3 / (1 + h12 ** 2 * p1 + h22 ** 2 * p2)))


def dense_tdma_objective(params, n_points=200_001):
    """Dense-grid evaluation of the time-share objective in float64."""
    noise = 1.0 + params.h31 ** 2 * params.p3_max
    p1, p2, p3 = params.p1_max, params.p2_max, params.p3_max
    c1 = params.h12 ** 2 * p1
    c2 = params.h22 ** 2 * p2
    a = np.linspace(0.0, 1.0, n_points)
    b = 1.0 - a
    sa = np.where(a > 0.0, a, 1.0)
    sb = np.where(b > 0.0, b, 1.0)
    v = np.where(a > 0.0, 0.5 * a * np.log2(1.0 + p1 / (sa * noise)), 0.0)
    v = v + np.where(b > 0.0, 0.5 * b * np.log2(1.0 + p2 / (sb * noise)), 0.0)
    v = v + np.where(a > 0.0, 0.5 * a * np.log2(1.0 + p3 / (1.0 + c1 / sa)), 0.0)
    v = v + np.where(b > 0.0, 0.5 * b * np.log2(1.0 + p3 / (1.0 + c2 / sb)), 0.0)
    return a, v


def dense_pc_grid_max(params, n_per_axis=61):
    """Brute-force box maximum of the power-control objective."""
    g31 = params.h31 ** 2
    g12 = params.h12 ** 2
    g22 = params.h22 ** 2
    axes = [np.linspace(0.0, b, n_per_axis)
            for b in (params.p1_max, params.p2_max, params.p3_max)]
    p1, p2, p3 = np.meshgrid(*axes, indexing="ij")
    v = (0.5 * np.log2(1.0 + (p1 + p2) / (1.0 + g31 * p3))
         + 0.5 * np.log2(1.0 + p3 / (1.0 + g12 * p1 + g22 * p2)))
    i = np.unravel_index(int(np.argmax(v)), v.shape)
    return (axes[0][i[0]], axes[1][i[1]], axes[2][i[2]]), float(v[i])


def genie_independent(h12, h22, h31, p1, p2, p3):
    """Genie bound at ``rho = 0, eta = 1`` in bits, by 2x2 determinants.

    Each genie sees unit noise independent of everything else:
    ``S1 = h12 X1 + h22 X2 + W1`` and ``S2 = h31 X3 + W2``. The bound is
    ``I(X1,X2; Y1,S1) + I(X3; Y2,S2)``, each term the log ratio of the
    output covariance determinant to the noise covariance determinant.
    With ``s = h12 P1 + h22 P2``, ``q = h12^2 P1 + h22^2 P2`` and the noises
    ``n1 = 1 + h31^2 P3`` and ``n2 = 1 + q``, the two determinants are

    - ``(P1 + P2 + n1) n2 - s^2 = n1 + P1 + P2 + D + n1 q``, with
      ``D = P1 P2 (h12 - h22)^2``;
    - ``(n2 + P3)(h31^2 P3 + 1) - h31^2 P3^2 = n2 n1 + P3``.

    The right-hand forms are evaluated: they have no difference to cancel,
    while at extreme gains the left-hand products agree in more than the
    40 digits carried.
    """
    h12, h22, h31 = mp.mpf(h12), mp.mpf(h22), mp.mpf(h31)
    p1, p2, p3 = mp.mpf(p1), mp.mpf(p2), mp.mpf(p3)
    n1 = 1 + h31 ** 2 * p3
    q = h12 ** 2 * p1 + h22 ** 2 * p2
    d = p1 * p2 * (h12 - h22) ** 2
    return (mp.log(1 + (p1 + p2 + d + n1 * q) / n1, 2)
            + mp.log(n1 + p3 / (1 + q), 2)) / 2


def genie_box_coeffs(params):
    """The coefficients of ``genie_box_bits``, one column per instance of
    ``params``, from its nonnegative-gain equivalent: ``P``, ``n1``, ``A``,
    ``s``, ``D``, ``q + 1``, ``h31`` and ``P3`` (see ``pimac.bounds``).
    Instances where ``q`` underflows to 0 and ``A`` does not, or ``h31^2
    P3`` does and neither ``h31`` nor ``P3`` is 0, are outside the oracle
    and raise ValueError."""
    g12, g22, g31, p1, p2, p3 = np.abs([(p.h12, p.h22, p.h31, p.p1_max, p.p2_max, p.p3_max)
                                        for p in params]).T
    q, n1 = g12 ** 2 * p1 + g22 ** 2 * p2, 1.0 + g31 ** 2 * p3
    d = p1 * p2 * (g12 - g22) ** 2
    a = d + n1 * q
    if np.any((q == 0.0) & (a != 0.0)) or np.any((g31 ** 2 * p3 == 0.0) & (g31 * p3 != 0.0)):
        raise ValueError("q or h31^2 P3 underflows: outside the oracle")
    return np.array([p1 + p2, n1, a, g12 * p1 + g22 * p2, d, q + 1.0, g31, p3])


def genie_box_bits(coeffs, boxes):
    """Lower bounds, in bits, of the genie bound minimized over the
    scalings (the reduced objective of ``pimac.bounds``) on boxes ``[a0,
    a1] x [b0, b1]`` of ``(rho1, rho2)`` in ``[0, 1]^2`` with ``a0, b0 < 1``,
    and its values at their centres. ``boxes`` is a (4, n) array of ``(a0,
    a1, b0, b1)`` and ``coeffs`` the (8, n) ``genie_box_coeffs`` of each
    box's instance.

    Each ratio is a convex quadratic in ``t = 1/eta`` over a denominator in
    ``rho`` alone, and the best feasible ``t`` leaves the squares
    ``w1 = max(0, 1/sqrt(1 - rho2^2) - rho1 s/A)`` and ``w2 = max(0,
    h31/sqrt(1 - rho1^2) - rho2/(q+1))``:

        R1 = (A w1^2 + D (P + n1)/A) / (n1 - rho1^2) + s^2/A,
        R2 = P3 [(q+1) w2^2 / (q + 1 - rho2^2) + 1/(q+1)].

    Each square and each denominator is monotone in each coordinate, so
    taking every coordinate at its worst end bounds each ratio, and each
    of their partial derivatives, from below and from above (the natural
    interval extension). The objective is ``0.5 log2(1 + R1) + 0.5 log2(1
    + R2)`` with the package's ``EPS_DET`` rule (``+inf`` from ``1 + R =
    1e12`` on), which is monotone, so the ratios' lower ends bound it. That
    bound is off by the order of the box's width, because at a minimum the
    two terms pull against each other. The bound returned is the larger of
    it and the mean-value form ``f(c) - sum_i r_i max |df/drho_i|`` of the
    smooth objective (the rule only raises it), centre ``c`` and radii
    ``r``, which near a minimum is off by the order of the width squared.

    The degenerate flags are constants of their own: ``P = 0`` and ``P3 =
    0`` give 0 bits, ``A = 0`` the ratio ``P/n1`` (``S1`` carries no input
    and is dropped; ``A = 0`` forces ``q = 0``) and ``h31 = 0`` the ratio
    ``P3/(q+1)``. A NaN bound is outside the oracle and raises ValueError.
    Rounding errors of a few ulps are not covered.
    """
    total, n1, a, s, d, q1, g31, p3 = coeffs
    a0, a1, b0, b1 = boxes
    ca, cb = (a0 + a1) / 2, (b0 + b1) / 2
    on = (a != 0.0, (g31 != 0.0) & (p3 > 0.0))  # each term depends on rho
    with np.errstate(all="ignore"):
        sig, k = s / a, d * (total + n1) / a

        def beta(r):
            return 1.0 / np.sqrt(1.0 - r * r)

        def r1(x_w, x_den, y):  # (w1, R1) with rho1 = x_w in w1, x_den in the denominator
            w = np.maximum(beta(y) - sig * x_w, 0.0)
            return w, np.where(on[0], (a * w * w + k) / (n1 - x_den * x_den) + s * sig,
                               total / n1)

        def r2(x, y_w, y_den):
            w = np.maximum(g31 * beta(x) - y_w / q1, 0.0)
            return w, np.where(g31 != 0.0, p3 * (q1 * w * w / (q1 - y_den * y_den) + 1.0 / q1),
                               p3 / q1)

        (w1_lo, mac_lo), (w1_hi, mac_hi) = r1(a1, a0, b0), r1(a0, a1, b1)
        (w2_lo, p2p_lo), (w2_hi, p2p_hi) = r2(a0, b1, b0), r2(a1, b0, b1)
        mac_c, p2p_c = r1(ca, ca, cb)[1], r2(ca, cb, cb)[1]
        d1, d2 = (n1 - a1 * a1, n1 - a0 * a0), (q1 - b1 * b1, q1 - b0 * b0)  # (lo, hi)
        dbeta = [r * beta(r) ** 3 for r in (a0, a1, b0, b1)]
        # Ranges (lo, hi) of dR1/drho1, dR1/drho2, dR2/drho1 and dR2/drho2.
        grads = [
            (2 * (a0 * (a * w1_lo ** 2 + k) / d1[1] ** 2 - a * sig * w1_hi / d1[0]),
             2 * (a1 * (a * w1_hi ** 2 + k) / d1[0] ** 2 - a * sig * w1_lo / d1[1])),
            (2 * a * w1_lo * dbeta[2] / d1[1], 2 * a * w1_hi * dbeta[3] / d1[0]),
            (2 * p3 * q1 * g31 * w2_lo * dbeta[0] / d2[1],
             2 * p3 * q1 * g31 * w2_hi * dbeta[1] / d2[0]),
            (2 * p3 * (q1 * b0 * w2_lo ** 2 / d2[1] ** 2 - w2_hi / d2[0]),
             2 * p3 * (q1 * b1 * w2_hi ** 2 / d2[0] ** 2 - w2_lo / d2[1])),
        ]
        # d bits/drho = (0.5/ln 2) dR/drho / (1 + R), summed over the terms per axis.
        slope = np.zeros((2, 2) + a0.shape)  # (lo, hi) of each axis
        for i, (lo, hi) in enumerate(grads):
            r_lo, r_hi = (mac_lo, mac_hi) if i < 2 else (p2p_lo, p2p_hi)
            u = 1.0 / (1.0 + r_hi), 1.0 / (1.0 + r_lo)
            slope[0][i % 2] += np.where(on[i // 2], np.minimum(lo * u[0], lo * u[1]), 0.0)
            slope[1][i % 2] += np.where(on[i // 2], np.maximum(hi * u[0], hi * u[1]), 0.0)
        smooth = (np.where(total > 0.0, np.log1p(mac_c), 0.0)
                  + np.where(p3 > 0.0, np.log1p(p2p_c), 0.0))
        reach = sum(r * np.maximum(-slope[0][i], slope[1][i])
                    for i, r in enumerate(((a1 - a0) / 2, (b1 - b0) / 2)))
        mean_value = (smooth - reach) * (0.5 / math.log(2.0))
    if np.isnan(mac_lo).any() or np.isnan(p2p_lo).any():
        raise ValueError("a box bound is NaN: outside the oracle")
    natural, centre = (np.where(total > 0.0, bits_ref(x), 0.0)
                       + np.where(p3 > 0.0, bits_ref(y), 0.0)
                       for x, y in ((mac_lo, p2p_lo), (mac_c, p2p_c)))
    return np.fmax(natural, np.where(np.isnan(mean_value), -np.inf, mean_value)), centre


def certified_genie_min(params, eps, max_boxes=2_000_000):
    """Interval branch and bound (Hansen and Walster, *Global Optimization
    Using Interval Analysis*, 2004) for the genie bound minimized over
    ``(rho1, rho2)`` in ``[0, 1]^2`` (``genie_box_bits``), for all the
    instances ``params`` at once.

    Each instance starts from a 16 x 16 grid of boxes. Each round
    evaluates the live boxes' centres, which can only lower an instance's
    best value ``U``, prunes every box whose lower bound is at least
    ``U - eps``, and splits every other box in two across its longer side
    (``rho1`` on a tie). Returns three arrays, per instance: a certified
    lower bound on the minimum (the least bound of its pruned boxes, at
    least ``U - eps``), ``U`` and its point. Raises RuntimeError when more
    than ``max_boxes`` boxes are live at once."""
    coeffs = genie_box_coeffs(params)
    m = coeffs.shape[1]
    lower, best_v, best_p = np.full(m, math.inf), np.full(m, math.inf), np.zeros((m, 2))
    cells = np.indices((16, 16)).reshape(2, -1) / 16.0
    boxes = np.tile(np.stack([cells[0], cells[0] + 1 / 16, cells[1], cells[1] + 1 / 16]), m)
    inst = np.repeat(np.arange(m), 256)
    while inst.size:
        if inst.size > max_boxes:
            raise RuntimeError(f"{inst.size} live boxes: not certified")
        bound, values = genie_box_bits(coeffs[:, inst], boxes)
        centres = np.array([boxes[0] + boxes[1], boxes[2] + boxes[3]]) / 2
        order = np.lexsort((values, inst))
        first = order[np.r_[True, inst[order][1:] != inst[order][:-1]]]
        first = first[values[first] < best_v[inst[first]]]
        best_v[inst[first]], best_p[inst[first]] = values[first], centres[:, first].T
        done = bound >= best_v[inst] - eps
        np.minimum.at(lower, inst[done], bound[done])
        inst, boxes = inst[~done], boxes[:, ~done]
        # Split across the longer side: row 0 of boxes (a0) for rho1, 2 for rho2.
        cols = np.arange(inst.size)
        side = np.where(boxes[1] - boxes[0] >= boxes[3] - boxes[2], 0, 2)
        mid = (boxes[side, cols] + boxes[side + 1, cols]) / 2
        left, right = boxes.copy(), boxes.copy()
        left[side + 1, cols] = right[side, cols] = mid
        inst, boxes = np.concatenate([inst, inst]), np.concatenate([left, right], axis=1)
    return lower, best_v, best_p


# Variable order of the joint covariance: (X1, X2, X3, Y1, S1, Y2, S2).
MAC_INPUTS, RX1_OUTPUTS, P2P_INPUT, RX2_OUTPUTS = (0, 1), (3, 4), (2,), (5, 6)


def genie_joint_cov(p, genie):
    """Covariance of ``(X1, X2, X3, Y1, S1, Y2, S2)`` as ``L B L^T``: ``L``
    maps the sources ``(X1, X2, X3, Z1, Z2, W1, W2)`` to them, and ``B`` holds
    the powers, unit noises, ``E[Z1 W1] = rho1`` and ``E[Z2 W2] = rho2``."""
    rho1, rho2, eta1, eta2 = genie
    base = np.diag([p.p1_max, p.p2_max, p.p3_max, 1.0, 1.0, 1.0, 1.0])
    base[3, 5] = base[5, 3] = rho1
    base[4, 6] = base[6, 4] = rho2
    lmap = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                     [1.0, 1.0, p.h31, 1.0, 0.0, 0.0, 0.0],
                     [p.h12, p.h22, 0.0, 0.0, 0.0, eta1, 0.0],
                     [p.h12, p.h22, 1.0, 0.0, 1.0, 0.0, 0.0],
                     [0.0, 0.0, p.h31, 0.0, 0.0, 0.0, eta2]])
    return lmap @ base @ lmap.T


def mutual_info_bits(cov, group_a, group_b):
    """``0.5 log2(det S_A det S_B / det S_AB)`` without the variables of zero
    variance; ``+inf`` where the ratio reaches 1e12, the bound's ``EPS_DET``
    rule. Groups are factorised in one canonical order, so order is free."""
    keep = np.diagonal(cov) != 0.0
    ia = sorted(i for i in group_a if keep[i])
    ib = sorted(i for i in group_b if keep[i])
    if not ia or not ib:
        return 0.0
    if ib[0] < ia[0]:
        ia, ib = ib, ia
    ld_a, ld_b, ld_ab = (np.linalg.slogdet(cov[np.ix_(g, g)])[1] for g in (ia, ib, ia + ib))
    if ld_ab <= math.log(1e-12) + ld_a + ld_b:
        return math.inf
    return max(0.5 * (ld_a + ld_b - ld_ab) / math.log(2.0), 0.0)


# The refinement windows as one expression over a table of the window's
# points per dimension, (points, 2) in 2-D: the reference of
# ``pimac.optimize._windows``, which builds a 2-D window from its two axes.
WINDOWS_REF = {1: np.linspace(0.0, 1.0, 65),
               2: np.linspace(0.0, 1.0, 9)[np.indices((9, 9)).reshape(2, -1).T]}


def windows_ref(top_p, spacing, lo, hi):
    shape = np.shape(lo)
    left = np.maximum(top_p - spacing, lo)
    width = np.minimum(top_p + spacing, hi) - left
    window = WINDOWS_REF[1 if shape == () else 2]
    return np.minimum(left[:, :, None, ...] + width[:, :, None, ...] * window,
                      hi).reshape((len(top_p), -1) + shape)


def ranked_ref(pts, values, k):
    """Each row's k best distinct points, the reference of
    ``pimac.optimize._ranked``: every row of the (m, n[, 2]) ``pts`` sorted
    whole by (-value, point), and its first k distinct points taken. Values
    (m, k) and points (m, k[, 2]); a row with fewer than k is padded with
    repeats of its last one. Equal points must have equal values, as at the
    points of one objective."""
    top_v, top_p = [], []
    for p, v in zip(pts.tolist(), values.tolist()):
        found = []
        for value, point in sorted(zip(v, p), key=lambda e: (-e[0], e[1])):
            if not found or point != found[-1][1]:
                found.append((value, point))
        found = found[:k]
        found += found[-1:] * (k - len(found))
        top_v.append([value for value, _ in found])
        top_p.append([point for _, point in found])
    return np.array(top_v), np.array(top_p)


# Expression forms of the search kernels: every operation allocates its
# result, in the association order that the in-place kernels keep. ``c`` is
# ``pimac.bounds._genie_coeffs(rows)`` or ``pimac.schemes._tdma_coeffs(rows)``.

def bits_ref(x):
    return np.where(x < 1.0 / 1e-12 - 1.0, np.log1p(x) * (0.5 / math.log(2.0)), np.inf)


def flag_mask(c, flag):
    """A flag of ``c`` (a span of rows and their mask) as a mask over every
    instance, (m, 1, 1, 1) for a batch, or False where no instance has it."""
    if flag is None or flag[1] is True:
        return flag is not None
    mask = np.zeros(np.shape(c.n1), bool)
    mask[flag[0]] = flag[1]
    return mask


def genie_kernel_ref(c, r1, r2, t1, t2):
    a_zero, q_zero, s2_zero = (flag_mask(c, f) for f in (c.a_zero, c.q_zero, c.s2_zero))
    mac_off, p2p_off = flag_mask(c, c.mac_off), flag_mask(c, c.p2p_off)
    den = c.n1 - r1 * r1
    w = t1 - r1 * c.s_a
    u = (c.a * w * w + c.k_mac) / den
    x = np.empty((2,) + u.shape)
    np.add(u, c.s2_a, out=x[0])
    np.copyto(x[0], c.total / den, where=a_zero)
    np.copyto(x[0], c.total_n1, where=q_zero & np.isinf(t1))
    w = c.g31 * t2 - r2 * c.inv_q1
    np.multiply(c.q1 * w * w / (c.q1 - r2 * r2) + c.inv_q1, c.p3, out=x[1])
    np.copyto(x[1], c.p3_q1, where=s2_zero & np.isinf(t2))
    mac, p2p = bits_ref(x)
    np.copyto(mac, 0.0, where=mac_off)
    np.copyto(p2p, 0.0, where=p2p_off)
    return mac, p2p


def t_star_ref(c, r1, r2):
    bound1, bound2 = 1.0 / np.sqrt(1.0 - r1 * r1), 1.0 / np.sqrt(1.0 - r2 * r2)
    t1 = np.fmax(r1 * c.s_a, bound2)
    t1 = np.where(flag_mask(c, c.a_zero), math.inf, t1)
    t2 = np.fmax(r2 * c.inv_g31q1, bound1)
    t2 = np.where(flag_mask(c, c.g31_zero), math.inf, t2)
    return t1, t2


def genie_reduced_ref(c, r1, r2):
    """The reduced genie objective at the points of the coordinate arrays
    ``r1`` and ``r2``, each of the points' full shape (m, n, ...) with four
    axes, as ``c``'s arrays broadcast."""
    with np.errstate(all="ignore"):
        mac, p2p = genie_kernel_ref(c, r1, r2, *t_star_ref(c, r1, r2))
    return mac + p2p


def genie_reduced(c, rho):
    """``pimac.bounds._genie_sum(c, xy)``, the genie bound minimized over
    the scalings, at each point of the (m, n, 2) array ``rho``, as an (m, n)
    array, in its own ``np.errstate``."""
    with np.errstate(all="ignore"):
        return _genie_sum(c, rho.transpose(2, 0, 1)[..., None, None]).reshape(rho.shape[:2])


def tdma_parts_ref(c, alphas):
    snr, cross, p3 = c
    a = np.asarray(alphas, dtype=float)
    w = np.empty((2,) + a.shape)
    w[0] = a
    np.subtract(1.0, a, out=w[1])
    s = np.maximum(w, 5e-324)
    mac = w * (np.log2(s + snr) - np.log2(s))
    p2p = w * np.log2(1.0 + p3 * s / (s + cross))
    return 0.5 * (mac[0] + mac[1]), 0.5 * (p2p[0] + p2p[1])
