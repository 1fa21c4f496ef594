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
    """
    h12, h22, h31 = mp.mpf(h12), mp.mpf(h22), mp.mpf(h31)
    p1, p2, p3 = mp.mpf(p1), mp.mpf(p2), mp.mpf(p3)
    n1 = 1 + h31 ** 2 * p3
    n2 = 1 + h12 ** 2 * p1 + h22 ** 2 * p2
    cov1 = mp.matrix([[p1 + p2 + n1, h12 * p1 + h22 * p2],
                      [h12 * p1 + h22 * p2, n2]])
    cov2 = mp.matrix([[n2 + p3, h31 * p3],
                      [h31 * p3, h31 ** 2 * p3 + 1]])
    return (mp.log(mp.det(cov1) / n1, 2) + mp.log(mp.det(cov2) / n2, 2)) / 2


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


def genie_kernel_ref(c, r1, r2, t1, t2):
    den = c.n1 - r1 * r1
    w = t1 - r1 * c.s_a
    u = (c.a * w * w + c.k_mac) / den
    x = np.empty((2,) + u.shape)
    np.add(u, c.s2_a, out=x[0])
    if c.a_zero is not None:
        np.copyto(x[0], c.total / den, where=c.a_zero)
    if c.q_zero is not None:
        np.copyto(x[0], c.total_n1, where=c.q_zero & np.isinf(t1))
    w = c.g31 * t2 - r2 * c.inv_q1
    np.multiply(c.q1 * w * w / (c.q1 - r2 * r2) + c.inv_q1, c.p3, out=x[1])
    if c.s2_zero is not None:
        np.copyto(x[1], c.p3_q1, where=c.s2_zero & np.isinf(t2))
    mac, p2p = bits_ref(x)
    if c.mac_off is not None:
        np.copyto(mac, 0.0, where=c.mac_off)
    if c.p2p_off is not None:
        np.copyto(p2p, 0.0, where=c.p2p_off)
    return mac, p2p


def t_star_ref(c, r1, r2):
    bound1, bound2 = 1.0 / np.sqrt(1.0 - r1 * r1), 1.0 / np.sqrt(1.0 - r2 * r2)
    t1 = np.fmax(r1 * c.s_a, bound2)
    if c.a_zero is not None:
        t1 = np.where(c.a_zero, math.inf, t1)
    t2 = np.fmax(r2 * c.inv_g31q1, bound1)
    if c.g31_zero is not None:
        t2 = np.where(c.g31_zero, math.inf, t2)
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
