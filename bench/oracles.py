"""Independent output checks, written from the model's definitions.

Nothing here calls ``pimac``. Closed forms are evaluated in mpmath, which
neither overflows nor underflows over the benchmark's input range; the
TDMA-TIN line search is checked against a dense numpy grid.

A check is of one of two kinds. A *validity* check fails when an output is
not a true statement: an upper bound below a rate that is achieved, or a
closed form that does not equal its value. An *optimality* check fails when
a solver returns less than it promises: a maximum below a candidate it
claims to cover, or a minimum above one. The value is then still a valid
rate or bound, only a weaker one.
"""

import math

import mpmath
import numpy as np

from workloads import ACHIEVABLE, BOUNDS

mpmath.mp.dps = 40

# Slack of "bound >= best achievable" and of the one-sided optimality checks.
TOL = 1e-9
# Relative slack of closed forms that the program evaluates in float64.
REL = 1e-9
TDMA_GRID = np.linspace(0.0, 1.0, 8193)


def _half_log(x):
    return mpmath.log1p(x) / (2 * mpmath.log(2))


def _slack(ref, rel):
    return rel * max(1.0, abs(float(ref)))


def sd_tin(h12, h22, h31, p1, p2, p3):
    """Full-power TIN with successive decoding at the MAC receiver."""
    h12, h22, h31, p1, p2, p3 = map(mpmath.mpf, (h12, h22, h31, p1, p2, p3))
    return (_half_log((p1 + p2) / (1 + h31 ** 2 * p3))
            + _half_log(p3 / (1 + h12 ** 2 * p1 + h22 ** 2 * p2)))


def plain_tdma(h12, h22, h31, p1, p2, p3):
    """Time sharing between the MAC pair and the P2P link at the best share."""
    return _half_log(mpmath.mpf(p1) + p2 + p3)


def ub2(h12, h22, h31, p1, p2, p3):
    """Closed-form bound: MAC messages handed to the P2P receiver."""
    p1, p2, p3 = map(mpmath.mpf, (p1, p2, p3))
    return _half_log((p1 + p2) / (1 + mpmath.mpf(h31) ** 2 * p3)) + _half_log(p3)


def pc_vertex_max(h12, h22, h31, p1, p2, p3):
    """Best TIN sum-rate over the 8 vertices of the power box."""
    g12, g22, g31 = (mpmath.mpf(h) ** 2 for h in (h12, h22, h31))
    best = None
    for a in (0, p1):
        for b in (0, p2):
            for c in (0, p3):
                a_, b_, c_ = map(mpmath.mpf, (a, b, c))
                v = (_half_log((a_ + b_) / (1 + g31 * c_))
                     + _half_log(c_ / (1 + g12 * a_ + g22 * b_)))
                best = v if best is None else max(best, v)
    return best


def genie_independent(h12, h22, h31, p1, p2, p3):
    """Genie bound at ``rho = 0, eta = 1``: each genie sees unit noise that is
    independent of everything else.

    ``I(X1,X2; Y1,S1) + I(X3; Y2,S2)`` with ``S1 = h12 X1 + h22 X2 + W1`` and
    ``S2 = h31 X3 + W2``, evaluated on the nonnegative-gain instance, which has
    the same capacity.
    """
    a12, a22, a31 = (abs(mpmath.mpf(h)) for h in (h12, h22, h31))
    p1, p2, p3 = map(mpmath.mpf, (p1, p2, p3))
    q = a12 ** 2 * p1 + a22 ** 2 * p2
    s = a12 * p1 + a22 * p2
    n1 = 1 + a31 ** 2 * p3
    # det Cov(Y1, S1) / det Cov(noise of Y1, S1 | X1, X2) = 1 + numerator / n1.
    mi1 = _half_log(((p1 + p2) * (q + 1) + n1 * q - s ** 2) / n1)
    # det Cov(Y2, S2) / det Cov(noise of Y2, S2 | X3) = 1 + numerator / (q + 1).
    mi2 = _half_log(p3 * (1 + a31 ** 2 * (q + 1)) / (q + 1))
    return mi1 + mi2


def tdma_grid_max(h12, h22, h31, p1, p2, p3):
    """TDMA-TIN objective maximized over a dense grid of time shares."""
    a = TDMA_GRID
    b = 1.0 - a
    noise = 1.0 + h31 * h31 * p3
    c1 = h12 * h12 * p1
    c2 = h22 * h22 * p2
    with np.errstate(all="ignore"):
        mac = (np.where(a > 0, a * np.log1p(p1 / (a * noise)), 0.0)
               + np.where(b > 0, b * np.log1p(p2 / (b * noise)), 0.0))
        p2p = (np.where(a > 0, a * np.log1p(p3 / (1.0 + c1 / a)), 0.0)
               + np.where(b > 0, b * np.log1p(p3 / (1.0 + c2 / b)), 0.0))
        total = 0.5 * (mac + p2p) / math.log(2.0)
    return float(np.nanmax(total))


VALIDITY = "validity"
OPTIMALITY = "optimality"


def check_point(params, vals):
    """Curves of one point whose values fail a check, mapped to (kind, reason).

    ``params`` is ``(h12, h22, h31, p1, p2, p3)``; ``vals`` maps each curve
    that returned to its value.
    """
    bad = {}

    def flag(curve, kind, why):
        bad.setdefault(curve, (kind, why))

    achieved = [vals[c] for c in ACHIEVABLE if c in vals]
    if achieved:
        best = max(achieved)
        for c in BOUNDS:
            if c in vals and vals[c] < best - TOL:
                flag(c, VALIDITY, f"bound {vals[c]!r} below best achievable {best!r}")
    for c, oracle in (("sd_tin", sd_tin), ("tdma", plain_tdma), ("ub2", ub2)):
        if c in vals:
            ref = oracle(*params)
            if abs(vals[c] - ref) > _slack(ref, REL):
                flag(c, VALIDITY, f"{vals[c]!r} != closed form {float(ref)!r}")
    if "pc_tin" in vals:
        ref = pc_vertex_max(*params)
        if vals["pc_tin"] < ref - _slack(ref, TOL):
            flag("pc_tin", OPTIMALITY,
                 f"{vals['pc_tin']!r} below best box vertex {float(ref)!r}")
    if "tdma_tin" in vals:
        ref = tdma_grid_max(*params)
        if vals["tdma_tin"] < ref - _slack(ref, TOL):
            flag("tdma_tin", OPTIMALITY, f"{vals['tdma_tin']!r} below dense grid max {ref!r}")
        elif "sd_tin" in vals and vals["tdma_tin"] < vals["sd_tin"] - TOL:
            flag("tdma_tin", OPTIMALITY, f"{vals['tdma_tin']!r} below sd_tin {vals['sd_tin']!r}")
    if "ub1" in vals:
        ref = genie_independent(*params)
        if vals["ub1"] > ref + _slack(ref, REL):
            flag("ub1", OPTIMALITY,
                 f"{vals['ub1']!r} above the rho=0, eta=1 genie {float(ref)!r}")
    return bad


def sandwich_gap(vals):
    """``min(bounds) - max(achievables)`` over the curves computed, or None."""
    bounds = [vals[c] for c in BOUNDS if c in vals]
    achieved = [vals[c] for c in ACHIEVABLE if c in vals]
    if not bounds or not achieved:
        return None
    return min(bounds) - max(achieved)
