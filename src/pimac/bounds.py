"""Sum-capacity upper bounds.

Two bounds are computed. The closed-form bound hands the MAC messages to
the point-to-point receiver and is valid whenever ``h31^2 <= 1``. The
genie bound (the noisy-interference genie of Shang, Kramer and Chen, IEEE
Trans. IT 2009) gives each receiver a side-information signal whose noise
is correlated with the receiver noise, and minimizes the sum of two
Gaussian mutual informations over the genie's correlation and scaling
parameters. Every feasible genie yields a valid upper bound, so an
early-stopped minimization degrades tightness only, never validity.

Variable ordering used throughout: ``(X1, X2, X3, Y1, S1, Y2, S2)`` where
``Y1 = X1 + X2 + h31 X3 + Z1``, ``Y2 = h12 X1 + h22 X2 + X3 + Z2``,
``S1 = h12 X1 + h22 X2 + eta1 W1``, ``S2 = h31 X3 + eta2 W2`` and the only
noise couplings are ``E[W1 Z1] = rho1``, ``E[W2 Z2] = rho2``.

Both mutual informations are ratios of 2x2 determinants. Write
``P = P1 + P2``, ``q = h12^2 P1 + h22^2 P2``, ``s = h12 P1 + h22 P2``,
``n1 = 1 + h31^2 P3``, ``D = P1 P2 (h12 - h22)^2`` and ``t = 1/eta``.
Given the inputs, ``(Y1, S1)`` has noise covariance
``N1 = [[n1, eta1 rho1], [eta1 rho1, eta1^2]]``, and expanding
``det Cov(Y1, S1) - det N1`` with ``Pq - s^2 = D`` gives

    I(X1,X2; Y1,S1) = 1/2 log2(1 + (A t1^2 - 2 s rho1 t1 + P) / (n1 - rho1^2)),

with ``A = D + n1 q``. ``X3`` enters ``(Y2, S2)`` along ``v = (1, h31)``
over the noise covariance ``N2 = [[q+1, eta2 rho2], [eta2 rho2, eta2^2]]``,
so the matrix determinant lemma ``det(N2 + P3 v v') = det N2 (1 + P3 v'
N2^-1 v)`` gives

    I(X3; Y2,S2) = 1/2 log2(1 + P3 (1 - 2 h31 rho2 t2 + h31^2 (q+1) t2^2)
                                / (q + 1 - rho2^2)).

Each ratio is a convex quadratic in ``t`` over a denominator that depends
on ``rho`` only. The kernel evaluates them with the square completed, so
that every term is nonnegative and nothing cancels: with
``t0 = s rho1 / A`` and ``P A - s^2 rho1^2 = D (P + n1) + s^2 (n1 - rho1^2)``
the first ratio is

    A (t1 - t0)^2 / (n1 - rho1^2) + D (P + n1) / (A (n1 - rho1^2)) + s^2 / A,

and with ``u = h31 t2`` and ``u0 = rho2 / (q+1)`` the second is

    P3 [(q+1) (u - u0)^2 / (q + 1 - rho2^2) + 1 / (q+1)].

Feasibility (``eta1 <= sqrt(1 - rho2^2)``, ``eta2 <= sqrt(1 - rho1^2)``)
reads ``t1 >= 1/sqrt(1 - rho2^2)`` and ``t2 >= 1/sqrt(1 - rho1^2)``, so for
fixed ``rho`` the best scalings are closed-form:

    t1* = max(s rho1 / A, 1/sqrt(1 - rho2^2)),
    t2* = max(rho2 / (h31 (q+1)), 1/sqrt(1 - rho1^2)),

and the genie bound is a minimum over ``(rho1, rho2)`` alone. With
nonnegative gains, ``s`` and ``h31`` are nonnegative and the scalings may
be taken nonnegative, so replacing ``rho`` by ``|rho|`` only lowers each
numerator and leaves the denominators and the constraints unchanged: the
search box is ``[0, 1]^2``. At its corner ``rho = 0`` the kernel is taken
at its minimiser over ``t``, which is never above the genie with
``eta = 1`` whose noise is independent of everything.

The kernel defines the degenerate cases. An input group of zero power
carries nothing. A genie signal of zero variance (``eta = 0``, i.e.
``t = inf``, with ``q = 0`` for ``S1`` or ``h31^2 P3 = 0`` for ``S2``) is
dropped, leaving ``P / n1`` or ``P3 / (q+1)``. A signal that carries no
input (``A = 0``, i.e. ``q = s = D = 0``, for ``S1``; ``h31 = 0`` for
``S2``) only reveals receiver noise, which can only raise the bound, so it
is best dropped: ``t* = inf``.

``_genie_terms`` evaluates the kernel at ``t = 1/eta`` over arrays of
genie points: ``genie_bound_batch`` sums its two terms, and
``montecarlo_covariance_check`` compares them with mutual informations of a
sampled covariance.
"""
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConstraintError, InfeasibleError, InvalidRegimeError
from .model import PimacParams, SchemeResult, _half_log_sum, half_log
from .optimize import _blocks, maximize_box

LN2 = math.log(2.0)

# Degeneracy rule: a mutual-information term whose ratio ``1 + x`` in
# ``_bits`` reaches 1/EPS_DET = 1e12 is reported as +inf, as for a noiseless
# genie. That is every term of 0.5*log2(1e12) ~ 19.93 bits or more,
# degenerate or not: at high SNR all genie points can be discarded, and
# c_sigma_1 then raises InfeasibleError.
EPS_DET = 1e-12

# Validation slack: boundary points built as eta = sqrt(1 - rho^2) may
# overshoot the exact constraint by a rounding error when squared back.
_FEAS_SLACK = 1e-12


@dataclass(frozen=True)
class GenieParams:
    """Genie noise correlations and scalings.

    Feasibility couples the pairs crosswise: ``eta1^2 <= 1 - rho2^2`` and
    ``eta2^2 <= 1 - rho1^2``. Negating ``(eta_j, rho_j)`` jointly leaves
    the joint distribution unchanged, so searches may restrict to
    nonnegative scalings without loss.
    """

    rho1: float
    rho2: float
    eta1: float
    eta2: float

    def __post_init__(self):
        for name in ("rho1", "rho2", "eta1", "eta2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConstraintError(f"{name} must be finite, got {v!r}")
        if abs(self.rho1) > 1.0 or abs(self.rho2) > 1.0:
            raise ConstraintError(
                f"|rho| must be <= 1, got rho1={self.rho1!r}, rho2={self.rho2!r}")
        if self.eta1 * self.eta1 > 1.0 - self.rho2 * self.rho2 + _FEAS_SLACK:
            raise ConstraintError(
                f"eta1^2={self.eta1 ** 2!r} exceeds 1-rho2^2={1 - self.rho2 ** 2!r}")
        if self.eta2 * self.eta2 > 1.0 - self.rho1 * self.rho1 + _FEAS_SLACK:
            raise ConstraintError(
                f"eta2^2={self.eta2 ** 2!r} exceeds 1-rho1^2={1 - self.rho1 ** 2!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.rho1, self.rho2, self.eta1, self.eta2)


def c_sigma_2(params: PimacParams) -> float:
    """Closed-form sum-capacity bound, valid for ``h31^2 <= 1``.

    ``half_log((P1+P2)/(1+h31^2 P3)) + half_log(P3)`` in bits.
    """
    if params.h31 * params.h31 > 1.0:
        raise InvalidRegimeError(
            f"bound requires h31^2 <= 1, got h31={params.h31!r}")
    mac = _half_log_sum((params.p1_max, params.p2_max),
                        1.0 + params.h31 * (params.h31 * params.p3_max))
    return mac + half_log(params.p3_max)


def _bits(x):
    """``0.5*log2(1 + x)`` for a ratio ``x >= 0``, or ``+inf`` where
    ``1 + x`` reaches ``1/EPS_DET`` or ``x`` is NaN (0/0 of a noiseless
    genie, or overflow). Computed in place: ``x`` is overwritten and
    returned."""
    infinite = x < 1.0 / EPS_DET - 1.0
    np.logical_not(infinite, out=infinite)  # at the limit, or NaN
    np.log1p(x, out=x)
    x *= 0.5 / LN2
    np.copyto(x, math.inf, where=infinite)
    return x


class _GenieCoeffs(NamedTuple):
    """The quantities of the module docstring for m instances, each an
    (m, 1) array: the scalars, the ratios the kernel needs, and one flag per
    degenerate case. A flag is None where no instance has it, so normal
    instances pay nothing for it."""

    total: np.ndarray      # P
    n1: np.ndarray
    a: np.ndarray          # A
    s_a: np.ndarray        # s / A (NaN where A = 0)
    k_mac: np.ndarray      # D (P + n1) / A (NaN where A = 0)
    s2_a: np.ndarray       # s^2 / A, as s (s / A) (NaN where A = 0)
    total_n1: np.ndarray   # P / n1
    g31: np.ndarray        # h31
    p3: np.ndarray
    q1: np.ndarray         # q + 1
    inv_q1: np.ndarray     # 1 / (q + 1)
    p3_q1: np.ndarray      # P3 / (q + 1)
    inv_g31q1: np.ndarray  # 1 / (h31 (q + 1)) (NaN where h31 = 0)
    mac_off: np.ndarray | None    # P = 0: the first term is 0
    a_zero: np.ndarray | None     # A = 0: S1 carries no input
    q_zero: np.ndarray | None     # q = 0: S1 of zero variance at t1 = inf
    p2p_off: np.ndarray | None    # P3 = 0: the second term is 0
    s2_zero: np.ndarray | None    # h31^2 P3 = 0: S2 of zero variance at t2 = inf
    g31_zero: np.ndarray | None   # h31 = 0: S2 carries no input


def _coeff_row(params: PimacParams) -> tuple:
    # One instance's fields of _GenieCoeffs, as Python floats and bools.
    # Cross products are formed as h * (h * P) and D with the powers first,
    # so a zero power gives 0 however large its gain.
    g12, g22, g31 = params.h12, params.h22, params.h31
    p1, p2, p3 = params.p1_max, params.p2_max, params.p3_max
    total = p1 + p2
    q = g12 * (g12 * p1) + g22 * (g22 * p2)
    s = g12 * p1 + g22 * p2
    n1 = 1.0 + g31 * (g31 * p3)
    d = p1 * p2 * (g12 - g22) * (g12 - g22)
    a = d + n1 * q
    s_a, k_mac, s2_a = ((s / a, d * (total + n1) / a, s * (s / a)) if a != 0.0
                        else (math.nan,) * 3)
    q1 = q + 1.0
    return (total, n1, a, s_a, k_mac, s2_a, total / n1, g31, p3, q1, 1.0 / q1,
            p3 / q1, 1.0 / (g31 * q1) if g31 != 0.0 else math.nan,
            not total > 0.0, a == 0.0, q == 0.0, not p3 > 0.0,
            g31 * (g31 * p3) == 0.0, g31 == 0.0)


_N_VALUES = 13  # leading float fields of _GenieCoeffs; the rest are flags


def _genie_coeffs(rows) -> _GenieCoeffs:
    """``_GenieCoeffs`` of the instances ``rows``, one row of each array per
    instance. A batch of one keeps Python floats and bools, which broadcast
    as (1, 1) arrays do, at a lower cost per numpy call."""
    table = [_coeff_row(p) for p in rows]
    if len(table) == 1:
        return _GenieCoeffs(*table[0][:_N_VALUES],
                            *(flag or None for flag in table[0][_N_VALUES:]))
    values = np.array([r[:_N_VALUES] for r in table]).T[:, :, None]
    flags = zip(*(r[_N_VALUES:] for r in table))
    return _GenieCoeffs(*values, *(np.array(f)[:, None] if any(f) else None
                                   for f in flags))


def _genie_kernel(c: _GenieCoeffs, rho, rho_sq, r1_s, t1, t2) -> tuple[np.ndarray, np.ndarray]:
    """The genie bound's two terms ``I(X1,X2; Y1,S1)`` and ``I(X3; Y2,S2)``
    in bits, at arrays of points ``rho`` (last axis) and of ``t = 1/eta``,
    one row per instance, given ``rho_sq = rho^2`` and ``r1_s = rho1 s/A``,
    which ``_t_star`` computes once for both.

    ``c`` is ``_genie_coeffs(rows)``, whose (m, 1) arrays broadcast against
    the points; ``rho`` may hold one row shared by all instances. The ratios
    are the completed squares of the module docstring; its rules for
    degenerate cases select, per instance, the values that replace them.
    They are computed in place, in an (m, n) scratch block and the (2, m, n)
    result whose rows are returned, with the association order fixed:
    ``((A w) w + k) / (n1 - rho1^2) + s^2/A`` and
    ``(((q+1) w) w / (q + 1 - rho2^2) + 1/(q+1)) P3``. Callers hold
    ``np.errstate(all="ignore")``, once per search: 0/0 and overflow are
    part of the rules.
    """
    w = np.subtract(t1, r1_s)
    x = np.empty((2,) + w.shape)  # both ratios, for one call of _bits
    mac, p2p = x
    np.multiply(c.a, w, out=mac)
    mac *= w
    mac += c.k_mac
    den = np.subtract(c.n1, rho_sq[..., 0], out=w)
    mac /= den
    mac += c.s2_a
    if c.a_zero is not None:  # q = s = D = 0: the ratio does not depend on t
        np.divide(c.total, den, out=mac, where=c.a_zero)
    if c.q_zero is not None:
        np.copyto(mac, c.total_n1, where=c.q_zero & np.isinf(t1))
    np.multiply(c.g31, t2, out=w)
    np.multiply(rho[..., 1], c.inv_q1, out=p2p)
    w -= p2p
    np.multiply(c.q1, w, out=p2p)
    p2p *= w
    p2p /= np.subtract(c.q1, rho_sq[..., 1], out=w)
    p2p += c.inv_q1
    p2p *= c.p3
    if c.s2_zero is not None:
        np.copyto(p2p, c.p3_q1, where=c.s2_zero & np.isinf(t2))
    _bits(x)
    # An input group of zero power carries nothing.
    if c.mac_off is not None:
        np.copyto(mac, 0.0, where=c.mac_off)
    if c.p2p_off is not None:
        np.copyto(p2p, 0.0, where=c.p2p_off)
    return mac, p2p


def _t_star(c: _GenieCoeffs, rho) -> tuple[np.ndarray, ...]:
    """The best feasible ``t = 1/eta`` of each term at an array of points
    ``(rho1, rho2)`` (last axis), one row per instance, or one row shared
    by all instances, and the products ``rho^2`` and ``rho1 s/A`` for the kernel.

    Where a term's genie signal carries no input (``A = 0``, or ``h31 = 0``)
    it is best dropped: ``t* = inf``. The bounds ``1/sqrt(1 - rho^2)``
    depend on ``rho`` alone, so a shared row computes them once. Callers
    hold ``np.errstate(all="ignore")``, once per search; ``fmax`` skips the
    NaN of ``0 * inf``.
    """
    rho_sq = np.multiply(rho, rho)
    r1_s = np.multiply(rho[..., 0], c.s_a)
    bound = np.subtract(1.0, rho_sq)
    np.sqrt(bound, out=bound)
    np.divide(1.0, bound, out=bound)  # 1/sqrt(1 - rho1^2), 1/sqrt(1 - rho2^2)
    t1 = np.fmax(r1_s, bound[..., 1])
    if c.a_zero is not None:
        np.copyto(t1, math.inf, where=c.a_zero)
    t2 = np.multiply(rho[..., 1], c.inv_g31q1)
    np.fmax(t2, bound[..., 0], out=t2)
    if c.g31_zero is not None:
        np.copyto(t2, math.inf, where=c.g31_zero)
    return t1, t2, rho_sq, r1_s


def _genie_sum(c: _GenieCoeffs, rho) -> np.ndarray:
    """Genie bound minimized over the scalings, at each point ``(rho1, rho2)``
    of the (m, n, 2) array ``rho``: an (m, n) array, the sum of the two
    terms formed in the kernel's result buffer: the search's objective, run
    in the search's ``np.errstate``.

    Where ``rho`` has stride 0 on the instance axis (the shared grid of
    ``optimize._grid``), its ``rho``-only terms (``rho^2`` and
    ``1/sqrt(1 - rho^2)``) are computed on one row, which the instances'
    coefficients broadcast against.
    """
    if rho.strides[0] == 0:
        rho = rho[:1]
    t1, t2, rho_sq, r1_s = _t_star(c, rho)
    mac, p2p = _genie_kernel(c, rho, rho_sq, r1_s, t1, t2)
    return np.add(mac, p2p, out=mac)


def _genie_terms(params: PimacParams, points) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's two terms ``I(X1,X2; Y1,S1)`` and ``I(X3; Y2,S2)`` in
    bits at each row ``(rho1, rho2, eta1, eta2)`` of the (n, 4) ``points``,
    taken at ``t = 1/eta``: two arrays of n values. The one entry for
    explicit genie points, shared by ``genie_bound_batch`` and the
    Monte-Carlo check."""
    genie, c = np.asarray(points, dtype=float)[None], _genie_coeffs([params])
    rho = genie[..., :2]
    with np.errstate(all="ignore"):
        mac, p2p = _genie_kernel(c, rho, rho * rho, rho[..., 0] * c.s_a,
                                 1.0 / genie[..., 2], 1.0 / genie[..., 3])
    return mac[0], p2p[0]


def genie_bound_batch(params: PimacParams, points) -> np.ndarray:
    """Genie bound at each row ``(rho1, rho2, eta1, eta2)`` of ``points``.

    The kernel of the module docstring at ``t = 1/eta``, evaluated over an
    (n, 4) array; returns n values in bits. Every feasible row gives a valid
    upper bound: the sum of the log-det mutual informations of the inputs
    and their receiver's output and genie signal, with the degenerate cases
    of the module docstring and the ``EPS_DET`` rule of ``_bits``.
    """
    mac, p2p = _genie_terms(params, points)
    return np.add(mac, p2p, out=mac)


def genie_bound_objective(params: PimacParams, genie: GenieParams) -> float:
    """Upper bound value at one genie point (any feasible point is valid)."""
    return float(genie_bound_batch(params, [genie.as_tuple()])[0])


def _sign_canonical(params: PimacParams) -> PimacParams:
    # Negating any gain leaves the channel capacity unchanged (a receiver
    # can negate the affected codebook), so the bound is evaluated on the
    # nonnegative-gain equivalent. This also makes the minimized value
    # bit-identical under per-gain sign flips.
    return PimacParams(h12=abs(params.h12), h22=abs(params.h22),
                       h31=abs(params.h31), p1_max=params.p1_max,
                       p2_max=params.p2_max, p3_max=params.p3_max)


def _c_sigma_1_block(rows) -> list:
    c = _genie_coeffs([_sign_canonical(p) for p in rows])

    def objective(rho):
        value = _genie_sum(c, rho)
        return np.negative(value, out=value)

    with np.errstate(all="ignore"):  # once per search, not per stage
        found = maximize_box(objective, (0.0, 0.0), (1.0, 1.0), 33, 1e-6, [()] * len(rows))
        if all(res is None for res in found):
            return found
        rho = np.array([(0.0, 0.0) if res is None else res.arg for res in found])
        t1, t2 = _t_star(c, rho[:, None])[:2]
    return [None if res is None else
            SchemeResult(sum_rate=-res.value,
                         arg=GenieParams(*res.arg, 1.0 / e1, 1.0 / e2),
                         diagnostics=res.diagnostics)
            for res, e1, e2 in zip(found, t1[:, 0].tolist(), t2[:, 0].tolist())]


def _c_sigma_1_batch(rows) -> list:
    """``c_sigma_1`` of each instance of ``rows``, or None where it finds no
    finite genie value. Each block of instances (``optimize._blocks``) makes
    one kernel call per solver stage."""
    return [res for block in _blocks(rows, 33 * 33) for res in _c_sigma_1_block(block)]


def c_sigma_1(params: PimacParams) -> SchemeResult:
    """Genie bound minimized over the feasible correlations and scalings.

    The scalings have the closed form ``t* = 1/eta*`` of the module
    docstring, so the bound is the minimum over ``(rho1, rho2)`` in
    ``[0, 1]^2`` of the kernel at ``t*``, for the nonnegative-gain
    equivalent of ``params``. ``maximize_box`` searches it as the maximum
    of its negative with grid 33 and tol 1e-6, and no seeds: a 33 x 33
    grid, then 8 nested 9 x 9 grids around the 3 best points down to a
    spacing below 1e-6, one kernel call per stage (3 033 evaluations). The
    grid corner ``rho = 0`` is never above the genie with ``eta = 1`` and
    noise independent of everything, so neither is the result.
    A point where the kernel is ``+inf`` (the ``EPS_DET`` rule) is
    infeasible; if every grid point is, InfeasibleError is raised.
    The code is that of ``_c_sigma_1_batch``, for a batch of one.
    """
    (res,) = _c_sigma_1_block([params])
    if res is None:
        raise InfeasibleError("no seed or grid point has a finite objective value")
    return res
