"""Sum-capacity upper bounds, and a Monte-Carlo check of the genie bound's
kernel.

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

from .errors import ConstraintError, DomainError, InfeasibleError, InvalidRegimeError
from .model import PimacParams, SchemeResult, _half_log_sum, _is_finite, _is_integer, half_log
from .optimize import _WORK, _blocks, maximize_box

LN2 = math.log(2.0)

# Degeneracy rule: a mutual-information term whose ratio ``1 + x`` in
# ``_bits`` (or its determinant ratio in ``_logdet_bits``) reaches
# 1/EPS_DET = 1e12 is reported as +inf, as for a noiseless genie. That is
# every term of 0.5*log2(1e12) ~ 19.93 bits or more, degenerate or not: at
# high SNR all genie points can be discarded, and c_sigma_1 then raises
# InfeasibleError.
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
        for name, v in zip(("rho1", "rho2", "eta1", "eta2"), self.as_tuple()):
            if not _is_finite(v):
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
    genie, or overflow). Computed in place: ``x``, an (..., m, n) array, is
    overwritten and returned. Those points are set to ``+inf`` first, which
    ``log1p`` keeps, only where the largest ratio reaches the limit or is
    NaN."""
    if not np.maximum.reduce(x, axis=None) < 1.0 / EPS_DET - 1.0:  # a term at the limit, or NaN
        x[~(x < 1.0 / EPS_DET - 1.0)] = math.inf
    np.log1p(x, out=x)
    x *= 0.5 / LN2
    return x


def _logdet_bits(ld_a, ld_b, ld_ab) -> float:
    """``I(A; B)`` in bits from the natural log-determinants of the
    covariances of ``A``, ``B`` and ``(A, B)``, under the rule of ``_bits``:
    ``+inf`` where ``det A det B / det(A, B)`` reaches ``1/EPS_DET``. For
    the Monte-Carlo check of the kernel's terms."""
    return (math.inf if ld_ab <= math.log(EPS_DET) + ld_a + ld_b
            else max(0.5 * (ld_a + ld_b - ld_ab) / LN2, 0.0))


class _GenieCoeffs(NamedTuple):
    """The quantities of the module docstring for m instances, each an
    (m, 1, 1, 1) array, or a Python scalar for one instance
    (``_genie_coeffs``): the scalars, the ratios the kernel needs, and one
    flag per degenerate case. A flag is None where no instance has it, so
    normal instances pay nothing for it, and otherwise a pair: the slice of
    instances from its first to its last flagged one, and their mask, so
    that a rule costs a pass over those instances only."""

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
    mac_off: tuple | None    # P = 0: the first term is 0
    a_zero: tuple | None     # A = 0: S1 carries no input
    q_zero: tuple | None     # q = 0: S1 of zero variance at t1 = inf
    p2p_off: tuple | None    # P3 = 0: the second term is 0
    s2_zero: tuple | None    # h31^2 P3 = 0: S2 of zero variance at t2 = inf
    g31_zero: tuple | None   # h31 = 0: S2 carries no input


def _coeff_row(params: PimacParams, signed: bool) -> tuple:
    # One instance's fields of _GenieCoeffs, as Python floats and bools: its
    # 13 values and its 6 flags, as two tuples. Cross products are formed as
    # h * (h * P) and D with the powers first, so a zero power gives 0
    # however large its gain.
    g12, g22, g31 = params.h12, params.h22, params.h31
    if not signed:
        g12, g22, g31 = abs(g12), abs(g22), abs(g31)
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
    return ((total, n1, a, s_a, k_mac, s2_a, total / n1, g31, p3, q1, 1.0 / q1,
             p3 / q1, 1.0 / (g31 * q1) if g31 != 0.0 else math.nan),
            (not total > 0.0, a == 0.0, q == 0.0, not p3 > 0.0,
             g31 * (g31 * p3) == 0.0, g31 == 0.0))


def _genie_coeffs(rows, signed: bool = False) -> _GenieCoeffs:
    """``_GenieCoeffs`` of the instances ``rows``: for a batch, each value
    an (m, 1, 1, 1) float array and each flag the slice of its flagged rows'
    span and their (k, 1, 1, 1) mask, or None where no instance sets the
    flag, so that the kernel skips it. They broadcast against the four axes
    of the search's 2-D points (``optimize._values``). One instance keeps
    Python floats and bools (a flag it sets is ``(slice(None), True)``),
    which broadcast as such arrays do, at a lower cost per numpy call.

    The gains are taken by absolute value, so the search runs on the
    nonnegative-gain equivalent, and its value is bit-identical under
    per-gain sign flips. Flipping the sign of ``h12`` or ``h22`` alone is
    not a symmetry of the channel, so whether that value bounds the signed
    channel is open (see ``c_sigma_1``). With ``signed``
    they keep their signs, as the kernel at an explicit genie point of the
    signed channel needs (``_genie_terms``)."""
    if len(rows) == 1:
        values, flags = _coeff_row(rows[0], signed)
        return _GenieCoeffs(*values, *((slice(None), True) if f else None for f in flags))
    # The values (13, m) and the flags (6, m), one column per instance.
    values, flags = (np.array(a).T for a in zip(*(_coeff_row(p, signed) for p in rows)))
    spans = [slice(i[0], i[-1] + 1) if i.size else None for i in map(np.flatnonzero, flags)]
    return _GenieCoeffs(*values[:, :, None, None, None],
                        *(None if r is None else (r, f[r, None, None, None])
                          for r, f in zip(spans, flags)))


def _apply(flag, out, value, inf_at=None):
    """The rule of a degenerate case: ``out`` set to ``value`` on the rows
    that ``flag`` marks (see ``_GenieCoeffs``), and only where ``inf_at`` is
    ``+inf`` if it is given. ``value`` is a Python scalar, or an array with
    an instance axis, read on the flag's span as ``out`` and ``inf_at``
    are."""
    rows, where = flag
    if inf_at is not None:
        where = where & np.isinf(inf_at[rows])
    np.copyto(out[rows], value[rows] if isinstance(value, np.ndarray) else value, where=where)


def _rho_terms(c: _GenieCoeffs, xy) -> tuple:
    """The broadcast shape of the points ``xy`` (see ``_genie_sum``) with
    ``c``'s arrays, and ``rho^2`` and ``1/sqrt(1 - rho^2)`` of both
    coordinates, each as a pair. They are formed in one call for both
    coordinates where ``xy`` is one (2, ...) array of explicit points, as a
    batch of one passes (one call per axis makes ``c_sigma_1`` 9% slower
    per call, ROADMAP item 7), and on each axis otherwise."""
    if isinstance(xy, np.ndarray):
        sq = np.multiply(xy, xy)
        b = np.subtract(1.0, sq)
        np.sqrt(b, out=b)
        return xy.shape[1:], sq, np.divide(1.0, b, out=b)
    sq = [np.multiply(v, v) for v in xy]
    return (np.broadcast(c.a, *xy).shape, sq,
            [np.divide(1.0, np.sqrt(np.subtract(1.0, v))) for v in sq])


def _t1_star(c: _GenieCoeffs, r1_s, b) -> np.ndarray:
    """The best feasible ``t1 = 1/eta1``, ``max(rho1 s/A, 1/sqrt(1 - rho2^2))``,
    given ``r1_s = rho1 s/A`` and ``b = _rho_terms(c, xy)[2]``: a new array.
    Where ``S1`` carries no input (``A = 0``) it is best dropped:
    ``t* = inf``. ``fmax`` skips the NaN of ``0 * inf``."""
    t1 = np.fmax(r1_s, b[1])
    if c.a_zero is not None:
        _apply(c.a_zero, t1, math.inf)
    return t1


def _t2_star(c: _GenieCoeffs, y, b, out=None) -> np.ndarray:
    """The best feasible ``t2 = 1/eta2``, ``max(rho2 / (h31 (q+1)),
    1/sqrt(1 - rho1^2))``, at points whose second coordinate is ``y``,
    written into ``out`` (new where None); ``inf`` where ``h31 = 0``."""
    t2 = np.fmax(np.multiply(y, c.inv_g31q1), b[0], out=out)
    if c.g31_zero is not None:
        _apply(c.g31_zero, t2, math.inf)
    return t2


def _genie_kernel(c: _GenieCoeffs, y, sq, w, t1, t2,
                  arrays) -> tuple[np.ndarray, np.ndarray]:
    """The genie bound's two terms ``I(X1,X2; Y1,S1)`` and ``I(X3; Y2,S2)``
    in bits, at points whose second coordinate is ``y``, given
    ``sq = (rho1^2, rho2^2)``, ``t2 = 1/eta2`` and ``w = t1 - rho1 s/A``
    with ``t1 = 1/eta1``. ``t1`` itself is read only where ``q = 0``, and
    may be None where no instance has that flag.

    ``c`` is ``_genie_coeffs(rows)``, whose arrays broadcast against the
    coordinates, as do ``y``, ``sq``, ``w`` and ``t2``. The ratios are the
    completed squares of the module docstring; its rules for degenerate
    cases select, per instance, the values that replace them. Each term
    that depends on one coordinate (the denominators and ``rho2/(q+1)``) is
    formed on that coordinate's array. The ratios are computed in place,
    with the association order fixed: ``((A w) w + k) / (n1 - rho1^2) +
    s^2/A`` and ``(((q+1) w) w / (q + 1 - rho2^2) + 1/(q+1)) P3``, in the
    kernel's (4, ...) work block ``arrays`` (``_genie_sum``): ``w`` in row
    0, used as scratch, and the two ratio rows 2 and 3, which are returned.
    Callers hold ``np.errstate(all="ignore")``, once per search: 0/0 and
    overflow are part of the rules.
    """
    x = arrays[2:]  # both ratios, for one call of _bits
    mac, p2p = x[0], x[1]
    np.multiply(c.a, w, out=mac)
    mac *= w
    mac += c.k_mac
    den = np.subtract(c.n1, sq[0])
    mac /= den
    mac += c.s2_a
    if c.a_zero is not None:  # q = s = D = 0: the ratio does not depend on t
        _apply(c.a_zero, mac, np.divide(c.total, den))
    if c.q_zero is not None:
        _apply(c.q_zero, mac, c.total_n1, t1)
    np.multiply(c.g31, t2, out=w)
    w -= np.multiply(y, c.inv_q1)
    np.multiply(c.q1, w, out=p2p)
    p2p *= w
    p2p /= np.subtract(c.q1, sq[1])
    p2p += c.inv_q1
    p2p *= c.p3
    if c.s2_zero is not None:
        _apply(c.s2_zero, p2p, c.p3_q1, t2)
    _bits(x)
    # An input group of zero power carries nothing.
    if c.mac_off is not None:
        _apply(c.mac_off, mac, 0.0)
    if c.p2p_off is not None:
        _apply(c.p2p_off, p2p, 0.0)
    return mac, p2p


def _genie_sum(c: _GenieCoeffs, xy) -> np.ndarray:
    """Genie bound minimized over the scalings, at each point ``(rho1,
    rho2)`` of ``xy``: the search's objective (``optimize.maximize_box``),
    run in the search's ``np.errstate``. ``xy`` is a pair (x, y) of
    coordinate arrays of four axes, instances first, that broadcast against
    each other and against ``c``'s (m, 1, 1, 1) arrays: a batch's axes, as
    a tuple, or one (2, m, n, 1, 1) array of explicit points' columns.
    Returns the sum of the two terms, formed in the kernel's work block,
    which is taken from the workspace (a view, valid until the next call,
    or a new array for one instance), in the points' broadcast shape.

    The terms of one coordinate (``rho^2``, ``1/sqrt(1 - rho^2)``,
    ``rho1 s/A``) are formed on its axis. The first term needs ``t1*`` only
    through ``w = t1* - rho1 s/A = max(1/sqrt(1 - rho2^2) - rho1 s/A, 0)``,
    which gives the same bits: ``np.maximum`` keeps a NaN, and where
    ``rho1 s/A`` is ``+inf`` (w NaN as a difference, 0 as a maximum) the
    ratio is ``+inf`` either way, through ``s^2/A = +inf``. So ``t1*`` is
    formed only where the ``q = 0`` rule reads it.
    """
    x, y = xy[0], xy[1]
    shape, sq, b = _rho_terms(c, xy)
    arrays = _WORK.take("kernel", (4, shape[0], math.prod(shape[1:]))).reshape((4,) + shape)
    r1_s = np.multiply(x, c.s_a)
    w = np.subtract(b[1], r1_s, out=arrays[0])
    np.maximum(w, 0.0, out=w)
    t1 = None if c.q_zero is None else _t1_star(c, r1_s, b)
    t2 = _t2_star(c, y, b, out=arrays[1])
    mac, p2p = _genie_kernel(c, y, sq, w, t1, t2, arrays)
    return np.add(mac, p2p, out=mac)


def _genie_terms(params: PimacParams, points) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's two terms ``I(X1,X2; Y1,S1)`` and ``I(X3; Y2,S2)`` in
    bits at each row ``(rho1, rho2, eta1, eta2)`` of the (n, 4) ``points``,
    taken at ``t = 1/eta``: two new arrays of n values, since one instance
    takes a new work block. The one entry for explicit genie points,
    shared by ``genie_bound_batch`` and the Monte-Carlo check."""
    genie, c = np.asarray(points, dtype=float).T[:, None], _genie_coeffs([params], signed=True)
    rho = genie[:2]
    arrays = _WORK.take("kernel", (4,) + rho.shape[1:])
    with np.errstate(all="ignore"):
        t1 = np.divide(1.0, genie[2])
        t2 = np.divide(1.0, genie[3], out=arrays[1])
        w = np.subtract(t1, np.multiply(rho[0], c.s_a), out=arrays[0])
        mac, p2p = _genie_kernel(c, rho[1], np.multiply(rho, rho), w, t1, t2, arrays)
    return mac[0], p2p[0]


def genie_bound_batch(params: PimacParams, points) -> np.ndarray:
    """Genie bound at each row ``(rho1, rho2, eta1, eta2)`` of ``points``.

    The kernel of the module docstring at ``t = 1/eta``, evaluated over an
    (n, 4) array; returns n values in bits. Every feasible row gives a valid
    upper bound: the sum of the log-det mutual informations of the inputs
    and their receiver's output and genie signal, with the degenerate cases
    of the module docstring and the ``EPS_DET`` rule of ``_bits``. Points
    that are not rows of 4 values raise ConstraintError; no rows (``[]`` or
    an empty (0, 4) array) give an empty array.
    """
    points = np.asarray(points, dtype=float)
    if points.shape in ((0,), (0, 4)):
        return np.empty(0)
    if points.ndim != 2 or points.shape[1] != 4:
        raise ConstraintError(
            f"points must be rows (rho1, rho2, eta1, eta2), got shape {points.shape}")
    mac, p2p = _genie_terms(params, points)
    return np.add(mac, p2p, out=mac)


def genie_bound_objective(params: PimacParams, genie: GenieParams) -> float:
    """Upper bound value at one genie point (any feasible point is valid)."""
    return float(genie_bound_batch(params, [genie.as_tuple()])[0])


RNG_NAME = "numpy PCG64 (numpy.random.default_rng)"


@dataclass(frozen=True)
class MiCheckEntry:
    name: str
    analytic: float
    sampled: float
    gap: float


@dataclass(frozen=True)
class CovarianceCheckReport:
    """Analytic vs sampled mutual information at one (params, genie) point.

    ``max_gap`` is NaN if any entry's gap is.
    """

    n_samples: int
    seed: int
    generator: str
    entries: tuple
    max_gap: float
    sample_min_eigenvalue: float


def _sampling_map(params: PimacParams, genie: GenieParams) -> np.ndarray:
    """The map ``m`` from standard normals ``g = (g_x1, g_x2, g_x3, z1, n1, z2,
    n2)`` to ``(X1, X2, X3, Y1, S1, Y2, S2)``, with genie noise ``w_k = rho_k
    z_k + sqrt(1 - rho_k^2) n_k``: their sample covariance is ``m Cov(g) m^T``."""
    a1, a2, a3 = (math.sqrt(p) for p in (params.p1_max, params.p2_max, params.p3_max))
    h12, h22, h31 = params.h12, params.h22, params.h31
    w1 = (genie.eta1 * genie.rho1, genie.eta1 * math.sqrt(1.0 - genie.rho1 ** 2))
    w2 = (genie.eta2 * genie.rho2, genie.eta2 * math.sqrt(1.0 - genie.rho2 ** 2))
    return np.array([
        [a1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],                  # x1
        [0.0, a2, 0.0, 0.0, 0.0, 0.0, 0.0],                  # x2
        [0.0, 0.0, a3, 0.0, 0.0, 0.0, 0.0],                  # x3
        [a1, a2, h31 * a3, 1.0, 0.0, 0.0, 0.0],              # y1
        [h12 * a1, h22 * a2, 0.0, w1[0], w1[1], 0.0, 0.0],   # s1
        [h12 * a1, h22 * a2, a3, 0.0, 0.0, 1.0, 0.0],        # y2
        [0.0, 0.0, h31 * a3, 0.0, 0.0, w2[0], w2[1]],        # s2
    ])


def montecarlo_covariance_check(params: PimacParams, genie: GenieParams,
                                n_samples: int, seed: int) -> CovarianceCheckReport:
    """Validate the genie kernel's two terms by direct sampling.

    Draws the sample covariance of ``n_samples`` draws of the inputs and
    correlated noise pairs, all seven variables, and compares its mutual
    informations ``I(X1,X2; Y1,S1)`` and ``I(X3; Y2,S2)`` with the terms of
    the kernel that ``c_sigma_1`` minimises. Deterministic for a given
    seed. Requires at least 8 samples, below which the sample covariance of
    the 7 variables is singular, and at most ``2**63``, so that the
    chi-square draws' degrees of freedom fit numpy's int64, and genie
    scalings above 0.05 so the sampled joint stays well conditioned.
    """
    if not (_is_integer(n_samples) and 8 <= n_samples <= 2 ** 63):
        raise DomainError(f"n_samples must be an integer in [8, 2**63], got {n_samples!r}")
    if not (_is_integer(seed) and seed >= 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    if not (genie.eta1 > 0.05 and genie.eta2 > 0.05):
        raise DomainError("genie scalings must exceed 0.05 for a stable estimate")

    # The sample covariance of n_samples draws of g ~ N(0, I_7) is W_7(dof, I)
    # / dof. Bartlett's decomposition draws it exactly as A A^T / dof, with A
    # lower triangular, sqrt(chi2(dof - i)) on its diagonal and N(0, 1) below
    # it.
    rng = np.random.default_rng(seed)
    dof = int(n_samples) - 1
    a = np.tril(rng.standard_normal((7, 7)), -1)
    a[range(7), range(7)] = np.sqrt(rng.chisquare(dof - np.arange(7)))
    m = _sampling_map(params, genie)
    cov = m @ (a @ a.T / dof) @ m.T
    cov = 0.5 * (cov + cov.T)
    mac, p2p = _genie_terms(params, [genie.as_tuple()])

    # Log-det mutual information of the sampled groups, without the variables
    # of zero variance (a silent transmitter's row is exactly 0) and under the
    # kernel's rule for degenerate terms.
    keep = np.diagonal(cov) != 0.0
    entries = []
    for name, analytic, inputs, outputs in (("mac_rx1", mac.item(), (0, 1), (3, 4)),
                                            ("p2p_rx2", p2p.item(), (2,), (5, 6))):
        ia, ib = [i for i in inputs if keep[i]], [i for i in outputs if keep[i]]
        sampled = 0.0
        if ia and ib:
            sampled = _logdet_bits(*(np.linalg.slogdet(cov[np.ix_(k, k)])[1]
                                     for k in (ia, ib, ia + ib)))
        # Two equal infinities (a degenerate term on both sides) agree.
        gap = 0.0 if analytic == sampled else abs(analytic - sampled)
        entries.append(MiCheckEntry(name=name, analytic=analytic, sampled=sampled, gap=gap))
    return CovarianceCheckReport(
        n_samples=int(n_samples), seed=int(seed),
        generator=RNG_NAME, entries=tuple(entries),
        max_gap=float(np.max([e.gap for e in entries])),
        sample_min_eigenvalue=float(np.linalg.eigvalsh(cov)[0]),
    )


def _signed_rho(p: PimacParams, rho1: float, rho2: float) -> tuple[float, float]:
    # The search's point of the nonnegative-gain equivalent, as the signed
    # channel's point of the same value where one exists (see c_sigma_1):
    # rho1 negated where s < 0, rho2 where h31 < 0, and + 0.0 for no -0.0.
    # The signs come from the gains, so no product can overflow.
    if p.p1_max > 0.0 and p.p2_max > 0.0 and min(p.h12, p.h22) < 0.0 < max(p.h12, p.h22):
        return rho1, rho2
    return (-rho1 + 0.0 if p.h12 < 0.0 < p.p1_max or p.h22 < 0.0 < p.p2_max else rho1,
            -rho2 + 0.0 if p.h31 < 0.0 else rho2)


def _c_sigma_1_batch(rows) -> list:
    """``c_sigma_1`` of each instance of ``rows``, or None where it finds no
    finite genie value. Each block of instances (``optimize._blocks``) makes
    one kernel call per refinement stage, and its grid stage a few."""
    results = []
    for block in _blocks(rows, 2):
        c = _genie_coeffs(block)

        def objective(xy):
            value = _genie_sum(c, xy)
            return np.negative(value, out=value)

        with np.errstate(all="ignore"):  # once per search, not per stage
            found = maximize_box(objective, 2, 9, 1e-6, [()] * len(block))
            # The scalings at each instance's point, as (2, m, 1, 1, 1) columns.
            xy = np.array([(0.0, 0.0) if res is None else res.arg for res in found]).T
            xy = xy[..., None, None, None]
            b = _rho_terms(c, xy)[2]
            t1, t2 = _t1_star(c, np.multiply(xy[0], c.s_a), b), _t2_star(c, xy[1], b)
        results += [None if res is None else
                    SchemeResult(sum_rate=-res.value,
                                 arg=GenieParams(*_signed_rho(p, *res.arg), 1.0 / e1, 1.0 / e2),
                                 diagnostics=res.diagnostics)
                    for res, p, e1, e2 in zip(found, block, t1.ravel().tolist(),
                                              t2.ravel().tolist())]
    return results


def c_sigma_1(params: PimacParams) -> SchemeResult:
    """Genie bound minimized over the feasible correlations and scalings.

    The scalings have the closed form ``t* = 1/eta*`` of the module
    docstring, so the bound is the minimum over ``(rho1, rho2)`` in
    ``[0, 1]^2`` of the kernel at ``t*``, for the nonnegative-gain
    equivalent of ``params``. ``maximize_box`` searches it as the maximum
    of its negative with grid 9 and tol 1e-6, and no seeds: a 9 x 9 grid,
    then 9 nested 9 x 9 grids around the 3 best points down to a spacing
    of 2^-21, one kernel call per stage (2 268 evaluations). An interval
    branch and bound certifies the result within 1e-4 bits of the minimum
    on the tests' instances (``tests/oracle_tools.py``). The grid corner
    ``rho = 0`` is never above the genie with ``eta = 1`` and noise
    independent of everything, so neither is the result.
    A point where the kernel is ``+inf`` (the ``EPS_DET`` rule) is
    infeasible; if every grid point is, InfeasibleError is raised.
    The code is that of ``_c_sigma_1_batch``, for a batch of one.

    With signed gains the returned genie point is that of the signed
    channel where one has the value found: wherever ``P1 P2 h12 h22 >= 0``,
    ``rho1`` is negated where ``s = h12 P1 + h22 P2 < 0`` and ``rho2`` where
    ``h31 < 0``, so that ``genie_bound_objective(params, arg)`` reproduces
    the value. Where the MAC gains have mixed signs and both powers are
    positive, no signed point does, because ``D = P1 P2 (h12 - h22)^2``
    differs from the equivalent's; the point returned is then the
    equivalent's. Whether the value bounds that signed channel at all is
    open (ROADMAP item 13).
    """
    (res,) = _c_sigma_1_batch([params])
    if res is None:
        raise InfeasibleError("no seed or grid point has a finite objective value")
    return res
