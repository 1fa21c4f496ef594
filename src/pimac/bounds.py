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
``P = P1 + P2``, ``q = h12^2 P1 + h22^2 P2``, ``s = h12 P1 + h22 P2`` and
``n1 = 1 + h31^2 P3``. Given the inputs, ``(Y1, S1)`` has noise covariance
``N1 = [[n1, eta1 rho1], [eta1 rho1, eta1^2]]``, and expanding
``det Cov(Y1, S1) - det N1`` with ``Pq - s^2 = P1 P2 (h12 - h22)^2`` gives

    I(X1,X2; Y1,S1) = 1/2 log2(1 + [P1 P2 (h12-h22)^2 + P eta1^2 + n1 q
                                    - 2 s eta1 rho1] / (eta1^2 (n1 - rho1^2))).

``X3`` enters ``(Y2, S2)`` along ``v = (1, h31)`` over the noise covariance
``N2 = [[q+1, eta2 rho2], [eta2 rho2, eta2^2]]``, so the matrix determinant
lemma ``det(N2 + P3 v v') = det N2 (1 + P3 v' N2^-1 v)`` gives

    I(X3; Y2,S2) = 1/2 log2(1 + P3 [eta2^2 - 2 h31 eta2 rho2 + h31^2 (q+1)]
                                / (eta2^2 (q + 1 - rho2^2))).

``genie_bound_batch`` evaluates these over arrays of genie points. The
7x7 joint covariance (``build_genie_joint_cov``, ``gaussian_mutual_info``)
is kept for the Monte-Carlo check and as the tests' reference.
"""
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConstraintError,
    DomainError,
    InvalidRegimeError,
    NumericError,
)
from .model import PimacParams, SchemeResult, half_log
from .optimize import OptConfig, minimize_constrained

VARIABLES = ("X1", "X2", "X3", "Y1", "S1", "Y2", "S2")
MAC_INPUTS = (0, 1)
RX1_OUTPUTS = (3, 4)
P2P_INPUT = (2,)
RX2_OUTPUTS = (5, 6)

LN2 = math.log(2.0)

# Degeneracy rule: a mutual-information term whose determinant ratio
# det(S_A) det(S_B) / det(S_AB) reaches 1/EPS_DET = 1e12 is reported as
# +inf, as for a noiseless genie. That is every term of 0.5*log2(1e12)
# ~ 19.93 bits or more, degenerate or not: at high SNR all genie points
# can be discarded, and c_sigma_1 then raises InfeasibleError.
EPS_DET = 1e-12

# Fractions of the feasible radius at which the coarse grid samples the
# genie noise scalings.
ETA_FRACTIONS = (0.1, 0.3, 0.5, 0.8, 1.0)

GENIE_OPT_CFG = OptConfig(grid_points_per_axis=21, refine_tolerance=1e-4,
                          max_refine_iters=200)

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


def genie_feasible(point) -> bool:
    """Feasibility predicate over raw ``(rho1, rho2, eta1, eta2)`` tuples."""
    r1, r2, e1, e2 = point
    return (abs(r1) <= 1.0 and abs(r2) <= 1.0
            and e1 * e1 <= 1.0 - r2 * r2 + _FEAS_SLACK
            and e2 * e2 <= 1.0 - r1 * r1 + _FEAS_SLACK)


def project_genie(point) -> tuple[float, float, float, float]:
    """Clamp a trial point into the feasible set (nonnegative scalings)."""
    r1 = min(max(point[0], -1.0), 1.0)
    r2 = min(max(point[1], -1.0), 1.0)
    rad1 = math.sqrt(max(0.0, 1.0 - r2 * r2))
    rad2 = math.sqrt(max(0.0, 1.0 - r1 * r1))
    e1 = min(max(point[2], 0.0), rad1)
    e2 = min(max(point[3], 0.0), rad2)
    return (r1, r2, e1, e2)


@dataclass(frozen=True)
class GaussianJointModel:
    """Joint covariance over ``VARIABLES`` with validated symmetry and PSD.

    Accepts any covariance of matching size (analytic constructions and
    sample estimates alike); positive semidefiniteness is enforced up to a
    small scaled round-off tolerance.
    """

    cov: np.ndarray
    labels: tuple = VARIABLES

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "cov", cov)
        n = len(self.labels)
        if cov.shape != (n, n):
            raise DomainError(f"covariance must be {n}x{n}, got {cov.shape!r}")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if float(np.max(np.abs(cov - cov.T))) > 1e-12 * scale:
            raise NumericError("covariance matrix is not symmetric")
        if self.min_eigenvalue() < -1e-10 * scale:
            raise NumericError("covariance matrix is not PSD within tolerance")

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.cov)[0])


def c_sigma_2(params: PimacParams) -> float:
    """Closed-form sum-capacity bound, valid for ``h31^2 <= 1``.

    ``half_log((P1+P2)/(1+h31^2 P3)) + half_log(P3)`` in bits.
    """
    if params.h31 * params.h31 > 1.0:
        raise InvalidRegimeError(
            f"bound requires h31^2 <= 1, got h31={params.h31!r}")
    mac = half_log((params.p1_max + params.p2_max)
                   / (1.0 + params.h31 * params.h31 * params.p3_max))
    return mac + half_log(params.p3_max)


def build_genie_joint_cov(params: PimacParams,
                          genie: GenieParams) -> GaussianJointModel:
    """Joint covariance of inputs, channel outputs and genie signals.

    Inputs are independent zero-mean Gaussians at the budget powers; all
    noises are unit variance with the two stated cross-correlations only.
    """
    g12, g22, g31 = params.h12, params.h22, params.h31
    p1, p2, p3 = params.p1_max, params.p2_max, params.p3_max
    r1, r2, e1, e2 = genie.as_tuple()

    q = g12 * g12 * p1 + g22 * g22 * p2        # signal power inside S1 / Y2
    s = g12 * p1 + g22 * p2                    # cross term of S1 with Y1/Y2

    m = np.zeros((7, 7))

    def put(i, j, value):
        m[i, j] = value
        m[j, i] = value

    m[0, 0] = p1
    m[1, 1] = p2
    m[2, 2] = p3
    m[3, 3] = p1 + p2 + g31 * g31 * p3 + 1.0
    m[4, 4] = q + e1 * e1
    m[5, 5] = q + p3 + 1.0
    m[6, 6] = g31 * g31 * p3 + e2 * e2

    put(0, 3, p1)
    put(1, 3, p2)
    put(2, 3, g31 * p3)
    put(0, 4, g12 * p1)
    put(1, 4, g22 * p2)
    put(0, 5, g12 * p1)
    put(1, 5, g22 * p2)
    put(2, 5, p3)
    put(2, 6, g31 * p3)
    put(3, 4, s + e1 * r1)
    put(3, 5, s + g31 * p3)
    put(3, 6, g31 * g31 * p3)
    put(4, 5, q)
    put(5, 6, g31 * p3 + e2 * r2)

    return GaussianJointModel(cov=m)


def _group_indices(model: GaussianJointModel, group, name: str) -> list[int]:
    n = len(model.labels)
    idx = []
    for i in group:
        i = int(i)
        if not 0 <= i < n:
            raise DomainError(f"{name} index {i} out of range for {n} variables")
        if i in idx:
            raise DomainError(f"{name} contains duplicate index {i}")
        idx.append(i)
    return idx


def gaussian_mutual_info(model: GaussianJointModel, group_a, group_b) -> float:
    """Mutual information between two disjoint variable groups, in bits.

    Computed as ``0.5 * log2(det(S_A) det(S_B) / det(S_AB))`` with
    log-domain determinants. Variables with exactly zero variance carry no
    information and are dropped. When the joint determinant falls below
    ``EPS_DET`` times the product of the marginals the grouping is
    degenerate (e.g. a noiseless genie) and ``+inf`` is returned.

    The result depends only on the two index sets: it is bit-identical
    when the groups are swapped or reordered within, because every block
    is factorised in one canonical order (each group sorted, the group with
    the smaller first index first).
    """
    ia = _group_indices(model, group_a, "group_a")
    ib = _group_indices(model, group_b, "group_b")
    if set(ia) & set(ib):
        raise DomainError("groups must be disjoint")

    diag = np.diagonal(model.cov)
    ia = sorted(i for i in ia if diag[i] != 0.0)
    ib = sorted(i for i in ib if diag[i] != 0.0)
    if not ia or not ib:
        return 0.0
    if ib[0] < ia[0]:
        ia, ib = ib, ia

    iab = ia + ib
    sign_a, ld_a = np.linalg.slogdet(model.cov[np.ix_(ia, ia)])
    sign_b, ld_b = np.linalg.slogdet(model.cov[np.ix_(ib, ib)])
    sign_ab, ld_ab = np.linalg.slogdet(model.cov[np.ix_(iab, iab)])

    degenerate_cut = math.log(EPS_DET) + ld_a + ld_b
    if sign_ab <= 0.0:
        if ld_ab > degenerate_cut:
            raise NumericError("joint covariance block is not PSD")
        return math.inf
    if ld_ab <= degenerate_cut:
        return math.inf
    if sign_a <= 0.0 or sign_b <= 0.0:
        raise NumericError("marginal covariance block is singular")
    return max(0.5 * (ld_a + ld_b - ld_ab) / LN2, 0.0)


def _mi_term(ratio_minus_one, drop, drop_snr):
    """``0.5*log2(1 + x)`` bits, or ``0.5*log2(1 + drop_snr)`` where ``drop``
    marks a genie signal of zero variance (left out). A ratio ``1 + x`` of
    ``1/EPS_DET`` or more, or NaN (0/0 of a noiseless genie, or overflow),
    gives ``+inf``."""
    x = np.where(drop, drop_snr, ratio_minus_one)
    usable = (1.0 + x > 0.0) & (1.0 + x < 1.0 / EPS_DET)
    return np.where(usable, np.log1p(np.maximum(x, 0.0)) * (0.5 / LN2), np.inf)


def genie_bound_batch(params: PimacParams, points) -> np.ndarray:
    """Genie bound at each row ``(rho1, rho2, eta1, eta2)`` of ``points``.

    The closed form of the module docstring, evaluated over an (n, 4)
    array; returns n values in bits. Every feasible row gives a valid upper
    bound. Up to rounding it equals ``gaussian_mutual_info`` on
    ``build_genie_joint_cov``, including the zero-variance and ``EPS_DET``
    rules.
    """
    g12, g22, g31 = params.h12, params.h22, params.h31
    p1, p2, p3 = params.p1_max, params.p2_max, params.p3_max
    r1, r2, e1, e2 = np.asarray(points, dtype=float).T
    with np.errstate(all="ignore"):
        q = g12 * g12 * p1 + g22 * g22 * p2
        s = g12 * p1 + g22 * p2
        n1 = 1.0 + g31 * g31 * p3
        total = p1 + p2
        e1sq, e2sq = e1 * e1, e2 * e2
        mi1 = _mi_term((p1 * p2 * (g12 - g22) ** 2 + n1 * q + total * e1sq
                        - 2.0 * s * e1 * r1) / (e1sq * (n1 - r1 * r1)),
                       (q == 0.0) & (e1sq == 0.0), total / n1)
        mi2 = _mi_term(p3 * (e2sq - 2.0 * g31 * e2 * r2 + g31 * g31 * (q + 1.0))
                       / (e2sq * (q + 1.0 - r2 * r2)),
                       (g31 * g31 * p3 == 0.0) & (e2sq == 0.0), p3 / (q + 1.0))
    # An input group with zero variance carries nothing.
    return np.where(total > 0.0, mi1, 0.0) + np.where(p3 > 0.0, mi2, 0.0)


def genie_bound_objective(params: PimacParams, genie: GenieParams) -> float:
    """Upper bound value at one genie point (any feasible point is valid)."""
    return float(genie_bound_batch(params, [genie.as_tuple()])[0])


@functools.lru_cache(maxsize=8)
def _genie_candidate_grid(points_per_axis: int) -> np.ndarray:
    """Feasible coarse grid, read-only: correlations crossed with radius fractions."""
    rho = np.linspace(-1.0, 1.0, points_per_axis)
    fr = np.asarray(ETA_FRACTIONS)
    r1, r2, f1, f2 = np.meshgrid(rho, rho, fr, fr, indexing="ij")
    e1 = f1 * np.sqrt(np.maximum(0.0, 1.0 - r2 * r2))
    e2 = f2 * np.sqrt(np.maximum(0.0, 1.0 - r1 * r1))
    grid = np.stack([r1, r2, e1, e2], axis=-1).reshape(-1, 4)
    grid.flags.writeable = False
    return grid


def _sign_canonical(params: PimacParams) -> PimacParams:
    # Negating any gain leaves the channel capacity unchanged (a receiver
    # can negate the affected codebook), so the bound is evaluated on the
    # nonnegative-gain equivalent. This also makes the minimized value
    # bit-identical under per-gain sign flips.
    return PimacParams(h12=abs(params.h12), h22=abs(params.h22),
                       h31=abs(params.h31), p1_max=params.p1_max,
                       p2_max=params.p2_max, p3_max=params.p3_max)


def c_sigma_1(params: PimacParams,
              opt_cfg: OptConfig | None = None) -> SchemeResult:
    """Genie bound minimized over the feasible correlation/scaling set.

    A genie point costs two closed-form ratios (module docstring): the
    MAC term ``1 + [P1 P2 (h12-h22)^2 + P eta1^2 + n1 q - 2 s eta1 rho1] /
    (eta1^2 (n1 - rho1^2))`` from ``Pq - s^2 = P1 P2 (h12-h22)^2``, and the
    point-to-point term from the matrix determinant lemma. So the seeds,
    the coarse feasible grid and each compass iteration's trials are one
    ``genie_bound_batch`` call each. The point ``rho = 0, eta = 1`` (genie
    noise independent of everything) is always a seed, so the result is
    never worse than that bound.
    """
    cfg = opt_cfg if opt_cfg is not None else GENIE_OPT_CFG
    cparams = _sign_canonical(params)
    cfg = replace(cfg, seeds=((0.0, 0.0, 1.0, 1.0),) + tuple(cfg.seeds))
    res = minimize_constrained(
        functools.partial(genie_bound_batch, cparams),
        _genie_candidate_grid(cfg.grid_points_per_axis),
        cfg,
        project=project_genie,
        feasible=genie_feasible,
        step_init=(0.1, 0.1, 0.1, 0.1),
    )
    return SchemeResult(sum_rate=res.value, arg=GenieParams(*res.arg),
                        diagnostics=res.diagnostics())
