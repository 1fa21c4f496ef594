"""Sweep harness, power-control regime detection, Monte-Carlo covariance
validation, and CSV output.

The sweep follows the convention ``h12 = h31 = h`` with ``h22`` held
fixed; rows are produced in ascending ``h`` and every computation is
deterministic, so identical configurations yield byte-identical CSV files.
"""

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bounds import (
    GenieParams,
    _c_sigma_1_batch,
    _genie_terms,
    _logdet_bits,
    c_sigma_2,
)
from .errors import ContractError, DomainError, InvalidRegimeError
from .model import PimacParams
from .schemes import (
    _tdma_tin_batch,
    pc_tin_sum_rate,
    plain_tdma_sum_rate,
    sd_tin_sum_rate,
)

FULL_POWER = "FULL_POWER"
USER1_SILENT = "USER1_SILENT"
USER3_SILENT = "USER3_SILENT"
OTHER = "OTHER"

RNG_NAME = "numpy PCG64 (numpy.random.default_rng)"


def _pc_tin(params):
    res = pc_tin_sum_rate(params)
    p_opt = res.arg.as_tuple()
    return {"pc_tin": res.sum_rate, "p_opt": p_opt, "regime": classify_power_point(
        p_opt, (params.p1_max, params.p2_max, params.p3_max))}


def _ub2(params):
    try:
        return {"ub2": c_sigma_2(params)}
    except InvalidRegimeError:
        return {}


# Each sweep curve, in column order: its kind ("scheme" or "bound") and its
# batch function, which maps a list of instances to the SweepRow fields of
# each and gives no fields where the curve is unavailable. The functions look
# their callees up by module name when called, so a rebound name takes effect.
_CURVE_TABLE = {
    "sd_tin": ("scheme", lambda rows: [{"sd_tin": sd_tin_sum_rate(p).sum_rate} for p in rows]),
    "tdma_tin": ("scheme", lambda rows: [
        {"tdma_tin": res.sum_rate, "alpha_opt": res.arg.alpha} for res in _tdma_tin_batch(rows)]),
    "pc_tin": ("scheme", lambda rows: [_pc_tin(p) for p in rows]),
    "tdma": ("scheme", lambda rows: [{"tdma": plain_tdma_sum_rate(p).sum_rate} for p in rows]),
    "ub1": ("bound", lambda rows: [
        {} if res is None else {"ub1": res.sum_rate, "genie_opt": res.arg.as_tuple()}
        for res in _c_sigma_1_batch(rows)]),
    "ub2": ("bound", lambda rows: [_ub2(p) for p in rows]),
}

CURVES = tuple(_CURVE_TABLE)

CSV_COLUMNS = ("h", *CURVES, "alpha_opt", "p1_opt", "p2_opt", "p3_opt",
               "rho1", "rho2", "eta1", "eta2", "regime")


def _is_integer(value) -> bool:
    # numbers.Integral admits bool, which is no count or seed.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepConfig:
    """Gain sweep specification: ``h12 = h31 = h`` over [h_min, h_max].

    ``which_curves`` is a collection of names from ``CURVES``, not a string,
    and is kept as a tuple.
    """

    h_min: float
    h_max: float
    steps: int
    h22: float
    p1: float
    p2: float
    p3: float
    which_curves: tuple = CURVES

    def __post_init__(self):
        if not (math.isfinite(self.h_min) and math.isfinite(self.h_max)):
            raise DomainError("h_min and h_max must be finite")
        if self.h_min > self.h_max:
            raise DomainError(f"h_min={self.h_min!r} exceeds h_max={self.h_max!r}")
        if not (_is_integer(self.steps) and self.steps >= 1):
            raise DomainError(f"steps must be an integer >= 1, got {self.steps!r}")
        if isinstance(self.which_curves, str) or not isinstance(self.which_curves, Iterable):
            raise DomainError(f"which_curves must be curve names, got {self.which_curves!r}")
        object.__setattr__(self, "which_curves", tuple(self.which_curves))
        unknown = [name for name in self.which_curves if name not in CURVES]
        if unknown:
            raise DomainError(f"unknown curves: {unknown!r}")


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: rates in bits/channel use plus optimizer arguments."""

    h: float
    sd_tin: float | None = None
    tdma_tin: float | None = None
    pc_tin: float | None = None
    tdma: float | None = None
    ub1: float | None = None
    ub2: float | None = None
    alpha_opt: float | None = None
    p_opt: tuple | None = None
    genie_opt: tuple | None = None
    regime: str | None = None


def classify_power_point(p_opt, budgets) -> str:
    """Label a box vertex as one of the corner regimes or OTHER.

    A coordinate is zero when it equals 0 and full when it equals its
    budget; a zero budget counts as both.
    """
    zero = [p == 0.0 for p in p_opt]
    full = [p == b for p, b in zip(p_opt, budgets)]
    if all(full):
        return FULL_POWER
    if zero[0] and full[1] and full[2]:
        return USER1_SILENT
    if full[0] and full[1] and zero[2]:
        return USER3_SILENT
    return OTHER


def _evaluate_rows(rows, curves) -> list[SweepRow]:
    """The requested curves at each instance of ``rows``, as the sweep rows at
    ``h = h12``.

    Each requested curve's entry of ``_CURVE_TABLE``, in table order,
    evaluates all the rows and leaves its curve unavailable where it has no
    value. TDMA-TIN and the genie bound take the rows as one batch, the
    others one row at a time.
    """
    values = [{} for _ in rows]
    for name, (_, batch) in _CURVE_TABLE.items():
        if name in curves:
            for v, fields in zip(values, batch(rows)):
                v.update(fields)
    return [SweepRow(h=params.h12, **v) for params, v in zip(rows, values)]


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Evaluate the requested curves at ``cfg.steps`` equally spaced gains.

    Each row is one instance with ``h12 = h31 = h``. The rows are evaluated
    together, as ``pimac point`` evaluates a batch of one: each search
    (the genie bound and TDMA-TIN) makes one objective call per solver
    stage for a block of rows, with results bit-identical to the
    per-instance calls. The closed-form upper bound
    column is marked unavailable on rows where ``h^2 > 1``, and ``ub1`` on
    rows where the genie bound finds no finite value; everything else is
    defined for all gains.
    """
    rows = [PimacParams(h12=h, h22=cfg.h22, h31=h, p1_max=cfg.p1, p2_max=cfg.p2,
                        p3_max=cfg.p3)
            for h in np.linspace(cfg.h_min, cfg.h_max, cfg.steps).tolist()]
    return _evaluate_rows(rows, cfg.which_curves)


def detect_pc_tin_regimes(rows):
    """Merge the rows' power-control labels into gain intervals.

    Returns ``[((h_start, h_end), label), ...]`` with interval boundaries
    at the midpoints between adjacent rows whose labels differ. Rows must
    be sorted by gain and carry the ``regime`` label of the power-control
    curve; ContractError is raised otherwise.
    """
    if not rows:
        return []
    for i, row in enumerate(rows):
        if row.regime is None:
            raise ContractError(f"row at h={row.h!r} has no power-control regime")
        if i and not row.h >= rows[i - 1].h:  # NaN is out of order too
            raise ContractError(f"rows must be sorted by gain: h={row.h!r} "
                                f"follows h={rows[i - 1].h!r}")

    intervals = []
    start = rows[0].h
    for prev, row in zip(rows, rows[1:]):
        if row.regime != prev.regime:
            boundary = 0.5 * (prev.h + row.h)
            intervals.append(((start, boundary), prev.regime))
            start = boundary
    intervals.append(((start, rows[-1].h), rows[-1].regime))
    return intervals


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
    the 7 variables is singular, and genie scalings above 0.05 so the
    sampled joint stays well conditioned.
    """
    if not (_is_integer(n_samples) and n_samples >= 8):
        raise DomainError(f"n_samples must be an integer >= 8, got {n_samples!r}")
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


def _format_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, str):
        return value
    return f"{float(value):.9g}"


def _row_cells(row: SweepRow) -> list[str]:
    p = row.p_opt if row.p_opt is not None else (None, None, None)
    g = row.genie_opt if row.genie_opt is not None else (None, None, None, None)
    return [_format_cell(v) for v in
            (row.h, *(getattr(row, name) for name in CURVES), row.alpha_opt,
             *p, *g, row.regime)]


def render_csv(rows) -> str:
    """CSV text for a list of rows: fixed column order, 9 significant digits."""
    lines = [",".join(CSV_COLUMNS), *(",".join(_row_cells(row)) for row in rows)]
    return "\n".join(lines) + "\n"


def emit_csv(rows, path) -> None:
    """Write the sweep CSV; unavailable cells are the literal string NA."""
    text = render_csv(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path!r}: {exc}") from exc
