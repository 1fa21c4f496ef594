"""Sweep harness, power-control regime detection, and CSV output.

The sweep follows the convention ``h12 = h31 = h`` with ``h22`` held
fixed; rows are produced in ascending ``h`` and every computation is
deterministic, so identical configurations yield byte-identical CSV files.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bounds import _c_sigma_1_batch, c_sigma_2
from .errors import ContractError, DomainError, InvalidRegimeError
from .model import PimacParams, _checked_rate, _half_log_sum, _is_finite, _is_integer
from .schemes import _pc_tin_vertex, _tdma_tin_batch, _tin_value

FULL_POWER = "FULL_POWER"
USER1_SILENT = "USER1_SILENT"
USER3_SILENT = "USER3_SILENT"
OTHER = "OTHER"


def _pc_tin(params):
    value, p_opt = _pc_tin_vertex(params)
    return {"pc_tin": _checked_rate(value), "p_opt": p_opt, "regime": classify_power_point(
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
# TDMA-TIN and the genie bound call the batch searches. SD-TIN, PC-TIN and
# plain TDMA call the private value helpers of their public calls
# (_tin_value at the budgets, _pc_tin_vertex, _half_log_sum of the budgets),
# with no result object per row, and check each rate as SchemeResult does,
# through _checked_rate.
_CURVE_TABLE = {
    "sd_tin": ("scheme", lambda rows: [
        {"sd_tin": _checked_rate(_tin_value(p, p.p1_max, p.p2_max, p.p3_max))} for p in rows]),
    "tdma_tin": ("scheme", lambda rows: [
        {"tdma_tin": res.sum_rate, "alpha_opt": res.arg.alpha} for res in _tdma_tin_batch(rows)]),
    "pc_tin": ("scheme", lambda rows: [_pc_tin(p) for p in rows]),
    "tdma": ("scheme", lambda rows: [
        {"tdma": _checked_rate(_half_log_sum((p.p1_max, p.p2_max, p.p3_max)))} for p in rows]),
    "ub1": ("bound", lambda rows: [
        {} if res is None else {"ub1": res.sum_rate, "genie_opt": res.arg.as_tuple()}
        for res in _c_sigma_1_batch(rows)]),
    "ub2": ("bound", lambda rows: [_ub2(p) for p in rows]),
}

CURVES = tuple(_CURVE_TABLE)

CSV_COLUMNS = ("h", *CURVES, "alpha_opt", "p1_opt", "p2_opt", "p3_opt",
               "rho1", "rho2", "eta1", "eta2", "regime")


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
        if not (_is_finite(self.h_min) and _is_finite(self.h_max)):
            raise DomainError("h_min and h_max must be finite")
        if self.h_min > self.h_max:
            raise DomainError(f"h_min={self.h_min!r} exceeds h_max={self.h_max!r}")
        if not (_is_integer(self.steps) and self.steps >= 1):
            raise DomainError(f"steps must be an integer >= 1, got {self.steps!r}")
        if isinstance(self.which_curves, str) or not isinstance(self.which_curves, Iterable):
            raise DomainError(f"which_curves must be curve names, got {self.which_curves!r}")
        object.__setattr__(self, "which_curves", tuple(self.which_curves))
        if not self.which_curves:
            raise DomainError("no curve selected")
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
    value. TDMA-TIN and the genie bound take the rows as one batch
    (``_tdma_tin_batch``, ``_c_sigma_1_batch``). The others go one row at a
    time: SD-TIN through ``_tin_value``, PC-TIN through ``_pc_tin_vertex``,
    plain TDMA through ``_half_log_sum`` and ``ub2`` through ``c_sigma_2``.
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
    # h_max - h_min overflows for finite ends of opposite signs near the float
    # limit. Then the gains are twice those between the halved ends: halving
    # and doubling are exact there, and no numpy operation overflows.
    gains = (np.linspace(cfg.h_min, cfg.h_max, cfg.steps) if cfg.h_max - cfg.h_min < math.inf
             else 2.0 * np.linspace(0.5 * cfg.h_min, 0.5 * cfg.h_max, cfg.steps))
    rows = [PimacParams(h12=h, h22=cfg.h22, h31=h, p1_max=cfg.p1, p2_max=cfg.p2,
                        p3_max=cfg.p3) for h in gains.tolist()]
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
