import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from pimac import (
    ContractError,
    DomainError,
    GenieParams,
    InfeasibleError,
    InvalidRegimeError,
    PimacParams,
    SweepConfig,
    SweepRow,
    c_sigma_1,
    c_sigma_2,
    classify_power_point,
    detect_pc_tin_regimes,
    emit_csv,
    genie_bound_objective,
    half_log,
    montecarlo_covariance_check,
    pc_tin_sum_rate,
    plain_tdma_sum_rate,
    render_csv,
    run_sweep,
    sd_tin_sum_rate,
    tdma_tin_sum_rate,
)
from pimac import bounds, schemes
from pimac.bounds import _c_sigma_1_batch, genie_bound_batch
from pimac.cli import main
from pimac.experiments import _CURVE_TABLE, CSV_COLUMNS, CURVES, _evaluate_rows
from pimac.optimize import _BLOCK_POINTS
from pimac.schemes import _tdma_tin_batch

from _support import draw_feasible_genie, draw_params, same_bits, sandwich

BUDGETS = (10.0, 10.0, 10.0)


def test_sweep_config_validation():
    with pytest.raises(DomainError):
        SweepConfig(h_min=1.0, h_max=0.0, steps=5, h22=0.2, p1=1, p2=1, p3=1)
    # A bool is no step count: numbers.Integral admits it, and True would
    # sweep one row. More than 10**6 rows is refused before np.linspace,
    # which raises a bare ValueError for 10**23 and 10**400; 10**6 is
    # accepted (constructed only, never run).
    for steps in (0, 2.5, True, False, 10**6 + 1, 10**23, 10**400):
        with pytest.raises(DomainError, match=r"steps must be an integer in \[1, 10\*\*6\]"):
            SweepConfig(h_min=0.0, h_max=1.0, steps=steps, h22=0.2, p1=1, p2=1, p3=1)
    assert SweepConfig(h_min=0.0, h_max=1.0, steps=10**6, h22=0.2, p1=1, p2=1, p3=1).steps == 10**6
    # A string is no collection of names (it would be read letter by
    # letter), None or a number is no collection at all, a list is no name,
    # and an empty collection selects no curve (its CSV would be all NA).
    for curves in (("sd_tin", "nope"), "sd_tin", None, 3, [["sd_tin"]], (), []):
        with pytest.raises(DomainError):
            SweepConfig(h_min=0.0, h_max=1.0, steps=5, h22=0.2, p1=1, p2=1, p3=1,
                        which_curves=curves)
    # Any other collection is kept as a tuple, so the frozen config hashes.
    cfg = SweepConfig(h_min=0.0, h_max=1.0, steps=5, h22=0.2, p1=1, p2=1, p3=1,
                      which_curves=["sd_tin", "ub2"])
    assert cfg.which_curves == ("sd_tin", "ub2")
    assert hash(cfg) == hash(SweepConfig(h_min=0.0, h_max=1.0, steps=5, h22=0.2, p1=1,
                                         p2=1, p3=1, which_curves=("sd_tin", "ub2")))
    for h_min, h_max in ((math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(DomainError, match="must be finite"):
            SweepConfig(h_min=h_min, h_max=h_max, steps=5, h22=0.2, p1=1, p2=1, p3=1)


def test_small_sweep_rows():
    cfg = SweepConfig(h_min=0.0, h_max=1.2, steps=7, h22=0.2, p1=10, p2=10,
                      p3=10, which_curves=("sd_tin", "tdma", "ub2"))
    rows = run_sweep(cfg)
    assert [round(r.h, 10) for r in rows] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2]
    for row in rows:
        assert row.sd_tin is not None and row.tdma is not None
        assert row.pc_tin is None and row.ub1 is None
        if row.h * row.h > 1.0:
            assert row.ub2 is None      # out of the closed-form bound's regime
        else:
            assert row.ub2 is not None
            best, tightest = sandwich(row, cfg.which_curves)
            assert tightest >= best - 1e-9


def test_sweep_row_beyond_float_square_leaves_ub2_unavailable():
    # h**2 overflows a float at h = 1e160; c_sigma_2 alone decides that ub2
    # is out of its regime, and the row is still produced.
    cfg = SweepConfig(h_min=1e160, h_max=1e160, steps=1, h22=0.2, p1=10, p2=10,
                      p3=10, which_curves=("sd_tin", "ub2"))
    (row,) = run_sweep(cfg)
    assert row.h == 1e160
    assert math.isfinite(row.sd_tin)
    assert row.ub2 is None


def test_sweep_zero_gain_row_values():
    cfg = SweepConfig(h_min=0.0, h_max=1.0, steps=2, h22=0.2, p1=10, p2=10,
                      p3=10, which_curves=("sd_tin", "pc_tin"))
    row = run_sweep(cfg)[0]
    # h = 0: only the h22 leg interferes, so the P2P user still loses 0.4
    # of noise power while the MAC is clean.
    expected_sd = half_log(20.0) + half_log(10.0 / 1.4)
    assert row.sd_tin == pytest.approx(expected_sd, abs=1e-12)
    assert row.pc_tin == pytest.approx(expected_sd, abs=1e-9)
    assert row.regime == "FULL_POWER"


def test_sweep_over_a_span_that_overflows():
    # h_max - h_min overflows to inf although both ends are finite: the
    # gains are still the three points, with no numpy warning (pytest makes
    # every warning an error), and each row is its instance's.
    cfg = SweepConfig(h_min=-1.7e308, h_max=1.7e308, steps=3, h22=0.2, p1=10, p2=10, p3=10)
    rows = run_sweep(cfg)
    assert [row.h for row in rows] == [-1.7e308, 0.0, 1.7e308]
    assert rows == [_row_from_public_calls(PimacParams(h, 0.2, h, 10.0, 10.0, 10.0))
                    for h in (-1.7e308, 0.0, 1.7e308)]


def _row_from_public_calls(params):
    """The sweep row of one instance, from the per-instance public calls."""
    tdma_tin, pc_tin = tdma_tin_sum_rate(params), pc_tin_sum_rate(params)
    values = dict(sd_tin=sd_tin_sum_rate(params).sum_rate, tdma_tin=tdma_tin.sum_rate,
                  alpha_opt=tdma_tin.arg.alpha, pc_tin=pc_tin.sum_rate,
                  p_opt=pc_tin.arg.as_tuple(),
                  regime=classify_power_point(pc_tin.arg.as_tuple(), (
                      params.p1_max, params.p2_max, params.p3_max)),
                  tdma=plain_tdma_sum_rate(params).sum_rate)
    try:
        ub1 = c_sigma_1(params)
        values.update(ub1=ub1.sum_rate, genie_opt=ub1.arg.as_tuple())
    except InfeasibleError:
        pass
    try:
        values["ub2"] = c_sigma_2(params)
    except InvalidRegimeError:
        pass
    return SweepRow(h=params.h12, **values)


def _public_or_none(call, params):
    try:
        return call(params)
    except InfeasibleError:
        return None


def test_batched_rows_equal_per_instance_calls():
    # One batch of 90 rows, two blocks of each search (84 + 6 rows of
    # TDMA-TIN, 67 + 23 of the genie bound), whose first blocks' grid stages
    # take several objective calls: h = 0 (h31 = 0, so t2* = inf), a
    # zero-power instance, h = 1e160 (where the genie bound finds no finite
    # value, inside a block of feasible rows) and 87 figure rows.
    rows = [PimacParams(0.0, 0.2, 0.0, 10.0, 10.0, 10.0),
            PimacParams(0.5, 0.2, 0.5, 0.0, 0.0, 0.0),
            PimacParams(1e160, 0.2, 1e160, 10.0, 10.0, 10.0)]
    rows += [PimacParams(h, 0.2, h, 10.0, 10.0, 10.0)
             for h in np.linspace(0.05, 1.0, 87).tolist()]
    got = _evaluate_rows(rows, CURVES)
    assert got == [_row_from_public_calls(p) for p in rows]
    assert [row.ub1 is None for row in got] == [False, False, True] + [False] * 87
    # Values, arguments and evaluation counts, compared with ==.
    for batch, call in ((_tdma_tin_batch, tdma_tin_sum_rate), (_c_sigma_1_batch, c_sigma_1)):
        assert batch(rows) == [_public_or_none(call, p) for p in rows]
    # run_sweep over the same kind of rows.
    for cfg in (SweepConfig(h_min=0.0, h_max=1e160, steps=3, h22=0.2, p1=10, p2=10, p3=10),
                SweepConfig(h_min=0.0, h_max=1.0, steps=3, h22=0.2, p1=0, p2=0, p3=0)):
        assert run_sweep(cfg) == [_row_from_public_calls(PimacParams(
            h, cfg.h22, h, cfg.p1, cfg.p2, cfg.p3))
            for h in np.linspace(cfg.h_min, cfg.h_max, cfg.steps).tolist()]


def test_figure_rows_closed_forms_are_the_public_calls_bit_for_bit(figure3_sweep):
    # The table's closed-form entries read the value helpers of the public
    # calls, not their results: each field is the public call's, bit for bit.
    for row in figure3_sweep["rows"]:
        want = _row_from_public_calls(PimacParams(row.h, 0.2, row.h, 10.0, 10.0, 10.0))
        for name in ("sd_tin", "pc_tin", "p_opt", "tdma"):
            assert same_bits(getattr(row, name), getattr(want, name)), (row.h, name)
        assert row.regime == want.regime


def test_curve_table_entries_are_consistent():
    # Rows where each curve that can be unavailable is: ub1 at h = 1e160,
    # ub2 at h = 1.5 and 1e160.
    rows = [PimacParams(h, 0.2, h, 10.0, 10.0, 10.0) for h in (0.0, 0.5, 1.0, 1.5, 1e160)]
    full = _evaluate_rows(rows, CURVES)
    assert [row.ub1 is None for row in full] == [False] * 4 + [True]
    assert [row.ub2 is None for row in full] == [False] * 3 + [True] * 2
    owner = {}
    for name in CURVES:
        got = _evaluate_rows(rows, (name,))
        own = {f.name for row in got for f in dataclasses.fields(row)
               if f.name != "h" and getattr(row, f.name) is not None}
        assert name in own
        for field in own:
            assert owner.setdefault(field, name) == name, (field, owner[field], name)
        # Each entry gives its slice of the all-curves rows and nothing else.
        assert got == [SweepRow(h=row.h, **{field: getattr(row, field) for field in own})
                       for row in full]
    assert sorted(owner) == sorted(f.name for f in dataclasses.fields(SweepRow)
                                   if f.name != "h")
    assert {kind for kind, _ in _CURVE_TABLE.values()} == {"scheme", "bound"}
    assert CSV_COLUMNS[1:7] == CURVES


# TDMA-TIN (value, share) and the genie bound (value, rho1, rho2) on figure
# rows, frozen bit for bit: any change in which points the searches visit or
# how they rank and break ties shows here.
_FROZEN_SEARCHES = {
    0.1: (3.6164199407886004, 0.5400519967079163, 3.6369320261758697, 0.15772533416748047,
          0.13956832885742188),
    0.37: (2.803486255603735, 0.2631308138370514, 2.972124482667515, 0.38399457931518555,
           0.4732551574707031),
    0.53: (2.4901963061989605, 0.0878562331199646, 3.0524681247506864, 0.2281484603881836,
           0.3031754493713379),
    0.9: (2.071603142643366, 0.03579878807067871, 3.7081089540480345, 0.07809257507324219,
          0.10305643081665039),
}


def test_figure_rows_match_frozen_search_results():
    rows = run_sweep(SweepConfig(h_min=0.0, h_max=1.0, steps=101, h22=0.2, p1=10, p2=10,
                                 p3=10, which_curves=("tdma_tin", "ub1")))
    for h, (tdma_tin, alpha, ub1, rho1, rho2) in _FROZEN_SEARCHES.items():
        (row,) = [r for r in rows if r.h == h]
        assert (row.tdma_tin, row.alpha_opt, row.ub1) == (tdma_tin, alpha, ub1)
        assert row.genie_opt[:2] == (rho1, rho2)


# Searches with a batch of one (c_sigma_1, tdma_tin_sum_rate), frozen bit
# for bit before the 2-D stages were ranked from candidates and their
# windows built per axis (commit 620006d), and the genie bound's values
# again at its 9 x 9 start grid, where only the third moved: value
# (float.hex), argument and the seed count of the diagnostics. The
# instances are ROADMAP's two inputs on which the genie bound raises,
# genie_wide seed 3 point 274 (a narrow basin near rho = 0, which the 9 x 9
# start grid finds 1.0e-5 bits lower than the 33 x 33 one did), genie_wide
# seed 2 point 436 (1 of the 81 grid points finite, the rest -inf; 3 of
# 1 089 on a 33 x 33 grid), h31 = 0, A = 0 (ties at every 2-D cut), a
# gain of 1e150, the matched gain h = 0.2 (a plateau of equal values) and
# zero powers (every value 0). The genie points of the two instances with
# h31 < 0 are the signed channel's, with rho2 negated (see c_sigma_1).
_FROZEN_ONE = [
    ((1e150, 0.2, 1e150, 10.0, 10.0, 10.0), None, ("0x1.8344bbe0c0108p+0", 0.0, 2)),
    ((0.5, 0.2, 0.5, 1e200, 10.0, 10.0), None, ("0x1.4b4a048e7b3acp+8", 1.0, 2)),
    ((0.019611952838597208, 0.08421319698694905, -0.18525852047786165, 11347975.492099306,
      0.0056439956004705775, 0.006552031265274089),
     ("0x1.76f9b997daeabp+3",
      (0.019612789154052734, -0.011739730834960938, 0.9999310869854595, 0.9998076507516827)),
     ("0x1.76f841ae98d79p+3", 0.999999999502643, 2)),
    ((691.3648855703752, 0.01827095848657556, -573.2753264057374, 2.200776373921615e-05,
      12017.749452163156, 3041361.265213577),
     ("0x1.5e8e73d36e321p+4", (0.0, -0.0001125335693359375, 0.9999999936680979, 1.0)),
     ("0x1.336004a8c4c62p+3", 0.0, 2)),
    ((0.5, 0.2, 0.0, 10.0, 10.0, 10.0),
     ("0x1.b340344376304p+1", (0.23116159439086914, 0.0, 1.0, 0.0)),
     ("0x1.a9b6aa0e26428p+1", 0.16678425669670105, 2)),
    ((0.0, 0.0, 0.5, 10.0, 10.0, 10.0),
     ("0x1.8d3a0222be68cp+1", (0.0, 0.5, 0.0, 1.0)), ("0x1.8d3a0222be68cp+1", 0.5, 1)),
    ((0.5, 1e150, 0.5, 10.0, 1e-300, 10.0),
     ("0x1.7051f24567034p+1",
      (0.20368671417236328, 0.24786663055419922, 0.9687941646488732, 0.9790361190832879)),
     ("0x1.f2917ec372fe0p+0", 1.0, 2)),
    ((0.2, 0.2, 0.2, 10.0, 10.0, 10.0),
     ("0x1.a965aa208f39cp+1",
      (0.3023972511291504, 0.3776826858520508, 0.9259343428370492, 0.953181105424098)),
     ("0x1.a965aa208f39cp+1", 0.5, 2)),
    ((0.5, 0.2, 0.5, 0.0, 0.0, 0.0), ("0x0.0p+0", (0.0, 0.0, 0.0, 1.0)), ("0x0.0p+0", 0.0, 0)),
]


def _search_diagnostics(seeds, grid, refine, levels):
    stages = {"seeds": seeds, "grid": grid, "refine": refine}
    return {"evaluations": seeds + grid + refine, "stages": stages, "levels": levels}


def test_batch_of_one_matches_frozen_search_results():
    for point, ub1, (tdma_hex, alpha, seeds) in _FROZEN_ONE:
        p = PimacParams(*point)
        if ub1 is None:
            with pytest.raises(InfeasibleError):
                c_sigma_1(p)
        else:
            res = c_sigma_1(p)
            assert (res.sum_rate.hex(), res.arg.as_tuple()) == ub1
            assert res.diagnostics == _search_diagnostics(0, 9 * 9, 3 * 9 * 81, 9)
        res = tdma_tin_sum_rate(p)
        assert (res.sum_rate.hex(), res.arg.alpha) == (tdma_hex, alpha)
        assert res.diagnostics == _search_diagnostics(seeds, 1025, 3 * 3 * 65, 3)


# sha256 of the 101-row figure CSV: criterion 9 checks only that two runs
# agree, this pins the bytes.
FIGURE_CSV_SHA256 = "72c0526f5f5e05ec2b7b6870acc50a2c0ecd819059d83eb73a4b84cd9f022d7b"


def test_figure_csv_bytes_are_pinned(figure3_sweep, tmp_path, capsys):
    csv = render_csv(figure3_sweep["rows"]).encode()
    assert hashlib.sha256(csv).hexdigest() == FIGURE_CSV_SHA256
    # The same bytes from the file that ``pimac sweep`` writes.
    out = tmp_path / "figure.csv"
    assert main(["sweep", "--h-min", "0", "--h-max", "1", "--steps", "101", "--h22", "0.2",
                 "--p1", "10", "--p2", "10", "--p3", "10", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} (101 rows)\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_CSV_SHA256


def test_batched_searches_in_threads_equal_serial_results():
    # The batched searches keep their work arrays per thread. Four threads,
    # more than a small runner's cores, run both searches three times on
    # two row sets of different sizes at once, switching every microsecond
    # (numpy also releases the interpreter lock inside its loops). Each
    # result equals the serial one bit for bit (repr shows every bit of a
    # float).
    rng = np.random.default_rng(21)
    row_sets = [[draw_params(rng) for _ in range(m)] for m in (20, 17)]
    jobs = [(search, rows) for search in (_c_sigma_1_batch, _tdma_tin_batch)
            for rows in row_sets]
    serial = [repr(search(rows)) for search, rows in jobs]
    got = [[] for _ in jobs]

    def run(i):
        search, rows = jobs[i]
        for _ in range(3):
            got[i].append(repr(search(rows)))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want] * 3 for want in serial]


def test_warm_figure_sweep_allocates_little():
    # The batched searches write into per-thread work arrays, so a warm
    # 101-row sweep allocates at most 0.6 MiB at its peak (tracemalloc, to
    # which numpy reports its arrays): 0.45 MiB measured, against 1.21 MiB
    # when every block allocated its own arrays.
    cfg = SweepConfig(h_min=0.0, h_max=1.0, steps=101, h22=0.2, p1=10.0, p2=10.0, p3=10.0)
    run_sweep(cfg)
    tracemalloc.start()
    try:
        run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * 2 ** 20


def test_figure_sweep_objective_calls_and_block_rows(monkeypatch):
    # A cost guard that reads the same on any host: the (rows, points per
    # row) of every kernel call of the 101-row figure sweep. Blocks are cut
    # by the refinement stage, so each search's refinement calls cover
    # 84 + 17 rows (TDMA-TIN, 195 points a row) and 67 + 34 rows (the genie
    # bound, 243 points a row). TDMA-TIN's grid stage (1 027 points a row)
    # takes calls of at most _BLOCK_POINTS points, and the genie bound's
    # 9 x 9 grid stage one call per block: 14 and 20 calls in all, against
    # 28 and 63 with blocks of 15 rows and a 33 x 33 grid. The genie bound's
    # points per row are those of its values, since its calls pass axes.
    calls = {"tdma_tin": [], "ub1": []}

    def counted(kernel, shapes):
        def wrapper(c, pts):
            shapes.append(pts.shape[:2])
            return kernel(c, pts)
        return wrapper

    def counted_values(kernel, shapes):
        def wrapper(c, xy):
            values = kernel(c, xy)
            shapes.append((len(values), values[0].size))
            return values
        return wrapper

    monkeypatch.setattr(schemes, "_tdma_parts", counted(schemes._tdma_parts, calls["tdma_tin"]))
    monkeypatch.setattr(bounds, "_genie_sum", counted_values(bounds._genie_sum, calls["ub1"]))
    run_sweep(SweepConfig(h_min=0.0, h_max=1.0, steps=101, h22=0.2, p1=10, p2=10, p3=10))
    assert calls["tdma_tin"] == ([(84, 195)] * 5 + [(84, 52)] + [(84, 3 * 65)] * 3
                                 + [(17, 963), (17, 64)] + [(17, 3 * 65)] * 3)
    assert calls["ub1"] == ([(67, 81)] + [(67, 3 * 81)] * 9 + [(34, 81)] + [(34, 3 * 81)] * 9)
    assert all(m * n <= _BLOCK_POINTS for shapes in calls.values() for m, n in shapes)


def test_genie_bound_batch_result_outlives_a_sweep():
    # No returned array is a view into the searches' work arrays: a later
    # sweep of 101 rows (two blocks of each search, their grid stages in
    # several objective calls) leaves it unchanged.
    p = PimacParams(0.5, -0.2, 0.5, 10.0, 10.0, 10.0)
    got = genie_bound_batch(p, [(0.1, 0.2, 0.9, 0.8), (0.0, 0.0, 1.0, 1.0),
                                (-0.3, 0.5, 0.7, 0.9)])
    want = got.copy()
    run_sweep(SweepConfig(h_min=0.0, h_max=1.0, steps=101, h22=0.2, p1=10, p2=10, p3=10))
    assert same_bits(got, want)


def test_classify_power_point():
    assert classify_power_point((10, 10, 10), BUDGETS) == "FULL_POWER"
    assert classify_power_point((0.0, 10, 10), BUDGETS) == "USER1_SILENT"
    assert classify_power_point((10, 10, 0.0), BUDGETS) == "USER3_SILENT"
    assert classify_power_point((5, 10, 10), BUDGETS) == "OTHER"
    assert classify_power_point((0.02, 10, 10), BUDGETS) == "OTHER"
    # zero budgets count as both empty and full; full-power wins
    assert classify_power_point((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)) == "FULL_POWER"


def _row(h, p_opt):
    return SweepRow(h=h, p_opt=p_opt, regime=classify_power_point(p_opt, BUDGETS))


def test_detect_regimes_merges_intervals():
    rows = [_row(0.0, (10, 10, 10)), _row(0.1, (10, 10, 10)),
            _row(0.2, (0, 10, 10)), _row(0.3, (0, 10, 10)),
            _row(0.4, (10, 10, 0))]
    intervals = detect_pc_tin_regimes(rows)
    assert intervals == [((0.0, 0.15000000000000002), "FULL_POWER"),
                         ((0.15000000000000002, 0.35), "USER1_SILENT"),
                         ((0.35, 0.4), "USER3_SILENT")]


def test_detect_regimes_single_row_and_missing_arg():
    assert detect_pc_tin_regimes([_row(0.0, (10, 10, 10))]) == [
        ((0.0, 0.0), "FULL_POWER")]
    assert detect_pc_tin_regimes([]) == []
    with pytest.raises(ContractError):
        detect_pc_tin_regimes([SweepRow(h=0.0, p_opt=(10, 10, 10))])


def test_detect_regimes_rejects_unsorted_rows():
    # Rows out of gain order would merge into intervals that overlap or run
    # backwards, ((0.5, 0.3), 'FULL_POWER') first here: they are refused.
    rows = [_row(0.5, (10, 10, 10)), _row(0.1, (0, 10, 10)), _row(0.9, (10, 10, 10))]
    with pytest.raises(ContractError, match="sorted by gain"):
        detect_pc_tin_regimes(rows)
    # A NaN gain has no place in the order, and would hide one that is out
    # of it (0.1, then 0.05).
    with pytest.raises(ContractError, match="sorted by gain"):
        detect_pc_tin_regimes([_row(0.1, (10, 10, 10)), _row(math.nan, (0, 10, 10)),
                               _row(0.05, (10, 10, 10))])
    # Equal gains are in order.
    assert detect_pc_tin_regimes([_row(0.1, (10, 10, 10)), _row(0.1, (0, 10, 10))]) == [
        ((0.1, 0.1), "FULL_POWER"), ((0.1, 0.1), "USER1_SILENT")]


def test_montecarlo_matches_known_value_with_zero_gains():
    params = PimacParams(0.0, 0.0, 0.0, 10.0, 10.0, 10.0)
    genie = GenieParams(0.0, 0.0, 1.0, 1.0)
    report = montecarlo_covariance_check(params, genie, 200_000, seed=5)
    analytic_mac = half_log(20.0)
    entry = report.entries[0]
    assert entry.name == "mac_rx1"
    assert entry.analytic == pytest.approx(analytic_mac, abs=1e-12)
    assert abs(entry.sampled - analytic_mac) <= 0.01


def test_montecarlo_determinism_and_precondition():
    params = PimacParams(0.5, 0.2, 0.5, 10.0, 10.0, 10.0)
    genie = GenieParams(0.0, 0.0, 1.0, 1.0)
    a = montecarlo_covariance_check(params, genie, 50_000, seed=42)
    b = montecarlo_covariance_check(params, genie, 50_000, seed=42)
    assert a == b
    assert a.generator.startswith("numpy PCG64")
    with pytest.raises(DomainError):
        montecarlo_covariance_check(params, GenieParams(0.0, 0.0, 0.01, 1.0),
                                    1000, seed=0)
    # n_samples is an integer >= 8 (fewer samples of the 7 variables have a
    # singular sample covariance) and at most 2**63 (the chi-square draws'
    # degrees of freedom fit int64), and seed an integer >= 0, as
    # SweepConfig.steps: a float count is not truncated, a bool is no seed
    # (True would report seed 1), and numpy's own TypeError, ValueError or
    # OverflowError does not escape.
    for n_samples, seed in ((8.9, 0), (8.0, 0), (7, 0), (2, 0), (1, 0), (math.nan, 0),
                            (2 ** 63 + 1, 0), (10 ** 400, 0),
                            (100, 1.5), (100, 1.0), (100, -1), (100, None),
                            (100, True), (100, False), (True, 0)):
        with pytest.raises(DomainError):
            montecarlo_covariance_check(params, genie, n_samples, seed)
    small = montecarlo_covariance_check(params, genie, np.int64(8), np.int64(0))
    assert (small.n_samples, small.seed) == (8, 0)
    assert montecarlo_covariance_check(params, genie, 2 ** 63, 0).n_samples == 2 ** 63


def test_montecarlo_silent_transmitters():
    # A silent transmitter's row of the sampled covariance is exactly 0 and
    # is dropped, so its term reads 0.0 on both sides.
    genie = GenieParams(0.3, -0.2, 0.8, 0.9)
    for powers, silent in (((10.0, 5.0, 0.0), "p2p_rx2"), ((0.0, 0.0, 10.0), "mac_rx1")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = montecarlo_covariance_check(PimacParams(0.5, 0.2, 0.5, *powers),
                                                 genie, 20_000, seed=3)
        entry = {e.name: e for e in report.entries}[silent]
        assert (entry.analytic, entry.sampled, entry.gap) == (0.0, 0.0, 0.0)


def test_montecarlo_degenerate_term_on_both_sides():
    # A term of 19.93 bits or more reads +inf on both sides (the EPS_DET
    # rule); their gap is 0, and max_gap is the other term's, in either order.
    genie = GenieParams(0.0, 0.0, 1.0, 1.0)
    for params, degenerate in ((PimacParams(0.5, 0.2, 0.5, 1e3, 1e3, 1e13), "p2p_rx2"),
                               (PimacParams(0.5, 0.2, 0.0, 1e13, 1e13, 10.0), "mac_rx1")):
        report = montecarlo_covariance_check(params, genie, 20_000, seed=1)
        entries = {e.name: e for e in report.entries}
        entry = entries.pop(degenerate)
        assert (entry.analytic, entry.sampled, entry.gap) == (math.inf, math.inf, 0.0)
        (other,) = entries.values()
        assert math.isfinite(other.gap) and report.max_gap == other.gap


def test_montecarlo_analytic_terms_sum_to_the_genie_bound():
    # The report's analytic terms are the genie bound's two terms at the same
    # genie: their sum is genie_bound_objective bit for bit, at the point of
    # ``pimac validate`` and at random draws.
    rng = np.random.default_rng(21)
    cases = [(PimacParams(0.5, 0.2, 0.5, 10.0, 10.0, 10.0), GenieParams(0.0, 0.0, 1.0, 1.0))]
    cases += [(draw_params(rng), GenieParams(*draw_feasible_genie(rng))) for _ in range(20)]
    for params, genie in cases:
        report = montecarlo_covariance_check(params, genie, 100, seed=0)
        mac, p2p = (e.analytic for e in report.entries)
        assert mac + p2p == genie_bound_objective(params, genie)


def test_montecarlo_gap_shrinks_reasonably():
    rng = np.random.default_rng(16)
    params = draw_params(rng, power_high=20.0)
    genie = GenieParams(*draw_feasible_genie(rng))
    report = montecarlo_covariance_check(params, genie, 400_000, seed=9)
    assert report.max_gap <= 0.02
    assert report.sample_min_eigenvalue >= -1e-10


def test_render_csv_header_only_and_field_count():
    text = render_csv([])
    lines = text.splitlines()
    assert len(lines) == 1
    assert len(lines[0].split(",")) == 16

    row = SweepRow(h=0.2, sd_tin=1.23456789012, tdma=2.0,
                   p_opt=(0.0, 10.0, 10.0), regime="USER1_SILENT")
    lines = render_csv([row]).splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == 16
    assert cells[0] == "0.2"
    assert cells[1] == "1.23456789"     # 9 significant digits
    assert cells[2] == "NA"
    assert cells[15] == "USER1_SILENT"


def test_csv_round_trip(tmp_path, figure3_small_rows):
    path = tmp_path / "sweep.csv"
    emit_csv(figure3_small_rows, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = line.split(",")
        for name, cell in zip(header, cells):
            if cell == "NA" or name == "regime":
                continue
            assert f"{float(cell):.9g}" == cell


SMALL_CURVES = ("sd_tin", "tdma_tin", "tdma", "ub1", "ub2")


@pytest.fixture(scope="module")
def figure3_small_rows():
    cfg = SweepConfig(h_min=0.0, h_max=1.0, steps=5, h22=0.2, p1=10, p2=10,
                      p3=10, which_curves=SMALL_CURVES)
    return run_sweep(cfg)


def test_small_sweep_sandwich_and_optimizers(figure3_small_rows):
    for row in figure3_small_rows:
        best, tightest = sandwich(row, SMALL_CURVES)
        assert tightest >= best - 1e-9
        assert row.alpha_opt is not None
        assert row.genie_opt is not None and len(row.genie_opt) == 4


def test_emit_csv_io_error(figure3_small_rows, tmp_path):
    with pytest.raises(OSError):
        emit_csv(figure3_small_rows, tmp_path / "missing_dir" / "file.csv")


def test_sweep_determinism_bytes():
    cfg = SweepConfig(h_min=0.1, h_max=0.9, steps=4, h22=0.2, p1=10, p2=10,
                      p3=10, which_curves=("sd_tin", "tdma_tin", "tdma", "ub2"))
    a = render_csv(run_sweep(cfg))
    b = render_csv(run_sweep(cfg))
    assert a == b
