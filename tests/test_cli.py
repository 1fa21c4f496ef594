import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pimac
from pimac.cli import main

FIGURE = ["--h22", "0.2", "--p1", "10", "--p2", "10", "--p3", "10"]


def _parse_kv(output):
    values = {}
    for line in output.strip().splitlines():
        key, _, value = line.partition("=")
        values[key] = value
    return values


def test_point_prints_all_quantities(capsys):
    rc = main(["point", "--h12", "0.5", "--h22", "0.2", "--h31", "0.5",
               "--p1", "10", "--p2", "10", "--p3", "10"])
    assert rc == 0
    kv = _parse_kv(capsys.readouterr().out)
    for key in ("sd_tin", "tdma_tin", "pc_tin", "tdma", "ub1", "ub2",
                "alpha_opt", "p1_opt", "p2_opt", "p3_opt",
                "rho1", "rho2", "eta1", "eta2", "regime"):
        assert key in kv
    assert float(kv["sd_tin"]) > 0
    assert kv["regime"] == "USER1_SILENT"
    assert float(kv["ub2"]) >= float(kv["pc_tin"]) - 1e-9


def test_point_marks_ub2_unavailable_beyond_regime(capsys):
    rc = main(["point", "--h12", "0.5", "--h22", "0.2", "--h31", "1.5",
               "--p1", "1", "--p2", "1", "--p3", "1"])
    assert rc == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert kv["ub2"] == "NA"


def test_point_and_sweep_with_all_powers_zero(tmp_path, capsys):
    silent = ["--h22", "0.2", "--p1", "0", "--p2", "0", "--p3", "0"]
    assert main(["point", "--h12", "0.5", "--h31", "0.5"] + silent) == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert all(kv[k] == "0" for k in ("sd_tin", "tdma_tin", "pc_tin", "tdma", "ub1", "ub2"))
    out = tmp_path / "silent.csv"
    assert main(["sweep", "--h-min", "0.5", "--h-max", "0.5", "--steps", "1",
                 "--out", str(out)] + silent) == 0
    assert len(out.read_text().splitlines()) == 2


def test_point_with_a_negative_zero_budget(capsys):
    # A budget of -0 is the budget 0: the MAC-optimal share -0.0/10 would
    # otherwise tie with the grid point 0.0 and print as alpha_opt=-0.
    assert main(["point", "--h12", "0.5", "--h22", "0.2", "--h31", "0.5",
                 "--p1", "-0", "--p2", "10", "--p3", "10"]) == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert kv["alpha_opt"] == "0" and "-0" not in kv.values()


def test_point_and_sweep_without_a_finite_genie_bound(tmp_path, capsys):
    # At h12 = h31 = 1e160 every genie point is discarded by the EPS_DET
    # rule: ub1 and its genie point are NA, and the other curves print.
    huge = ["--h12", "1e160", "--h31", "1e160"] + FIGURE
    assert main(["point"] + huge) == 0
    kv = _parse_kv(capsys.readouterr().out)
    assert all(kv[k] == "NA" for k in ("ub1", "rho1", "rho2", "eta1", "eta2"))
    assert (kv["tdma_tin"], kv["pc_tin"], kv["tdma"]) == (
        "1.51276755", "2.19615871", "2.47709816")
    out = tmp_path / "huge.csv"
    assert main(["sweep", "--h-min", "0.5", "--h-max", "1e160", "--steps", "2",
                 "--out", str(out)] + FIGURE) == 0
    assert len(out.read_text().splitlines()) == 3


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    rc = main(["sweep", "--h-min", "0", "--h-max", "1", "--steps", "3",
               "--h22", "0.2", "--p1", "10", "--p2", "10", "--p3", "10",
               "--curves", "sd_tin,tdma,ub2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("h,sd_tin,")


def test_sweep_missing_required_flag_is_config_error(capsys):
    rc = main(["sweep", "--h-min", "0", "--h-max", "1", "--steps", "3",
               "--h22", "0.2", "--p1", "10", "--p2", "10", "--p3", "10"])
    assert rc == 1
    assert "out" in capsys.readouterr().err


def test_sweep_unknown_curve_is_config_error(tmp_path, capsys):
    rc = main(["sweep", "--h-min", "0", "--h-max", "1", "--steps", "3",
               "--h22", "0.2", "--p1", "10", "--p2", "10", "--p3", "10",
               "--curves", "sd_tin,bogus", "--out", "x.csv"])
    assert rc == 1
    assert "unknown curves: ['bogus']" in capsys.readouterr().err
    # A list of no names selects no curve, and writes no all-NA CSV.
    out = tmp_path / "none.csv"
    rc = main(["sweep", "--h-min", "0", "--h-max", "1", "--steps", "3", "--curves", ",",
               "--out", str(out)] + FIGURE)
    assert rc == 1
    assert "no curve selected" in capsys.readouterr().err
    assert not out.exists()
    # Sweeps are deterministic, so sweep has no --seed option.
    rc = main(["sweep", "--h-min", "0", "--h-max", "1", "--steps", "3",
               "--h22", "0.2", "--p1", "10", "--p2", "10", "--p3", "10",
               "--seed", "3", "--out", "x.csv"])
    assert rc == 1


def test_sweep_io_error_exit_code(tmp_path, capsys):
    rc = main(["sweep", "--h-min", "0", "--h-max", "1", "--steps", "2",
               "--h22", "0.2", "--p1", "10", "--p2", "10", "--p3", "10",
               "--curves", "sd_tin", "--out", str(tmp_path / "nodir" / "x.csv")])
    assert rc == 2
    assert "i/o" in capsys.readouterr().err


def test_config_file_provides_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# sweep configuration\n"
        "h-min = 0\n"
        "h-max = 1\n"
        "steps = 3\n"
        "h22 = 0.2\n"
        "p1 = 10\n"
        "p2 = 10\n"
        "p3 = 10\n"
        "curves = sd_tin,tdma\n"
        f"out = {tmp_path / 'from_config.csv'}\n"
    )
    rc = main(["sweep", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "from_config.csv").exists()

    override = tmp_path / "override.csv"
    rc = main(["sweep", "--config", str(cfg), "--steps", "5",
               "--out", str(override)])
    assert rc == 0
    assert len(override.read_text().splitlines()) == 6


def test_config_file_hash_inside_a_value_is_kept(tmp_path, capsys):
    # A '#' starts a comment only at the start of a line or after
    # whitespace: one inside a value is part of it, and an inline comment
    # after whitespace is still cut.
    out = tmp_path / "run#1.csv"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "  # indented full-line comment\n"
        "h-min = 0\nh-max = 1\n"
        "steps = 3  # rows\n"
        "h22 = 0.2\t# tab before the comment\n"
        "p1 = 10\np2 = 10\np3 = 10\ncurves = sd_tin\n"
        f"out = {out}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == f"wrote {out} (3 rows)\n"
    assert [f.name for f in tmp_path.iterdir() if f.suffix == ".csv"] == ["run#1.csv"]
    assert len(out.read_text().splitlines()) == 4


def test_config_file_with_a_byte_order_mark(tmp_path, capsys):
    # Some editors (Notepad among them) start a UTF-8 file with a byte-order
    # mark; it is not part of the first key.
    out = tmp_path / "bom.csv"
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("h_min = 0\nh_max = 1\nsteps = 3\nh22 = 0.2\np1 = 10\np2 = 10\n"
                   f"p3 = 10\ncurves = sd_tin\nout = {out}\n", encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbfh_min")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == f"wrote {out} (3 rows)\n"


def test_config_file_repeated_key_is_config_error(tmp_path, capsys):
    # Keys are normalised, so "steps" and "STEPS", or "h-min" and "h_min",
    # are one key: a second line for it is an error that names both lines.
    out = tmp_path / "x.csv"
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("h-min = 0\nh-max = 1\nsteps = 3\nh22 = 0.2\np1 = 10\np2 = 10\n"
                   f"p3 = 10\nSTEPS = 5\nout = {out}\n")
    assert main(["sweep", "--config", str(cfg), "--steps", "4"]) == 1
    assert capsys.readouterr().err == (
        f"pimac: error: {cfg}:8: key 'steps' already set on line 3\n")
    cfg.write_text("h_min = 0\n# h-min = 1\nh-min = 0\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert f"{cfg}:3: key 'h_min' already set on line 1" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("h-min = 0\nwhatever = 1\n")
    rc = main(["sweep", "--config", str(cfg)])
    assert rc == 1
    assert "unknown config" in capsys.readouterr().err


def test_config_file_line_without_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("h-min = 0\nh-max 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err


def test_missing_config_file_is_io_error(capsys):
    rc = main(["sweep", "--config", "/nonexistent/path.cfg"])
    assert rc == 2


# Frozen stdout of ``pimac validate --seed 7 --samples 20000``.
VALIDATE_GOLDEN = (
    "generator=numpy PCG64 (numpy.random.default_rng)\nseed=7\nsamples=20000\n"
    "mac_rx1: analytic=1.80355946 sampled=1.8114301 gap=0.00787\n"
    "p2p_rx2: analytic=1.30014708 sampled=1.31115818 gap=0.011\n"
    "max_gap=0.011\nsample_min_eigenvalue=0.227\n")


def test_validate_reports_gaps(capsys):
    rc = main(["validate", "--seed", "7", "--samples", "20000"])
    assert rc == 0
    assert capsys.readouterr().out == VALIDATE_GOLDEN


def test_domain_error_exit_code(capsys):
    rc = main(["point", "--h12", "0.5", "--h22", "0.2", "--h31", "0.5",
               "--p1", "-1", "--p2", "10", "--p3", "10"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-.5e-1"])
def test_negative_value_in_exponent_form(value, capsys):
    # argparse alone reads these tokens as options ("expected one argument"):
    # after a flag they are its value, as in the "--flag=value" form.
    rest = ["--h22", "0.2", "--h31", "0.5", "--p1", "10", "--p2", "10", "--p3", "10"]
    assert main(["point", f"--h12={value}"] + rest) == 0
    joined = capsys.readouterr().out
    assert main(["point", "--h12", value] + rest) == 0
    assert capsys.readouterr().out == joined != ""


def test_negative_infinity_reaches_the_library_check(tmp_path, capsys):
    assert main(["point", "--h12", "-inf", "--h31", "0.5"] + FIGURE) == 1
    assert "h12 must be a finite real, got -inf" in capsys.readouterr().err
    assert main(["sweep", "--h-min", "-inf", "--h-max", "1", "--steps", "2",
                 "--out", str(tmp_path / "x.csv")] + FIGURE) == 1
    assert "h_min and h_max must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_validate_rejects_fewer_than_8_samples(capsys):
    rc = main(["validate", "--samples", "7"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_samples must be an integer in [8, 2**63], got 7" in captured.err


def test_validate_rejects_more_than_2_63_samples(capsys):
    # A count whose chi-square degrees of freedom overflow int64 is a domain
    # error (exit 1), not numpy's OverflowError escaping main.
    assert main(["validate", "--samples", str(2 ** 63 + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"got {2 ** 63 + 1}" in captured.err


def test_sweep_rejects_more_than_a_million_steps(tmp_path, capsys):
    # A row count beyond the limit is a domain error (exit 1) before any
    # gain is allocated, not numpy's bare "Maximum allowed size exceeded".
    steps = "100000000000000000000000"
    assert main(["sweep", "--h-min", "0", "--h-max", "1", "--steps", steps] + FIGURE
                + ["--out", str(tmp_path / "x.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pimac: error: steps must be an integer in [1, 10**6], got {steps}\n"
    assert not (tmp_path / "x.csv").exists()


# Frozen stdout of ``pimac point``: every digit and every line is pinned.
POINT_GOLDEN = [
    (["--h12", "0.2", "--h31", "0.2"] + FIGURE,
     "sd_tin=3.32341506\ntdma_tin=3.32341506\npc_tin=3.32341506\n"
     "tdma=2.47709816\nub1=3.32341506\nub2=3.69677184\nalpha_opt=0.5\n"
     "p1_opt=10\np2_opt=10\np3_opt=10\nrho1=0.302397251\nrho2=0.377682686\n"
     "eta1=0.925934343\neta2=0.953181105\nregime=FULL_POWER\n"),
    (["--h12", "0.5", "--h22", "0.2", "--h31", "1.5", "--p1", "1", "--p2", "1",
      "--p3", "1"],
     "sd_tin=0.759927119\ntdma_tin=0.768450114\npc_tin=0.79248125\ntdma=1\n"
     "ub1=1.36235699\nub2=NA\nalpha_opt=0.389016241\np1_opt=1\np2_opt=1\n"
     "p3_opt=0\nrho1=0.15879488\nrho2=0.464915752\neta1=0.885354925\n"
     "eta2=0.987311595\nregime=USER3_SILENT\n"),
    (["--h12", "-0.7", "--h22", "1.3", "--h31", "0.4", "--p1", "0", "--p2", "3",
      "--p3", "5"],
     "sd_tin=1.14096215\ntdma_tin=1.38315791\npc_tin=1.29248125\n"
     "tdma=1.5849625\nub1=2.0705322\nub2=2\nalpha_opt=0.839504421\n"
     "p1_opt=0\np2_opt=0\np3_opt=5\nrho1=0.396782875\nrho2=0.161100388\n"
     "eta1=0.986938025\neta2=0.917912496\nregime=OTHER\n"),
]


@pytest.mark.parametrize("flags,expected", POINT_GOLDEN)
def test_point_stdout_is_frozen(flags, expected, capsys):
    assert main(["point"] + flags) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("h", ["0", "0.5", "1.0", "1.2"])
def test_point_prints_the_sweep_row(h, tmp_path, capsys):
    out = tmp_path / "row.csv"
    assert main(["sweep", "--h-min", h, "--h-max", h, "--steps", "1",
                 "--out", str(out)] + FIGURE) == 0
    header, row = out.read_text().splitlines()
    expected = dict(zip(header.split(",")[1:], row.split(",")[1:]))
    capsys.readouterr()
    assert main(["point", "--h12", h, "--h31", h] + FIGURE) == 0
    assert _parse_kv(capsys.readouterr().out) == expected
    assert (expected["ub2"] == "NA") == (h == "1.2")


def test_point_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("h12 = 0.2\nh22 = 0.2\nh31 = 0.5\np1 = 10\np2 = 10\np3 = 10\n")
    assert main(["point", "--config", str(cfg), "--h31", "0.2"]) == 0
    assert capsys.readouterr().out == POINT_GOLDEN[0][1]


def test_validate_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "validate.cfg"
    cfg.write_text("seed = 7\nsamples = 20000\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert main(["validate", "--seed", "7", "--samples", "20000"]) == 0
    assert from_file == capsys.readouterr().out
    assert main(["validate", "--config", str(cfg), "--seed", "1"]) == 0
    overridden = capsys.readouterr().out
    assert "seed=1\n" in overridden and "samples=20000\n" in overridden


def test_sweep_config_bad_value_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("h-min = 0\nh-max = 1\nsteps = three\nh22 = 0.2\np1 = 10\n"
                   f"p2 = 10\np3 = 10\nout = {tmp_path / 'x.csv'}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "bad config value for steps" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command,flags", [
    ("sweep", ["--h-min", "--h-max", "--steps", "--h22", "--p1", "--p2", "--p3",
               "--curves", "--out", "--config"]),
    ("point", ["--h12", "--h22", "--h31", "--p1", "--p2", "--p3", "--config"]),
    ("validate", ["--seed", "--samples", "--config"]),
])
def test_subcommand_flags_in_order(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("options:")[0]
    assert re.findall(r"--[a-z0-9-]+", usage) == flags


def test_module_entry_point_runs_the_benchmark_commands(tmp_path):
    """The three ``python -m pimac`` commands the benchmark times exit 0."""
    # The subprocess imports the package that this test imported: src/ of
    # the checkout, or the installed copy.
    env = dict(os.environ, PYTHONPATH=str(Path(pimac.__file__).resolve().parents[1]))
    commands = [
        ["point", "--h12", "0.2", "--h31", "0.2"] + FIGURE,
        ["sweep", "--h-min", "0", "--h-max", "1", "--steps", "5",
         "--out", str(tmp_path / "cli_sweep.csv")] + FIGURE,
        ["validate", "--seed", "1", "--samples", "20000"],
    ]
    for command in commands:
        proc = subprocess.run([sys.executable, "-m", "pimac"] + command, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (command, proc.stderr)
    assert len((tmp_path / "cli_sweep.csv").read_text().splitlines()) == 6
