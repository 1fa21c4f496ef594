from pimac.cli import main


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


def test_sweep_unknown_curve_is_config_error(capsys):
    rc = main(["sweep", "--h-min", "0", "--h-max", "1", "--steps", "3",
               "--h22", "0.2", "--p1", "10", "--p2", "10", "--p3", "10",
               "--curves", "sd_tin,bogus", "--out", "x.csv"])
    assert rc == 1
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


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("h-min = 0\nwhatever = 1\n")
    rc = main(["sweep", "--config", str(cfg)])
    assert rc == 1
    assert "unknown config" in capsys.readouterr().err


def test_missing_config_file_is_io_error(capsys):
    rc = main(["sweep", "--config", "/nonexistent/path.cfg"])
    assert rc == 2


def test_validate_reports_gaps(capsys):
    rc = main(["validate", "--seed", "7", "--samples", "20000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "generator=numpy PCG64" in out
    assert "mac_rx1" in out and "p2p_rx2" in out
    assert "max_gap=" in out


def test_domain_error_exit_code(capsys):
    rc = main(["point", "--h12", "0.5", "--h22", "0.2", "--h31", "0.5",
               "--p1", "-1", "--p2", "10", "--p3", "10"])
    assert rc == 1
    assert "error" in capsys.readouterr().err
