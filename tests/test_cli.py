from brandsim import cli

TINY = "N = 2\nK = 6\nM = 2\nmode = equality\nseed = 5\nmax_sweeps = 20\n"


def write_config(tmp_path, text):
    path = tmp_path / "sim.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_writes_timeseries(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", write_config(tmp_path, TINY), "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = (out / "timeseries.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,fluctuation,share_0,share_1,dominant"
    assert len(lines) >= 2
    assert "sweeps=" in capsys.readouterr().out


def test_run_rejects_infinite_shop_rate(tmp_path, capsys):
    path = write_config(tmp_path, TINY + "shop_teach_rate = inf\n")
    code = cli.main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "shop_teach_rate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "sim.cfg"
    path.write_bytes(TINY.encode("utf-8") + b"# \xff\n")
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
