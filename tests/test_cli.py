import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandsim import cli, emit_summary, ensemble, load_config
from brandsim.harness import _SWEEPABLE

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


def test_sweep_writes_one_summary_per_value(tmp_path, capsys):
    path = write_config(tmp_path, TINY)
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", path, "--param", "p_copy",
                     "--values", "0.5,1", "--out", str(out)])
    assert code == cli.EXIT_OK
    for i, value in enumerate([0.5, 1.0]):
        expected = io.StringIO()
        emit_summary(ensemble(dataclasses.replace(load_config(path), p_copy=value), 1),
                     expected)
        written = (out / f"sweep_p_copy_{i}.txt").read_bytes()
        assert written == expected.getvalue().encode("utf-8")
    assert "wrote 2 summaries" in capsys.readouterr().out


def test_sweep_parallel_writes_the_serial_bytes(tmp_path):
    path = write_config(tmp_path, TINY)
    written = []
    for parallel in ("1", "2"):
        out = tmp_path / f"p{parallel}"
        code = cli.main(["sweep", "--config", path, "--param", "p_copy", "--values", "0.5,1",
                         "--runs", "3", "--parallel", parallel, "--out", str(out)])
        assert code == cli.EXIT_OK
        written.append([(out / f"sweep_p_copy_{i}.txt").read_bytes() for i in range(2)])
    assert written[0] == written[1]


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


def test_run_rejects_oversized_shop_rate(tmp_path, capsys):
    path = write_config(tmp_path, TINY + "shop_teach_rate = 1e30\n")
    code = cli.main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "shop_teach_rate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_shop_count_beyond_float_range(tmp_path, capsys):
    text = TINY + "shop_teach_rate = 1\nshop_counts = 1, " + "9" * 400 + "\n"
    code = cli.main(["run", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "shop_counts" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    def no_memory(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "run", no_memory)
    code = cli.main(["run", "--config", write_config(tmp_path, TINY),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "more memory than is available" in capsys.readouterr().err


def test_run_accepts_huge_shop_count_at_rate_zero(tmp_path):
    # at rate 0 no shop event is drawn, so any count is valid
    text = TINY + "shop_counts = 1, " + str(10**85) + "\n"
    out = tmp_path / "out"
    code = cli.main(["run", "--config", write_config(tmp_path, text), "--out", str(out)])
    assert code == cli.EXIT_OK
    assert (out / "timeseries.csv").is_file()


@pytest.mark.parametrize("key", ["N", "K", "M"])
def test_run_rejects_size_beyond_index_range(tmp_path, capsys, key):
    lines = [f"{key} = {10**30}" if line.split(" =")[0] == key else line
             for line in TINY.splitlines()]
    code = cli.main(["run", "--config", write_config(tmp_path, "\n".join(lines)),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "tiny.cfg").write_text(TINY, encoding="utf-8")
    (root / "garbage.cfg").write_bytes(b"K = many\n\xff = =\nmode\n")
    return root


# no decimal digit, so a junk token never becomes a size, and no dash, so it never
# names a flag whose value could leave the test's directory; an OS argv holds no NUL
_junk = st.text(st.characters(blacklist_categories=("Cs", "Nd"), blacklist_characters="\x00-"),
                max_size=6)

_FLAGS = {
    "run": ("--config", "--seed", "--out"),
    "ensemble": ("--config", "--runs", "--seed", "--out", "--parallel"),
    "sweep": ("--config", "--param", "--values", "--runs", "--out", "--parallel"),
}


def argvs(root):
    """Real subcommands and flags with small values, mixed with junk tokens
    and flags of other subcommands.  Every output path lies under ``root``, and
    ``--parallel`` stays at most 1, so no process pool starts."""
    values = {
        "--config": st.sampled_from([str(root / name) for name in
                                     ("tiny.cfg", "garbage.cfg", "missing.cfg")] + [str(root)]),
        "--runs": st.sampled_from(["1", "2", "3", "0", "-1", "x"]),
        "--parallel": st.sampled_from(["1", "0", "-1", "x"]),
        "--seed": st.sampled_from(["0", "7", "-1", str(2**64), "x"]),
        "--param": st.sampled_from(_SWEEPABLE + ("epsilon", "mode")),
        "--values": st.sampled_from(["4,6", "0.5,1", "4.5", "2", "1", "0", "", "x", "1,,"]),
        "--out": st.sampled_from([str(root / "out"), str(root / "tiny.cfg")]),
    }

    def options(flags):
        return st.sampled_from(flags).flatmap(
            lambda flag: values[flag].map(lambda value: [flag, value]))

    stray = (options(sorted(values)) | st.sampled_from(["-h", "--help", "--bogus", "--"])
             .map(lambda t: [t]) | _junk.map(lambda t: [t]))

    def tokens(command):
        # one token group in ten is stray, so most lists get past the parser
        group = st.integers(0, 9).flatmap(
            lambda i: stray if i == 0 else options(_FLAGS.get(command, ("--config",))))
        # the first --out keeps the default (the working directory) out of reach
        return st.lists(group, max_size=8).map(lambda groups: [
            command, "--out", str(root / "out")] + [token for g in groups for token in g])

    command = st.integers(0, 9).flatmap(
        lambda i: _junk if i == 0 else st.sampled_from(sorted(_FLAGS)))
    return command.flatmap(tokens)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_2_or_3(fuzz_dir, data):
    argv = data.draw(argvs(fuzz_dir))
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO)
