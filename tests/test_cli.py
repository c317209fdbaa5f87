import argparse
import dataclasses
import io
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

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


def subcommands():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


_OPTIONS = {  # option: (required, default, type)
    "run": {"--config": (True, None, None), "--seed": (False, None, int),
            "--out": (False, ".", None)},
    "ensemble": {"--config": (True, None, None), "--seed": (False, None, int),
                 "--out": (False, ".", None), "--runs": (True, None, int),
                 "--parallel": (False, 1, int)},
    "sweep": {"--config": (True, None, None), "--out": (False, ".", None),
              "--param": (True, None, None), "--values": (True, None, None),
              "--runs": (False, 1, int), "--parallel": (False, 1, int)},
}


def test_subcommand_options():
    parsers = subcommands()
    assert sorted(parsers) == sorted(_OPTIONS)
    for name, parser in parsers.items():
        options = {a.option_strings[0]: (a.required, a.default, a.type)
                   for a in parser._actions if a.dest != "help"}
        assert options == _OPTIONS[name], name
        assert all(len(a.option_strings) == 1 for a in parser._actions if a.dest != "help")


@pytest.mark.parametrize("argv, stdout, files", [
    (["run"], "sweeps=20\nconverged_at=\nfluctuation=0.12779867861011493\ndominant=0\n"
     "wrote {out}/timeseries.csv\n", ["timeseries.csv"]),
    (["ensemble", "--runs", "2", "--seed", "9"],
     "runs=2\nconsensus_fraction=0\nmean_sweeps_to_consensus=\ndominant_hist_0=0\n"
     "dominant_hist_1=0\nwrote {out}/summary.txt\n", ["summary.txt"]),
    (["sweep", "--param", "p_copy", "--values", "0.5,1", "--runs", "2"],
     "p_copy=0.5 consensus_fraction=0 mean_sweeps_to_consensus=\n"
     "p_copy=1.0 consensus_fraction=0 mean_sweeps_to_consensus=\n"
     "wrote 2 summaries to {out}\n", ["sweep_p_copy_0.txt", "sweep_p_copy_1.txt"]),
    # no value at all still creates --out
    (["sweep", "--param", "p_copy", "--values", " "], "wrote 0 summaries to {out}\n", []),
    (["sweep", "--param", "p_copy", "--values", ","], "wrote 0 summaries to {out}\n", []),
], ids=["run", "ensemble", "sweep", "sweep_no_values", "sweep_empty_entries"])
def test_stdout_and_files(tmp_path, capsys, argv, stdout, files):
    out = tmp_path / "out"
    code = cli.main(argv + ["--config", write_config(tmp_path, TINY), "--out", str(out)])
    assert code == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == stdout.format(out=out)
    assert captured.err == ""
    assert sorted(p.name for p in out.iterdir()) == files


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


def test_runtime_needs_no_scipy(tmp_path):
    path = write_config(tmp_path, TINY)
    src = str(Path(cli.__file__).resolve().parents[1])
    block = tmp_path / "block"
    block.mkdir()
    # every interpreter that has this on its path, pool workers included, fails to import scipy
    (block / "sitecustomize.py").write_text("import sys\nsys.modules['scipy'] = None\n")
    argvs = {"run": ["run", "--config", path],
             "ensemble": ["ensemble", "--config", path, "--runs", "2", "--parallel", "2"]}
    script = ("import sys\nfrom brandsim import cli\n"
              f"sys.exit(max(cli.main(a + ['--out', n]) for n, a in {argvs!r}.items()))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(block), src]))
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    done = subprocess.run([sys.executable, "-c", script], cwd=blocked, env=env,
                          capture_output=True, text=True)
    assert done.returncode == cli.EXIT_OK, done.stderr
    for name, argv in argvs.items():
        out = tmp_path / "free" / name
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(p.name for p in (blocked / name).iterdir())
        for f in written:
            assert (blocked / name / f).read_bytes() == (out / f).read_bytes()
    # unblocked, importing the CLI loads no scipy module at all
    probe = "import sys, brandsim.cli; print('scipy' in {m.partition('.')[0] for m in sys.modules})"
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("command, outfile", [
    (["run"], "timeseries.csv"),
    (["ensemble", "--runs", "2"], "summary.txt"),
])
def test_seed_flag_overrides_the_file(tmp_path, command, outfile):
    # long enough that both seeds' runs converge, so their outputs differ
    text = TINY.replace("max_sweeps = 20", "max_sweeps = 500")
    seed5 = write_config(tmp_path, text)
    seed9 = tmp_path / "seed9.cfg"
    seed9.write_text(text.replace("seed = 5", "seed = 9"), encoding="utf-8")
    assert cli.main(command + ["--config", seed5, "--seed", "9",
                               "--out", str(tmp_path / "flag")]) == cli.EXIT_OK
    assert cli.main(command + ["--config", str(seed9),
                               "--out", str(tmp_path / "file")]) == cli.EXIT_OK
    flag = (tmp_path / "flag" / outfile).read_bytes()
    assert flag == (tmp_path / "file" / outfile).read_bytes()
    # the override is not a no-op: the file's own seed gives other bytes
    assert cli.main(command + ["--config", seed5, "--out", str(tmp_path / "own")]) == cli.EXIT_OK
    assert flag != (tmp_path / "own" / outfile).read_bytes()


@pytest.mark.parametrize("case", ["missing_config", "config_is_a_directory", "out_below_a_file"])
def test_io_errors_exit_3(tmp_path, capsys, case):
    config, out = write_config(tmp_path, TINY), tmp_path / "out"
    if case == "missing_config":
        config = str(tmp_path / "absent.cfg")
    elif case == "config_is_a_directory":
        config = str(tmp_path)
    else:
        (tmp_path / "file").write_text("x", encoding="utf-8")
        out = tmp_path / "file" / "out"
    code = cli.main(["run", "--config", config, "--out", str(out)])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error:")


def _tiny_with(**keys):
    """TINY with each of ``keys`` set, or added, as config-file bytes."""
    lines = [line for line in TINY.splitlines() if line.split(" =")[0] not in keys]
    return "\n".join(lines + [f"{key} = {value}" for key, value in keys.items()]).encode()


@pytest.mark.parametrize("content, expected", [
    (_tiny_with(shop_teach_rate="inf"), "shop_teach_rate"),
    (_tiny_with(shop_teach_rate="1e30"), "shop_teach_rate"),
    (TINY.encode("utf-8") + b"# \xff\n", "sim.cfg: not UTF-8 text"),
    (_tiny_with(shop_teach_rate=1, shop_counts="1, " + "9" * 400), "shop_counts"),
    (_tiny_with(N=10**30), "N"),
    (_tiny_with(K=10**30), "K"),
    (_tiny_with(M=10**30), "M"),
    # either array has few enough cells for an index but too many bytes for numpy
    (_tiny_with(N=2, K=2**60, M=1), "K"),
    (_tiny_with(N=1, K=6, M=1, shop_counts=2**60, shop_teach_rate=1), "shop_counts"),
], ids=["infinite_shop_rate", "oversized_shop_rate", "non_utf8", "shop_count_beyond_float_range",
        "N_beyond_index_range", "K_beyond_index_range", "M_beyond_index_range",
        "cells_beyond_numpy_byte_limit", "shop_events_beyond_numpy_byte_limit"])
def test_run_rejects_config(tmp_path, capsys, content, expected):
    path = tmp_path / "sim.cfg"
    path.write_bytes(content)
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    def no_memory(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "run", no_memory)
    code = cli.main(["run", "--config", write_config(tmp_path, TINY),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "more memory than is available" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv", [
    ("ensemble", ["ensemble", "--runs", "2"]),
    ("sweep_param", ["sweep", "--param", "p_copy", "--values", "1"]),
])
def test_dead_worker_is_a_config_error(tmp_path, capsys, monkeypatch, name, argv):
    def dead_worker(*args, **kwargs):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.setattr(cli, name, dead_worker)
    code = cli.main(argv + ["--config", write_config(tmp_path, TINY), "--parallel", "2",
                            "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "worker process died" in err


def test_run_accepts_huge_shop_count_at_rate_zero(tmp_path):
    # at rate 0 no shop event is drawn, so any count is valid
    text = TINY + "shop_counts = 1, " + str(10**85) + "\n"
    out = tmp_path / "out"
    code = cli.main(["run", "--config", write_config(tmp_path, text), "--out", str(out)])
    assert code == cli.EXIT_OK
    assert (out / "timeseries.csv").is_file()


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
