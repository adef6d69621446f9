"""``mcoutput demo`` with its per-draw bodies appended by ``_csvtext``'s
child: the bytes that ``cli._write_csv`` writes in process from the same
tables, and the same files as when the child declines, for each way it can
decline, the child reaped before the files are rewritten in process,
nothing from the child on stderr, and no child left running on any path.
``tests/test_csvtext_property.py`` checks the bodies on drawn rows."""

import json
import subprocess

import pytest

from mcoutput import _csvtext, cli
from mcoutput.cli import main

DEMO = ["demo", "--epsilon", "0.3", "--max-n", "2000"]
PER_DRAW = ("demo_chain.csv", "demo_params.csv")


@pytest.fixture()
def children(monkeypatch):
    """Every DrawTables the demo starts, or None where none can start."""
    started = []
    init = _csvtext.DrawTables.__init__

    def recorded(self):
        started.append(None)
        init(self)
        started[-1] = self

    monkeypatch.setattr(_csvtext.DrawTables, "__init__", recorded)
    return started


@pytest.fixture()
def written(monkeypatch, children):
    """The names of the tables written in process, each with the return
    codes that the started children had then: None for one still running."""
    names = {}
    write = cli._write_csv

    def recorded(path, *table):
        names[path.name] = [draws._proc.returncode for draws in children if draws]
        return write(path, *table)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    return names


@pytest.fixture(scope="module")
def child_demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("child")
    assert main([*DEMO, "--out-dir", str(out)]) == 0
    return out


def _refuse_popen(monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("no process can start")

    monkeypatch.setattr(subprocess, "Popen", refuse)


def _wrap_send(monkeypatch, act):
    """Call ``act(draws, send, call, functionals, params)`` in place of each
    send, where ``send`` is the unwrapped method and ``call`` counts from 1."""
    send = _csvtext.DrawTables.send
    calls = []

    def wrapped(self, functionals, params):
        calls.append(None)
        act(self, send, len(calls), functionals, params)

    monkeypatch.setattr(_csvtext.DrawTables, "send", wrapped)


def _kill_after_first_run(monkeypatch):
    def act(draws, send, call, functionals, params):
        send(draws, functionals, params)
        if call == 1:
            draws._proc.kill()
            draws._proc.wait()

    _wrap_send(monkeypatch, act)


def _drop_the_second_run(monkeypatch):
    def act(draws, send, call, functionals, params):
        if call != 2:
            send(draws, functionals, params)

    _wrap_send(monkeypatch, act)


def _cut_the_second_run_short(monkeypatch):
    """The child reads a run's count with no rows after it, and exits 1."""
    def act(draws, send, call, functionals, params):
        if call == 2:
            draws._proc.stdin.write(_csvtext._RUN.pack(len(functionals)))
            draws._proc.stdin.flush()
        else:
            send(draws, functionals, params)

    _wrap_send(monkeypatch, act)


def _append_to_a_missing_directory(monkeypatch):
    """The child formats every row and appends the chain body, then cannot
    open the params file, and exits without a reply."""
    finish = _csvtext.DrawTables.finish

    def missing(self, paths, rows):
        *paths, last = paths
        finish(self, [*paths, last.parent / "missing" / last.name], rows)

    monkeypatch.setattr(_csvtext.DrawTables, "finish", missing)


def _exit_non_zero_after_the_reply(monkeypatch):
    """The child appends every body and replies in full, then exits 3."""
    monkeypatch.setattr(_csvtext, "_CHILD", _csvtext._CHILD + "; sys.exit(3)")


DECLINES = {
    "popen-refused": _refuse_popen,
    "killed-mid-run": _kill_after_first_run,
    "row-count-differs": _drop_the_second_run,
    "child-exits-non-zero": _cut_the_second_run_short,
    "append-fails": _append_to_a_missing_directory,
    "exits-after-reply": _exit_non_zero_after_the_reply,
}


def _same_files(one, two):
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_the_child_writes_the_per_draw_files(
    child_demo, children, written, monkeypatch, tmp_path, capfd
):
    """The child's files hold the bytes that ``cli._write_csv`` writes in
    process from the same tables."""
    tables = {}
    append = cli._append_bodies

    def recorded(draws, out_dir, per_draw, rows):
        tables.update(per_draw)
        return append(draws, out_dir, per_draw, rows)

    monkeypatch.setattr(cli, "_append_bodies", recorded)
    out = tmp_path / "child"
    assert main([*DEMO, "--out-dir", str(out)]) == 0
    assert not set(written) & set(PER_DRAW)
    assert len(written) == 8
    assert [draws._proc.returncode for draws in children] == [0]
    assert capfd.readouterr().err == ""
    assert sorted(tables) == sorted(PER_DRAW)
    in_process = tmp_path / "in-process"
    in_process.mkdir()
    for name, table in tables.items():
        cli._write_csv(in_process / name, *table)
        assert (out / name).read_bytes() == (in_process / name).read_bytes(), name
    _same_files(child_demo, out)
    report = json.loads((out / "demo_report.json").read_text())
    assert set(PER_DRAW) <= set(report["files"].values())


@pytest.mark.parametrize("decline", list(DECLINES))
def test_a_decline_writes_the_same_files_in_process(
    child_demo, children, written, monkeypatch, tmp_path, capfd, decline
):
    DECLINES[decline](monkeypatch)
    assert main([*DEMO, "--out-dir", str(tmp_path)]) == 0
    assert set(PER_DRAW) <= set(written)
    assert None not in written[PER_DRAW[0]]  # reaped before the rewrite
    assert capfd.readouterr().err == ""
    _same_files(child_demo, tmp_path)
    if decline == "popen-refused":
        assert children == [None]
    else:
        (draws,) = children
        assert draws._proc.returncode is not None
        assert draws._proc.stdin.closed and draws._proc.stdout.closed


@pytest.mark.parametrize("decline", [None, "popen-refused", "append-fails"])
def test_the_directory_holds_the_report_s_files(monkeypatch, tmp_path, decline):
    """The report names every file the demo writes but itself, from the child
    and from a decline, and no trace file copies the params."""
    if decline:
        DECLINES[decline](monkeypatch)
    assert main([*DEMO, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "demo_report.json").read_text())
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted([*report["files"].values(), "demo_report.json"])
    assert len(names) == 11
    assert not list(tmp_path.glob("demo_trace_*"))


def test_no_child_outlives_a_run_that_raises(children, tmp_path, capfd):
    """run_demo refuses --max-n 50 after the child has started."""
    out = tmp_path / "out"
    assert main(["demo", "--max-n", "50", "--out-dir", str(out)]) == 1
    (draws,) = children
    assert draws._proc.returncode is not None
    assert capfd.readouterr().err.startswith("error: max_n must be >= 51")
    assert not out.exists()


def test_no_child_starts_before_the_usage_checks(children, tmp_path):
    assert main(["demo", "--grid-points", "1", "--out-dir", str(tmp_path)]) == 1
    assert main(["demo", "--alpha", "2e-16", "--out-dir", str(tmp_path)]) == 1
    assert children == []


def test_child_module_loads_only_the_standard_library(fresh_python):
    """The child runs the module from its file under -S; ``subprocess`` is
    imported only when a child starts."""
    code = (
        "import runpy, sys\n"
        f"runpy.run_path({_csvtext.__file__!r})\n"
        "print(sorted(m for m in ('mcoutput', 'numpy', 'scipy', 'subprocess')"
        " if m in sys.modules))"
    )
    out = fresh_python("-S", "-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
