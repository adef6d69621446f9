"""Chain files past the split threshold, at the real threshold and CPU
count: a 200,000 x 10 CSV file of about 40 MB. Tier-1 does not collect
this module, as its name does not match ``test_*.py``; run it by path:
``PYTHONPATH=src python -m pytest -q tests/large_checks.py``."""

import json
import os

import numpy as np
import pytest

from mcoutput import _csvrows, cli
from mcoutput.cli import main

ANALYZE_PIPE = ["-m", "mcoutput.cli", "analyze", "/dev/stdin", "--out"]


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "big.csv"
    x = np.random.default_rng(23).standard_normal((200_000, 10))
    header = ",".join(f"x{i}" for i in range(10))
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header=header, comments="")
    return path


def test_split_read_of_a_bom_and_a_two_line_header(big, tmp_path, monkeypatch):
    header = '\ufeff"x0\nfirst",x1,x2,x3,x4,x5,x6,x7,x8,x9\r\n'
    with open(big, "rb") as src:
        src.readline()
        (tmp_path / "big_head.csv").write_bytes(header.encode() + src.read())

    def refuse(fh, name):
        raise AssertionError(f"the csv parser read {name}")

    procs, launch = [], _csvrows._launch

    def spy(*args):
        child = launch(*args)
        procs.append(child._proc)
        return child

    monkeypatch.setattr(cli, "_csv_chain", refuse)
    monkeypatch.setattr(_csvrows, "_launch", spy)
    chain, headed = map(cli.read_chain_csv, (big, tmp_path / "big_head.csv"))
    assert os.path.getsize(big) >= _csvrows._SPLIT_BYTES
    assert chain.values.shape == (200_000, 10), chain.values.shape
    assert headed.values.tobytes() == chain.values.tobytes()
    assert headed.labels[0] == "x0\nfirst", headed.labels
    # under 64 MiB: two ranges at most, so one child a read on more than one CPU
    assert len(procs) == 2 * (len(os.sched_getaffinity(0)) > 1), procs
    assert all(p.returncode == 0 for p in procs), [p.returncode for p in procs]


def test_large_piped_chain_gives_the_file_s_report(big, tmp_path, fresh_python):
    piped, filed = tmp_path / "piped.json", tmp_path / "filed.json"
    assert main(["analyze", str(big), "--out", str(filed)]) in (0, 2)
    done = fresh_python(*ANALYZE_PIPE, str(piped), stdin_text=big.read_text())
    assert done.returncode in (0, 2), done.stderr
    reports = [json.loads(p.read_text()) for p in (piped, filed)]
    for report in reports:
        del report["input"]["path"]
    assert reports[0] == reports[1], "a large piped chain gives another report"


def test_nan_on_line_200001_from_a_file_and_a_pipe(big, tmp_path, capsys, fresh_python):
    text = big.read_text()
    cut = text.rindex("\n", 0, -1) + 1
    text = text[:cut] + "nan" + text[text.index(",", cut):]
    (tmp_path / "big_nan.csv").write_text(text)
    out = str(tmp_path / "big_nan.json")
    assert main(["analyze", str(tmp_path / "big_nan.csv"), "--out", out]) == 1
    from_file = capsys.readouterr().err
    done = fresh_python(*ANALYZE_PIPE, out, stdin_text=text)
    assert done.returncode == 1
    assert from_file.startswith("error: line 200001: "), from_file
    assert done.stderr == from_file
