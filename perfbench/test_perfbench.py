"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest -q perfbench

The smoke runs use tiny inputs and one op per workload, plain and traced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=None, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    out = bench("--workload", workload, "--seed", 3, "--seconds", 1,
                "--trace", trace, "--smoke", "--work-dir", tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1) * (2 if workload == "demo" else 1)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate = 0 " in out.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = bench("--workload", "stopping", "--seed", 1, "--seconds", 1,
                "--trace", 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_spec_matches_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_self_time_subtracts_direct_children():
    spans = [
        [0, -1, "outer", 0, 100],
        [1, 0, "inner", 10, 40],
        [2, 1, "leaf", 15, 25],
        [3, 0, "inner", 50, 60],
    ]
    times = tracing.span_times(spans)
    assert times["outer"] == (1, pytest.approx(100e-9), pytest.approx(60e-9))
    assert times["inner"] == (2, pytest.approx(40e-9), pytest.approx(30e-9))
    assert times["leaf"] == (1, pytest.approx(10e-9), pytest.approx(10e-9))


def test_import_time_goes_to_the_module_that_pulled_it_in():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       500 |        500 |       scipy.signal",
        "import time:       300 |        800 |     numpy",
        "import time:        20 |        20 |     mcoutput.errors",
        "import time:        40 |       1360 |   mcoutput.chain",
        "import time:         5 |       1365 | mcoutput",
        "import time:        70 |         70 | mcoutput.cli",
    ])
    ms = tracing.import_ms(log)
    assert ms["chain.import_ms"] == pytest.approx(0.84)
    assert ms["errors.import_ms"] == pytest.approx(0.02)
    assert ms["mcoutput.import_ms"] == pytest.approx(0.005)
    assert ms["cli.import_ms"] == pytest.approx(0.07)
    assert ms["mcse.import_ms"] == 0.0
