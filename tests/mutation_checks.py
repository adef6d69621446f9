"""Recorded mutation checks: each entry changes one exact text of
``src/mcoutput`` in a copy of the package, and the tests it names must
catch that change. Tier-1 does not collect this module, as its name does
not match ``test_*.py``; run it by path:
``PYTHONPATH=src python -m pytest -q tests/mutation_checks.py``.

Each entry runs its tests in a child, ``python -m pytest -q -x -p
no:cacheprovider``, with the mutated copy first on ``PYTHONPATH``. The
entry passes only where that child exits 1 (tests failed). Exit 0 means
the mutant survived, and exits 2-5 are a usage or collection error, so a
mistyped node id cannot pass as caught. The control case runs every named
test on an unmutated copy, where they must pass. An old text that does not
occur exactly once fails its entry: a change that moves the guarded code
updates or retires the entry.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import mcoutput

PACKAGE = Path(mcoutput.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    id: str
    file: str  # under src/mcoutput
    old: str  # must occur exactly once
    new: str
    tests: tuple  # node ids, relative to the repository root


DECLINE = "tests/test_csvtext.py::test_a_decline_writes_the_same_files_in_process"

MUTATIONS = [
    # the demo's per-draw bodies, formatted and appended by _csvtext's child
    Mutation(
        "params-body-from-the-functional-rows", "_csvtext.py",
        "(values[: 2 * k], values[2 * k :])", "(values[: 2 * k], values[: 2 * k])",
        ("tests/test_csvtext_property.py::test_bodies_are_the_writer_s_bytes",),
    ),
    Mutation(
        "no-row-count-check", "_csvtext.py",
        "if count != rows:", "if False:",
        (f"{DECLINE}[row-count-differs]",),
    ),
    Mutation(
        "no-wait-after-the-reply", "_csvtext.py",
        "        self.wait()\n", "",
        (f"{DECLINE}[exits-after-reply]",),
    ),
    Mutation(
        "child-truncates-the-header", "_csvtext.py",
        'open(path, "ab")', 'open(path, "wb")',
        (
            "tests/test_csvtext.py::test_the_child_writes_the_per_draw_files",
            f"{DECLINE}[killed-mid-run]",
        ),
    ),
    # cmd_demo's fallback and its reaping
    Mutation(
        "no-reap-before-the-fallback", "cli.py",
        "                draws.close()\n", "                pass\n",
        (f"{DECLINE}[row-count-differs]", f"{DECLINE}[append-fails]"),
    ),
    Mutation(
        "no-close-in-cmd-demo", "cli.py",
        "    finally:\n        if draws:\n            draws.close()\n",
        "    finally:\n        pass\n",
        ("tests/test_csvtext.py::test_no_child_outlives_a_run_that_raises",),
    ),
    # the sampler hook
    Mutation(
        "writable-draw-views", "lcd_demo.py",
        "np.asarray(memoryview(a).toreadonly())", "np.asarray(memoryview(a))",
        ("tests/test_lcd_demo.py::test_on_draws_views_are_read_only",),
    ),
    # Child, the one launcher of the split read's and the demo's children
    Mutation(
        "read-takes-a-short-reply", "_csvtext.py",
        "        if len(data) < size:\n", "        if False:\n",
        (
            f"{DECLINE}[append-fails]",
            "tests/test_csv_split.py::"
            "test_child_that_fails_sends_the_file_to_the_csv_parser[short]",
        ),
    ),
    Mutation(
        "readinto-takes-a-short-reply", "_csvtext.py",
        "readinto(buf) < memoryview(buf).nbytes:", "readinto(buf) < 0:",
        (
            "tests/test_csv_split.py::"
            "test_child_that_fails_sends_the_file_to_the_csv_parser[short]",
        ),
    ),
    Mutation(
        "wait-ignores-the-exit-status", "_csvtext.py",
        "if status := self._proc.wait():", "if (status := self._proc.wait()) and 0:",
        (
            f"{DECLINE}[exits-after-reply]",
            "tests/test_csv_split.py::"
            "test_child_that_fails_sends_the_file_to_the_csv_parser[exit-status]",
        ),
    ),
    Mutation(
        "start-error-not-a-decline", "_csvtext.py",
        'raise ValueError(f"cannot start a child: {exc}") from None', "raise",
        (
            f"{DECLINE}[popen-refused]",
            "tests/test_csv_split.py::"
            "test_child_that_cannot_start_sends_the_file_to_the_csv_parser",
        ),
    ),
    Mutation(
        "close-neither-kills-nor-reaps", "_csvtext.py",
        "        self._proc.kill()\n        self._proc.wait()\n", "",
        ("tests/test_csvtext.py::test_no_child_outlives_a_run_that_raises",),
    ),
    Mutation(
        "close-leaves-the-pipes-open", "_csvtext.py",
        "for pipe in filter(None, (self._proc.stdin, self._proc.stdout)):",
        "for pipe in ():",
        (f"{DECLINE}[killed-mid-run]",),
    ),
    # the intakes at the library boundary: _float_array for arrays,
    # _require_unit for levels, _require_int for counts
    Mutation(
        "intake-takes-a-non-finite-value", "chain.py",
        "            if not np.isfinite(arr).all():\n", "            if False:\n",
        (
            "tests/test_chain.py::test_chain_rejects_non_finite",
            "tests/test_inference.py::"
            "test_controller_rejects_a_non_finite_block_after_the_first_check",
            "tests/test_quantiles.py::"
            "test_non_numeric_series_are_refused[nan-empirical_quantile]",
            "tests/test_quantiles.py::test_kde_at_refuses_non_finite_points[nan]",
            "tests/test_inference.py::"
            "test_region_refuses_a_non_finite_or_misshapen_point[nan]",
            "tests/test_inference.py::test_hotelling_rejects_non_finite_mean[nan]",
        ),
    ),
    Mutation(
        "unit-level-of-any-type", "errors.py",
        "return real and not isinstance(", "return not isinstance(",
        ("tests/test_inference.py::test_min_ess_cutoff_validation",),
    ),
    Mutation(
        "kde-bandwidth-without-the-series-intake", "quantiles.py",
        "return _bandwidth(_as_series(v))", "return _bandwidth(v)",
        (
            "tests/test_quantiles.py::"
            "test_non_numeric_series_are_refused[text-kde_bandwidth]",
        ),
    ),
    Mutation(
        "weibull-mle-back-on-asarray", "lcd_demo.py",
        '_float_array(times, copy=False, what="failure time")',
        "np.asarray(times, dtype=float)",
        (
            "tests/test_lcd_demo.py::"
            "test_weibull_mle_takes_the_chain_s_intake[complex]",
        ),
    ),
    Mutation(
        "ess-takes-any-n", "inference.py",
        '    _require_int(n, "n", 1)\n    p = lambda_est.dim\n',
        "    p = lambda_est.dim\n",
        ("tests/test_inference.py::test_ess_n_must_be_an_integer",),
    ),
    Mutation(
        "region-takes-a-point-of-any-length", "inference.py",
        "if x.ndim > 1 or x.size != self.dim:", "if False:",
        (
            "tests/test_inference.py::"
            "test_region_refuses_a_non_finite_or_misshapen_point[three]",
        ),
    ),
    Mutation(
        "column-takes-any-index", "chain.py",
        '        _require_int(i, "column index")\n', "",
        ("tests/test_chain.py::test_column_index_must_be_an_integer[True]",),
    ),
    Mutation(
        "correlogram-takes-any-pair", "mcse.py",
        "    except (TypeError, ValueError):\n", "    except ZeroDivisionError:\n",
        (
            "tests/test_mcse.py::"
            "test_correlogram_pair_must_be_two_integer_indices[one]",
        ),
    ),
    Mutation(
        "rhat-takes-any-type", "inference.py",
        "if not (_is_real(ess_value) and ", "if not (",
        (
            "tests/test_inference.py::"
            "test_rhat_from_ess_refuses_a_value_that_is_not_a_number[bool]",
        ),
    ),
    Mutation(
        "mcse-takes-an-array", "chain.py",
        "    if not isinstance(chain, ChainMatrix):\n", "    if False:\n",
        ("tests/test_mcse.py::test_an_array_is_refused_as_a_chain",),
    ),
    # the Weibull MLE's profile score near overflow
    Mutation(
        "weibull-score-ignores-an-overflowed-weighted-sum", "lcd_demo.py",
        "if not (np.isfinite(total) and np.isfinite(weighted)):",
        "if not np.isfinite(total):",
        ("tests/test_lcd_demo.py::test_weibull_mle_near_overflow_is_scale_free",),
    ),
]


def _run(package, tests):
    """The exit status of pytest on ``tests`` against ``package``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package.parent), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _copy(tmp_path):
    package = tmp_path / "mcoutput"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    return package


def test_every_named_test_passes_unmutated(tmp_path):
    tests = sorted({test for m in MUTATIONS for test in m.tests})
    assert _run(_copy(tmp_path), tests) == 0


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.id for m in MUTATIONS])
def test_the_named_tests_catch_the_mutation(tmp_path, mutation):
    package = _copy(tmp_path)
    path = package / mutation.file
    text = path.read_text()
    assert text.count(mutation.old) == 1, f"{mutation.id}: old text moved"
    path.write_text(text.replace(mutation.old, mutation.new))
    assert _run(package, mutation.tests) == 1
