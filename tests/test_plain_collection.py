"""Tier-1 without Hypothesis: a child that cannot import it still collects
every plain test. Only the property modules, which import Hypothesis
through ``pytest.importorskip``, are skipped whole."""

import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
# modules of plain tests that share helpers with a property module
PLAIN = ("test_csv_split.py", "test_flat_top_differential.py")
PROPERTY = ("test_csv_split_property.py", "test_flat_top_property.py")

# a None entry makes every import of hypothesis fail, as where it is not
# installed; with autoload off, pytest neither loads Hypothesis's plugin nor
# looks up the modules of installed plugins
NO_HYPOTHESIS = """
import os
import sys

import pytest

os.environ["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
sys.modules["hypothesis"] = None
sys.exit(pytest.main(sys.argv[1:]))
"""


def test_plain_tests_are_collected_without_hypothesis(fresh_python):
    paths = [str(TESTS / name) for name in (*PLAIN, *PROPERTY)]
    args = ["--collect-only", "-q", "-p", "no:cacheprovider"]
    out = fresh_python("-c", NO_HYPOTHESIS, *args, *paths)
    assert out.returncode == 0, out.stdout + out.stderr
    collected = {}
    for line in out.stdout.splitlines():
        path, sep, test = line.partition("::")
        if sep:
            collected.setdefault(Path(path).name, set()).add(test.split("[")[0])
    for name in PLAIN:
        source = (TESTS / name).read_text()
        plain = set(re.findall(r"^def (test_\w+)", source, re.MULTILINE))
        assert plain and collected.get(name) == plain, name
    assert not set(collected) & set(PROPERTY), collected
