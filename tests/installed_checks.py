"""Checks of an installed mcoutput, run after ``pip install .`` from outside
the checkout: ``python -m pytest -q <checkout>/tests/installed_checks.py``.
Tier-1 does not collect this module, as its name does not match
``test_*.py``; under ``PYTHONPATH=src`` its check of the package's path
fails."""

from pathlib import Path

import mcoutput
# the installed _csvtext.py child writes the per-draw files; a package
# without it would write them in process and give the same bytes
from test_csvtext import child_demo, children, written  # noqa: F401
from test_csvtext import test_the_child_writes_the_per_draw_files  # noqa: F401


def test_the_package_is_not_the_checkout_s_source():
    src = Path(__file__).resolve().parents[1] / "src"
    assert not Path(mcoutput.__file__).resolve().is_relative_to(src), mcoutput.__file__
