"""Test-suite settings.

Hypothesis draws its examples from a fixed seed per test and keeps no
example database, so every run of the suite tries the same inputs.  Its
remaining cache, of the constants it reads from the source, goes to the
temporary directory.  pyproject.toml turns off pytest's own cache and the
pytest-benchmark plugin, so a run writes nothing into the checkout beyond
Python's bytecode caches, which git ignores.

The readme_fuzzy_config fixture gives the fuzzy config template, README's
one json block, as the base that the config tests edit.
"""

import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "dhtplan-hypothesis"))


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def readme_fuzzy_config():
    """A function giving a fresh copy of README's json block, parsed."""
    block = re.search(r"^```json\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    return lambda: json.loads(block)
