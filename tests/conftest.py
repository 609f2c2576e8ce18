"""Test-suite settings.

Hypothesis draws its examples from a fixed seed per test and keeps no
example database, so every run of the suite tries the same inputs.  Its
remaining cache, of the constants it reads from the source, goes to the
temporary directory, so a run writes nothing into the checkout.
"""

import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "dhtplan-hypothesis"))
