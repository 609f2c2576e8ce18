"""Time one set-up in a fresh interpreter: import dhtplan, build the fixtures.

Run from ``run.py`` with PYTHONPATH pointing at the package sources;
prints the elapsed seconds.  Nothing else is imported before the clock
starts, so a lazier package import shows in the number.
"""

import time

t0 = time.perf_counter()

import dhtplan  # noqa: E402

import fixtures  # noqa: E402

fixtures.build(dhtplan)
print(repr(time.perf_counter() - t0))
