"""Shared test configuration.

Property tests run under one hypothesis profile: derandomized, so every
run draws the same examples, with no per-example deadline and a bounded
number of examples, so the suite stays deterministic and fast; no
example database is written.
"""

from hypothesis import settings

settings.register_profile("heisgrad", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("heisgrad")
