"""Shared test settings.

Every property test runs under one deterministic hypothesis profile: the
same examples on every run, a fixed number of them, no per-example deadline
(the machine's speed drifts) and no example database carried between runs.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=200, deadline=None, database=None)
settings.load_profile("tier1")
