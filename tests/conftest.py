"""Shared test settings and helpers.

Every property test runs under one deterministic hypothesis profile: the
same examples on every run, a fixed number of them, no per-example deadline
(the machine's speed drifts) and no example database carried between runs.
"""

from hypothesis import settings

from weil1 import morphism as mor

settings.register_profile("tier1", derandomize=True, max_examples=200, deadline=None, database=None)
settings.load_profile("tier1")


def layout_projections(o1, o2, at=0, k1=1, k2=1):
    """The two projections out of the pair target of ``o1`` and ``o2``,
    read from ``pair_layout``'s splices."""
    target, s1, s2 = mor.pair_layout(o1, o2, at, k1, k2)
    return (mor.compose_restriction(s1, o1, mor.identity(target)),
            mor.compose_restriction(s2, o2, mor.identity(target)))
