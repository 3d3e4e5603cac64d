"""Shared pytest configuration.

The property tests run under one derandomized hypothesis profile: every
run draws the same examples, so tier-1 and CI stay reproducible, and the
bounded example count keeps them to a few seconds.  No example database is
written.
"""

from hypothesis import settings

settings.register_profile(
    "lathom", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("lathom")
