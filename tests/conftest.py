"""Suite-wide settings: one deterministic hypothesis profile, so property tests
draw the same examples on every run and have no per-example deadline."""

from hypothesis import settings

settings.register_profile("hlvqe", derandomize=True, database=None, deadline=None,
                          max_examples=30)
settings.load_profile("hlvqe")
