"""Test-suite settings: property tests run a fixed, bounded set of examples."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("deterministic")
