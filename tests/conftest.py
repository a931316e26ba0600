"""Test-session settings: property tests draw the same examples every run.

``derandomize`` makes hypothesis derive its examples from each test's name
instead of fresh randomness, and ``database=None`` keeps it from replaying
or saving failures in a ``.hypothesis/`` directory, so a tier-1 run is
reproducible from one run to the next. Each test keeps its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
