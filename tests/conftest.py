"""Shared test settings: one hypothesis profile for the property tests.

Examples are derived from each test's source rather than drawn at random,
so a run repeats the previous one; no deadline, because the first example
of a test pays numpy's warm-up.
"""

from hypothesis import settings

settings.register_profile("fcla", derandomize=True, deadline=None,
                          max_examples=20)
settings.load_profile("fcla")
