"""Test settings shared by every module.

The property tests draw the same examples in every run: one hypothesis
profile, derandomized (which also turns off the example database) and
without per-example deadlines, is registered and loaded here, before the
test modules apply their own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("lagfrac", derandomize=True, deadline=None)
settings.load_profile("lagfrac")
