"""Test-suite settings shared by every test module.

Hypothesis runs derandomized and with no example database: every property
test draws the same examples on every run and in every checkout, so a tier-1
run gives the same result each time.  Each test keeps its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("qmeanlab", derandomize=True, database=None)
settings.load_profile("qmeanlab")
