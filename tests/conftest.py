"""Settings shared by the whole test suite.

The property tests run one fixed set of examples per test: Hypothesis seeds
each test from a hash of its own code, keeps no example database and sets
no deadline, so a run does not depend on earlier runs or on the host's
speed.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
