"""Settings shared by the whole test suite.

The property tests run one fixed set of examples per test: Hypothesis seeds
each test from a hash of its own code, keeps no example database and sets
no deadline, so a run does not depend on earlier runs or on the host's
speed.  Python's int-to-text digit limit is pinned at its default, 4,300, so
the tests of numbers too long to write do not depend on
``PYTHONINTMAXSTRDIGITS``.
"""

import sys

from hypothesis import settings

sys.set_int_max_str_digits(4300)

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
