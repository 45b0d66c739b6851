"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: examples are derived
from each test's source instead of drawn at random, so a failure replays
the same way on any machine, and no example deadline applies, so a slow
runner cannot fail a ``@given`` test that sets none.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
