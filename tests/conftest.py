"""Hypothesis profiles.

HYPOTHESIS_PROFILE=ci selects the `ci` profile: examples are derived from
each test's source rather than drawn at random, so reruns see the same
cases, and no per-example deadline applies on slow runners.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
