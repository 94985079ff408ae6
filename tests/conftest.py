"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` loads ``ci``: five times the default profile's
examples, which ``hypothesis_budget.examples`` scales a property's own
count by (CI runs the codec's properties under it on push).  Unset, the
default profile runs, with the counts the tests name.
"""

import os

from hypothesis import settings

settings.register_profile(
    "ci", max_examples=5 * settings.get_profile("default").max_examples
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
