"""Hypothesis profiles, picked by the HYPOTHESIS_PROFILE environment variable.

``default`` (100 examples a property) runs in tier-1.  ``ci`` draws 1000
examples a property, still derandomized and without the example
database, so every run checks the same inputs.  The profile is loaded
here, before any test module builds its settings objects, which take
every value they do not set from the profile loaded at that time.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, derandomize=True, deadline=None, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
