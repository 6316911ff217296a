"""Hypothesis profiles.

The default profile derandomizes: each property draws its examples
from a seed fixed by the test itself, so the same command tests the
same examples on every machine and every run, and a failure replays
from the repository.  ``HYPOTHESIS_PROFILE=random`` draws fresh
examples on each run, with the same example counts, and prints the
blob that replays a failure.
"""

import os

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))
