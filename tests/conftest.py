"""Test-wide settings.

When ``CI`` is set, as CI services set it, Hypothesis loads the ``ci``
profile: the default settings plus ``print_blob=True``, so a failing
property prints the ``@reproduce_failure`` line that replays its example.
Example counts, deadlines and randomisation stay as they are.  (Hypothesis
has a ``ci`` profile of its own, loaded when it sees ``CI``, that also
derandomises and drops deadlines; this one replaces it.)
"""

import os

from hypothesis import settings

settings.register_profile("ci", settings.get_profile("default"),
                          print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
