"""Shared test configuration: the hypothesis ``ci`` profile.

Run with ``--hypothesis-profile=ci`` (the CI workflow does) so that a failing
property prints a ``@reproduce_failure`` blob, which replays the failing
example locally.  The profile is hypothesis's own ``ci`` profile, the one it
activates whenever the ``CI`` environment variable is set, with
``print_blob`` stated explicitly; no other setting changes.
"""

from hypothesis import settings

settings.register_profile("ci", settings.get_profile("ci"), print_blob=True)
