"""Hypothesis profiles for the test suite.

``pytest --hypothesis-profile=ci`` loads the ``ci`` profile, which draws
every example from a fixed seed, so a failing run replays the same
examples.  Example counts and deadlines stay as each test sets them, and a
run without the flag keeps drawing fresh examples.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
