"""Hypothesis profiles: CI runs select "ci" (--hypothesis-profile=ci), which
draws the same examples on every run and sets no per-example deadline, so a
slow runner cannot fail a test on time alone. Local runs keep the defaults."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
