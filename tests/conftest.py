"""One Hypothesis configuration for every run, local or CI: the same
examples on every run (derandomize) and no per-example deadline, so a slow
or loaded machine cannot fail a test on time alone."""

from hypothesis import settings

settings.register_profile("nefcert", derandomize=True, deadline=None)
settings.load_profile("nefcert")
