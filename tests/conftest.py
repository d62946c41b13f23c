"""Hypothesis settings profiles.  Local runs draw new examples each time;
`pytest --hypothesis-profile=ci` draws the same examples on every run (a
failure recurs) and prints the blob that reproduces a failing example."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
