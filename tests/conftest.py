"""Shared test setup."""

import tempfile

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:
    set_hypothesis_home_dir = None

# hypothesis caches the constants it finds in local modules under its home
# directory while tests are collected; keep that cache out of the working
# tree (the directory is removed when the interpreter exits)
if set_hypothesis_home_dir is not None:
    _HOME = tempfile.TemporaryDirectory(prefix="rotoshift-hypothesis-")
    set_hypothesis_home_dir(_HOME.name)
