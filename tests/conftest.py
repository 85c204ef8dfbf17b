"""One Hypothesis profile for the whole suite: the same examples on every run
(derandomized), no example database, a bounded number of examples, and no
per-example deadline, so a slow host cannot fail a run.  Hypothesis still
caches Unicode tables and source constants on disk; that cache goes to a
temporary directory removed at exit, not to `.hypothesis/` in the tree."""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_home = tempfile.mkdtemp(prefix="modchar-hypothesis-")
atexit.register(shutil.rmtree, _home, True)
set_hypothesis_home_dir(_home)

settings.register_profile("modchar", derandomize=True, database=None, max_examples=60, deadline=None)
settings.load_profile("modchar")
