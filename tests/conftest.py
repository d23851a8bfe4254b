"""Shared test settings.

Property tests run under a derandomized hypothesis profile: the examples
are a fixed function of each test, so a run is reproducible and needs no
example database, and there is no per-example deadline because timings on
a loaded machine vary.
"""

from hypothesis import settings

settings.register_profile("cbfctrl", derandomize=True, deadline=None, database=None)
settings.load_profile("cbfctrl")
