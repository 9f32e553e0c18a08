import sys

import pytest


@pytest.fixture
def cold_caches():
    """Empty every ``functools`` cache in the program, as a new process
    would, so a count taken over one run sees that run's whole work."""
    for name, mod in list(sys.modules.items()):
        if name == "singlab" or name.startswith("singlab."):
            for value in list(vars(mod).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
