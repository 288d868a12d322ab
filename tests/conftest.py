import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from charforge.characters import character_table
from charforge.fixtures import all_fixture_groups


@contextmanager
def traced_peak():
    """Trace allocations inside the block. The yielded object's `peak` is the most
    bytes traced at once, set when the block ends, also when it raises."""
    traced = SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield traced
    finally:
        traced.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@pytest.fixture(scope="session")
def groups():
    return all_fixture_groups()


@pytest.fixture(scope="session")
def tables(groups):
    return {name: character_table(g, seed=42) for name, g in groups.items()}
