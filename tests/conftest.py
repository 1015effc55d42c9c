"""Fixtures shared by the test modules."""

import multiprocessing

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """multiprocessing.Pool replaced by a fake that starts no process and maps
    in this one; the list of the sizes of the pools made, in order."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return sizes
