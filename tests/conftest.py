"""Shared fixtures for the tier-1 suite."""

import multiprocessing.pool

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Record the worker count of every ``multiprocessing`` pool built.

    ``multiprocessing`` contexts look ``Pool`` up in
    ``multiprocessing.pool`` on each call, so a counting subclass
    installed there sees every pool the sweep runner starts.
    """
    sizes = []

    class CountingPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            sizes.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", CountingPool)
    return sizes
