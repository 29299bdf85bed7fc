"""Shared test helpers."""

import tracemalloc

import pytest


def _traced(call, *args, **kwargs):
    """``(call(*args, **kwargs), peak)``: the call's result and the peak, in
    bytes, of the memory that tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced():
    """The helper ``traced(call, *args, **kwargs) -> (result, peak bytes)``."""
    return _traced
