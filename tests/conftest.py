import pytest

from cominuscule import plethysm


@pytest.fixture
def cold_answers():
    """Empty the answer cache before and after the test, so the test sees
    its own answers and leaves none behind."""
    plethysm._route_summands.cache_clear()
    yield
    plethysm._route_summands.cache_clear()
