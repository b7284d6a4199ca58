import pytest

from cominuscule import plethysm


@pytest.fixture
def cold_answers():
    """Empty the answer caches before and after the test, so the test sees
    its own answers and leaves none behind."""
    plethysm._route_summands.cache_clear()
    plethysm._kostant_levels.cache_clear()
    yield
    plethysm._route_summands.cache_clear()
    plethysm._kostant_levels.cache_clear()


@pytest.fixture
def dp_horizons(monkeypatch):
    """Empty the DP table cache, then record per space name the grade each
    new DP table is built to."""
    plethysm._tables.cache_clear()
    built: dict[str, list[int]] = {}
    real = plethysm._exterior_tables

    def recording(vectors, max_grade, name):
        built.setdefault(name, []).append(max_grade)
        return real(vectors, max_grade, name)

    monkeypatch.setattr(plethysm, "_exterior_tables", recording)
    return built
