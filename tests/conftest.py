import pytest

from cominuscule import plethysm


def _clear_answers():
    for cache in (plethysm._route_summands, plethysm._kostant_levels,
                  plethysm._engine_levels):
        cache.cache_clear()


@pytest.fixture
def cold_answers():
    """Empty the answer caches before and after the test, so the test sees
    its own answers and leaves none behind."""
    _clear_answers()
    yield
    _clear_answers()


@pytest.fixture
def dp_horizons(monkeypatch):
    """Empty the engine cache, then record per space name the grade each
    new DP is run to."""
    plethysm._engine_levels.cache_clear()
    built: dict[str, list[int]] = {}
    real = plethysm._exterior_tables

    def recording(spec, max_grade):
        built.setdefault(spec.name, []).append(max_grade)
        return real(spec, max_grade)

    monkeypatch.setattr(plethysm, "_exterior_tables", recording)
    return built
