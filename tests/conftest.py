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
def engine_horizons(monkeypatch):
    """Empty the engine cache, then record per space name the highest grade
    each new engine pass computes directly (a pass starts at grade 1)."""
    plethysm._engine_levels.cache_clear()
    built: dict[str, list[int]] = {}
    real = plethysm._newton_grade

    def recording(spec, levels, p, steps):
        passes = built.setdefault(spec.name, [])
        if p == 1:
            passes.append(p)
        else:
            passes[-1] = p
        return real(spec, levels, p, steps)

    monkeypatch.setattr(plethysm, "_newton_grade", recording)
    return built
