import pytest


@pytest.fixture(scope="session")
def run_cache():
    """Session-wide cache so acceptance tests can share expensive runs."""
    return {}


def cached_run(cache, key, scenario):
    if key not in cache:
        from slidenet.engine import run_scenario
        cache[key] = run_scenario(scenario)
    return cache[key]
