import pytest
from hypothesis import HealthCheck, settings

# exhaustive scans inside properties blow the default deadline; wall-clock
# budgets are enforced where they matter, in the acceptance tests
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@pytest.fixture
def free_pool(monkeypatch):
    """Freeze the clock the oracle times pools with, so every pool it starts
    costs 0 and a multi-part scan not settled by its first high subset starts
    one, as in a fresh process, whatever pools earlier tests started."""
    from cordial import oracle

    monkeypatch.setattr(oracle, "_pool_cost", 0.0)
    monkeypatch.setattr(oracle, "perf_counter", lambda: 0.0)
