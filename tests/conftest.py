from hypothesis import HealthCheck, settings

# exhaustive scans inside properties blow the default deadline; wall-clock
# budgets are enforced where they matter, in the acceptance tests
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")
