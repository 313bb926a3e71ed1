from hypothesis import HealthCheck, settings

# tier-1 draws the same examples on every run; the randomized profile
# (--hypothesis-profile=randomized) draws new ones, and more of them
settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("randomized", settings.get_profile("default"), derandomize=False, max_examples=200)
settings.load_profile("default")
