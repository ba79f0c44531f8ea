import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    # the same draws on every run, so that a corner found once repeats
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def golden():
    with open(FIXTURES / "golden.json") as fh:
        return json.load(fh)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_unit(rng, n):
    while True:
        v = rng.normal(size=n)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm
