import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings

from ptb_fixtures import ACCEPTANCE_LINES, SEED, random_shell_args

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    # explaining a failure formats each failing example, which for whole
    # trajectory arrays can take gigabytes; pass and fail are the same without
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def shell_args(rng):
    return lambda n: random_shell_args(rng, n)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
