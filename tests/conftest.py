import tempfile
from pathlib import Path

import numpy as np
import pytest

from riscov.analytic import SystemParams
from riscov.fading import dbm_to_watts


@pytest.fixture(scope="session", autouse=True)
def table_cache_home():
    """XDG_CACHE_HOME for the whole session: a temporary directory, removed at the end.

    The simulator caches its fading tables under $XDG_CACHE_HOME/riscov, so the
    tests never read or write the user's cache.
    """
    with tempfile.TemporaryDirectory(prefix="riscov-test-cache-") as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", tmp)
        yield Path(tmp)


@pytest.fixture(scope="session")
def base_params() -> SystemParams:
    """Baseline scenario: 20 m serving link, 3 m offset, -30 dB gains."""
    return SystemParams.default()


@pytest.fixture(scope="session")
def fig4_params():
    """Fixed association with surface at -24 dBm transmit power."""
    def make(lambda_t: float) -> SystemParams:
        return SystemParams.default(lambda_t=lambda_t, p_tx_w=dbm_to_watts(-24.0))
    return make


def pytest_configure(config):
    np.seterr(over="ignore", under="ignore")
