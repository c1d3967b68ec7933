import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gnyamabe import (Dims, build_table, bundled_test_function,
                      find_ground_state)
from gnyamabe.ode import RadialProfile

from oracles import exponents_m1, sech_dh, sech_h


@pytest.fixture(scope="session")
def gs22():
    """Ground state for (2, 2) at default controls."""
    return find_ground_state(Dims(2, 2))


@pytest.fixture(scope="session")
def gs31():
    """Ground state for (3, 1), the sech-oracle pair."""
    return find_ground_state(Dims(3, 1))


@pytest.fixture(scope="session")
def table9():
    """Default full table and its wall-clock build time."""
    start = time.perf_counter()
    rows = build_table(9)
    elapsed = time.perf_counter() - start
    return rows, elapsed


@pytest.fixture(scope="session")
def sech31_profile():
    """Closed-form (3, 1) ground state sampled densely, no solver involved."""
    q, _ = exponents_m1(3)
    ts = np.linspace(0.0, 25.0, 6401)
    return RadialProfile(ts, sech_h(ts, q), sech_dh(ts, q), n=1)


@pytest.fixture(scope="session")
def testfn22():
    return bundled_test_function()
