import os
import time

import numpy as np
import pytest
from hypothesis import settings

from tiltrotor import Gains, Params, SimConfig, build_preset, run_tracking

# under CI every property test draws the same examples, and a failure
# prints the blob that replays it (@reproduce_failure), so its log is
# enough to reproduce it
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def params():
    return Params()


@pytest.fixture(scope="session")
def gains():
    return Gains()


@pytest.fixture(scope="session")
def params_nosat():
    """Saturation effectively disabled (huge ceiling, zero floor)."""
    return Params(omega_lo=0.0, omega_hi=1e9)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def gait1_run(params, gains):
    """``(log, seconds)``: the paper's 120 s gait1 run, once per session.

    The default :class:`SimConfig` (120 s at dt 1e-3, from 0.8 x the
    hover pattern); the wall time is that of ``run_tracking`` alone.
    """
    gait = build_preset("gait1", params)
    t0 = time.perf_counter()
    log = run_tracking(SimConfig(), params, gains, gait)
    return log, time.perf_counter() - t0
