import time

import numpy as np
import pytest

from tiltrotor import Gains, Params, SimConfig, build_preset, run_tracking


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
