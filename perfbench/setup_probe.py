"""Time the package's set-up in a fresh interpreter; print it and the host speed.

Set-up is what every user of the package pays before the first
operation: importing it, building the default ``Params`` and ``Gains``,
and building the preset gaits.  Interpreter start-up is not included.
The second number printed is the host speed, sampled just before and
just after set-up (see ``hostspeed.py``).  Run with the checkout's
``src`` on ``PYTHONPATH``.
"""

import time

from hostspeed import HostSpeed

host = HostSpeed()
host.sample(0.025)

t0 = time.perf_counter()

import tiltrotor  # noqa: E402
from tiltrotor import gaitlab  # noqa: E402

params = tiltrotor.Params()
gains = tiltrotor.Gains()
for name in sorted(gaitlab.GAIT_PRESETS):
    gaitlab.build_preset(name, params)

setup = time.perf_counter() - t0

host.sample(0.025)
print(repr(setup), repr(host.speed))
