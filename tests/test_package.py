import os
import subprocess
import sys
import types

import tiltrotor


def test_public_names_resolve_once():
    names = tiltrotor.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(tiltrotor, n)]
    assert missing == []
    # and the other way: every public name the package binds, submodules
    # aside, is exported, so an import left behind by a retired export shows
    bound = [n for n, v in vars(tiltrotor).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(set(bound) - set(names)) == []


def _fresh(code: str) -> list:
    """The lines ``code`` prints in a fresh interpreter that imports the package from ``src``."""
    src = os.path.dirname(os.path.dirname(tiltrotor.__file__))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.splitlines()


def test_set_up_loads_only_what_it_runs():
    # what perfbench/setup_probe.py times: the package, the defaults and the
    # presets; the tracking loop, the file formats and the plots load on use
    assert _fresh("""
import sys
import tiltrotor
from tiltrotor import gaitlab
params = tiltrotor.Params()
tiltrotor.Gains()
for name in sorted(gaitlab.GAIT_PRESETS):
    gaitlab.build_preset(name, params)
print([m for m in ("tiltrotor.sim", "tiltrotor._files", "tiltrotor.svgplot", "json")
       if m in sys.modules])
tiltrotor.run_tracking
print("tiltrotor.sim" in sys.modules)
""") == ["[]", "True"]


def test_cli_import_loads_neither_the_loop_nor_the_plots():
    assert _fresh("""
import sys
import tiltrotor.cli
print([m for m in ("tiltrotor.sim", "tiltrotor.svgplot") if m in sys.modules])
""") == ["[]"]
