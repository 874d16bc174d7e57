"""Span tracer that wraps the package's public functions from outside.

Nothing inside ``tiltrotor`` is instrumented: :class:`Tracer` replaces the
attributes the program looks up at call time (module functions, kernel
module entries, class methods) with timing wrappers and restores them on
exit.  Spans are aggregated in memory per name as ``[calls, total_s,
child_s]``; a span's self time is its total minus the time covered by the
wrapped calls made inside it.

An attribute that a later version of the package no longer has is
recorded in :attr:`Tracer.absent` and skipped, so a refactor never makes
the traced run crash; its metrics then read 0.
"""

from __future__ import annotations

import contextlib
import importlib
import time


class Tracer:
    """Aggregating span recorder with attribute patching."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.absent: list[str] = []
        self.min_det_ratio = None
        self.to_csv_rows = 0
        self.logs: list = []        # (rows, saturated_rows, singular_rows) per run_tracking call
        self._stack: list[float] = []
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def wrap_call(self, name, fn, on_return=None, on_error=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_return(args, result)`` runs after the span has closed;
        ``on_error(exc)`` runs before it closes, on failures only.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += child
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name) -> float:
        st = self.stats.get(name, [0, 0.0, 0.0])
        return st[1] - st[2]

    # -- hooks ---------------------------------------------------------------

    def _see_decoupling(self, _args, result):
        # result is (delta, b, det, scale); skip silently if that changes
        try:
            det, scale = result[2], result[3]
            ratio = abs(det) / scale**4 if scale > 0.0 else 0.0
        except (TypeError, IndexError, ZeroDivisionError, OverflowError):
            return
        if self.min_det_ratio is None or ratio < self.min_det_ratio:
            self.min_det_ratio = ratio

    def _see_log(self, log):
        try:
            rows = len(log)
            sat = int(log.saturated.any(axis=1).sum())
            sing = int(log.singular.sum())
        except (AttributeError, TypeError, ValueError):
            return
        self.logs.append((rows, sat, sing))

    def _see_track_return(self, _args, log):
        self._see_log(log)

    def _see_track_error(self, exc):
        log = getattr(exc, "log", None)
        if log is not None:
            self._see_log(log)

    def _see_to_csv(self, args, _result):
        try:
            self.to_csv_rows += len(args[0])
        except (IndexError, TypeError):
            pass

    # -- patching ------------------------------------------------------------

    def _patch(self, name, owner_path, attr, on_return=None, on_error=None):
        owner = _resolve(owner_path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.absent.append(f"{owner_path}.{attr}")
            return
        self._apply(owner, attr, fn, self.wrap_call(name, fn, on_return, on_error))

    def _patch_sampler(self):
        gait_cls = _resolve("tiltrotor.gaitlab.Gait")
        orig = getattr(gait_cls, "sampler", None) if gait_cls is not None else None
        if orig is None:
            self.absent.append("tiltrotor.gaitlab.Gait.sampler")
            return
        tracer = self

        def sampler(gait, *args, **kwargs):
            return tracer.wrap_call("gaitlab.sample", orig(gait, *args, **kwargs))

        self._apply(gait_cls, "sampler", orig, sampler)

    def _apply(self, owner, attr, orig, wrapped):
        self._patched.append((owner, attr, orig, wrapped))
        setattr(owner, attr, wrapped)

    def install(self):
        """Wrap every traced attribute (see ``SPANS``)."""
        for name, owner_path, attr in SPANS:
            hooks = {}
            if name == "linearization.decoupling":
                hooks["on_return"] = self._see_decoupling
            elif name == "sim.run_tracking":
                hooks["on_return"] = self._see_track_return
                hooks["on_error"] = self._see_track_error
            elif name == "sim.to_csv":
                hooks["on_return"] = self._see_to_csv
            self._patch(name, owner_path, attr, **hooks)
        self._patch_sampler()

    def uninstall(self):
        while self._patched:
            owner, attr, orig, _ = self._patched.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def suspended(self):
        """Put the original attributes back for the duration (output checks)."""
        for owner, attr, orig, _ in reversed(self._patched):
            setattr(owner, attr, orig)
        try:
            yield
        finally:
            for owner, attr, _, wrapped in self._patched:
                setattr(owner, attr, wrapped)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _resolve(path: str):
    """Import the longest module prefix of ``path`` and walk the rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


# (span name, owner, attribute): the attributes the program looks up at
# call time.  The layer of a span is the prefix of its name.  The kernel
# entries are wrapped on the module object that ``sim`` and ``control``
# hold, which is the one their loops read on every step.
SPANS = [
    ("model.rk4_step", "tiltrotor.sim.kernels", "rk4_step"),
    ("linearization.decoupling", "tiltrotor.control.kernels", "decoupling"),
    ("linearization.det_decomposition", "tiltrotor.gaitlab", "det_decomposition"),
    ("control.fl_core", "tiltrotor.sim", "fl_core"),
    ("control.decoupler", "tiltrotor.sim", "decoupler_core"),
    ("control.solve4", "tiltrotor.control.kernels", "solve4"),
    ("gaitlab.newton_ab", "tiltrotor.gaitlab.kernels", "newton_ab"),
    ("gaitlab.solve_color_pair", "tiltrotor.gaitlab", "solve_color_pair"),
    ("gaitlab.make_rectangle_gait", "tiltrotor.gaitlab", "make_rectangle_gait"),
    ("gaitlab.build_preset", "tiltrotor.gaitlab", "build_preset"),
    ("gaitlab.bias_gait", "tiltrotor.gaitlab", "bias_gait"),
    ("gaitlab.color_map", "tiltrotor.gaitlab", "color_map"),
    ("gaitlab.robustness_report", "tiltrotor.gaitlab", "robustness_report"),
    ("gaitlab.singular_curves", "tiltrotor.gaitlab", "singular_curves"),
    ("sim.run_tracking", "tiltrotor.sim", "run_tracking"),
    ("sim.reference", "tiltrotor.sim.circular_reference", "floats"),
    ("sim.to_csv", "tiltrotor.sim.TrackLog", "to_csv"),
    ("svgplot.polyline", "tiltrotor.svgplot.LinePlot", "polyline"),
    ("svgplot.save", "tiltrotor.svgplot.LinePlot", "save"),
    ("cli.main", "tiltrotor.cli", "main"),
]

LAYERS = ("model", "linearization", "control", "gaitlab", "sim", "svgplot", "cli")
