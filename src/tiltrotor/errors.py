"""Exception types shared across the package."""


class TiltrotorError(Exception):
    """Base class for all package-specific errors.

    The subclasses take other constructor arguments than the message they
    pass on as ``args``, so the default pickling, which calls the class
    with ``args``, cannot rebuild them.  They pickle as their class,
    ``args`` and attributes instead.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, attributes):
    exc = cls.__new__(cls, *args)
    exc.args = args
    exc.__dict__.update(attributes)
    return exc


class RepresentationSingular(TiltrotorError):
    """Pitch too close to +/-pi/2 for the Euler-rate map to be evaluated."""

    def __init__(self, theta: float):
        super().__init__(f"Euler representation invalid near |theta|=pi/2 (theta={theta:.6f} rad)")
        self.theta = theta


class NoRoot(TiltrotorError):
    """The branch solver found no root below tolerance."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


class Degenerate(TiltrotorError):
    """Branch solutions could not be separated into a blue/red pair."""

    def __init__(self, message: str, roots):
        super().__init__(message)
        self.roots = list(roots)


class ContinuationBreak(TiltrotorError):
    """Branch tracking jumped too far between adjacent samples."""

    def __init__(self, location, jump: float):
        super().__init__(
            f"branch continuation jumped {jump:.3f} rad near (alpha1, alpha2)="
            f"({location[0]:.4f}, {location[1]:.4f})"
        )
        self.location = tuple(location)
        self.jump = jump


class AbortedSingular(TiltrotorError):
    """Closed-loop run stopped where the control law cannot be evaluated.

    ``reason`` says which test stopped it: ``"determinant"``, the
    decoupling matrix failed the scale-aware determinant test, or
    ``"pitch_guard"``, the pitch reached the band next to +/-pi/2 where
    the Euler-rate map is not evaluated.  Carries the abort time, the
    last state, and the partial log collected up to the abort.
    """

    MESSAGES = {
        "determinant": "tracking aborted on singular decoupling matrix",
        "pitch_guard": "tracking aborted: pitch reached the Euler-representation guard band",
    }

    def __init__(self, time: float, state, log=None, reason: str = "determinant"):
        if reason not in self.MESSAGES:
            raise ValueError(f"unknown abort reason {reason!r}")
        super().__init__(f"{self.MESSAGES[reason]} at t={time:.3f} s")
        self.time = time
        self.state = state
        self.log = log
        self.reason = reason
