"""Exception types shared across the package."""


class TiltrotorError(Exception):
    """Base class for all package-specific errors."""


class RepresentationSingular(TiltrotorError):
    """Pitch too close to +/-pi/2 for the Euler-rate map to be evaluated."""

    def __init__(self, theta: float):
        super().__init__(f"Euler representation invalid near |theta|=pi/2 (theta={theta:.6f} rad)")
        self.theta = theta


class AbortedSingular(TiltrotorError):
    """Closed-loop run stopped where the control law cannot be evaluated.

    ``reason`` says which test stopped it: ``"determinant"``, the
    decoupling matrix failed the scale-aware determinant test, or
    ``"pitch_guard"``, the pitch reached the band next to +/-pi/2 where
    the Euler-rate map is not evaluated.  Carries the abort time and the
    partial log, whose last row is the state the run stopped in.
    """

    MESSAGES = {
        "determinant": "tracking aborted on singular decoupling matrix",
        "pitch_guard": "tracking aborted: pitch reached the Euler-representation guard band",
    }

    def __init__(self, time: float, log, reason: str):
        if reason not in self.MESSAGES:
            raise ValueError(f"unknown abort reason {reason!r}")
        super().__init__(f"{self.MESSAGES[reason]} at t={time:.3f} s")
        self.time = time
        self.log = log
        self.reason = reason
