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

    Built from the partial log alone, whose last row is the state the run
    stopped in at ``log.abort_time``.  ``log.end_reason`` says which test
    stopped it: ``"determinant"``, the decoupling matrix failed the
    scale-aware determinant test, or ``"pitch_guard"``, the pitch reached
    the band next to +/-pi/2 where the Euler-rate map is not evaluated.
    """

    MESSAGES = {
        "determinant": "tracking aborted on singular decoupling matrix",
        "pitch_guard": "tracking aborted: pitch reached the Euler-representation guard band",
    }

    def __init__(self, log):
        if log.end_reason not in self.MESSAGES:
            raise ValueError(f"unknown abort reason {log.end_reason!r}")
        super().__init__(f"{self.MESSAGES[log.end_reason]} at t={log.abort_time:.3f} s")
        self.log = log
