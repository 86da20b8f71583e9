"""Exception hierarchy shared by all oamring modules.

Each class maps onto one CLI exit code so that scripted callers can
distinguish bad input from numerical breakdown.
"""


class OamringError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigurationError(OamringError):
    """Invalid parameters, config keys, or option values (exit code 2)."""

    exit_code = 2


class ToleranceError(OamringError):
    """A numerical tolerance contract was violated (exit code 3)."""

    exit_code = 3


class IntegrationError(ToleranceError):
    """Adaptive step-size underflow or a spent step budget; carries the last
    good time reached."""

    def __init__(self, message: str, tau_last: float):
        super().__init__(f"{message} (last good tau = {tau_last:.6g})")
        self.tau_last = tau_last


class ResolutionError(ToleranceError):
    """Fourier-grid convergence failure; names the offending harmonic."""

    def __init__(self, k: int, delta: float, tol: float):
        super().__init__(
            f"coefficient k={k} changed by {delta:.3e} under grid doubling "
            f"(tolerance {tol:.1e}); increase the quadrature grid"
        )
        self.k = k


class TruncationError(OamringError):
    """Band-edge modes acquired population; the mode band is too small (exit code 4)."""

    exit_code = 4
