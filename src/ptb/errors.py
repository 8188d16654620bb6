"""Exception hierarchy shared by every ptb module, each class with its exit code."""


class PtbError(Exception):
    """Base class for all package errors."""
    exit_code = 4


class NonTimelikeP(PtbError):
    """Momentum (or boost axis) is not a future-pointing timelike vector."""
    exit_code = 3


class AdmissibilityViolation(PtbError):
    """A physical admissibility condition on (m1, m2, lambda) fails."""
    exit_code = 3


class LambdaBoundViolation(AdmissibilityViolation):
    """Binding first integral out of range: requires m1**2 + lambda > 0.

    For m1 <= m2 this is the same inequality as the reality requirement
    mu + lambda > |nu| and as the energy condition E1 > 0.
    """


class InadmissibleAlpha(AdmissibilityViolation):
    """Extreme-mass-ratio parameters violate alpha > -eps."""


class DomainError(PtbError):
    """Potential model evaluated outside its domain (e.g. zero separation)."""


class BadParameter(PtbError):
    """Invalid model or constructor parameter."""
    exit_code = 2


class StepFailure(PtbError):
    """The integrator gave up: step size underflow, a non-finite stage, the step
    or dense-output budget exhausted, or a sample grid or max_step too fine for it."""


class NonMonotoneTime(PtbError):
    """Center-of-mass time is not strictly increasing along the trajectory."""
    exit_code = 5


class OutOfRange(PtbError):
    """Query point outside the sampled range."""


class FrameMismatch(PtbError):
    """Lab-frame momentum inconsistent with the trajectory's mass shell."""


class NoRoot(PtbError):
    """A root search came up empty: roots.brent, the circular-orbit radius
    (find_circular), the shell closure (binding) or a T query (lambda_from_T)."""


class NotCentral(PtbError):
    """Potential model lacks the central/zy-independent structure required here."""


class DegenerateOrbit(PtbError):
    """Candidate circular orbit sits at the degenerate point 1 + 2*dV/dytil2 = 0."""


class ConfigError(PtbError):
    """Scenario configuration document is invalid."""
    exit_code = 2
