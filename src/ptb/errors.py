"""Exception hierarchy shared by every ptb module."""


class PtbError(Exception):
    """Base class for all package errors."""


class NonTimelikeP(PtbError):
    """Momentum (or boost axis) is not a future-pointing timelike vector."""


class AdmissibilityViolation(PtbError):
    """A physical admissibility condition on (m1, m2, lambda) fails."""


class RealityViolation(AdmissibilityViolation):
    """Collective mass squared would be complex: requires mu + lambda > |nu|."""


class LambdaBoundViolation(RealityViolation):
    """Binding first integral out of range: requires m1**2 + lambda > 0.

    For m1 <= m2 this is the same inequality as the reality requirement
    mu + lambda > |nu|, so this class subclasses RealityViolation and is
    the one actually raised.
    """


class EnergyConditionViolation(AdmissibilityViolation):
    """Individual energies not strictly positive: requires M**2 > 2|nu|."""


class MassBoundViolation(EnergyConditionViolation):
    """Collective mass below the splitting bound: requires M**2 > m2**2 - m1**2."""


class InadmissibleAlpha(AdmissibilityViolation):
    """Extreme-mass-ratio parameters violate alpha > -eps."""


class DomainError(PtbError):
    """Potential model evaluated outside its domain (e.g. zero separation)."""


class BadParameter(PtbError):
    """Invalid model or constructor parameter."""


class StepFailure(PtbError):
    """Adaptive integrator step size underflowed or step budget exhausted."""


class NonMonotoneTime(PtbError):
    """Center-of-mass time is not strictly increasing along the trajectory."""


class OutOfRange(PtbError):
    """Query point outside the sampled range."""


class FrameMismatch(PtbError):
    """Lab-frame momentum inconsistent with the trajectory's mass shell."""


class NoRoot(PtbError):
    """No circular-orbit radius exists in the search bracket."""


class NotCentral(PtbError):
    """Potential model lacks the central/zy-independent structure required here."""


class DegenerateOrbit(PtbError):
    """Candidate circular orbit sits at the degenerate point 1 + 2*dV/dytil2 = 0."""


class ConfigError(PtbError):
    """Scenario configuration document is invalid."""
