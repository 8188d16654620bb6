"""Relativistic two-body dynamics on the equal-time slice.

The pipeline: a mass shell fixes the collective mass from the two rest
masses and the interaction first integral; the reduced relative motion runs
in the rest frame of the total momentum against a collective parameter; two
quadratures synchronize the individual clocks and the center-of-mass time;
world lines and the center of energy follow algebraically.
"""

from .binding import (
    binding_energy,
    lambda_shell,
    self_consistent_M,
    self_consistent_circular,
    self_consistent_shell,
)
from .circular import (
    CircularOrbit,
    ConstancyReport,
    PeriodicityReport,
    find_circular,
    verify_periodicity,
    verify_constancy,
)
from .errors import (
    AdmissibilityViolation,
    BadParameter,
    ConfigError,
    DegenerateOrbit,
    DomainError,
    EnergyConditionViolation,
    FrameMismatch,
    InadmissibleAlpha,
    LambdaBoundViolation,
    MassBoundViolation,
    NoRoot,
    NonMonotoneTime,
    NonTimelikeP,
    NotCentral,
    NotSynchronized,
    OutOfRange,
    PtbError,
    RealityViolation,
    StepFailure,
)
from .kinematics import (
    CanonicalState,
    ExternalInternal,
    ScalarQuintet,
    angular_momentum_L2,
    center_of_mass,
    merge,
    noether_N,
    scalar_quintet,
    split,
)
from .mass_ratio import RatioAnalysis, RatioRow, analyze, limit_report, offset_limit
from .mass_shell import (
    MassShell,
    individual_energy_limits,
    lambda_from_M2,
    mass_excess,
    mass_shell_from_lambda,
    nonrel_check,
)
from .minkowski import (
    FourVector,
    boost_from_rest,
    boost_to_rest,
    lorentz_dot,
    tilde_project,
)
from .potentials import (
    CentralPowerPotential,
    FreePotential,
    HarmonicPotential,
    PotentialEval,
    PotentialSpec,
    builtin,
)
from .reduced import (
    IntegratorOptions,
    ReducedState,
    Trajectory,
    TrajectorySample,
    dT_dlambda,
    integrate,
    rest_quintet,
    rhs,
    synchronize,
)
from .toy import (
    ToyParams,
    analytic_T,
    analytic_state,
    dT_dlambda_analytic,
    intF_analytic,
    min_dT_dlambda,
    shell_for_toy,
    sufficient_condition_margin,
    toy_from_masses,
)
from .worldline import (
    WorldlineSet,
    export_lab_frame,
    lambda_from_T,
    resample_uniform_T,
    worldlines,
)

__version__ = "0.1.0"
