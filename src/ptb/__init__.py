"""Relativistic two-body dynamics on the equal-time slice.

The pipeline: a mass shell fixes the collective mass from the two rest
masses and the interaction first integral; the reduced relative motion runs
in the rest frame of the total momentum against a collective parameter; two
quadratures synchronize the individual clocks and the center-of-mass time;
world lines and the center of energy follow algebraically.

The package re-exports nothing: import names from their submodules, such
as ptb.reduced.integrate or ptb.binding.self_consistent_shell.
"""

__version__ = "0.1.0"
