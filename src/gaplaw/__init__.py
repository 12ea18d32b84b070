"""Numerical laboratory for the two-disk p-Laplace perfect-conductivity
problem: how fast the electric field blows up as the gap closes.

Modules: geometry (disks, gaps, barrier circles and the neck flux
sandwich they give), asymptotics (blow-up exponents and limit constants,
standard library only), mesh / solver (graded FEM and the floating-/tied-
potential energy minimizer), flux (boundary flux integrals and the
linear-case functional), sweep (delta ladders, rate fits, verdicts, CSV
persistence) and cli (the `gaplaw` command).  Import each name from its
module, e.g. `from gaplaw.sweep import run_sweep`; a module's `__all__`
lists its functions and classes (mesh's also its node tags); a constant
such as `flux.MIN_LADDER_POINTS` is read from its module.  This package
imports none of them.
"""

__version__ = "0.1.0"
