"""Numerical laboratory for the two-disk p-Laplace perfect-conductivity
problem: how fast the electric field blows up as the gap closes.

Submodules: geometry (disks, gaps, barrier circles and the neck flux
sandwich they give), asymptotics (blow-up exponents and limit
constants), mesh / solver (graded FEM and the floating-/tied-potential
energy minimizer), flux (boundary flux integrals and the linear-case
functional), sweep (delta ladders, rate fits, verdicts, CLI
persistence).
"""

from .asymptotics import (
    AsymptoticPrediction,
    c_o_quadrature,
    c_o_table,
    gamma_exponent,
    predict,
    table_consistency_report,
    wallis_product,
)
from .flux import (
    FluxReport,
    R0Estimate,
    estimate_r0,
    flux_report,
    q_functional,
    r_delta,
)
from .geometry import (
    AnnulusSpec,
    DomainSpec,
    NeckSpec,
    ParticlePair,
    barrier_flux_bound,
    gap_width,
    upper_barrier_radii,
)
from .mesh import Mesh, MeshParams, build_annulus_mesh, build_mesh
from .solver import (
    DiscreteSolution,
    SolverConfig,
    energy,
    grad_max,
    solve_floating,
    solve_linear_aux,
    solve_prescribed,
    solve_tied,
)
from .sweep import (
    FitResult,
    SweepConfig,
    SweepRecord,
    emit_report,
    fit_power_law,
    run_sweep,
    verify_barrier,
    verify_theorem,
)

__version__ = "0.1.0"
