"""Numerical study of the two-orbital mass-critical variational problem.

The package solves two coupled problems on a 3-D Dirichlet box: the
concentration thresholds (the dilation-invariant kinetic/interaction
quotients at rank 1 and rank 2) and the trapped two-orbital minimization
below the rank-2 threshold, plus the machinery to drive the coupling toward
the threshold and test the predicted blow-up laws — energy and density-norm
scaling exponents, profile convergence, concentration at the flattest trap
minimum, multiplier structure, decay rates, and supercritical divergence.
"""

from .grid import (
    BoxGrid,
    GridError,
    GridMismatchError,
    NonFiniteFieldError,
    ScalarField,
    SnapshotFormatError,
    boundary_max_abs,
    dilate,
    dilation_generator,
    inner,
    integrate,
    kinetic_energy,
    laplacian_apply,
    norm,
    read_snapshot,
    resample_scaled,
    sample,
    write_snapshot,
)
from .model import (
    Diagnostics,
    TrapError,
    TrapMetadata,
    TrapPotential,
    Well,
    density,
    diagnose,
    energy,
    hamiltonian_apply,
    multipliers,
    potential_field,
    sum_rule_residual,
    virial_residual,
)
from .frames import (
    NearSingularGramError,
    OrbitalPair,
    PairDefectError,
    gram,
    loewdin,
    loewdin_frame,
    project_tangent,
    retract,
)
from .solvers import (
    EigResult,
    SolveResult,
    SolverConfig,
    SolverError,
    SweepOutcome,
    UnderResolvedError,
    continuation_sweep,
    lowest_eigenpairs,
    minimize_ground_state,
    minimize_quotient_rank1,
    minimize_quotient_rank2,
    quotient_value,
    scf_refine,
)
from .radial import (
    BracketError,
    GNConstants,
    RadialProfile,
    gn_constants,
    shoot_soliton,
    shooting_report,
)
from .asymptotics import (
    DecayRates,
    ProfileExtract,
    ScalingFit,
    SweepFormatError,
    SweepRecord,
    WindowError,
    build_report,
    energy_constant_check,
    find_peak,
    fit_decay_rate,
    fit_power_law,
    multiplier_limits,
    read_sweep_csv,
    rescale_extract,
    track_concentration,
    write_json,
    write_sweep_csv,
)

__version__ = "0.1.0"
