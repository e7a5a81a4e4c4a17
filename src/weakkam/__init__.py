"""Effective Hamiltonians, correctors and minimal-measure diagnostics on the
torus, with a quasi-periodic swing-equation simulator."""

__version__ = "0.1.0"

from .cell import (
    CellProblem,
    CellSolution,
    ContinuationError,
    NewtonState,
    SolverOptions,
    continuation_solve,
    fiber_decomposed_solve,
    fiber_jump,
    objective,
    solve_cell,
)
from .fields import (
    ScalarField,
    TorusGrid,
    VectorField,
    divergence_x,
    gradient_x,
    inner,
    integrate,
    log_mean_exp,
)
from .hamiltonians import (
    SwingModel,
    SwingParams,
    TrigPoly,
    lagrangian,
    make_integrable,
    make_pendulum,
    make_swing,
)
from .measures import (
    GibbsMeasure,
    MeasureStats,
    effective_lagrangian,
    energy_statistics,
    gibbs_measure,
    measure_stats,
    rotation_vector,
    tail_mass,
)
from .oracle1d import (
    Potential1D,
    effective_hamiltonian_1d,
    momentum_of_energy,
    oracle_table,
    potential_from_model,
)
from .swingsim import (
    SwingTrajectory,
    compare_with_homogenization,
    integrate_swing,
    rotation_number,
)
