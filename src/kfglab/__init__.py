"""Numerical laboratory for charged and strictly neutral Klein-Fock-Gordon
particles on a finite 1D interval: U(2)-parameterized boundary conditions,
pseudo self-adjoint two-component dynamics, energy current densities, and
machine verification of the conservation and classification structure."""

from .core import (
    FvState,
    Grid,
    InvalidPotential,
    InvalidState,
    KfgLabError,
    KfgState,
    NATURAL_UNITS,
    PhysicalUnits,
    ScalarPotential,
    SpatialProfile,
    TimeFactor,
    fv_to_kfg,
    kfg_to_fv,
    majorana_project,
)
from .bc import (
    BcParams,
    BcReport,
    CATALOG,
    CoupledBc,
    InvalidParams,
    NotMajoranaCompatible,
    SeparatedBc,
    WrongBranch,
    bc_realization,
    check_confining_conditions,
    check_energy_condition,
    check_tau1_condition,
    classify,
    enumerate_confining_solutions,
    m_matrix,
    majorana_restrict,
    params_from_tag,
    u2_matrix,
)
from .operators import (
    ClosureNotSelfAdjoint,
    DiscreteHamiltonian,
    InvalidMode,
    KineticMatrix,
    ModeSet,
    NumericalFailure,
    SingularClosure,
    System,
    assemble_fv_hamiltonian,
    assemble_kinetic,
    eigenmodes,
    spectrum,
    synthesize_state,
)
from .observables import (
    GlobalSummary,
    InsufficientData,
    ObservableFields,
    boundary_Ej,
    boundary_j,
    boundary_j_E,
    boundary_jtilde_E,
    continuity_residuals,
    decomposition_checks,
    global_summary,
    local_fields,
    two_component_fields,
)
from .evolution import (
    CayleyPropagator,
    EvolutionConfig,
    SingularPropagator,
    TrajectoryRecord,
    check_majorana_preservation,
    evolve,
)

__version__ = "0.1.0"
