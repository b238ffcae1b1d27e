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
    params_from_tag,
)
from .operators import (
    InvalidMode,
    KineticMatrix,
    ModeSet,
    NumericalFailure,
    SingularClosure,
    System,
    assemble_kinetic,
    eigenmodes,
    pseudo_hermiticity_defect,
    spectrum,
    synthesize_state,
)
from .observables import (
    GlobalSummary,
    InsufficientData,
    ObservableFields,
    continuity_residuals,
    global_summary,
    local_fields,
    two_component_fields,
)
from .evolution import (
    CayleyPropagator,
    EvolutionConfig,
    TrajectoryRecord,
    check_majorana_preservation,
    evolve,
)

__version__ = "0.1.0"
