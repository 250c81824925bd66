"""Thermal and magnetic entanglement in the 1D isotropic Heisenberg ring.

Exact diagonalization in magnetization sectors, Gibbs states, two-site
reduced density matrices, and pairwise entanglement/correlation measures,
plus parameter scans, critical-point detection, and figure datasets.
"""

from .basis import MAX_SPINS, ModelParams, SectorBasis, enumerate_sector, zeeman_eigenvalue
from .errors import (
    DomainError,
    MeasurementError,
    NumericError,
    ParameterError,
    SpinChainError,
    StateValidityError,
)
from .hamiltonian import (
    SectorHamiltonian,
    build_sector_hamiltonian,
    critical_field_closed_form,
    critical_temperature_two_qubit,
)
from .measures import (
    ConcurrenceResult,
    analytic_two_qubit_concurrence,
    chsh_quantity,
    chsh_violated,
    concurrence,
    correlation_matrix,
    eof_from_concurrence,
    mutual_information,
    project_remaining_down,
    w_state,
)
from .numerics import binary_entropy, eigh_symmetric, von_neumann_entropy
from .scans import (
    EntanglementLengthResult,
    FigureDataset,
    LipschitzReport,
    ScanGrid,
    StaircaseResult,
    entanglement_length,
    figure_dataset,
    lipschitz_check,
    magnetization_staircase,
    scan_pair_measures,
)
from .thermal import (
    ChainSpectrum,
    GibbsEnsemble,
    PairDensityMatrix,
    diagonalize_chain,
    gibbs_weights,
    pair_rdm,
    pure_state_pair_rdm,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_SPINS",
    "ModelParams",
    "SectorBasis",
    "enumerate_sector",
    "zeeman_eigenvalue",
    "SpinChainError",
    "ParameterError",
    "DomainError",
    "StateValidityError",
    "NumericError",
    "MeasurementError",
    "SectorHamiltonian",
    "build_sector_hamiltonian",
    "critical_field_closed_form",
    "critical_temperature_two_qubit",
    "eigh_symmetric",
    "binary_entropy",
    "von_neumann_entropy",
    "ChainSpectrum",
    "GibbsEnsemble",
    "PairDensityMatrix",
    "diagonalize_chain",
    "gibbs_weights",
    "pair_rdm",
    "pure_state_pair_rdm",
    "ConcurrenceResult",
    "concurrence",
    "eof_from_concurrence",
    "analytic_two_qubit_concurrence",
    "mutual_information",
    "correlation_matrix",
    "chsh_quantity",
    "chsh_violated",
    "w_state",
    "project_remaining_down",
    "ScanGrid",
    "StaircaseResult",
    "EntanglementLengthResult",
    "LipschitzReport",
    "FigureDataset",
    "scan_pair_measures",
    "magnetization_staircase",
    "entanglement_length",
    "lipschitz_check",
    "figure_dataset",
]
