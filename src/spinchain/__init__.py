"""Thermal and magnetic entanglement in the 1D isotropic Heisenberg ring.

Exact diagonalization in magnetization sectors, Gibbs states, two-site
reduced density matrices, and pairwise entanglement/correlation measures,
plus parameter scans, critical-point detection, and figure datasets.

The public names load on first use (PEP 562), so `import spinchain` loads
no numpy: `spinchain.cli` can set numpy's BLAS thread count before numpy
starts.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that owns it, in `__all__` order.
_EXPORTS = {
    "MAX_SPINS": "basis",
    "ModelParams": "basis",
    "SectorBasis": "basis",
    "enumerate_sector": "basis",
    "SpinChainError": "errors",
    "ParameterError": "errors",
    "DomainError": "errors",
    "StateValidityError": "errors",
    "NumericError": "errors",
    "MeasurementError": "errors",
    "critical_field_closed_form": "scans",
    "critical_temperature_two_qubit": "measures",
    "eigh_symmetric": "thermal",
    "binary_entropy": "measures",
    "von_neumann_entropy": "measures",
    "ChainSpectrum": "thermal",
    "GibbsEnsemble": "thermal",
    "PairDensityMatrix": "measures",
    "diagonalize_chain": "thermal",
    "gibbs_weights": "thermal",
    "pair_rdm": "thermal",
    "pure_state_pair_rdm": "measures",
    "ConcurrenceResult": "measures",
    "concurrence": "measures",
    "eof_from_concurrence": "measures",
    "analytic_two_qubit_concurrence": "measures",
    "mutual_information": "measures",
    "correlation_matrix": "measures",
    "chsh_quantity": "measures",
    "chsh_violated": "measures",
    "w_state": "measures",
    "project_remaining_down": "measures",
    "ScanGrid": "scans",
    "StaircaseResult": "scans",
    "EntanglementLengthResult": "scans",
    "LipschitzReport": "scans",
    "FigureDataset": "scans",
    "scan_pair_measures": "scans",
    "magnetization_staircase": "scans",
    "entanglement_length": "scans",
    "lipschitz_check": "scans",
    "figure_dataset": "scans",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
