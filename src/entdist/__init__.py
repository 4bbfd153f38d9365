"""Entanglement distance, entanglement metric and spectrum for pure M-qubit states."""

from .families import (
    BRS,
    FAMILY_TAGS,
    GHZL,
    THREEQ,
    ClosedForm,
    FamilySpec,
    brs_state,
    closed_form_E,
    family_state,
    ghzl_state,
    three_qubit_state,
)
from .metric import (
    EntanglementMetric,
    distance_density,
    entanglement_measure,
    entanglement_metric,
    metric_matrix,
    optimal_directions,
    spectrum,
    w_vectors,
)
from .qstate import (
    MAX_QUBITS,
    StateFileError,
    StateVector,
    apply_local_unitary,
    make_basis_state,
    read_state_file,
    write_state_file,
)
from .verify import (
    OptimizerReport,
    bloch_vector_oracle,
    invariance_check,
    minimize_trace_numeric,
    reduced_density_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BRS",
    "GHZL",
    "THREEQ",
    "FAMILY_TAGS",
    "MAX_QUBITS",
    "StateVector",
    "StateFileError",
    "EntanglementMetric",
    "FamilySpec",
    "ClosedForm",
    "OptimizerReport",
    "make_basis_state",
    "apply_local_unitary",
    "read_state_file",
    "write_state_file",
    "w_vectors",
    "optimal_directions",
    "entanglement_measure",
    "metric_matrix",
    "entanglement_metric",
    "spectrum",
    "distance_density",
    "brs_state",
    "ghzl_state",
    "three_qubit_state",
    "family_state",
    "closed_form_E",
    "minimize_trace_numeric",
    "bloch_vector_oracle",
    "reduced_density_matrix",
    "invariance_check",
]
