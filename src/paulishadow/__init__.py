"""Shadow-based learning and reversal of Pauli and weight-contracting noise.

The package samples classical shadows of quantum channels (simulated
exactly), estimates channel eigenvalues and adjoint transfer matrices from
them, rescales observables to undo the noise, and mitigates noisy Clifford
circuits gate by gate.  Matrix-free statevector oracles supply the ideal and
noisy values that the commands compare against.
"""

from .paulis import (
    PauliString,
    enumerate_low_weight,
    iter_all_paulis,
    low_weight_count,
    pauli_from_index,
)
from .observables import (
    Observable,
    heisenberg_observable,
    locality_norm_constant,
)
from .channels import (
    ConfigError,
    PauliChannel,
    ProductChannel,
    TransferMatrix,
    amplitude_damping_ptm,
    channel_from_config,
    depolarizing_ptm,
    exact_diagonal,
    exact_transfer_matrix,
    load_channel,
    reference_product_channel,
    walsh_eigenvalues,
    walsh_probabilities,
)
from .recovery import (
    BackwardObservable,
    IllConditionedError,
    RecoveryError,
    RecoveryFloorError,
    backward_observable,
    backward_observable_general,
    recover_expectation,
    recovery_report,
    solve_upper_block_triangular,
)
from .clifford import (
    CliffordCircuit,
    Gate,
    exact_gate_estimates,
    mitigation_coefficients,
)
from .shadows import (
    estimate_eigenvalues,
    estimate_gate_eigenvalues,
    estimate_state_expectations,
    estimate_transfer_matrix,
    iter_channel_shadow_blocks,
    plan_sample_size,
    sample_gate_shadows,
)

__version__ = "0.1.0"

__all__ = [
    "PauliString",
    "enumerate_low_weight",
    "iter_all_paulis",
    "low_weight_count",
    "pauli_from_index",
    "Observable",
    "heisenberg_observable",
    "locality_norm_constant",
    "ConfigError",
    "PauliChannel",
    "ProductChannel",
    "TransferMatrix",
    "amplitude_damping_ptm",
    "channel_from_config",
    "depolarizing_ptm",
    "exact_diagonal",
    "exact_transfer_matrix",
    "load_channel",
    "reference_product_channel",
    "walsh_eigenvalues",
    "walsh_probabilities",
    "BackwardObservable",
    "IllConditionedError",
    "RecoveryError",
    "RecoveryFloorError",
    "backward_observable",
    "backward_observable_general",
    "recover_expectation",
    "recovery_report",
    "solve_upper_block_triangular",
    "CliffordCircuit",
    "Gate",
    "exact_gate_estimates",
    "mitigation_coefficients",
    "estimate_eigenvalues",
    "estimate_gate_eigenvalues",
    "estimate_state_expectations",
    "estimate_transfer_matrix",
    "iter_channel_shadow_blocks",
    "plan_sample_size",
    "sample_gate_shadows",
]
