"""Dense-matrix oracle: small-system ground truth for every estimator.

Everything here works on explicit 2^n x 2^n arrays and is deliberately
independent of the sampling code, so Monte-Carlo results can be checked
against an implementation that shares no formulas with them.  State-vector
work is capped at 12 qubits, all-Pauli sweeps at 10.

Circuits are simulated in the Schroedinger picture.  The noisy run is on
the density matrix, held as a (2,)*2n tensor (row qubits, then column
qubits).  Each gate applies one local superoperator, sum_Q p_Q (QU) (x)
conj(QU) on the gate's a qubits, contracted against the gate's row and
column axes: O(4^(n+a)) work per gate instead of dense 2^n x 2^n products.
The superoperator is built from the gate's local unitary and its noise
channel's full term map, so correlated (non-product) gate noise is handled,
and nothing here reuses the Heisenberg-picture conjugation tables of the
mitigation code.  The ideal run is unitary, so on a pure state it evolves
the 2^n statevector, one local unitary per gate; the dense ideal run is
kept as a reference.

Expectations of Pauli strings and observables are one gather per term: a
Pauli string has one nonzero entry per row, P[r, r ^ x], so tr(P rho) sums
P[r, r ^ x] rho[r ^ x, r] over the 2^n rows, and <psi|P|psi> sums
conj(psi[r]) P[r, r ^ x] psi[r ^ x].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channels import PauliChannel, ProductChannel, TransferMatrix
from .observables import Observable
from .paulis import PAULI_MATRICES, PauliString, enumerate_low_weight

STATE_QUBIT_CAP = 12
HERMITICITY_TOLERANCE = 1e-10

# Rotations taking the +1 eigenvector of X/Y/Z to |0>.
BASIS_ROTATIONS = (
    np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2),        # X
    np.array([[1, -1j], [1, 1j]], dtype=np.complex128) / math.sqrt(2),      # Y
    np.eye(2, dtype=np.complex128),                                         # Z
)

_H_GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_S_GATE = np.array([[1, 0], [0, 1j]], dtype=np.complex128)


@dataclass
class DenseState:
    """A validated density matrix."""

    n: int
    rho: np.ndarray

    @classmethod
    def from_matrix(cls, rho: np.ndarray, validate: bool = True) -> "DenseState":
        rho = np.asarray(rho, dtype=np.complex128)
        dim = rho.shape[0]
        n = int(round(math.log2(dim)))
        if rho.ndim != 2 or rho.shape != (dim, dim) or 2**n != dim:
            raise ValueError(f"expected a 2^n x 2^n matrix, got shape {rho.shape}")
        if n > STATE_QUBIT_CAP:
            raise ValueError(f"dense states capped at {STATE_QUBIT_CAP} qubits")
        if validate:
            if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOLERANCE:
                raise ValueError("density matrix is not Hermitian")
            if abs(np.trace(rho).real - 1.0) > HERMITICITY_TOLERANCE:
                raise ValueError(f"trace is {np.trace(rho).real:g}, expected 1")
            if float(np.min(np.linalg.eigvalsh(rho))) < -1e-9:
                raise ValueError("density matrix has a negative eigenvalue")
        return cls(n, rho)

    @classmethod
    def pure(cls, vector: np.ndarray) -> "DenseState":
        """|psi><psi| of ``vector``, normalized first."""
        vector = np.asarray(vector, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(vector)
        if norm == 0:
            raise ValueError("zero vector")
        return cls.from_unit_vector(vector / norm)

    @classmethod
    def from_unit_vector(cls, psi: np.ndarray) -> "DenseState":
        """|psi><psi| of a statevector that already has unit norm."""
        return cls.from_matrix(np.outer(psi, psi.conj()), validate=False)

    @classmethod
    def maximally_mixed(cls, n: int) -> "DenseState":
        dim = 2**n
        return cls(n, np.eye(dim, dtype=np.complex128) / dim)

    @classmethod
    def product_eigenstate(cls, axes: Sequence[int], signs: Sequence[int]) -> "DenseState":
        """Product of single-qubit Pauli eigenstates; axes coded 0=X,1=Y,2=Z."""
        rho = np.array([[1.0]], dtype=np.complex128)
        for axis, sign in zip(axes, signs):
            qubit = (np.eye(2) + sign * PAULI_MATRICES[axis + 1]) / 2.0
            rho = np.kron(rho, qubit)
        return cls(len(tuple(axes)), rho)

    def expectation(self, p: PauliString | Observable) -> float:
        return expectation(p, self)


def haar_random_vector(n: int, seed_or_rng) -> np.ndarray:
    """Haar-random unit statevector: a normalized complex Gaussian vector."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    real = rng.standard_normal(2**n)
    imag = rng.standard_normal(2**n)
    vector = real + 1j * imag
    return vector / np.linalg.norm(vector)


def haar_random_state(n: int, seed_or_rng) -> DenseState:
    """The density matrix of ``haar_random_vector``."""
    return DenseState.from_unit_vector(haar_random_vector(n, seed_or_rng))


# -- channel application -------------------------------------------------------


class DenseChannel:
    """A channel given by explicit Kraus operators (e.g. unitary conjugation)."""

    def __init__(self, n: int, kraus: Iterable[np.ndarray], check: bool = True):
        self.n = n
        self.kraus = [np.asarray(k, dtype=np.complex128) for k in kraus]
        if check:
            dim = 2**n
            total = sum(k.conj().T @ k for k in self.kraus)
            if np.max(np.abs(total - np.eye(dim))) > 1e-9:
                raise ValueError("Kraus operators do not sum to the identity")

    @classmethod
    def from_unitary(cls, unitary: np.ndarray) -> "DenseChannel":
        unitary = np.asarray(unitary, dtype=np.complex128)
        n = int(round(math.log2(unitary.shape[0])))
        return cls(n, [unitary])


def _superop_from_ptm(ptm: np.ndarray) -> np.ndarray:
    """(2,2,2,2) tensor S with rho'_{rc} = sum S[r,c,r',c'] rho_{r'c'}."""
    s = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    for a in range(4):
        for b in range(4):
            if ptm[a, b] == 0.0:
                continue
            s += 0.5 * ptm[a, b] * np.einsum(
                "rc,xw->rcwx", PAULI_MATRICES[a], PAULI_MATRICES[b]
            )
    return s


def _apply_qubit_superop(op_tensor: np.ndarray, s: np.ndarray, j: int, n: int) -> np.ndarray:
    out = np.tensordot(op_tensor, s, axes=[(j, n + j), (2, 3)])
    return np.moveaxis(out, (2 * n - 2, 2 * n - 1), (j, n + j))


def apply_to_operator(channel, op: np.ndarray) -> np.ndarray:
    """Linear action of a channel on an arbitrary (not necessarily PSD) matrix."""
    op = np.asarray(op, dtype=np.complex128)
    n = int(round(math.log2(op.shape[0])))
    if isinstance(channel, PauliChannel):
        if channel.n != n:
            raise ValueError(f"channel acts on {channel.n} qubits, operator on {n}")
        if channel.is_product:
            eigs = channel.qubit_eigenvalues()
            tensor = op.reshape((2,) * (2 * n))
            for j in range(n):
                s = _superop_from_ptm(np.diag(eigs[j]))
                tensor = _apply_qubit_superop(tensor, s, j, n)
            return tensor.reshape(op.shape)
        out = np.zeros_like(op)
        for q, prob in channel.sparse_terms().items():
            m = q.matrix()
            out += prob * (m @ op @ m)
        return out
    if isinstance(channel, ProductChannel):
        if channel.n != n:
            raise ValueError(f"channel acts on {channel.n} qubits, operator on {n}")
        tensor = op.reshape((2,) * (2 * n))
        for j in range(n):
            s = _superop_from_ptm(channel.ptm(j))
            tensor = _apply_qubit_superop(tensor, s, j, n)
        return tensor.reshape(op.shape)
    if isinstance(channel, DenseChannel):
        if channel.n != n:
            raise ValueError(f"channel acts on {channel.n} qubits, operator on {n}")
        return sum(k @ op @ k.conj().T for k in channel.kraus)
    raise TypeError(f"cannot apply {type(channel).__name__}")


def apply_channel(channel, state: DenseState) -> DenseState:
    out = apply_to_operator(channel, state.rho)
    return DenseState(state.n, out)


def expectation(observable: PauliString | Observable, state: DenseState | np.ndarray) -> float:
    """tr(O rho) of a DenseState, or <psi|O|psi> of a unit statevector, by
    one gather of 2^n entries per Pauli term (see the module docstring)."""
    psi = None if isinstance(state, DenseState) else np.asarray(state).reshape(-1)
    dim = len(state.rho) if psi is None else len(psi)
    if dim != 1 << observable.n:
        raise ValueError(f"observable acts on {observable.n} qubits, the state has dimension {dim}")
    terms = observable.terms().items() if isinstance(observable, Observable) else [(observable, 1.0)]
    rows = np.arange(dim)
    value = 0j
    for p, coeff in terms:
        columns, entries = p.row_entries()
        if psi is None:
            value += coeff * np.dot(entries, state.rho[columns, rows])
        else:
            value += coeff * np.vdot(psi, entries * psi[columns])
    if abs(value.imag) > 1e-8:
        raise ValueError(f"expectation has imaginary part {value.imag:g}")
    return float(value.real)


# -- gates and circuits --------------------------------------------------------


def gate_unitary(kind: str, qubits: Sequence[int], n: int) -> np.ndarray:
    """Full 2^n unitary of a named gate; qubit 0 is the most significant bit."""
    qubits = tuple(qubits)
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
    if kind in ("H", "S"):
        (q,) = qubits
        u2 = _H_GATE if kind == "H" else _S_GATE
        left = np.eye(2**q, dtype=np.complex128)
        right = np.eye(2 ** (n - q - 1), dtype=np.complex128)
        return np.kron(np.kron(left, u2), right)
    if kind == "CNOT":
        control, target = qubits
        if control == target:
            raise ValueError("CNOT control and target must differ")
        dim = 2**n
        idx = np.arange(dim)
        control_bit = (idx >> (n - 1 - control)) & 1
        out_idx = idx ^ (control_bit << (n - 1 - target))
        u = np.zeros((dim, dim), dtype=np.complex128)
        u[out_idx, idx] = 1.0
        return u
    raise ValueError(f"unknown gate kind {kind!r}")


def gate_superop(kind: str, arity: int, noise: PauliChannel | None) -> np.ndarray:
    """(2,)*4a tensor S[r, c, r', c'] of a gate and its noise on a local register:
    rho'_{rc} = sum S[r, c, r', c'] rho_{r'c'}, with S = sum_Q p_Q (QU) (x) conj(QU)."""
    u = gate_unitary(kind, range(arity), arity)
    terms = noise.terms() if noise is not None else {PauliString.identity(arity): 1.0}
    s = np.zeros((4**arity, 4**arity), dtype=np.complex128)
    for q, prob in terms.items():
        kraus = q.matrix() @ u
        s += prob * np.kron(kraus, kraus.conj())
    return s.reshape((2,) * (4 * arity))


def simulate_circuit(circuit, state: DenseState, noisy: bool) -> DenseState:
    """Run a Clifford circuit on a dense state, with or without gate noise."""
    n = circuit.n
    superops: dict[str, np.ndarray] = {}
    rho = state.rho.reshape((2,) * (2 * n))
    for gate in circuit.gates:
        a = len(gate.qubits)
        if gate.kind not in superops:
            noise = circuit.noise.get(gate.kind) if noisy else None
            superops[gate.kind] = gate_superop(gate.kind, a, noise)
        axes = [*gate.qubits, *(n + q for q in gate.qubits)]
        rho = np.tensordot(rho, superops[gate.kind], axes=(axes, range(2 * a, 4 * a)))
        rho = np.moveaxis(rho, range(2 * n - 2 * a, 2 * n), axes)
    return DenseState(n, rho.reshape(2**n, 2**n))


def simulate_noisy_circuit(circuit, state: DenseState) -> DenseState:
    return simulate_circuit(circuit, state, noisy=True)


def simulate_ideal_circuit(circuit, state: DenseState) -> DenseState:
    return simulate_circuit(circuit, state, noisy=False)


def simulate_ideal_statevector(circuit, psi: np.ndarray) -> np.ndarray:
    """Run a Clifford circuit without noise on a statevector: each gate's
    local unitary is contracted against the gate's axes of the (2,)*n
    tensor, O(2^(n+a)) work per gate on a qubits."""
    n = circuit.n
    unitaries: dict[str, np.ndarray] = {}
    tensor = np.asarray(psi, dtype=np.complex128).reshape((2,) * n)
    for gate in circuit.gates:
        a = len(gate.qubits)
        if gate.kind not in unitaries:
            unitaries[gate.kind] = gate_unitary(gate.kind, range(a), a).reshape((2,) * (2 * a))
        tensor = np.tensordot(unitaries[gate.kind], tensor, axes=(range(a, 2 * a), gate.qubits))
        tensor = np.moveaxis(tensor, range(a), gate.qubits)
    return tensor.reshape(-1)


# -- brute-force spectra -------------------------------------------------------


def brute_force_eigenvalues(channel, k: int) -> dict[PauliString, float]:
    """lambda_P = tr(P E(P)) / 2^n for every weight <= k string."""
    n = channel.n
    out: dict[PauliString, float] = {}
    scale = 1.0 / 2**n
    for p in enumerate_low_weight(n, k):
        mat = p.matrix()
        img = apply_to_operator(channel, mat)
        value = np.trace(mat @ img) * scale
        if abs(value.imag) > 1e-9:
            raise ValueError(f"eigenvalue of {p} is not real: {value}")
        out[p] = float(value.real)
    return out


def brute_force_transfer(channel, k: int) -> TransferMatrix:
    """M[P][Q] = tr(E(P) Q) / 2^n on the weight <= k basis, via dense algebra."""
    n = channel.n
    basis = tuple(enumerate_low_weight(n, k))
    mats = [p.matrix() for p in basis]
    scale = 1.0 / 2**n
    matrix = np.empty((len(basis), len(basis)))
    for i, p in enumerate(basis):
        img = apply_to_operator(channel, mats[i])
        for j in range(len(basis)):
            value = np.trace(img @ mats[j]) * scale
            if abs(value.imag) > 1e-9:
                raise ValueError(f"transfer entry ({p}, {basis[j]}) is not real")
            matrix[i, j] = value.real
    return TransferMatrix(n, k, basis, matrix)


# -- measurement simulation ----------------------------------------------------


def basis_outcome_probabilities(state: DenseState, axes: Sequence[int]) -> np.ndarray:
    """Joint outcome probabilities (length 2^n) for a product Pauli basis.

    Outcome index bit j (qubit 0 most significant) is 0 for +1 and 1 for -1.
    """
    rot = np.array([[1.0]], dtype=np.complex128)
    for axis in axes:
        rot = np.kron(rot, BASIS_ROTATIONS[axis])
    probs = np.real(np.einsum("ij,jk,ik->i", rot, state.rho, rot.conj()))
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"outcome probabilities sum to {total:g}")
    return probs / total


def sample_pauli_basis_outcomes(
    state: DenseState, bases: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample measurement signs for each record's product basis.

    ``bases`` is (N, n) with axis codes; returns (N, n) int8 signs.  Records
    sharing a basis are sampled together from the exact joint distribution.
    """
    bases = np.asarray(bases)
    count, n = bases.shape
    signs = np.empty((count, n), dtype=np.int8)
    uniques, inverse = np.unique(bases, axis=0, return_inverse=True)
    bit_shift = np.arange(n - 1, -1, -1)
    for g, axes in enumerate(uniques):
        rows = np.flatnonzero(inverse == g)
        probs = basis_outcome_probabilities(state, axes)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        outcomes = np.searchsorted(cdf, rng.random(rows.size), side="right")
        bits = (outcomes[:, None] >> bit_shift[None, :]) & 1
        signs[rows] = (1 - 2 * bits).astype(np.int8)
    return signs


# -- exact estimator moments (the unbiasedness oracle) -------------------------


def shadow_estimator_expectations(
    channel, paulis: Iterable[PauliString]
) -> dict[PauliString, float]:
    """Exact expectation of the per-record channel-shadow estimator.

    Enumerates every (input eigenstate, basis, outcome) combination with its
    probability and averages the estimator value.  For a Pauli channel this
    must equal (1/3)^|P| lambda_P.  Exponential in n; intended for n <= 3.
    """
    pairs = [(p, p) for p in paulis]
    moments = shadow_transfer_estimator_expectations(channel, pairs)
    return {p: moments[(p, p)] for p, _ in pairs}


def shadow_transfer_estimator_expectations(
    channel, pairs: Sequence[tuple[PauliString, PauliString]]
) -> dict[tuple[PauliString, PauliString], float]:
    """Exact expectation of the transfer-entry estimator for (in P, out Q) pairs.

    The estimator's input-side factor uses P against the prepared eigenstate;
    the output side accumulates prod_j tr(Q_j (3|t_j><t_j| - I)).  For each
    pair the return value is E[x_hat], which for the diagonal P = Q case is
    (1/3)^|P| lambda_P.
    """
    n = channel.n
    if n > 3:
        raise ValueError(f"exact estimator enumeration capped at 3 qubits, got n={n}")
    out = {pair: 0.0 for pair in pairs}
    state_weight = 1.0 / 6**n
    basis_weight = 1.0 / 3**n
    axis_choices = list(itertools.product(range(3), repeat=n))
    sign_choices = list(itertools.product((1, -1), repeat=n))
    for axes in axis_choices:
        for in_signs in sign_choices:
            prep = DenseState.product_eigenstate(axes, in_signs)
            in_values = {
                p: expectation(p, prep) for p in {p for p, _ in pairs}
            }
            evolved = apply_channel(channel, prep)
            for basis in axis_choices:
                probs = basis_outcome_probabilities(evolved, basis)
                for outcome_idx, prob in enumerate(probs):
                    if prob == 0.0:
                        continue
                    t_signs = [
                        1 - 2 * ((outcome_idx >> (n - 1 - j)) & 1) for j in range(n)
                    ]
                    weight = prob * state_weight * basis_weight
                    for p, q in pairs:
                        factor = 1.0
                        for j in range(n):
                            code = q.letter_code(j)
                            if code == 0:
                                continue
                            if basis[j] != code - 1:
                                factor = 0.0
                                break
                            factor *= 3.0 * t_signs[j]
                        if factor:
                            out[(p, q)] += weight * factor * in_values[p]
    return out
