"""Term-by-term and dense Schroedinger-picture references that the tests
check the package against.

No command runs these.  Pauli strings go one at a time: a string is
restricted to a gate's qubits and embedded back bit by bit, the symplectic
product gives the commutation bit, and ``conjugate_pauli`` carries one
signed string through one gate by one lookup in the kind's conjugation
table, the term-by-term chain that the vectorized mitigation chain is
compared against.  ``gate_unitary`` embeds a kind's local unitary
(``exact.GATE_UNITARIES``) on any qubits of an n-qubit register.

The dense references work on explicit 2^n x 2^n arrays, capped at 12
qubits (all-Pauli sweeps at 10).  A state is a density matrix
(``DenseState``), a channel acts on it through per-qubit superoperators or
its Kraus sum, an expectation is a trace, and an outcome distribution comes
from the full Kronecker rotation of the basis.  The noisy circuit run holds
the density matrix as a (2,)*2n tensor (row qubits, then column qubits),
and each gate applies one local superoperator, sum_Q p_Q (QU) (x) conj(QU)
on the gate's a qubits: O(4^(n+a)) work per gate.  The estimator
expectations enumerate every prepared eigenstate, basis and outcome
exactly.  Shadow records are (N, n) uint8 cell arrays: built from their
decoded fields by the documented cell code and decoded back through the
package's cell table, or drawn block by block in order on the calling
thread.  ``fixed_stream`` serves given records as a ``BlockStream``, whose
blocks are consecutive row slices, so the estimators read them through the
block driver and its helper threads as they read a sampled stream.  Channel
configs are written in the README's JSON form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from paulishadow.channels import PauliChannel, ProductChannel, TransferMatrix
from paulishadow.clifford import CONJUGATION_TABLES, gate_arity
from paulishadow.exact import BASIS_ROTATIONS, GATE_UNITARIES, _superop_from_ptm, gate_superop
from paulishadow.observables import Observable
from paulishadow.paulis import PAULI_MATRICES, PauliString, enumerate_low_weight
from paulishadow.shadows import _CELL_FIELDS, BlockStream, _joint_cells, block_rng


def records_from_fields(s_axis, s_sign, t_axis, t_sign) -> np.ndarray:
    """Records from (N, n) ``s_axis``, ``s_sign``, ``t_axis`` and ``t_sign``
    arrays (axes 0-2, signs +-1), each cell
    ``((s_axis * 2 + (s_sign < 0)) * 3 + t_axis) * 2 + (t_sign < 0)``."""
    s_axis, s_sign, t_axis, t_sign = (np.asarray(f) for f in (s_axis, s_sign, t_axis, t_sign))
    cells = ((s_axis * 2 + (s_sign < 0)) * 3 + t_axis) * 2 + (t_sign < 0)
    return cells.astype(np.uint8)


def fields(cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (N, n) int8 ``s_axis``, ``s_sign``, ``t_axis`` and ``t_sign`` of
    each record (axes 0-2, signs +-1), decoded through the package's table."""
    return tuple(field.take(cells) for field in _CELL_FIELDS)


def fixed_stream(cells: np.ndarray, block_size: int) -> BlockStream:
    """The (N, n) records ``cells`` as a stream of ``block_size``-row blocks.

    A block is the row slice from ``count - left``, so the kernels keep no
    state and the stream can be counted again; its tally is the int32 joint
    cells, as a channel stream's is."""
    count, n = cells.shape

    def sample(rng, left: int) -> np.ndarray:
        start = count - left
        return cells[start : start + min(left, block_size)]

    def tally(rng, left: int):
        return _joint_cells(sample(rng, left).T, range(n), np.int32), 1

    return BlockStream(n, count, 0, block_size, sample, tally)


def serial_records(stream: BlockStream) -> np.ndarray:
    """A stream's records, its blocks drawn in order on the calling thread
    and joined: the reference for the driver's thread splits."""
    starts = range(0, stream.count, stream.block_size)
    blocks = [stream.sample(block_rng(stream.seed, b), stream.count - start)
              for b, start in enumerate(starts)]
    return np.concatenate(blocks) if blocks else np.empty((0, stream.n), np.uint8)


# -- Pauli strings and gates --------------------------------------------------


def restrict(p: PauliString, qubits: Iterable[int]) -> PauliString:
    """Project onto the given qubits (in the given order), keeping the sign."""
    qubits = tuple(qubits)
    x = z = 0
    for pos, j in enumerate(qubits):
        if not 0 <= j < p.n:
            raise ValueError(f"qubit index {j} out of range for n={p.n}")
        x |= ((p.x >> j) & 1) << pos
        z |= ((p.z >> j) & 1) << pos
    return PauliString(len(qubits), x, z, p.sign)


def embed(p: PauliString, n: int, qubits: Iterable[int]) -> PauliString:
    """Place ``p`` onto qubit positions ``qubits`` of an n-qubit register."""
    qubits = tuple(qubits)
    if len(qubits) != p.n:
        raise ValueError(f"expected {p.n} target qubits, got {len(qubits)}")
    x = z = 0
    for pos, j in enumerate(qubits):
        if not 0 <= j < n:
            raise ValueError(f"qubit index {j} out of range for n={n}")
        x |= ((p.x >> pos) & 1) << j
        z |= ((p.z >> pos) & 1) << j
    return PauliString(n, x, z, p.sign)


def pauli_index(p: PauliString) -> int:
    """Base-4 letter index of an unsigned string; qubit 0 is the leading digit."""
    idx = 0
    for j in range(p.n):
        idx = idx * 4 + p.letter_code(j)
    return idx


def symplectic_product(p: PauliString, q: PauliString) -> int:
    """1 if the strings anticommute, 0 if they commute."""
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} != {q.n}")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2


def conjugate_pauli(kind: str, qubits: Sequence[int], p: PauliString) -> PauliString:
    """U^dagger P U for one gate, acting on the full register string."""
    qubits = tuple(qubits)
    if len(qubits) != gate_arity(kind):
        raise ValueError(f"{kind} acts on {gate_arity(kind)} qubits, got {qubits}")
    image = embed(CONJUGATION_TABLES[kind][pauli_index(restrict(p, qubits))], p.n, qubits)
    kept = ~sum(1 << q for q in qubits)
    return PauliString(p.n, p.x & kept | image.x, p.z & kept | image.z, p.sign * image.sign)


def gate_unitary(kind: str, qubits: Sequence[int], n: int) -> np.ndarray:
    """Full 2^n unitary of a gate on ``qubits``; qubit 0 is the most significant bit."""
    qubits = tuple(qubits)
    if len(set(qubits)) != len(qubits) or not all(0 <= q < n for q in qubits):
        raise ValueError(f"gate qubits {qubits} are not distinct qubits of {n}")
    a = len(qubits)
    local = GATE_UNITARIES[kind].reshape((2,) * (2 * a))
    eye = np.eye(2**n, dtype=np.complex128).reshape((2,) * (2 * n))
    out = np.moveaxis(np.tensordot(local, eye, axes=(range(a, 2 * a), qubits)), range(a), qubits)
    return out.reshape(2**n, 2**n)


# -- states and channels -------------------------------------------------------


def pauli_product(rows) -> dict:
    """A ``pauli-product`` channel config, one (pI, pX, pY, pZ) row per qubit."""
    return {"kind": "pauli-product",
            "qubits": [dict(zip(("pI", "pX", "pY", "pZ"), row)) for row in rows]}


def ptm_product(ptms) -> dict:
    """A ``ptm-product`` channel config, one 4x4 PTM (listed row-major) per qubit."""
    return {"kind": "ptm-product", "qubits": [np.ravel(t).tolist() for t in ptms]}


@dataclass
class DenseState:
    """A density matrix on n qubits; qubit 0 is the most significant bit."""

    n: int
    rho: np.ndarray

    @classmethod
    def from_unit_vector(cls, psi: np.ndarray) -> "DenseState":
        """|psi><psi| of a statevector that already has unit norm."""
        psi = np.asarray(psi, dtype=np.complex128)
        return cls(len(psi).bit_length() - 1, np.outer(psi, psi.conj()))


def dense_expectation(observable: PauliString | Observable, state: DenseState) -> float:
    """tr(O rho), from the observable's full matrix."""
    value = np.trace(observable.matrix() @ state.rho)
    if abs(value.imag) > 1e-8:
        raise ValueError(f"expectation has imaginary part {value.imag:g}")
    return float(value.real)


def maximally_mixed(n: int) -> DenseState:
    dim = 2**n
    return DenseState(n, np.eye(dim, dtype=np.complex128) / dim)


def product_eigenstate(axes: Sequence[int], signs: Sequence[int]) -> DenseState:
    """Product of single-qubit Pauli eigenstates; axes coded 0=X,1=Y,2=Z."""
    rho = np.array([[1.0]], dtype=np.complex128)
    for axis, sign in zip(axes, signs):
        qubit = (np.eye(2) + sign * PAULI_MATRICES[axis + 1]) / 2.0
        rho = np.kron(rho, qubit)
    return DenseState(len(tuple(axes)), rho)


class DenseChannel:
    """A channel given by explicit Kraus operators (e.g. unitary conjugation)."""

    def __init__(self, n: int, kraus: Iterable[np.ndarray]):
        self.n = n
        self.kraus = [np.asarray(k, dtype=np.complex128) for k in kraus]
        total = sum(k.conj().T @ k for k in self.kraus)
        if np.max(np.abs(total - np.eye(2**n))) > 1e-9:
            raise ValueError("Kraus operators do not sum to the identity")


def _apply_local_superop(tensor: np.ndarray, s: np.ndarray, qubits: Sequence[int], n: int):
    """Apply a (2,)*4a superoperator S[r, c, r', c'] on ``qubits`` to a
    (2,)*2n operator tensor (row qubits, then column qubits)."""
    a = len(qubits)
    axes = [*qubits, *(n + q for q in qubits)]
    out = np.tensordot(tensor, s, axes=(axes, range(2 * a, 4 * a)))
    return np.moveaxis(out, range(2 * n - 2 * a, 2 * n), axes)


def apply_to_operator(channel, op: np.ndarray) -> np.ndarray:
    """Linear action of a Pauli or product channel on an arbitrary (not
    necessarily PSD) matrix: per-qubit superoperators in product form, the
    Kraus sum over the terms in sparse form."""
    op = np.asarray(op, dtype=np.complex128)
    n = len(op).bit_length() - 1
    if channel.n != n:
        raise ValueError(f"channel acts on {channel.n} qubits, operator on {n}")
    if isinstance(channel, PauliChannel) and channel.is_product:
        channel = ProductChannel([np.diag(e) for e in channel.qubit_eigenvalues()])
    if isinstance(channel, ProductChannel):
        tensor = op.reshape((2,) * (2 * n))
        for j in range(n):
            tensor = _apply_local_superop(tensor, _superop_from_ptm(channel.ptm(j)), [j], n)
        return tensor.reshape(op.shape)
    out = np.zeros_like(op)
    for q, prob in channel.terms().items():
        m = q.matrix()
        out += prob * (m @ op @ m)
    return out


def apply_channel(channel, state: DenseState) -> DenseState:
    return DenseState(state.n, apply_to_operator(channel, state.rho))


def basis_outcome_probabilities(state: DenseState, axes: Sequence[int]) -> np.ndarray:
    """Joint outcome probabilities (length 2^n) for a product Pauli basis,
    from the full Kronecker rotation of the basis.  Outcome index bit j
    (qubit 0 most significant) is 0 for +1 and 1 for -1."""
    rot = np.array([[1.0]], dtype=np.complex128)
    for axis in axes:
        rot = np.kron(rot, BASIS_ROTATIONS[axis])
    probs = np.clip(np.real(np.einsum("ij,jk,ik->i", rot, state.rho, rot.conj())), 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"outcome probabilities sum to {total:g}")
    return probs / total


def simulate_circuit(circuit, state: DenseState, noisy: bool) -> DenseState:
    """Run a Clifford circuit on a dense state, with or without gate noise."""
    n = circuit.n
    superops: dict[str, np.ndarray] = {}
    rho = state.rho.reshape((2,) * (2 * n))
    for gate in circuit.gates:
        if gate.kind not in superops:
            noise = (circuit.noise[gate.kind] if noisy
                     else PauliChannel.identity(len(gate.qubits)))
            superops[gate.kind] = gate_superop(gate.kind, noise)
        rho = _apply_local_superop(rho, superops[gate.kind], gate.qubits, n)
    return DenseState(n, rho.reshape(2**n, 2**n))


# -- brute-force spectra -------------------------------------------------------


def brute_force_transfer(channel, k: int) -> TransferMatrix:
    """M[P][Q] = tr(E(P) Q) / 2^n on the weight <= k basis, via dense algebra;
    ``channel`` is a ``DenseChannel`` or a channel ``apply_to_operator`` takes."""
    n = channel.n
    basis = tuple(enumerate_low_weight(n, k))
    mats = [p.matrix() for p in basis]
    scale = 1.0 / 2**n
    matrix = np.empty((len(basis), len(basis)))
    for i, p in enumerate(basis):
        if isinstance(channel, DenseChannel):
            img = sum(kraus @ mats[i] @ kraus.conj().T for kraus in channel.kraus)
        else:
            img = apply_to_operator(channel, mats[i])
        for j in range(len(basis)):
            value = np.trace(img @ mats[j]) * scale
            if abs(value.imag) > 1e-9:
                raise ValueError(f"transfer entry ({p}, {basis[j]}) is not real")
            matrix[i, j] = value.real
    return TransferMatrix(n, k, basis, matrix)


# -- exact estimator moments (the unbiasedness oracle) -------------------------


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
            prep = product_eigenstate(axes, in_signs)
            in_values = {
                p: dense_expectation(p, prep) for p in {p for p, _ in pairs}
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
