"""Oracles: exact ground truth for every estimator.

Everything here is deliberately independent of the sampling code, so
Monte-Carlo results can be checked against an implementation that shares no
formulas with them.

The report commands' oracles are matrix-free.  Their test state is a pure
Haar vector psi, so every value they need is <psi|A|psi> for some operator A
that a few Pauli strings span, and each string costs one gather of 2^n
amplitudes (``pauli_expectations``): a Pauli string has one nonzero entry per
row, P[r, r ^ x], so <psi|P|psi> sums conj(psi[r]) P[r, r ^ x] psi[r ^ x]
and tr(P rho) sums P[r, r ^ x] rho[r ^ x, r].  The gather takes a whole
letter-code array of strings at once, in chunks of terms that bound its
temporaries.  ``noisy_expectations`` gives tr(Q E(|psi><psi|)) =
<psi|E^dagger(Q)|psi> in the Heisenberg picture:

* a sparse Pauli channel multiplies Q by its eigenvalue, the commutation
  sum over the channel's terms;
* a product channel, Pauli or not, maps Q to the product of per-qubit
  adjoint rows on the support of Q, read off each qubit's dense 2x2
  superoperator, so every image stays on supp Q and each distinct image is
  gathered once;
* a noisy Clifford circuit carries each string backward through its gates
  with one signed table per gate kind, built from the kind's dense local
  unitary and its noise channel's full term map (so correlated gate noise
  is covered), without the mitigation code's conjugation tables.

None of these reads ``exact_transfer_matrix`` or ``exact_diagonal``,
which supply ``--exact-eigenvalues``, so that mode does not divide by the
very numbers the oracle multiplied by.
Statevector oracles are capped at 20 qubits.

The ideal circuit run is unitary, so on a pure state it evolves the 2^n
statevector, one local unitary per gate.  Dense density matrices, capped at
12 qubits, serve ``fig2 --estimated-expectations``, which measures the noisy
state itself (``apply_channel``, ``basis_outcome_probabilities``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import PauliChannel, ProductChannel
from .observables import Observable
from .paulis import (
    PAULI_MATRICES,
    PauliString,
    letter_codes,
    pauli_from_index,
)

STATE_QUBIT_CAP = 12         # dense density matrices
STATEVECTOR_QUBIT_CAP = 20   # the report commands' matrix-free oracles
HERMITICITY_TOLERANCE = 1e-10
# (state, term, amplitude) triples per gather chunk: about 40 bytes of
# temporaries each, so a chunk stays near 10 MB at any n.
GATHER_CHUNK = 1 << 18

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
    def from_unit_vector(cls, psi: np.ndarray) -> "DenseState":
        """|psi><psi| of a statevector that already has unit norm."""
        return cls.from_matrix(np.outer(psi, psi.conj()), validate=False)


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


# -- channel application -------------------------------------------------------


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


def _apply_local_superop(tensor: np.ndarray, s: np.ndarray, qubits: Sequence[int], n: int):
    """Apply a (2,)*4a superoperator S[r, c, r', c'] on ``qubits`` to a
    (2,)*2n operator tensor (row qubits, then column qubits)."""
    a = len(qubits)
    axes = [*qubits, *(n + q for q in qubits)]
    out = np.tensordot(tensor, s, axes=(axes, range(2 * a, 4 * a)))
    return np.moveaxis(out, range(2 * n - 2 * a, 2 * n), axes)


def apply_to_operator(channel, op: np.ndarray) -> np.ndarray:
    """Linear action of a Pauli or product channel on an arbitrary (not
    necessarily PSD) matrix."""
    op = np.asarray(op, dtype=np.complex128)
    n = int(round(math.log2(op.shape[0])))
    if not isinstance(channel, (PauliChannel, ProductChannel)):
        raise TypeError(f"cannot apply {type(channel).__name__}")
    if channel.n != n:
        raise ValueError(f"channel acts on {channel.n} qubits, operator on {n}")
    if isinstance(channel, PauliChannel) and channel.is_product:
        channel = channel.to_product_channel()
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
    out = apply_to_operator(channel, state.rho)
    return DenseState(state.n, out)


# -- Pauli expectations -------------------------------------------------------


def _parity_signs(n: int) -> np.ndarray:
    """(-1)^popcount(v) for v < 2^n, as floats."""
    signs = np.ones(1)
    for _ in range(n):
        signs = np.concatenate([signs, -signs])
    return signs


# (-i)^e for e = 0..3, built from components so that no entry holds a -0.0.
_MINUS_I_POWERS = np.array([complex(1, 0), complex(0, -1), complex(-1, 0), complex(0, 1)])


def pauli_expectations(codes: np.ndarray, state: DenseState | np.ndarray) -> np.ndarray:
    """<P> of the unsigned string in each row of a (terms, n) letter-code
    array (``paulis.letter_codes``): tr(P rho), shape (terms,), of a
    DenseState, or <psi|P|psi>, shape (..., terms), of each unit statevector
    of a (..., 2^n) amplitude array.  Complex; for a valid state the
    imaginary parts are rounding.  The gather runs over chunks of terms (see
    the module docstring)."""
    codes = np.asarray(codes)
    n = codes.shape[1]
    dim = 1 << n
    dense = isinstance(state, DenseState)
    amplitudes = state.rho.reshape(-1) if dense else np.asarray(state)
    size = len(state.rho) if dense else amplitudes.shape[-1]
    if size != dim:
        raise ValueError(f"strings act on {n} qubits, the state has dimension {size}")
    # Row-index bits: qubit 0 is the most significant.
    place = 1 << np.arange(n - 1, -1, -1)
    x = ((codes == 1) | (codes == 2)) @ place
    z = ((codes == 2) | (codes == 3)) @ place
    phase = _MINUS_I_POWERS[(codes == 2).sum(axis=1) % 4]
    rows = np.arange(dim)
    parity = _parity_signs(n)
    batch = () if dense else amplitudes.shape[:-1]
    out = np.empty((*batch, len(codes)), complex)
    step = max(1, GATHER_CHUNK // (dim * math.prod(batch)))
    for lo in range(0, len(codes), step):
        terms = slice(lo, lo + step)
        columns = rows ^ x[terms, None]
        signs = parity.take(rows & z[terms, None])  # (-1)^popcount(r & z)
        if dense:
            out[terms] = np.einsum("tr,tr->t", amplitudes.take(columns * dim + rows), signs)
        else:
            out[..., terms] = np.einsum("...tr,tr,...r->...t", amplitudes.take(columns, axis=-1),
                                        signs, amplitudes.conj())
    return out * phase


def expectation(observable: PauliString | Observable, state: DenseState | np.ndarray) -> float:
    """tr(O rho) of a DenseState, or <psi|O|psi> of a unit statevector, by
    one gather of 2^n entries per Pauli term (see ``pauli_expectations``)."""
    if not isinstance(state, DenseState):
        state = np.asarray(state).reshape(-1)
    terms = observable.terms() if isinstance(observable, Observable) else {observable: 1.0}
    strings = list(terms)
    signed = np.array([c * p.sign for p, c in terms.items()])
    value = (signed * pauli_expectations(letter_codes(strings, observable.n), state)).sum()
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


# -- matrix-free noisy oracles -------------------------------------------------


def _commutation_eigenvalues(channel: PauliChannel, codes: np.ndarray) -> np.ndarray:
    """lambda_P = sum_Q p_Q (-1)^<P,Q> over a sparse channel's terms, for each
    row of ``codes``: letters anticommute where both are set and differ."""
    terms = channel.terms()
    letters = letter_codes(list(terms), channel.n)
    odd = np.zeros((len(codes), len(letters)), dtype=bool)
    for j in range(channel.n):
        p, q = codes[:, j, None], letters[None, :, j]
        odd ^= (p != 0) & (q != 0) & (p != q)
    return np.einsum("tq,q->t", 1.0 - 2.0 * odd, np.array(list(terms.values())))


def _qubit_adjoint_rows(channel: PauliChannel | ProductChannel) -> np.ndarray:
    """(n, 4, 4): entry [j, a, b] is the coefficient of sigma_b in
    E_j^dagger(sigma_a) = 1/2 tr(sigma_a E_j(sigma_b)), read off qubit j's
    dense 2x2 superoperator S[r, c, r', c'] (rho'_{rc} = sum S rho_{r'c'})."""
    paulis = np.stack(PAULI_MATRICES)
    if isinstance(channel, PauliChannel):
        superops = [np.einsum("b,brx,bcw->rcxw", probs, paulis, paulis.conj())
                    for probs in channel.qubit_probs()]
    else:
        superops = [_superop_from_ptm(channel.ptm(j)) for j in range(channel.n)]
    rows = np.stack([0.5 * np.einsum("acr,rcxw,bxw->ab", paulis, s, paulis).real
                     for s in superops])
    rows[:, 0] = (1.0, 0.0, 0.0, 0.0)  # the adjoint of a trace-preserving channel is unital
    return rows


def _product_images(rows: np.ndarray, codes: np.ndarray):
    """E^dagger of each string for the product channel of ``rows``: the image
    strings, their coefficients, and the row of ``codes`` each came from.
    Letters off a string's support stay the identity."""
    images, coefficients, owner = codes, np.ones(len(codes)), np.arange(len(codes))
    for j in range(len(rows)):
        parts = []
        for b in range(4):
            scaled = coefficients * rows[j].take(images[:, j] * 4 + b)
            keep = scaled != 0.0
            image = images[keep]
            image[:, j] = b
            parts.append((image, scaled[keep], owner[keep]))
        images, coefficients, owner = (np.concatenate(part) for part in zip(*parts))
    return images, coefficients, owner


def _heisenberg_table(kind: str, arity: int, noise: PauliChannel | None):
    """One gate kind's backward step, by local index (``pauli_index`` order).
    U^dagger N(P) U is sign * lambda_P times one Pauli string, where N(P) =
    sum_Q p_Q Q P Q over the noise channel's full term map; returns that
    string's (arity, 4^arity) letter codes and the factors sign * lambda_P,
    both read off the dense local matrices."""
    u = gate_unitary(kind, range(arity), arity)
    terms = noise.terms() if noise is not None else {PauliString.identity(arity): 1.0}
    errors = np.stack([q.matrix() for q in terms])
    locals_ = np.stack([pauli_from_index(arity, i).matrix() for i in range(4**arity)])
    noisy = np.einsum("q,qab,ibc,qcd->iad", list(terms.values()), errors, locals_, errors)
    images = np.einsum("ba,ibc,cd->iad", u.conj(), noisy, u)
    coefficients = np.einsum("jab,iba->ij", locals_, images).real / 2**arity
    image_index = np.abs(coefficients).argmax(axis=1)
    letters = np.array([(image_index >> 2 * (arity - 1 - q)) & 3 for q in range(arity)])
    return letters, coefficients[np.arange(4**arity), image_index]


def _heisenberg_images(circuit, codes: np.ndarray):
    """Each string carried backward through the noisy circuit: the letter
    codes of its image and the image's coefficient."""
    codes = codes.T.astype(np.intp, order="C")  # (n, terms)
    factors = np.ones(codes.shape[1])
    tables = {}
    for gate in reversed(circuit.gates):
        if gate.kind not in tables:
            tables[gate.kind] = _heisenberg_table(
                gate.kind, len(gate.qubits), circuit.noise.get(gate.kind))
        letters, factor = tables[gate.kind]
        local = codes[gate.qubits[0]]
        for q in gate.qubits[1:]:
            local = 4 * local + codes[q]
        factors *= factor.take(local)
        codes[list(gate.qubits)] = letters.take(local, axis=1)
    return codes.T, factors


def noisy_expectations(noise, strings: Sequence[PauliString], psi: np.ndarray) -> np.ndarray:
    """tr(Q E(|psi><psi|)) = <psi|E^dagger(Q)|psi> for each unsigned string Q,
    shape (..., strings), of each unit statevector of a (..., 2^n) amplitude
    array ``psi``, where E is a Pauli or product channel or a noisy Clifford
    circuit (an object with ``gates`` and ``noise``); see the module
    docstring."""
    n = np.shape(psi)[-1].bit_length() - 1
    codes = letter_codes(strings, n)
    if hasattr(noise, "gates"):
        images, factors = _heisenberg_images(noise, codes)
        return factors * pauli_expectations(images, psi).real
    if isinstance(noise, PauliChannel) and not noise.is_product:
        return _commutation_eigenvalues(noise, codes) * pauli_expectations(codes, psi).real
    images, coefficients, owner = _product_images(_qubit_adjoint_rows(noise), codes)
    distinct, inverse = np.unique(images, axis=0, return_inverse=True)
    values = coefficients * pauli_expectations(distinct, psi).real[..., inverse.reshape(-1)]
    out = np.zeros((len(codes), *values.shape[:-1]))
    np.add.at(out, owner, np.moveaxis(values, -1, 0))  # in image order, as bincount would
    return np.moveaxis(out, 0, -1)


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
