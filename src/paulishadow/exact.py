"""Oracles: exact ground truth for every estimator.

Everything here is deliberately independent of the sampling code, so
Monte-Carlo results can be checked against an implementation that shares no
formulas with them.

The report commands' oracles are matrix-free.  Their test state is a pure
Haar vector psi, so every value they need is <psi|A|psi> for some operator A
that a few Pauli strings span, and each string costs one gather of 2^n
amplitudes (``pauli_expectations``): a Pauli string has one nonzero entry per
row, P[r, r ^ x], so <psi|P|psi> sums conj(psi[r]) P[r, r ^ x] psi[r ^ x].
The gather takes a whole letter-code array of strings at once, in chunks of
terms that bound its temporaries.  ``noisy_expectations`` gives tr(Q E(|psi><psi|)) =
<psi|E^dagger(Q)|psi> in the Heisenberg picture:

* a sparse Pauli channel multiplies Q by its eigenvalue, the commutation
  sum over the channel's terms;
* a product channel, Pauli or not, maps Q to the product of per-qubit
  adjoint rows on the support of Q, read off each qubit's dense 2x2
  superoperator, so every image stays on supp Q and each distinct image is
  gathered once;
* a noisy Clifford circuit carries each string backward through its gates
  with one signed table per gate kind, built from the kind's unitary in
  ``GATE_UNITARIES`` and its noise channel's full term map (so correlated
  gate noise is covered), without the mitigation code's conjugation tables.

None of these reads ``exact_transfer_matrix`` or ``exact_diagonal``,
which supply ``--exact-eigenvalues``, so that mode does not divide by the
very numbers the oracle multiplied by.
Statevector oracles are capped at 20 qubits.

The ideal circuit run is unitary, so on a pure state it evolves the 2^n
statevector, one local unitary per gate: ``GATE_UNITARIES`` holds each
kind's unitary on the gate's own qubits, and no n-qubit gate matrix is
built.  ``fig2 --expectation-shadows`` measures the noisy state in random
product bases, and a Pauli channel acts on such a measurement only by
flipping outcomes, so its outcome probabilities also come from the ideal
statevector (``basis_outcome_probabilities``).  No state here is a density
matrix.
"""

from __future__ import annotations

import math
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

STATE_QUBIT_CAP = 12         # fig2's dense spectral norm (Observable.matrix)
STATEVECTOR_QUBIT_CAP = 20   # the report commands' matrix-free oracles
# (state, term, amplitude) triples per gather chunk: about 40 bytes of
# temporaries each, so a chunk stays near 10 MB at any n.
GATHER_CHUNK = 1 << 18

# Rotations taking the +1 eigenvector of X/Y/Z to |0>.
BASIS_ROTATIONS = (
    np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2),        # X
    np.array([[1, -1j], [1, 1j]], dtype=np.complex128) / math.sqrt(2),      # Y
    np.eye(2, dtype=np.complex128),                                         # Z
)

# Each gate kind's unitary on its own qubits, the first gate qubit the most
# significant bit.
GATE_UNITARIES = {
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                     dtype=np.complex128),
}


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


# -- local superoperators -----------------------------------------------------


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


# -- Pauli expectations -------------------------------------------------------


def _parity_signs(n: int) -> np.ndarray:
    """(-1)^popcount(v) for v < 2^n, as floats."""
    signs = np.ones(1)
    for _ in range(n):
        signs = np.concatenate([signs, -signs])
    return signs


# (-i)^e for e = 0..3, built from components so that no entry holds a -0.0.
_MINUS_I_POWERS = np.array([complex(1, 0), complex(0, -1), complex(-1, 0), complex(0, 1)])


def pauli_expectations(codes: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<psi|P|psi> of the unsigned string in each row of a (terms, n)
    letter-code array (``paulis.letter_codes``), shape (..., terms), for each
    unit statevector of a (..., 2^n) amplitude array.  Complex; for a valid
    state the imaginary parts are rounding.  The gather runs over chunks of
    terms (see the module docstring)."""
    codes, psi = np.asarray(codes), np.asarray(psi)
    n = codes.shape[1]
    dim = 1 << n
    if psi.shape[-1] != dim:
        raise ValueError(f"strings act on {n} qubits, the state has dimension {psi.shape[-1]}")
    # Row-index bits: qubit 0 is the most significant.
    place = 1 << np.arange(n - 1, -1, -1)
    x = ((codes == 1) | (codes == 2)) @ place
    z = ((codes == 2) | (codes == 3)) @ place
    phase = _MINUS_I_POWERS[(codes == 2).sum(axis=1) % 4]
    rows = np.arange(dim)
    parity = _parity_signs(n)
    batch = psi.shape[:-1]
    out = np.empty((*batch, len(codes)), complex)
    step = max(1, GATHER_CHUNK // (dim * math.prod(batch)))
    for lo in range(0, len(codes), step):
        terms = slice(lo, lo + step)
        columns = rows ^ x[terms, None]
        signs = parity.take(rows & z[terms, None])  # (-1)^popcount(r & z)
        out[..., terms] = np.einsum("...tr,tr,...r->...t", psi.take(columns, axis=-1), signs,
                                    psi.conj())
    return out * phase


def expectation(observable: PauliString | Observable, psi: np.ndarray) -> float:
    """<psi|O|psi> of a unit statevector, by one gather of 2^n amplitudes per
    Pauli term (see ``pauli_expectations``)."""
    terms = observable.terms() if isinstance(observable, Observable) else {observable: 1.0}
    strings = list(terms)
    signed = np.array([c * p.sign for p, c in terms.items()])
    codes = letter_codes(strings, observable.n)
    value = (signed * pauli_expectations(codes, np.asarray(psi).reshape(-1))).sum()
    if abs(value.imag) > 1e-8:
        raise ValueError(f"expectation has imaginary part {value.imag:g}")
    return float(value.real)


# -- gates and circuits --------------------------------------------------------


def gate_superop(kind: str, noise: PauliChannel | None) -> np.ndarray:
    """(2,)*4a tensor S[r, c, r', c'] of a gate and its noise on the gate's a
    qubits: rho'_{rc} = sum S[r, c, r', c'] rho_{r'c'}, with
    S = sum_Q p_Q (QU) (x) conj(QU)."""
    u = GATE_UNITARIES[kind]
    arity = len(u).bit_length() - 1
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
    tensor = np.asarray(psi, dtype=np.complex128).reshape((2,) * circuit.n)
    for gate in circuit.gates:
        a = len(gate.qubits)
        u = GATE_UNITARIES[gate.kind].reshape((2,) * (2 * a))
        tensor = np.tensordot(u, tensor, axes=(range(a, 2 * a), gate.qubits))
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


def _heisenberg_table(kind: str, noise: PauliChannel | None):
    """One gate kind's backward step, by local index (``iter_all_paulis``
    order).  U^dagger N(P) U is sign * lambda_P times one Pauli string, where
    N(P) = sum_Q p_Q Q P Q over the noise channel's full term map; returns
    that string's (arity, 4^arity) letter codes and the factors
    sign * lambda_P, both read off the dense local matrices."""
    u = GATE_UNITARIES[kind]
    arity = len(u).bit_length() - 1
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
            tables[gate.kind] = _heisenberg_table(gate.kind, circuit.noise.get(gate.kind))
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


def basis_outcome_probabilities(channel: PauliChannel, psi: np.ndarray,
                                axes: Sequence[int]) -> np.ndarray:
    """Joint outcome probabilities (length 2^n) of measuring E(|psi><psi|),
    for a Pauli channel E, in the product Pauli basis ``axes`` (0 = X, 1 = Y,
    2 = Z).  Outcome index bit j (qubit 0 most significant) is 0 for +1 and
    1 for -1.

    The ideal probabilities are |R psi|^2, R rotating one qubit at a time.
    A Pauli error flips outcome bit j exactly when its letter on qubit j
    anticommutes with the measured axis, so the channel mixes them with
    their flipped copies p[r ^ mask]: qubit by qubit in product form, term
    by term in sparse form.
    """
    n = len(axes)
    tensor = np.asarray(psi, dtype=np.complex128).reshape((2,) * n)
    for j, axis in enumerate(axes):
        tensor = np.moveaxis(np.tensordot(BASIS_ROTATIONS[axis], tensor, axes=(1, j)), 0, j)
    probs = (tensor.real**2 + tensor.imag**2).reshape(-1)
    rows = np.arange(probs.size)
    place = 1 << np.arange(n - 1, -1, -1)
    if channel.is_product:
        for bit, axis, qubit in zip(place, axes, channel.qubit_probs()):
            keep = qubit[0] + qubit[axis + 1]
            probs = keep * probs + (1.0 - keep) * probs[rows ^ bit]
        return probs
    terms = channel.terms()
    letters = letter_codes(list(terms), n)
    masks = ((letters != 0) & (letters != np.asarray(axes) + 1)) @ place
    return sum(prob * probs[rows ^ mask] for prob, mask in zip(terms.values(), masks))
