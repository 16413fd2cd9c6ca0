"""Noise-channel models: Pauli channels, product channels, transfer matrices.

Conventions
-----------
* A Pauli channel maps ``rho -> sum_Q p(Q) Q rho Q``; its eigenvalues are
  ``lambda_P = sum_Q (-1)^<P,Q> p(Q)`` where ``<P,Q>`` is the anticommutation
  bit.  ``lambda_I = 1`` always.
* A single-qubit Pauli transfer matrix (PTM) ``T`` is a real 4x4 matrix in the
  (I, X, Y, Z) basis with first row (1, 0, 0, 0); column I holds the affine
  Bloch offset.  ``T[a, b] = tr(P_a E(P_b)) / 2``.
* The adjoint transfer matrix of a channel is ``M[P][Q] = tr(P E^dagger(Q)) / 2^n
  = tr(E(P) Q) / 2^n``, i.e. the transpose of the n-qubit PTM.  For a product
  channel it factorizes into per-qubit transposes, and it is upper block
  triangular in the weight-major Pauli order: a product channel never raises
  Pauli weight under the adjoint action.
* Bloch axes are coded 0=X, 1=Y, 2=Z throughout; letter codes are 0=I, 1=X,
  2=Y, 3=Z as in :mod:`paulishadow.paulis`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

from .paulis import (
    PAULI_MATRICES,
    PauliString,
    enumerate_low_weight,
    iter_all_paulis,
    letter_codes,
)

PROBABILITY_TOLERANCE = 1e-12
TRIANGULARITY_TOLERANCE = 1e-10

# Sign table (-1)^<a,b> for single-qubit letters, rows/cols in I,X,Y,Z order.
WALSH_KERNEL = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)


class ConfigError(ValueError):
    """Raised for malformed channel / circuit / observable configuration."""


class PauliChannel:
    """A Pauli channel stored either as a sparse term map or per-qubit factors.

    The product form keeps an (n, 4) array of per-qubit probabilities
    (pI, pX, pY, pZ); the sparse form keeps ``{PauliString: probability}``
    over the full register, which can express correlated noise.
    """

    def __init__(
        self,
        n: int,
        *,
        qubit_probs: np.ndarray | None = None,
        terms: dict[PauliString, float] | None = None,
    ):
        if (qubit_probs is None) == (terms is None):
            raise ValueError("provide exactly one of qubit_probs or terms")
        self.n = n
        self._qubit_probs: np.ndarray | None = None
        self._terms: dict[PauliString, float] | None = None
        if qubit_probs is not None:
            probs = np.asarray(qubit_probs, dtype=float)
            if probs.shape != (n, 4):
                raise ValueError(f"expected ({n}, 4) probabilities, got {probs.shape}")
            self._validate_probs(probs.reshape(-1))
            row_sums = probs.sum(axis=1)
            if np.max(np.abs(row_sums - 1.0)) > PROBABILITY_TOLERANCE:
                raise ValueError(f"per-qubit probabilities must sum to 1, got {row_sums}")
            self._qubit_probs = probs
        else:
            clean: dict[PauliString, float] = {}
            for p, prob in terms.items():
                if p.n != n:
                    raise ValueError(f"term {p} has {p.n} qubits, channel has {n}")
                if p.sign != 1:
                    raise ValueError(f"channel terms must be unsigned, got {p}")
                clean[p] = clean.get(p, 0.0) + float(prob)
            total = sum(clean.values())
            self._validate_probs(np.array(list(clean.values())))
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"term probabilities must sum to 1, got {total}")
            self._terms = clean

    @staticmethod
    def _validate_probs(flat: np.ndarray) -> None:
        if not np.isfinite(flat).all():
            raise ValueError(f"non-finite probability {flat[~np.isfinite(flat)][0]}")
        if flat.size and float(np.min(flat)) < -PROBABILITY_TOLERANCE:
            raise ValueError(f"negative probability {float(np.min(flat))}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_qubit_probs(cls, quadruples: Sequence[Sequence[float]]) -> "PauliChannel":
        quadruples = np.asarray(quadruples, dtype=float)
        if quadruples.ndim == 1:
            quadruples = quadruples.reshape(1, 4)
        return cls(quadruples.shape[0], qubit_probs=quadruples)

    @classmethod
    def from_terms(
        cls,
        n: int,
        terms: Mapping[PauliString | str, float] | Iterable[tuple[PauliString | str, float]],
    ) -> "PauliChannel":
        mapping: dict[PauliString, float] = {}
        if isinstance(terms, Mapping):
            terms = terms.items()
        for key, prob in terms:
            p = PauliString.from_label(key) if isinstance(key, str) else key
            mapping[p] = mapping.get(p, 0.0) + float(prob)
        total = sum(mapping.values())
        ident = PauliString.identity(n)
        if total < 1.0 - 1e-9:
            # Convention: an unstated remainder is the identity (no-error) term.
            mapping[ident] = mapping.get(ident, 0.0) + (1.0 - total)
        return cls(n, terms=mapping)

    @classmethod
    def identity(cls, n: int) -> "PauliChannel":
        probs = np.zeros((n, 4))
        probs[:, 0] = 1.0
        return cls(n, qubit_probs=probs)

    # -- structure ---------------------------------------------------------

    @property
    def is_product(self) -> bool:
        return self._qubit_probs is not None

    def qubit_probs(self) -> np.ndarray:
        if self._qubit_probs is None:
            raise ValueError("channel is stored in sparse form")
        return self._qubit_probs.copy()

    def terms(self) -> dict[PauliString, float]:
        """The full term map.  Expands the product form (meant for small n)."""
        if self._terms is not None:
            return dict(self._terms)
        if self.n > 10:
            raise ValueError(f"refusing to expand 4^{self.n} terms")
        probs = reduce(np.kron, self._qubit_probs)  # qubit by qubit, as a per-string product
        return {p: prob for p, prob in zip(iter_all_paulis(self.n), probs) if prob > 0.0}

    # -- spectra -----------------------------------------------------------

    def qubit_eigenvalues(self) -> np.ndarray:
        """(n, 4) array of per-qubit eigenvalues (1, lX, lY, lZ); product form only."""
        if self._qubit_probs is None:
            raise ValueError("channel is stored in sparse form")
        return self._qubit_probs @ WALSH_KERNEL.T

    def __repr__(self) -> str:
        kind = "product" if self.is_product else f"sparse[{len(self._terms)}]"
        return f"<PauliChannel n={self.n} {kind}>"


# -- single-qubit building blocks ---------------------------------------------


def depolarizing_ptm(shrink: float) -> np.ndarray:
    out = np.diag([1.0, shrink, shrink, shrink])
    return out


def amplitude_damping_ptm(gamma: float) -> np.ndarray:
    """PTM of single-qubit amplitude damping toward |0>."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping rate must be in [0, 1], got {gamma}")
    s = np.sqrt(1.0 - gamma)
    out = np.diag([1.0, s, s, 1.0 - gamma])
    out[3, 0] = gamma
    return out


def reference_product_channel() -> PauliChannel:
    """The fixed two-qubit product Pauli channel used by the bundled experiment.

    Per-qubit error probabilities (0.75, 0.10, 0.10, 0.05) and
    (0.77, 0.09, 0.09, 0.05); eigenvalue quadruples (1, 0.70, 0.70, 0.60) and
    (1, 0.72, 0.72, 0.64).
    """
    return PauliChannel.from_qubit_probs(
        [(0.75, 0.10, 0.10, 0.05), (0.77, 0.09, 0.09, 0.05)]
    )


class ProductChannel:
    """A tensor product of single-qubit channels given by their PTMs.

    Every factor must be completely positive up to 1e-9 in its Choi spectrum.
    """

    def __init__(self, ptms: np.ndarray | Sequence[np.ndarray]):
        ptms = np.asarray(ptms, dtype=float)
        if ptms.ndim == 2:
            ptms = ptms[None, :, :]
        if ptms.ndim != 3 or ptms.shape[1:] != (4, 4):
            raise ValueError(f"expected (n, 4, 4) transfer matrices, got {ptms.shape}")
        if not np.isfinite(ptms).all():
            raise ValueError(f"non-finite PTM entry {ptms[~np.isfinite(ptms)][0]}")
        first_rows = ptms[:, 0, :]
        target = np.zeros((ptms.shape[0], 4))
        target[:, 0] = 1.0
        if np.max(np.abs(first_rows - target)) > 1e-10:
            raise ValueError("each PTM must be trace preserving: first row (1,0,0,0)")
        self.n = int(ptms.shape[0])
        self._ptms = ptms
        defect = max(-self.choi_minimum_eigenvalue(j) for j in range(self.n))
        if defect > 1e-9:
            raise ValueError(f"PTM is not completely positive: defect {defect:g}")

    def ptm(self, j: int) -> np.ndarray:
        return self._ptms[j].copy()

    def choi_minimum_eigenvalue(self, j: int) -> float:
        choi = _choi_from_ptm(self._ptms[j])
        return float(np.min(np.linalg.eigvalsh(choi)))

    def output_bloch(self, j: int, axis: int, sign: int) -> np.ndarray:
        """Bloch vector of qubit ``j``'s output for the axis-``axis`` input
        eigenstate with the given sign (axis codes 0=X, 1=Y, 2=Z)."""
        if axis not in (0, 1, 2):
            raise ValueError(f"axis code must be 0, 1 or 2, got {axis}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        t = self._ptms[j]
        return t[1:, 0] + sign * t[1:, axis + 1]

    def __repr__(self) -> str:
        return f"<ProductChannel n={self.n}>"


# kron(sigma_b.T, sigma_a) / 4 by (a, b): a PTM contracted against it is its Choi matrix.
_CHOI_BASIS = np.array([[np.kron(PAULI_MATRICES[b].T, PAULI_MATRICES[a]) for b in range(4)]
                        for a in range(4)]) / 4.0


def _choi_from_ptm(ptm: np.ndarray) -> np.ndarray:
    """Choi matrix (trace-normalized to 1) of a single-qubit PTM."""
    return np.tensordot(ptm, _CHOI_BASIS, 2)


# -- transfer matrices ---------------------------------------------------------


@dataclass
class TransferMatrix:
    """Adjoint transfer matrix restricted to the weight <= k Pauli basis.

    ``basis`` follows the canonical weight-major order; ``matrix[i, j]`` is
    the coefficient of basis[i] in the adjoint action applied to basis[j],
    i.e. M[P][Q] with P = basis[i], Q = basis[j].
    """

    n: int
    k: int
    basis: tuple[PauliString, ...]
    matrix: np.ndarray
    _index: dict[PauliString, int] = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        expected = len(self.basis)
        if self.matrix.shape != (expected, expected):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match basis size {expected}"
            )
        self._index = {p: i for i, p in enumerate(self.basis)}
        self._weights = np.array([p.weight for p in self.basis], dtype=np.int64)

    def index(self, p: PauliString) -> int:
        try:
            return self._index[p.unsigned()]
        except KeyError:
            raise KeyError(f"{p} is not in the weight <= {self.k} basis") from None

    def block_slices(self) -> list[tuple[int, slice]]:
        """Contiguous (weight, slice) pairs of the weight-major basis."""
        edges = np.searchsorted(self._weights, np.arange(self.k + 2)).tolist()
        return [(w, slice(edges[w], edges[w + 1])) for w in range(self.k + 1)]

    def is_upper_block_triangular(self, tol: float = TRIANGULARITY_TOLERANCE) -> bool:
        below = self._weights[:, None] > self._weights[None, :]
        return bool(np.max(np.abs(self.matrix[below]), initial=0.0) <= tol)


def exact_transfer_matrix(channel, k: int) -> TransferMatrix:
    """Adjoint transfer matrix of an analytic channel on the weight <= k basis."""
    basis = tuple(enumerate_low_weight(channel.n, k))
    size = len(basis)
    if isinstance(channel, PauliChannel):
        return TransferMatrix(channel.n, k, basis, np.diag(exact_diagonal(channel, basis)))
    if isinstance(channel, ProductChannel):
        codes = letter_codes(basis, channel.n)
        matrix = np.ones((size, size))
        for j in range(channel.n):  # in qubit order, as a per-entry product would
            matrix *= channel.ptm(j).T[codes[:, j, None], codes[None, :, j]]
        return TransferMatrix(channel.n, k, basis, matrix)
    raise TypeError(f"no analytic transfer matrix for {type(channel).__name__}")


def exact_diagonal(channel, strings: Sequence[PauliString]) -> np.ndarray:
    """The diagonal adjoint transfer entries M[P][P] of an analytic channel,
    one per string: for a Pauli channel its eigenvalues lambda_P.

    Per qubit factors multiply in qubit order, identity letters included,
    and a sparse channel's terms add in term order, so each entry is the
    float that a per-string product or sum gives."""
    codes = letter_codes(strings, channel.n)
    if isinstance(channel, PauliChannel) and not channel.is_product:
        out = np.zeros(len(codes))
        for q, prob in channel.terms().items():
            letters = letter_codes([q], channel.n)
            odd = ((codes != 0) & (letters != 0) & (codes != letters)).sum(axis=1) % 2
            out += prob * (1.0 - 2.0 * odd)  # (-1)^<P,Q> p(Q)
        return out
    if isinstance(channel, PauliChannel):
        factors = channel.qubit_eigenvalues()
    elif isinstance(channel, ProductChannel):
        factors = np.diagonal(channel._ptms, axis1=1, axis2=2)
    else:
        raise TypeError(f"no analytic diagonal for {type(channel).__name__}")
    out = np.ones(len(codes))
    for j in range(channel.n):
        out *= factors[j].take(codes[:, j])
    return out


# -- error-rate / eigenvalue transforms ----------------------------------------


def walsh_eigenvalues(probs: np.ndarray) -> np.ndarray:
    """Map a 4^n error-rate vector to the 4^n eigenvalue vector.

    Indexing is the base-4 letter order of ``paulis.iter_all_paulis`` (qubit 0
    is the most significant digit).  O(n 4^n) via per-qubit transforms.
    """
    return _walsh_apply(np.asarray(probs, dtype=float), WALSH_KERNEL)


def walsh_probabilities(eigenvalues: np.ndarray) -> np.ndarray:
    """Inverse of :func:`walsh_eigenvalues`; rejects non-channel spectra.

    A result with a probability below -1e-10 means the input vector is not
    the spectrum of any Pauli channel.
    """
    probs = _walsh_apply(np.asarray(eigenvalues, dtype=float), WALSH_KERNEL / 4.0)
    if probs.size and float(np.min(probs)) < -1e-10:
        raise ValueError(
            f"eigenvalue vector is not a Pauli-channel spectrum "
            f"(probability {float(np.min(probs)):g})"
        )
    return probs


def _walsh_apply(vec: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    size = vec.size
    n = 0
    while 4**n < size:
        n += 1
    if 4**n != size:
        raise ValueError(f"vector length {size} is not a power of 4")
    if n == 0:
        return vec.copy()
    tensor = vec.reshape((4,) * n)
    for _ in range(n):
        # Rotate one letter axis to the end through the kernel each pass.
        tensor = np.tensordot(tensor, kernel, axes=[(0,), (1,)])
    return tensor.reshape(-1)


# -- configuration (JSON) ------------------------------------------------------


def _number(value, field: str) -> float:
    """A config's JSON number as a float; anything else names its field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ConfigError(f"{field} is too large for a float") from None


def channel_from_config(cfg: Mapping) -> PauliChannel | ProductChannel:
    """Build a channel from its JSON object form.  See README for the schema."""
    try:
        kind = cfg["kind"]
    except (TypeError, KeyError):
        raise ConfigError("channel config needs a 'kind' field") from None
    qubits = cfg.get("qubits")
    if kind in ("pauli-product", "ptm-product") and not (isinstance(qubits, list) and qubits):
        raise ConfigError(f"{kind} config needs a non-empty 'qubits' list")
    if kind == "pauli-product":
        rows = []
        for i, entry in enumerate(qubits):
            try:
                rows.append([_number(entry["p" + a], f"qubit {i}: p{a}") for a in "IXYZ"])
            except (TypeError, KeyError) as exc:
                raise ConfigError(f"qubit {i}: missing probability {exc}") from None
        try:
            return PauliChannel.from_qubit_probs(rows)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if kind == "pauli-sparse":
        n = cfg.get("n")
        terms = cfg.get("terms")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError("pauli-sparse config needs an integer 'n' >= 1")
        if not isinstance(terms, list):
            raise ConfigError("pauli-sparse config needs a 'terms' list")
        pairs = []
        for i, item in enumerate(terms):
            try:
                label, prob = item
                p = PauliString.from_label(label)
            except (AttributeError, TypeError, ValueError):
                raise ConfigError(f"terms[{i}] must be [label, probability], "
                                  f"got {item!r}") from None
            if p.n != n:
                raise ConfigError(f"terms[{i}]: {label!r} is not an {n}-qubit string")
            pairs.append((p, _number(prob, f"terms[{i}]: probability")))
        try:
            return PauliChannel.from_terms(n, pairs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if kind == "ptm-product":
        ptms = []
        for i, flat in enumerate(qubits):
            if not isinstance(flat, list) or len(flat) != 16:
                raise ConfigError(f"qubits[{i}] must hold 16 reals (row-major 4x4)")
            ptms.append(np.reshape([_number(x, f"qubits[{i}][{j}]") for j, x in enumerate(flat)],
                                   (4, 4)))
        try:
            return ProductChannel(np.stack(ptms))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown channel kind {kind!r}")


def _read_json(path, what: str):
    """The JSON value in a ``what`` config file.  A file that cannot be read,
    is not UTF-8 or is not JSON raises ``ConfigError`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} config {path}: {exc}") from None
    except ValueError as exc:  # JSON syntax, or bytes that are not UTF-8
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def load_channel(path) -> PauliChannel | ProductChannel:
    return channel_from_config(_read_json(path, "channel"))

