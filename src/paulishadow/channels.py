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
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .paulis import (
    PauliString,
    enumerate_low_weight,
    letter_codes,
    pauli_from_index,
    symplectic_product,
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
        out: dict[PauliString, float] = {}
        for idx in range(4**self.n):
            p = pauli_from_index(self.n, idx)
            prob = 1.0
            for j in range(self.n):
                prob *= self._qubit_probs[j, p.letter_code(j)]
            if prob > 0.0:
                out[p] = prob
        return out

    def sparse_terms(self) -> dict[PauliString, float]:
        if self._terms is None:
            raise ValueError("channel is stored in product form")
        return dict(self._terms)

    # -- spectra -----------------------------------------------------------

    def qubit_eigenvalues(self) -> np.ndarray:
        """(n, 4) array of per-qubit eigenvalues (1, lX, lY, lZ); product form only."""
        if self._qubit_probs is None:
            raise ValueError("channel is stored in sparse form")
        return self._qubit_probs @ WALSH_KERNEL.T

    def eigenvalue(self, p: PauliString) -> float:
        """lambda_P = sum_Q (-1)^<P,Q> p(Q)."""
        if p.n != self.n:
            raise ValueError(f"{p} has {p.n} qubits, channel has {self.n}")
        if self._qubit_probs is not None:
            eigs = self.qubit_eigenvalues()
            out = 1.0
            for j in range(self.n):
                out *= eigs[j, p.letter_code(j)]
            return out
        return sum(
            prob * (1.0 - 2.0 * symplectic_product(p, q))
            for q, prob in self._terms.items()
        )

    def min_abs_eigenvalue(self, k: int) -> float:
        """min |lambda_P| over all strings of weight <= k."""
        if self._qubit_probs is not None:
            eigs = self.qubit_eigenvalues()
            # All |eigenvalues| are <= 1, so the minimum over weight <= k takes,
            # per qubit, the smallest |eigenvalue| among X, Y, Z, and multiplies
            # the k smallest of those.
            per_qubit = np.min(np.abs(eigs[:, 1:]), axis=1)
            worst = np.sort(per_qubit)[:k]
            return float(np.prod(worst)) if worst.size else 1.0
        return min(
            abs(self.eigenvalue(p)) for p in enumerate_low_weight(self.n, k)
        )

    # -- conversions ---------------------------------------------------------

    def to_product_channel(self) -> "ProductChannel":
        eigs = self.qubit_eigenvalues()  # raises for sparse form
        ptms = np.zeros((self.n, 4, 4))
        for j in range(self.n):
            np.fill_diagonal(ptms[j], eigs[j])
        return ProductChannel(ptms)

    # -- sampling support -----------------------------------------------------

    def sample_errors(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` error strings; returns (count, n) int8 letter codes."""
        if self._qubit_probs is not None:
            cdf = np.cumsum(self._qubit_probs, axis=1)  # (n, 4)
            # The letter counts the qubit's thresholds at or below u.
            letters = np.zeros((count, self.n), dtype=np.int8)
            for rows, u in uniform_slices(rng, (count, self.n)):
                for threshold in cdf[:, :-1].T:
                    letters[rows] += u >= threshold
            return letters
        labels = list(self._terms)
        probs = np.array([self._terms[p] for p in labels])
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        picks = np.empty(count, dtype=np.intp)
        for rows, u in uniform_slices(rng, (count,)):
            picks[rows] = np.searchsorted(cdf, u, side="right")
        return letter_codes(labels, self.n)[picks]

    def __repr__(self) -> str:
        kind = "product" if self.is_product else f"sparse[{len(self._terms)}]"
        return f"<PauliChannel n={self.n} {kind}>"


# Doubles per ``Generator.random`` call of a sampler.  Consecutive calls give
# the same doubles as one, so slicing bounds the float temporaries without
# changing a draw.  On a 2-core VM, 2^15 kept n = 2 ``sample_errors`` at
# about 2.4-3.1 ms per 65,536-record block, while 2^17 made the n = 4
# transfer-matrix sampler fault in about 1,000 fresh pages per block.
UNIFORM_SLICE = 1 << 15


def uniform_slices(rng: np.random.Generator, shape: tuple[int, ...]):
    """Yield (row slice, uniforms) pairs that together draw the doubles of one
    ``rng.random(shape)`` call, split along the first axis into slices of
    about ``UNIFORM_SLICE`` values."""
    count, *rest = shape
    step = max(UNIFORM_SLICE // math.prod(rest), 1)
    for start in range(0, count, step):
        rows = slice(start, min(start + step, count))
        yield rows, rng.random((rows.stop - start, *rest))


# -- single-qubit building blocks ---------------------------------------------


def depolarizing_probs(shrink: float) -> tuple[float, float, float, float]:
    """Probability quadruple of the depolarizing channel with eigenvalue ``shrink``."""
    if not -1.0 / 3.0 <= shrink <= 1.0:
        raise ValueError(f"depolarizing eigenvalue must be in [-1/3, 1], got {shrink}")
    perr = (1.0 - shrink) / 4.0
    return (1.0 - 3.0 * perr, perr, perr, perr)


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

    def adjoint_factor(self, j: int) -> np.ndarray:
        """Per-qubit factor of the adjoint transfer matrix (the transpose)."""
        return self._ptms[j].T.copy()

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


def _choi_from_ptm(ptm: np.ndarray) -> np.ndarray:
    """Choi matrix (trace-normalized to 1) of a single-qubit PTM."""
    from .paulis import PAULI_MATRICES

    choi = np.zeros((4, 4), dtype=np.complex128)
    for a in range(4):
        for b in range(4):
            choi += ptm[a, b] * np.kron(PAULI_MATRICES[b].T, PAULI_MATRICES[a])
    return choi / 4.0


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

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        expected = len(self.basis)
        if self.matrix.shape != (expected, expected):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match basis size {expected}"
            )
        self._index = {p: i for i, p in enumerate(self.basis)}

    def index(self, p: PauliString) -> int:
        try:
            return self._index[p.unsigned()]
        except KeyError:
            raise KeyError(f"{p} is not in the weight <= {self.k} basis") from None

    def entry(self, p: PauliString, q: PauliString) -> float:
        return float(self.matrix[self.index(p), self.index(q)])

    def block_slices(self) -> list[tuple[int, slice]]:
        """Contiguous (weight, slice) pairs of the weight-major basis."""
        out: list[tuple[int, slice]] = []
        start = 0
        for w in range(self.k + 1):
            size = sum(1 for p in self.basis if p.weight == w)
            out.append((w, slice(start, start + size)))
            start += size
        return out

    def is_upper_block_triangular(self, tol: float = TRIANGULARITY_TOLERANCE) -> bool:
        weights = np.array([p.weight for p in self.basis])
        below = weights[:, None] > weights[None, :]
        return bool(np.max(np.abs(self.matrix[below]), initial=0.0) <= tol)


def exact_transfer_matrix(channel, k: int) -> TransferMatrix:
    """Adjoint transfer matrix of an analytic channel on the weight <= k basis."""
    basis = tuple(enumerate_low_weight(channel.n, k))
    size = len(basis)
    if isinstance(channel, PauliChannel):
        matrix = np.zeros((size, size))
        for i, p in enumerate(basis):
            matrix[i, i] = channel.eigenvalue(p)
        return TransferMatrix(channel.n, k, basis, matrix)
    if isinstance(channel, ProductChannel):
        codes = letter_codes(basis, channel.n)
        matrix = np.ones((size, size))
        for j in range(channel.n):  # in qubit order, as a per-entry product would
            matrix *= channel.adjoint_factor(j)[codes[:, j, None], codes[None, :, j]]
        return TransferMatrix(channel.n, k, basis, matrix)
    raise TypeError(
        f"no analytic transfer matrix for {type(channel).__name__}; "
        "use paulishadow.exact.brute_force_transfer"
    )


def is_weight_contracting(channel_or_transfer, k: int | None = None,
                          tol: float = TRIANGULARITY_TOLERANCE) -> bool:
    """Whether the adjoint action never raises Pauli weight (up to weight k)."""
    if isinstance(channel_or_transfer, TransferMatrix):
        return channel_or_transfer.is_upper_block_triangular(tol)
    if k is None:
        raise ValueError("k is required when passing a channel")
    return exact_transfer_matrix(channel_or_transfer, k).is_upper_block_triangular(tol)


# -- error-rate / eigenvalue transforms ----------------------------------------


def walsh_eigenvalues(probs: np.ndarray) -> np.ndarray:
    """Map a 4^n error-rate vector to the 4^n eigenvalue vector.

    Indexing is the base-4 letter order of ``paulis.pauli_index`` (qubit 0 is
    the most significant digit).  O(n 4^n) via per-qubit transforms.
    """
    return _walsh_apply(np.asarray(probs, dtype=float), WALSH_KERNEL)


def walsh_probabilities(eigenvalues: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Inverse of :func:`walsh_eigenvalues`; rejects non-channel spectra.

    A result with a probability below ``-tol`` means the input vector is not
    the spectrum of any Pauli channel.
    """
    probs = _walsh_apply(np.asarray(eigenvalues, dtype=float), WALSH_KERNEL / 4.0)
    if probs.size and float(np.min(probs)) < -tol:
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


def channel_from_config(cfg: Mapping) -> PauliChannel | ProductChannel:
    """Build a channel from its JSON object form.  See README for the schema."""
    try:
        kind = cfg["kind"]
    except (TypeError, KeyError):
        raise ConfigError("channel config needs a 'kind' field") from None
    if kind == "pauli-product":
        qubits = cfg.get("qubits")
        if not qubits:
            raise ConfigError("pauli-product config needs a non-empty 'qubits' list")
        rows = []
        for i, entry in enumerate(qubits):
            try:
                rows.append([entry["pI"], entry["pX"], entry["pY"], entry["pZ"]])
            except (TypeError, KeyError) as exc:
                raise ConfigError(f"qubit {i}: missing probability {exc}") from None
        try:
            return PauliChannel.from_qubit_probs(rows)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if kind == "pauli-sparse":
        n = cfg.get("n")
        terms = cfg.get("terms")
        if not isinstance(n, int) or n < 1:
            raise ConfigError("pauli-sparse config needs an integer 'n' >= 1")
        if terms is None:
            raise ConfigError("pauli-sparse config needs a 'terms' list")
        pairs = []
        for i, item in enumerate(terms):
            try:
                label, prob = item
            except (TypeError, ValueError):
                raise ConfigError(f"terms[{i}] must be [label, probability]") from None
            p = PauliString.from_label(str(label))
            if p.n != n:
                raise ConfigError(f"terms[{i}]: {label!r} is not an {n}-qubit string")
            pairs.append((p, float(prob)))
        try:
            return PauliChannel.from_terms(n, pairs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if kind == "ptm-product":
        qubits = cfg.get("qubits")
        if not qubits:
            raise ConfigError("ptm-product config needs a non-empty 'qubits' list")
        ptms = []
        for i, flat in enumerate(qubits):
            arr = np.asarray(flat, dtype=float)
            if arr.shape != (16,):
                raise ConfigError(f"qubits[{i}] must hold 16 reals (row-major 4x4)")
            ptms.append(arr.reshape(4, 4))
        try:
            return ProductChannel(np.stack(ptms))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown channel kind {kind!r}")


def channel_to_config(channel: PauliChannel | ProductChannel) -> dict:
    if isinstance(channel, PauliChannel):
        if channel.is_product:
            probs = channel.qubit_probs()
            return {
                "kind": "pauli-product",
                "qubits": [
                    {"pI": row[0], "pX": row[1], "pY": row[2], "pZ": row[3]}
                    for row in probs.tolist()
                ],
            }
        return {
            "kind": "pauli-sparse",
            "n": channel.n,
            "terms": [[p.to_label(), prob] for p, prob in channel.sparse_terms().items()],
        }
    if isinstance(channel, ProductChannel):
        return {
            "kind": "ptm-product",
            "qubits": [channel.ptm(j).reshape(-1).tolist() for j in range(channel.n)],
        }
    raise TypeError(f"cannot serialize {type(channel).__name__}")


def load_channel(path) -> PauliChannel | ProductChannel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read channel config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return channel_from_config(cfg)


def save_channel(channel: PauliChannel | ProductChannel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_config(channel), fh, indent=2, sort_keys=False)
        fh.write("\n")
