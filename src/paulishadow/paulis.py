"""Signed n-qubit Pauli strings with a packed symplectic representation.

A Pauli string is stored as two bit masks ``x`` and ``z`` plus a real sign in
{+1, -1}.  Bit ``j`` of ``x``/``z`` gives the X/Z component on qubit ``j``:
(0,0) = I, (1,0) = X, (1,1) = Y, (0,1) = Z.  Qubit 0 is the leftmost letter of
a label such as ``"XZI"``.  Array code reads strings through ``letter_codes``;
the strings themselves come from labels, the base-4 enumeration
(``pauli_from_index``, ``iter_all_paulis``) or the low-weight one.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

LETTERS = "IXYZ"

# Single-qubit matrices, indexed by letter code (I=0, X=1, Y=2, Z=3).
PAULI_MATRICES = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

_CODE_FROM_BITS = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}

# i^e for e = 0..3, built from components so that no entry holds a -0.0.
_I_POWERS = np.array([complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1)])


class PauliString:
    """An immutable signed Pauli string on ``n`` qubits."""

    __slots__ = ("n", "x", "z", "sign")

    def __init__(self, n: int, x: int = 0, z: int = 0, sign: int = 1):
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        mask = (1 << n) - 1
        if x & ~mask or z & ~mask:
            raise ValueError(f"bit mask exceeds {n} qubits")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n)

    @classmethod
    def from_label(cls, label: str, sign: int = 1) -> "PauliString":
        """Build from a letter string such as ``"XZI"`` (qubit 0 leftmost)."""
        label = label.strip()
        if label.startswith("-"):
            sign = -sign
            label = label[1:]
        elif label.startswith("+"):
            label = label[1:]
        if not label:
            raise ValueError("empty Pauli label")
        codes = [LETTERS.find(ch.upper()) for ch in label]
        if -1 in codes:
            raise ValueError(f"invalid Pauli letter {label[codes.index(-1)]!r} in {label!r}")
        return cls(len(label), *_masks(enumerate(codes)), sign)

    @classmethod
    def from_letters(cls, n: int, letters: dict[int, str], sign: int = 1) -> "PauliString":
        """Build from a sparse {qubit: letter} mapping, identity elsewhere."""
        codes = {j: LETTERS.find(ch.upper()) for j, ch in letters.items()}
        for j, code in codes.items():
            if not 0 <= j < n:
                raise ValueError(f"qubit index {j} out of range for n={n}")
            if code <= 0:
                raise ValueError(f"invalid non-identity letter {letters[j]!r}")
        return cls(n, *_masks(codes.items()), sign)

    # -- basic queries ---------------------------------------------------

    def letter_code(self, j: int) -> int:
        return _CODE_FROM_BITS[((self.x >> j) & 1, (self.z >> j) & 1)]

    def letter(self, j: int) -> str:
        return LETTERS[self.letter_code(j)]

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def unsigned(self) -> "PauliString":
        return self if self.sign == 1 else PauliString(self.n, self.x, self.z, 1)

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (sign included), intended for small n.

        It is a signed permutation: with qubit 0 the most significant bit of
        the row index r, row r's one nonzero entry is at column r ^ x and
        equals sign * (-i)^#Y * (-1)^popcount(r & z).
        """
        n = self.n
        if n > 14:
            raise ValueError(f"dense matrix for n={n} qubits is not supported")
        x = z = 0
        for j in range(n):
            x = x << 1 | (self.x >> j) & 1
            z = z << 1 | (self.z >> j) & 1
        rows = np.arange(1 << n)
        # Exponent of i: (-i)^#Y is i^(3 #Y); each -1 factor is i^2.
        exponent = np.full(1 << n, 3 * (self.x & self.z).bit_count() + (1 - self.sign))
        for j in range(n):
            if (z >> j) & 1:
                exponent += 2 * ((rows >> j) & 1)
        out = np.zeros((1 << n, 1 << n), dtype=np.complex128)
        out[rows, rows ^ x] = _I_POWERS[exponent % 4]
        return out

    # -- dunder plumbing --------------------------------------------------

    def to_label(self) -> str:
        body = "".join(self.letter(j) for j in range(self.n))
        return body if self.sign == 1 else "-" + body

    def __str__(self) -> str:
        return self.to_label()

    def __repr__(self) -> str:
        return f"PauliString.from_label({self.to_label()!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (self.n, self.x, self.z, self.sign) == (other.n, other.x, other.z, other.sign)

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z, self.sign))


def _masks(codes: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(x, z) bit masks of (qubit, letter code) pairs."""
    x = z = 0
    for j, code in codes:
        if code in (1, 2):
            x |= 1 << j
        if code in (2, 3):
            z |= 1 << j
    return x, z


def letter_codes(strings: Sequence[PauliString], n: int) -> np.ndarray:
    """(len(strings), n) int8 letter codes (I=0, X=1, Y=2, Z=3), column j for qubit j."""
    wrong = next((p for p in strings if p.n != n), None)
    if wrong is not None:
        raise ValueError(f"{wrong} has {wrong.n} qubits, expected {n}")
    size = (n + 7) // 8

    def bits(masks):
        raw = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), np.uint8)
        return np.unpackbits(raw.reshape(-1, size), axis=1, count=n, bitorder="little")

    x, z = bits(p.x for p in strings), bits(p.z for p in strings)
    # (x, z) bits (0,0), (1,0), (1,1), (0,1) are I, X, Y, Z.
    return (x + 3 * z - 2 * x * z).astype(np.int8)


def pauli_from_index(n: int, idx: int) -> PauliString:
    if not 0 <= idx < 4**n:
        raise ValueError(f"index {idx} out of range for n={n}")
    return PauliString(n, *_masks((j, idx >> 2 * (n - 1 - j) & 3) for j in range(n)))


def low_weight_count(n: int, k: int) -> int:
    """Number of Pauli strings with weight at most k, identity included."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return sum(math.comb(n, w) * 3**w for w in range(k + 1))


def enumerate_low_weight(n: int, k: int) -> list[PauliString]:
    """All unsigned strings with weight <= k, in the package's canonical order.

    Order is weight-major; within a weight class the support sets ascend
    lexicographically and letters on the support ascend with X < Y < Z.  Every
    basis-indexed object (transfer matrices, CSV output) uses this order.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = [PauliString.identity(n)]
    from itertools import combinations, product

    for w in range(1, k + 1):
        for positions in combinations(range(n), w):
            for codes in product((1, 2, 3), repeat=w):
                out.append(PauliString(n, *_masks(zip(positions, codes))))
    return out


def iter_all_paulis(n: int) -> Iterator[PauliString]:
    """All 4^n unsigned strings in base-4 letter order, qubit 0 the leading
    digit: string ``idx`` is ``pauli_from_index(n, idx)``."""
    for idx in range(4**n):
        yield pauli_from_index(n, idx)
