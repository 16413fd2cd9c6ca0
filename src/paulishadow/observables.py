"""Real linear combinations of Pauli strings and their structural statistics."""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .paulis import PauliString


class Observable:
    """A Hermitian observable O = sum_P alpha_P P with real coefficients.

    Terms are keyed by unsigned Pauli strings; a signed string folds its sign
    into the coefficient, and duplicates add.  A term whose coefficients sum
    to exactly 0.0 is dropped, so every consumer sees only contributing
    terms.  Insertion order is preserved, so the term order is deterministic.
    """

    def __init__(
        self,
        n: int,
        terms: Mapping[PauliString, float] | Iterable[tuple[PauliString | str, float]] = (),
    ):
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        self.n = n
        self._terms: dict[PauliString, float] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            p = PauliString.from_label(key) if isinstance(key, str) else key
            if p.n != n:
                raise ValueError(f"term {p} has {p.n} qubits, observable has {n}")
            coeff = float(coeff) * p.sign
            p = p.unsigned()
            self._terms[p] = self._terms.get(p, 0.0) + coeff
            if not math.isfinite(self._terms[p]):
                raise ValueError(f"term {p} has non-finite coefficient {self._terms[p]}")
        self._terms = {p: c for p, c in self._terms.items() if c != 0.0}

    # -- access -----------------------------------------------------------

    def terms(self) -> dict[PauliString, float]:
        return dict(self._terms)

    def coefficient(self, p: PauliString) -> float:
        return self._terms.get(p.unsigned(), 0.0) * p.sign

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*{p}" for p, c in list(self._terms.items())[:4])
        if len(self._terms) > 4:
            body += f" + ... ({len(self._terms)} terms)"
        return f"<Observable n={self.n}: {body or '0'}>"

    # -- structure --------------------------------------------------------

    @property
    def locality(self) -> int:
        """Largest weight among the terms (0 for an identity-only or zero observable)."""
        return max((p.weight for p in self._terms), default=0)

    # -- arithmetic -------------------------------------------------------

    def scaled(self, factor: float) -> "Observable":
        return Observable(self.n, {p: c * factor for p, c in self._terms.items()})

    def matrix(self) -> np.ndarray:
        out = np.zeros((2**self.n, 2**self.n), dtype=np.complex128)
        for p, c in self._terms.items():
            out += c * p.matrix()
        return out

    def spectral_norm(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix()))))

    # -- text format -------------------------------------------------------
    #
    # One term per line: a letter string then a coefficient, e.g. "XZI 0.27".
    # Blank lines and lines starting with '#' are skipped.

    @classmethod
    def from_text(cls, text: str) -> "Observable":
        terms: list[tuple[PauliString, float]] = []
        n = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'PAULI COEFF', got {raw!r}")
            p = PauliString.from_label(parts[0])
            try:
                coeff = float(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad coefficient {parts[1]!r}") from None
            if n is None:
                n = p.n
            elif p.n != n:
                raise ValueError(f"line {lineno}: {p} has {p.n} qubits, expected {n}")
            terms.append((p, coeff))
        if n is None:
            raise ValueError("no terms found in observable text")
        return cls(n, terms)

    @classmethod
    def load(cls, path) -> "Observable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


def locality_norm_constant(k: int, d: int) -> float:
    """Lower-bound constant relating the Pauli-1 norm to the spectral norm.

    For a k-local observable of degree d,
    ``locality_norm_constant(k, d) / 3 * sum_P |alpha_P| <= spectral_norm``.
    """
    if k < 1:
        raise ValueError(f"locality must be >= 1, got {k}")
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    return math.sqrt(2.0 * math.factorial(k)) / (
        math.sqrt(d) * k ** (k + 2.5) * (2.0 * math.sqrt(6.0) + 4.0 * math.sqrt(3.0)) ** k
    )


def heisenberg_observable(n: int) -> Observable:
    """The paper's open Heisenberg chain with a Z field.

    Each bond (j, j + 1) carries XX 0.27, YY 0.42 and ZZ 0.76, bond by bond;
    then Z 0.6 sits on qubits 0..n-2, one field term per bond site.  Other
    couplings, a periodic bond or a field on every qubit are observable files.
    """
    if n < 2:
        raise ValueError(f"Heisenberg chain needs n >= 2, got n={n}")
    terms = [(PauliString.from_letters(n, {j: a, j + 1: a}), c)
             for j in range(n - 1) for a, c in (("X", 0.27), ("Y", 0.42), ("Z", 0.76))]
    terms += [(PauliString.from_letters(n, {j: "Z"}), 0.6) for j in range(n - 1)]
    return Observable(n, terms)
