"""Noisy Clifford circuits and backward-conjugation noise mitigation.

A circuit is a sequence of H / S / CNOT gates where every gate of a given
kind is followed by the same Pauli noise channel on the qubits it touched.
Conjugating an observable's Pauli terms backward through the gates turns the
noisy expectation into a product of per-layer eigenvalues times the ideal
expectation; dividing the coefficients by that product undoes the noise.

Conjugation is by U^dagger P U with fixed signed tables.  Signs matter while
chaining (S^dagger X S = -Y), but eigenvalue lookups use the unsigned string:
the two sign occurrences cancel in the identity being exploited.  So the
mitigation chain drops the signs: it runs on a (qubits, terms) array of
letter codes, through code tables derived from the signed tables, and looks
up each gate kind's eigenvalues in one array indexed by the local string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .channels import (
    ConfigError,
    PauliChannel,
    channel_from_config,
    channel_to_config,
    exact_diagonal,
)
from .observables import Observable
from .paulis import LETTERS, PauliString, iter_all_paulis, letter_codes, pauli_from_index
from .recovery import (
    DEFAULT_EIGENVALUE_FLOOR,
    BackwardObservable,
    RecoveryFloorError,
)

GATE_ARITY = {"H": 1, "S": 1, "CNOT": 2}

# U^dagger P U tables.  Single-qubit entries map letter -> (letter, sign);
# the CNOT table maps (control letter, target letter) -> (.., .., sign).
H_CONJUGATION = {"I": ("I", 1), "X": ("Z", 1), "Y": ("Y", -1), "Z": ("X", 1)}
S_CONJUGATION = {"I": ("I", 1), "X": ("Y", -1), "Y": ("X", 1), "Z": ("Z", 1)}
CNOT_CONJUGATION = {
    ("I", "I"): ("I", "I", 1),
    ("X", "I"): ("X", "X", 1),
    ("Y", "I"): ("Y", "X", 1),
    ("Z", "I"): ("Z", "I", 1),
    ("I", "X"): ("I", "X", 1),
    ("I", "Y"): ("Z", "Y", 1),
    ("I", "Z"): ("Z", "Z", 1),
    ("X", "X"): ("X", "I", 1),
    ("X", "Y"): ("Y", "Z", 1),
    ("X", "Z"): ("Y", "Y", -1),
    ("Y", "X"): ("Y", "I", 1),
    ("Y", "Y"): ("X", "Z", -1),
    ("Y", "Z"): ("X", "Y", 1),
    ("Z", "X"): ("Z", "X", 1),
    ("Z", "Y"): ("I", "Y", 1),
    ("Z", "Z"): ("I", "Z", 1),
}


class Gate(NamedTuple):
    kind: str
    qubits: tuple[int, ...]


def gate_arity(kind: str) -> int:
    try:
        return GATE_ARITY[kind]
    except KeyError:
        raise ValueError(f"unknown gate kind {kind!r}") from None


def conjugate_pauli(kind: str, qubits: Sequence[int], p: PauliString) -> PauliString:
    """U^dagger P U for one gate, acting on the full register string."""
    qubits = tuple(qubits)
    if len(qubits) != gate_arity(kind):
        raise ValueError(f"{kind} acts on {gate_arity(kind)} qubits, got {qubits}")
    letters = {j: p.letter(j) for j in range(p.n)}
    sign = p.sign
    if kind in ("H", "S"):
        table = H_CONJUGATION if kind == "H" else S_CONJUGATION
        new_letter, s = table[letters[qubits[0]]]
        letters[qubits[0]] = new_letter
        sign *= s
    else:
        control, target = qubits
        new_c, new_t, s = CNOT_CONJUGATION[(letters[control], letters[target])]
        letters[control], letters[target] = new_c, new_t
        sign *= s
    sparse = {j: ch for j, ch in letters.items() if ch != "I"}
    return PauliString.from_letters(p.n, sparse, sign)


@dataclass
class CliffordCircuit:
    """Gates in execution order plus a per-gate-kind noise channel."""

    n: int
    gates: tuple[Gate, ...]
    noise: dict[str, PauliChannel] = field(default_factory=dict)

    def __post_init__(self):
        self.gates = tuple(
            g if isinstance(g, Gate) else Gate(g[0], tuple(g[1])) for g in self.gates
        )
        for gate in self.gates:
            arity = gate_arity(gate.kind)
            if len(gate.qubits) != arity:
                raise ValueError(f"{gate.kind} takes {arity} qubits, got {gate.qubits}")
            if len(set(gate.qubits)) != len(gate.qubits):
                raise ValueError(f"repeated qubit in {gate}")
            for q in gate.qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"qubit {q} out of range for n={self.n}")
        for kind, channel in self.noise.items():
            if channel.n != gate_arity(kind):
                raise ValueError(
                    f"noise for {kind} must act on {gate_arity(kind)} qubits, "
                    f"got {channel.n}"
                )

    @property
    def depth(self) -> int:
        return len(self.gates)

    # -- JSON --------------------------------------------------------------

    @classmethod
    def from_dict(cls, cfg: Mapping) -> "CliffordCircuit":
        try:
            n = cfg["n"]
            raw_gates = cfg["gates"]
        except (TypeError, KeyError) as exc:
            raise ConfigError(f"circuit config missing field {exc}") from None
        gates = []
        for i, item in enumerate(raw_gates):
            try:
                gates.append(Gate(item["g"], tuple(item["q"])))
            except (TypeError, KeyError):
                raise ConfigError(f"gates[{i}] must look like {{'g': 'H', 'q': [0]}}") from None
        noise = {}
        for kind, sub in (cfg.get("noise") or {}).items():
            if kind not in GATE_ARITY:
                raise ConfigError(f"noise for unknown gate kind {kind!r}")
            channel = channel_from_config(sub)
            if not isinstance(channel, PauliChannel):
                raise ConfigError(f"gate noise must be a Pauli channel, got {sub.get('kind')}")
            noise[kind] = channel
        try:
            return cls(n, tuple(gates), noise)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "gates": [{"g": g.kind, "q": list(g.qubits)} for g in self.gates],
            "noise": {k: channel_to_config(ch) for k, ch in self.noise.items()},
        }

    @classmethod
    def load(cls, path) -> "CliffordCircuit":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read circuit config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
        return cls.from_dict(cfg)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def conjugate_through_circuit(
    circuit: CliffordCircuit, p: PauliString, from_gate_index: int | None = None
) -> list[PauliString]:
    """Backward conjugation chain of ``p`` through the circuit.

    Entry 0 is ``p`` itself; entry m is ``p`` conjugated through the last m
    gates (at or before ``from_gate_index``, defaulting to the final gate).
    Entry m is the signed Pauli whose trace appears after peeling m gates,
    and the string hitting the noise layer of the (d-m)-th gate.
    """
    if p.n != circuit.n:
        raise ValueError(f"{p} acts on {p.n} qubits, circuit on {circuit.n}")
    stop = circuit.depth if from_gate_index is None else from_gate_index + 1
    if not 0 <= stop <= circuit.depth:
        raise ValueError(f"gate index {from_gate_index} out of range")
    chain = [p]
    for gate in reversed(circuit.gates[:stop]):
        chain.append(conjugate_pauli(gate.kind, gate.qubits, chain[-1]))
    return chain


def _conjugation_codes(table: Mapping) -> np.ndarray:
    """A signed conjugation table as (g, 4^g) letter codes: column ``i`` holds
    the letters of the unsigned U^dagger P U for the local string of index
    ``i``, first gate qubit most significant (``pauli_index`` order)."""
    arity = len(tuple(next(iter(table))))
    out = np.zeros((arity, 4**arity), dtype=np.intp)
    for before, (*after, _sign) in table.items():
        index = reduce(lambda acc, letter: 4 * acc + LETTERS.index(letter), tuple(before), 0)
        out[:, index] = [LETTERS.index(letter) for letter in after]
    return out


_CONJUGATION_CODES = {
    "H": _conjugation_codes(H_CONJUGATION),
    "S": _conjugation_codes(S_CONJUGATION),
    "CNOT": _conjugation_codes(CNOT_CONJUGATION),
}


class _LayerTable(NamedTuple):
    """One gate kind's noise-layer lookups, by local index (0 is the identity)."""

    kind: str
    estimate: np.ndarray   # the estimate as given; 1 for the identity
    clamped: np.ndarray    # the estimate clamped into [-1, 1]
    magnitude: np.ndarray  # |clamped|; inf at the identity, which is not used
    missing: np.ndarray    # no estimate for this string
    failing: np.ndarray    # missing, or used and below the floor

    def error(self, index: int, floor: float) -> Exception:
        local = pauli_from_index(gate_arity(self.kind), index)
        if self.missing[index]:
            return KeyError(f"no eigenvalue estimate for {self.kind} noise on {local}")
        return RecoveryFloorError(local, float(self.clamped[index]), floor)

    def warning(self, index: int) -> str:
        local = pauli_from_index(gate_arity(self.kind), index)
        return f"clamped estimate {self.estimate[index]:.6g} for {self.kind} noise on {local}"


def _layer_table(
    estimates: Mapping[str, Mapping[PauliString, float]], kind: str, floor: float
) -> _LayerTable:
    """Every local string's lookup for one gate kind.  A kind without a table
    has no recorded noise (every eigenvalue 1); a string missing from a table
    fails only where the chain reaches it."""
    arity = gate_arity(kind)
    estimate = np.ones(4**arity)
    missing = np.zeros(4**arity, dtype=bool)
    table = estimates.get(kind)
    if table is not None:
        for index in range(1, 4**arity):
            try:
                estimate[index] = float(table[pauli_from_index(arity, index)])
            except KeyError:
                missing[index] = True
    clamped = np.array([max(-1.0, min(1.0, raw)) for raw in estimate.tolist()])
    magnitude = np.abs(clamped)
    magnitude[0] = np.inf
    return _LayerTable(kind, estimate, clamped, magnitude, missing, missing | (magnitude < floor))


def mitigation_coefficients(
    circuit: CliffordCircuit,
    gate_estimates: Mapping[str, Mapping[PauliString, float]],
    observable: Observable,
    floor: float = DEFAULT_EIGENVALUE_FLOOR,
) -> BackwardObservable:
    """Backward observable for circuit mitigation.

    Each coefficient divides by the product, over noise layers from the last
    gate to the first, of that layer's eigenvalue at the backward-conjugated
    Pauli (restricted to the gate's qubits, unsigned).  The chain runs for
    all terms at once on a (qubits, terms) array of letter codes: each gate
    reads its local index from its qubits' rows, looks up its layer's
    eigenvalue there, and writes back the conjugated letters.  Every term
    multiplies its eigenvalues in its own chain order, so the coefficients
    are the floats a term-by-term chain gives; clamp warnings are listed,
    and the first failure (a missing estimate or one below the floor) is
    raised, in (term, gate from the last) order.
    """
    if observable.n != circuit.n:
        raise ValueError(
            f"observable acts on {observable.n} qubits, circuit on {circuit.n}"
        )
    terms = observable.terms()
    strings = list(terms)
    codes = letter_codes(strings, circuit.n).T.astype(np.intp, order="C")  # (n, terms)
    layers = {kind: _layer_table(gate_estimates, kind, floor) for kind in {g.kind for g in circuit.gates}}
    denominator = np.ones(len(strings))
    smallest = np.full(len(strings), np.inf)
    failures: list[tuple[int, int, _LayerTable, int]] = []  # (term, step, layer, local index)
    clamps: list[tuple[int, int, str]] = []  # (term, step, warning)
    for step, gate in enumerate(reversed(circuit.gates)):
        layer = layers[gate.kind]
        local = codes[gate.qubits[0]]
        for q in gate.qubits[1:]:
            local = 4 * local + codes[q]
        clamped = layer.clamped.take(local)
        denominator *= clamped
        np.minimum(smallest, layer.magnitude.take(local), out=smallest)
        for term in np.flatnonzero(layer.failing.take(local)):
            failures.append((term, step, layer, local[term]))
        for term in np.flatnonzero(clamped != layer.estimate.take(local)):
            clamps.append((term, step, layer.warning(local[term])))
        conjugated = _CONJUGATION_CODES[gate.kind].take(local, axis=1)
        for q, letters in zip(gate.qubits, conjugated):
            codes[q] = letters
    if failures:
        _term, _step, layer, index = min(failures, key=lambda f: f[:2])
        raise layer.error(index, floor)
    coefficients = np.array(list(terms.values())) / denominator
    min_used = float(smallest.min(initial=np.inf))
    return BackwardObservable(
        circuit.n,
        dict(zip(strings, coefficients.tolist())),
        provenance="clifford-chain",
        min_abs_eigenvalue=min_used if min_used != np.inf else None,
        warnings=[message for *_, message in sorted(clamps)],
    )


def exact_gate_estimates(
    circuit: CliffordCircuit,
) -> dict[str, dict[PauliString, float]]:
    """Oracle per-kind eigenvalue tables from the circuit's noise channels."""
    out: dict[str, dict[PauliString, float]] = {}
    for kind in sorted({g.kind for g in circuit.gates}):
        channel = circuit.noise.get(kind)
        arity = gate_arity(kind)
        if channel is None:
            channel = PauliChannel.identity(arity)
        strings = list(iter_all_paulis(arity))
        out[kind] = dict(zip(strings, exact_diagonal(channel, strings).tolist()))
    return out
