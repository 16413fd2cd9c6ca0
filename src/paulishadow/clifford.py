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
up each gate kind's eigenvalues in one array indexed by the local string,
built by the division rule that ``recovery`` applies to a diagonal divide.
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
from .paulis import LETTERS, PauliString, iter_all_paulis, letter_codes
from .recovery import (
    DEFAULT_EIGENVALUE_FLOOR,
    BackwardObservable,
    RecoveryFloorError,
    _divisors,
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
            try:
                channel = channel_from_config(sub)
            except ConfigError as exc:
                raise ConfigError(f"noise for {kind}: {exc}") from None
            if not isinstance(channel, PauliChannel):
                raise ConfigError(f"noise for {kind}: must be a Pauli channel, got {sub.get('kind')}")
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
    reads its local index from its qubits' rows and writes back the
    conjugated letters.  The (steps, terms) eigenvalues are then gathered
    from each kind's table under ``recovery``'s division rule; a kind without
    a table has no recorded noise, and a string missing from a table fails
    only where the chain reaches it.  The coefficients are the floats a
    term-by-term chain gives; clamp warnings are listed, and the first
    failure is raised, in (term, gate from the last) order.
    """
    if observable.n != circuit.n:
        raise ValueError(
            f"observable acts on {observable.n} qubits, circuit on {circuit.n}"
        )
    terms = observable.terms()
    strings = list(terms)
    codes = letter_codes(strings, circuit.n).T.astype(np.intp, order="C")  # (n, terms)
    # Every kind's local strings in one table, a kind's from its offset on;
    # entry 0 stands for every identity: it divides by 1 and never fails.
    offset, local_strings = {}, [("", PauliString.identity(1))]
    parts = [(np.ones(1), np.ones(1), np.zeros(1, dtype=bool), np.zeros(1, dtype=bool))]
    for kind in sorted({g.kind for g in circuit.gates}):
        offset[kind] = len(local_strings)
        local = list(iter_all_paulis(gate_arity(kind)))
        local_strings += [(kind, q) for q in local]
        table = gate_estimates.get(kind)
        parts.append(_divisors(dict.fromkeys(local, 1.0) if table is None else table, local, floor))
    raw, clamped, moved, failing = (np.concatenate(arrays) for arrays in zip(*parts))
    lookups = np.empty((circuit.depth, len(strings)), dtype=np.intp)
    for step, gate in enumerate(reversed(circuit.gates)):
        local = codes[gate.qubits[0]]
        for q in gate.qubits[1:]:
            local = 4 * local + codes[q]
        lookups[step] = np.where(local == 0, 0, offset[gate.kind] + local)
        conjugated = _CONJUGATION_CODES[gate.kind].take(local, axis=1)
        for q, letters in zip(gate.qubits, conjugated):
            codes[q] = letters
    failed = lookups.T[failing[lookups].T]  # in (term, step) order, as the warnings
    if failed.size:
        kind, local = local_strings[failed[0]]
        if local not in gate_estimates[kind]:
            raise KeyError(f"no eigenvalue estimate for {kind} noise on {local}")
        raise RecoveryFloorError(local, float(clamped[failed[0]]), floor)
    divisors = clamped[lookups]
    coefficients = np.array(list(terms.values())) / np.multiply.reduce(divisors, axis=0)
    magnitudes = np.abs(divisors[lookups != 0])
    return BackwardObservable(
        circuit.n,
        dict(zip(strings, coefficients.tolist())),
        provenance="clifford-chain",
        min_abs_eigenvalue=float(magnitudes.min()) if magnitudes.size else None,
        warnings=[
            "clamped estimate {:.6g} for {} noise on {}".format(raw[index], *local_strings[index])
            for index in lookups.T[moved[lookups].T]
        ],
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
