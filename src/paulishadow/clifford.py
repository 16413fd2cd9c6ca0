"""Noisy Clifford circuits and backward-conjugation noise mitigation.

A circuit is a sequence of H / S / CNOT gates where every gate of a given
kind is followed by the same Pauli noise channel on the qubits it touched.
Conjugating an observable's Pauli terms backward through the gates turns the
noisy expectation into a product of per-layer eigenvalues times the ideal
expectation; dividing the coefficients by that product undoes the noise.

Conjugation U^dagger P U is one fixed signed table per gate kind,
``CONJUGATION_TABLES``: the image of every local string, in
``iter_all_paulis`` order.  ``GATE_ARITY``, the mitigation chain's
letter-code table and ``shadows.estimate_gate_eigenvalues`` all read it.
Signs matter when conjugating a signed string (S^dagger X S = -Y), but
eigenvalue lookups use the unsigned string: the two sign occurrences cancel
in the identity being exploited.  So the mitigation chain drops the signs:
it runs on a (qubits, terms) array of letter codes through the table's
image codes, and multiplies each gate's divisors into one running product
per term.  Each gate kind's divisors are arrays indexed by the local string,
built by the division rule that ``recovery`` applies to a diagonal divide.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .channels import (
    ConfigError,
    PauliChannel,
    _read_json,
    channel_from_config,
    exact_diagonal,
)
from .observables import Observable
from .paulis import PauliString, iter_all_paulis, letter_codes
from .recovery import (
    DEFAULT_EIGENVALUE_FLOOR,
    BackwardObservable,
    RecoveryFloorError,
    _divisors,
)

# U^dagger P U of every local string P of a gate kind, in ``iter_all_paulis``
# order (first gate qubit most significant), as signed strings.
CONJUGATION_TABLES = {
    kind: tuple(map(PauliString.from_label, labels))
    for kind, labels in {
        "H": ("I", "Z", "-Y", "X"),
        "S": ("I", "-Y", "X", "Z"),
        "CNOT": ("II", "IX", "ZY", "ZZ", "XX", "XI", "YZ", "-YY",
                 "YX", "YI", "-XZ", "XY", "ZI", "ZX", "IY", "IZ"),
    }.items()
}
GATE_ARITY = {kind: images[0].n for kind, images in CONJUGATION_TABLES.items()}
# The chain's view of the tables: (g, 4^g) letter codes of the unsigned images.
_IMAGE_CODES = {
    kind: letter_codes(images, GATE_ARITY[kind]).T.astype(np.intp)
    for kind, images in CONJUGATION_TABLES.items()
}


class Gate(NamedTuple):
    kind: str
    qubits: tuple[int, ...]


def gate_arity(kind: str) -> int:
    try:
        return GATE_ARITY[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind read from JSON
        raise ValueError(f"unknown gate kind {kind!r}") from None


@dataclass
class CliffordCircuit:
    """Gates in execution order plus a noise channel for each gate kind they
    use: the identity channel for a kind given none, which is noiseless."""

    n: int
    gates: tuple[Gate, ...]
    noise: dict[str, PauliChannel] = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"qubit count must be an integer, got {self.n!r}")
        self.gates = tuple(
            g if isinstance(g, Gate) else Gate(g[0], tuple(g[1])) for g in self.gates
        )
        self.noise = dict(self.noise)  # filled below, so never the caller's dict
        for gate in self.gates:
            arity = gate_arity(gate.kind)
            if gate.kind not in self.noise:
                self.noise[gate.kind] = PauliChannel.identity(arity)
            if len(gate.qubits) != arity:
                raise ValueError(f"{gate.kind} takes {arity} qubits, got {gate.qubits}")
            if len(set(gate.qubits)) != len(gate.qubits):
                raise ValueError(f"repeated qubit in {gate}")
            for q in gate.qubits:
                if isinstance(q, bool) or not (isinstance(q, numbers.Integral) and 0 <= q < self.n):
                    raise ValueError(f"qubit {q!r} is not an integer in [0, {self.n})")
        for kind, channel in self.noise.items():
            if channel.n != gate_arity(kind):
                raise ValueError(
                    f"noise for {kind} must act on {gate_arity(kind)} qubits, "
                    f"got {channel.n}"
                )

    # -- JSON --------------------------------------------------------------

    @classmethod
    def from_dict(cls, cfg: Mapping) -> "CliffordCircuit":
        if not isinstance(cfg, Mapping):
            raise ConfigError("circuit config must be a JSON object")
        try:
            n = cfg["n"]
            raw_gates = cfg["gates"]
        except KeyError as exc:
            raise ConfigError(f"circuit config missing field {exc}") from None
        if not isinstance(raw_gates, list):
            raise ConfigError("circuit config needs a 'gates' list")
        gates = []
        for i, item in enumerate(raw_gates):
            try:
                gates.append(Gate(item["g"], tuple(item["q"])))
            except (TypeError, KeyError):
                raise ConfigError(f"gates[{i}] must look like {{'g': 'H', 'q': [0]}}") from None
        noise, noise_cfg = {}, cfg.get("noise", {})
        if not isinstance(noise_cfg, dict):
            raise ConfigError("circuit 'noise' must map gate kinds to channels")
        for kind, sub in noise_cfg.items():
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

    @classmethod
    def load(cls, path) -> "CliffordCircuit":
        return cls.from_dict(_read_json(path, "circuit"))


def mitigation_coefficients(
    circuit: CliffordCircuit,
    gate_estimates: Mapping[str, Mapping[PauliString, float]],
    observable: Observable,
    floor: float = DEFAULT_EIGENVALUE_FLOOR,
) -> BackwardObservable:
    """Backward observable for circuit mitigation.

    Each coefficient divides by the product, over noise layers from the last
    gate to the first, of that layer's eigenvalue at the backward-conjugated
    Pauli (restricted to the gate's qubits, unsigned).  The chain walks the
    gates once for all terms on a (qubits, terms) array of letter codes: each
    gate reads its local index from its qubits' rows, multiplies that string's
    divisor under ``recovery``'s division rule into a running product per
    term, and writes back the conjugated letters.  A kind without a table has
    no recorded noise, and a string missing from a table fails only where the
    chain reaches it.  The coefficients are the floats a term-by-term chain
    gives; clamp warnings are listed, and the first failure is raised, in
    (term, gate from the last) order.
    """
    if observable.n != circuit.n:
        raise ValueError(f"observable acts on {observable.n} qubits, circuit on {circuit.n}")
    terms = observable.terms()
    strings = list(terms)
    codes = letter_codes(strings, circuit.n).T.astype(np.intp, order="C")  # (n, terms)
    rules = {}  # per kind: its local strings and their division rule, by local index
    for kind in {g.kind for g in circuit.gates}:
        local = list(iter_all_paulis(gate_arity(kind)))
        table = gate_estimates.get(kind)
        raw, clamped, moved, failing = _divisors(
            dict.fromkeys(local, 1.0) if table is None else table, local, floor)
        clamped[0], moved[0], failing[0] = 1.0, False, False  # the identity divides by 1
        rules[kind] = local, raw, clamped, moved, failing
    # One running divisor per term, multiplied in step order; each read that
    # clamps or fails, as (term, step, kind, local index); the least |divisor|.
    product, reads, least = np.ones(len(strings)), [], np.inf
    for step, gate in enumerate(reversed(circuit.gates)):
        local = codes[gate.qubits[0]]
        for q in gate.qubits[1:]:
            local = 4 * local + codes[q]
        _, _, clamped, moved, failing = rules[gate.kind]
        product *= clamped[local]
        reads += [(t, step, gate.kind, local[t]) for t in np.flatnonzero((moved | failing)[local])]
        least = min(least, np.abs(clamped[local[local != 0]]).min(initial=np.inf))
        conjugated = _IMAGE_CODES[gate.kind].take(local, axis=1)
        for q, letters in zip(gate.qubits, conjugated):
            codes[q] = letters
    reads.sort()  # into (term, step) order, a term-by-term chain's
    for _, _, kind, i in reads:
        local, _, clamped, _, failing = rules[kind]
        if failing[i] and local[i] not in gate_estimates[kind]:
            raise KeyError(f"no eigenvalue estimate for {kind} noise on {local[i]}")
        if failing[i]:
            raise RecoveryFloorError(local[i], float(clamped[i]), floor)
    coefficients = np.array(list(terms.values())) / product
    return BackwardObservable(
        circuit.n,
        dict(zip(strings, coefficients.tolist())),
        provenance="clifford-chain",
        min_abs_eigenvalue=None if least == np.inf else float(least),
        warnings=[f"clamped estimate {rules[k][1][i]:.6g} for {k} noise on {rules[k][0][i]}"
                  for _, _, k, i in reads],  # no read failed, so each one recorded clamped
    )


def exact_gate_estimates(
    circuit: CliffordCircuit,
) -> dict[str, dict[PauliString, float]]:
    """Oracle per-kind eigenvalue tables from the circuit's noise channels."""
    out: dict[str, dict[PauliString, float]] = {}
    for kind in sorted({g.kind for g in circuit.gates}):
        strings = list(iter_all_paulis(gate_arity(kind)))
        out[kind] = dict(zip(strings, exact_diagonal(circuit.noise[kind], strings).tolist()))
    return out
