"""Clifford conjugation tables, circuit objects, and chain-based mitigation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulishadow import exact
from paulishadow.channels import ConfigError, PauliChannel, exact_diagonal
from paulishadow.clifford import (
    CONJUGATION_TABLES,
    CliffordCircuit,
    Gate,
    exact_gate_estimates,
    gate_arity,
    mitigation_coefficients,
)
from paulishadow.observables import Observable
from paulishadow.paulis import PauliString, iter_all_paulis, pauli_from_index
from paulishadow.recovery import (
    DEFAULT_EIGENVALUE_FLOOR,
    RecoveryError,
    RecoveryFloorError,
    backward_observable,
)

from reference import (
    DenseState,
    brute_force_transfer,
    conjugate_pauli,
    dense_expectation,
    gate_unitary,
    pauli_product,
    restrict,
    simulate_circuit,
)


def P(label):
    return PauliString.from_label(label)


def dense_backward(kind, qubits, n, p):
    u = gate_unitary(kind, qubits, n)
    return u.conj().T @ p.matrix() @ u


# -- conjugation tables --------------------------------------------------------


def test_conjugation_matches_dense_all_gates():
    for kind, images in CONJUGATION_TABLES.items():
        u = exact.GATE_UNITARIES[kind]
        for p, image in zip(iter_all_paulis(images[0].n), images):
            np.testing.assert_allclose(image.matrix(), u.conj().T @ p.matrix() @ u, atol=1e-12)


@st.composite
def gate_and_string(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["H", "S", "CNOT"] if n > 1 else ["H", "S"]))
    qubits = draw(st.permutations(range(n)))[: gate_arity(kind)]
    index = draw(st.integers(0, 4**n - 1))
    sign = draw(st.sampled_from([1, -1]))
    p = pauli_from_index(n, index)
    return kind, tuple(qubits), PauliString(n, p.x, p.z, sign)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(gate_and_string())
def test_conjugation_matches_dense_property(case):
    kind, qubits, p = case
    got = conjugate_pauli(kind, qubits, p)
    np.testing.assert_allclose(
        got.matrix(), dense_backward(kind, qubits, p.n, p), rtol=0, atol=1e-12
    )


def test_conjugation_spot_values():
    assert conjugate_pauli("H", (0,), P("X")) == P("Z")
    assert conjugate_pauli("H", (0,), P("Y")) == P("-Y")
    assert conjugate_pauli("S", (0,), P("X")) == P("-Y")
    assert conjugate_pauli("S", (0,), P("Y")) == P("X")
    assert conjugate_pauli("CNOT", (0, 1), P("XI")) == P("XX")
    assert conjugate_pauli("CNOT", (0, 1), P("IZ")) == P("ZZ")
    assert conjugate_pauli("CNOT", (0, 1), P("XZ")) == P("-YY")


def test_conjugation_on_embedded_qubits():
    # CNOT with control on qubit 2 and target on qubit 0 of a 3-qubit register
    for p in [P("XIZ"), P("ZYX"), P("IIY"), P("YXI")]:
        got = conjugate_pauli("CNOT", (2, 0), p)
        np.testing.assert_allclose(
            got.matrix(), dense_backward("CNOT", (2, 0), 3, p), atol=1e-12
        )
    # untouched qubits pass through
    assert conjugate_pauli("H", (1,), P("ZIZ")) == P("ZIZ")


def test_conjugation_periodicity():
    for p in [P("X"), P("Y"), P("Z")]:
        twice = conjugate_pauli("H", (0,), conjugate_pauli("H", (0,), p))
        assert twice == p
        cur = p
        for _ in range(4):
            cur = conjugate_pauli("S", (0,), cur)
        assert cur == p


def test_conjugation_preserves_sign_prefactor():
    assert conjugate_pauli("S", (0,), P("-X")) == P("Y")
    assert gate_arity("CNOT") == 2
    with pytest.raises(ValueError):
        gate_arity("T")
    with pytest.raises(ValueError):
        conjugate_pauli("CNOT", (0,), P("XX"))


# -- circuit object ------------------------------------------------------------


def noisy_demo_circuit():
    return CliffordCircuit(
        2,
        (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("S", (1,))),
        noise={
            "H": PauliChannel.from_qubit_probs([(0.9, 0.04, 0.03, 0.03)]),
            "CNOT": PauliChannel.from_qubit_probs(
                [(0.92, 0.03, 0.03, 0.02), (0.94, 0.02, 0.02, 0.02)]
            ),
            "S": PauliChannel.from_qubit_probs([(0.95, 0.02, 0.02, 0.01)]),
        },
    )


def test_circuit_validation():
    with pytest.raises(ValueError):
        CliffordCircuit(2, (Gate("CNOT", (0,)),))  # arity
    with pytest.raises(ValueError):
        CliffordCircuit(2, (Gate("CNOT", (1, 1)),))  # repeated qubit
    with pytest.raises(ValueError):
        CliffordCircuit(2, (Gate("H", (2,)),))  # out of range
    with pytest.raises(ValueError):
        CliffordCircuit(
            2, (Gate("H", (0,)),), noise={"H": PauliChannel.identity(2)}
        )  # noise arity


def test_circuit_accepts_tuple_gates():
    circuit = CliffordCircuit(2, (("H", (0,)), ("CNOT", (0, 1))))
    assert circuit.gates[0] == Gate("H", (0,))
    assert len(circuit.gates) == 2


def test_circuit_json_round_trip(tmp_path):
    """The demo circuit's JSON form, as the README documents it, loads back
    into the circuit built in code."""
    circuit = noisy_demo_circuit()
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({
        "n": 2,
        "gates": [{"g": "H", "q": [0]}, {"g": "CNOT", "q": [0, 1]}, {"g": "S", "q": [1]}],
        "noise": {"H": pauli_product([(0.9, 0.04, 0.03, 0.03)]),
                  "CNOT": pauli_product([(0.92, 0.03, 0.03, 0.02), (0.94, 0.02, 0.02, 0.02)]),
                  "S": pauli_product([(0.95, 0.02, 0.02, 0.01)])},
    }))
    back = CliffordCircuit.load(path)
    assert back.gates == circuit.gates
    assert back.n == circuit.n
    assert set(back.noise) == set(circuit.noise)
    for kind in circuit.noise:
        strings = list(iter_all_paulis(circuit.noise[kind].n))
        assert exact_diagonal(back.noise[kind], strings).tolist() == pytest.approx(
            exact_diagonal(circuit.noise[kind], strings).tolist(), abs=1e-12)


def test_circuit_config_errors():
    with pytest.raises(ConfigError):
        CliffordCircuit.from_dict({"gates": []})  # missing n
    with pytest.raises(ConfigError):
        CliffordCircuit.from_dict({"n": 1, "gates": [{"g": "H"}]})  # missing q
    with pytest.raises(ConfigError):
        CliffordCircuit.from_dict(
            {"n": 1, "gates": [], "noise": {"T": {"kind": "pauli-product", "qubits": []}}}
        )
    with pytest.raises(ConfigError):
        CliffordCircuit.from_dict(
            {"n": 1, "gates": [{"g": "H", "q": [0, 1]}]}
        )  # arity surfaces as config error


# -- backward chains -----------------------------------------------------------


def random_circuit(rng, n, depth):
    gates = []
    for _ in range(depth):
        kind = rng.choice(["H", "S", "CNOT"])
        if kind == "CNOT" and n >= 2:
            q = tuple(rng.choice(n, size=2, replace=False).tolist())
        elif kind == "CNOT":
            kind = "H"
            q = (0,)
        else:
            q = (int(rng.integers(n)),)
        gates.append(Gate(str(kind), q))
    return CliffordCircuit(n, tuple(gates))


def test_chain_matches_dense_circuit_conjugation():
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        circuit = random_circuit(rng, n, int(rng.integers(1, 9)))
        total = np.eye(2**n, dtype=complex)
        for gate in circuit.gates:
            total = gate_unitary(gate.kind, gate.qubits, n) @ total
        p = pauli_from_index(n, int(rng.integers(1, 4**n)))
        image = p
        for gate in reversed(circuit.gates):
            image = conjugate_pauli(gate.kind, gate.qubits, image)
        want = total.conj().T @ p.matrix() @ total
        np.testing.assert_allclose(image.matrix(), want, atol=1e-10)


# -- mitigation coefficients ---------------------------------------------------


def test_mitigation_divides_by_chain_product():
    circuit = noisy_demo_circuit()
    estimates = exact_gate_estimates(circuit)
    obs = Observable(2, {P("ZZ"): 1.0})
    back = mitigation_coefficients(circuit, estimates, obs)
    assert back.provenance == "clifford-chain"
    current, denom = P("ZZ"), 1.0
    for gate in reversed(circuit.gates):
        local = restrict(current, gate.qubits).unsigned()
        if not local.is_identity:
            denom *= exact_diagonal(circuit.noise[gate.kind], [local])[0]
        current = conjugate_pauli(gate.kind, gate.qubits, current)
    assert back.terms[P("ZZ")] == pytest.approx(1.0 / denom, abs=1e-12)


def test_mitigation_with_exact_estimates_recovers_ideal():
    rng = np.random.default_rng(23)
    for trial in range(5):
        n = int(rng.integers(2, 4))
        circuit = random_circuit(rng, n, int(rng.integers(2, 7)))
        noise = {}
        for kind in {g.kind for g in circuit.gates}:
            g = gate_arity(kind)
            probs = rng.dirichlet([40, 1, 1, 1], size=g)
            noise[kind] = PauliChannel.from_qubit_probs(probs)
        circuit = CliffordCircuit(n, circuit.gates, noise)
        obs = Observable(n, {pauli_from_index(n, int(rng.integers(1, 4**n))): 0.8})
        state = DenseState.from_unit_vector(exact.haar_random_vector(n, 300 + trial))
        noisy = simulate_circuit(circuit, state, noisy=True)
        ideal = simulate_circuit(circuit, state, noisy=False)
        back = mitigation_coefficients(circuit, exact_gate_estimates(circuit), obs)
        got = dense_expectation(Observable(back.n, back.terms), noisy)
        want = dense_expectation(obs, ideal)
        assert got == pytest.approx(want, abs=1e-10)


def test_mitigation_floor_and_missing_estimates():
    circuit = CliffordCircuit(
        1,
        (Gate("H", (0,)),),
        noise={"H": PauliChannel.from_qubit_probs([(0.505, 0.0, 0.0, 0.495)])},
    )
    obs = Observable(1, {P("X"): 1.0})  # conjugates to Z, eigenvalue 0.01
    with pytest.raises(RecoveryFloorError):
        mitigation_coefficients(circuit, exact_gate_estimates(circuit), obs)
    # kinds absent from the table are treated as noiseless
    clean = CliffordCircuit(1, (Gate("H", (0,)),))
    back = mitigation_coefficients(clean, {}, obs)
    assert back.terms[P("X")] == 1.0
    with pytest.raises(KeyError):
        mitigation_coefficients(clean, {"H": {}}, obs)  # table exists but is empty
    with pytest.raises(ValueError, match="observable acts on 2 qubits, circuit on 1"):
        mitigation_coefficients(clean, {}, Observable(2, {P("XX"): 1.0}))


def test_exact_gate_estimates_tables():
    circuit = noisy_demo_circuit()
    tables = exact_gate_estimates(circuit)
    assert set(tables) == {"CNOT", "H", "S"}
    assert len(tables["CNOT"]) == 16 and len(tables["H"]) == 4
    assert tables["H"][P("I")] == 1.0
    # Against the dense reference's diagonal, tr(P E(P)) / 2^n.
    dense = brute_force_transfer(circuit.noise["CNOT"], 2)
    for p, lam in zip(dense.basis, np.diag(dense.matrix)):
        assert tables["CNOT"][p] == pytest.approx(lam, abs=1e-12)


def test_mitigation_identity_observable_term():
    circuit = noisy_demo_circuit()
    obs = Observable(2, {P("II"): 0.7, P("ZI"): 0.1})
    back = mitigation_coefficients(circuit, exact_gate_estimates(circuit), obs)
    assert back.terms[P("II")] == pytest.approx(0.7)  # identity chain divides by 1


# -- the array chain against the term-by-term chain ------------------------------


def mitigation_coefficients_per_term(circuit, gate_estimates, observable, floor=DEFAULT_EIGENVALUE_FLOOR):
    """The term-by-term chain the array chain replaced, kept as its reference:
    one PauliString per term, conjugated gate by gate from the last."""
    terms, min_used, warnings = {}, None, []
    for p, alpha in observable.terms().items():
        current, denominator = p, 1.0
        for gate in reversed(circuit.gates):
            local = restrict(current, gate.qubits).unsigned()
            table = gate_estimates.get(gate.kind)
            if local.is_identity or table is None:
                raw = 1.0
            else:
                try:
                    raw = float(table[local])
                except KeyError:
                    raise KeyError(f"no eigenvalue estimate for {gate.kind} noise on {local}") from None
            lam = max(-1.0, min(1.0, raw))
            if lam != raw:
                warnings.append(f"clamped estimate {raw:.6g} for {gate.kind} noise on {local}")
            if not local.is_identity:
                if abs(lam) < floor:
                    raise RecoveryFloorError(local, lam, floor)
                min_used = abs(lam) if min_used is None else min(min_used, abs(lam))
            denominator *= lam
            current = conjugate_pauli(gate.kind, gate.qubits, current)
        terms[p] = alpha / denominator
    return terms, warnings, min_used


def random_estimates(rng, kinds, low, high, missing=0.0):
    """Per-kind tables of uniform estimates in [low, high) with random signs;
    each string is left out with probability ``missing``."""
    out = {}
    for kind in kinds:
        strings = [p for p in iter_all_paulis(gate_arity(kind)) if not p.is_identity]
        out[kind] = {
            p: float(rng.choice([-1, 1]) * rng.uniform(low, high))
            for p in strings
            if rng.random() >= missing
        }
    return out


def random_observable(rng, n, terms):
    return Observable(n, {pauli_from_index(n, int(i)): float(rng.normal()) for i in rng.integers(0, 4**n, terms)})


def outcome(fn, *args):
    """The result, or the exception's type and its (Pauli, estimate) or message."""
    try:
        back = fn(*args)
    except RecoveryFloorError as err:
        return ("floor", err.pauli, err.estimate, err.floor)
    except KeyError as err:
        return ("missing", str(err))
    if isinstance(back, tuple):
        return back
    return back.terms, back.warnings, back.min_abs_eigenvalue


def test_array_chain_is_bit_equal_to_the_per_term_chain():
    rng = np.random.default_rng(606)
    clamped = 0
    for trial in range(60):
        n = int(rng.integers(1, 7))
        circuit = random_circuit(rng, n, int(rng.integers(1, 40)))
        kinds = sorted({g.kind for g in circuit.gates})
        # Some estimates fall outside [-1, 1] and are clamped; a kind may have no table.
        estimates = random_estimates(rng, kinds[: len(kinds) - trial % 2], 0.2, 1.2)
        obs = random_observable(rng, n, int(rng.integers(1, 12)))
        terms, warnings, min_used = mitigation_coefficients_per_term(circuit, estimates, obs)
        back = mitigation_coefficients(circuit, estimates, obs)
        assert list(back.terms) == list(terms)
        assert [c.hex() for c in back.terms.values()] == [c.hex() for c in terms.values()]
        assert back.warnings == warnings
        assert back.min_abs_eigenvalue == min_used
        assert type(back.min_abs_eigenvalue) is type(min_used)
        clamped += bool(warnings)
    assert clamped > 10


def test_array_chain_raises_the_per_term_chains_first_failure():
    rng = np.random.default_rng(607)
    seen = set()
    for trial in range(200):
        n = int(rng.integers(1, 5))
        circuit = random_circuit(rng, n, int(rng.integers(1, 16)))
        kinds = sorted({g.kind for g in circuit.gates})
        # Estimates from 0 up: some below the floor, some strings missing.
        estimates = random_estimates(rng, kinds, 0.0, 0.05, missing=0.1)
        obs = random_observable(rng, n, int(rng.integers(1, 6)))
        floor = float(rng.uniform(0.0, 0.05))
        want = outcome(mitigation_coefficients_per_term, circuit, estimates, obs, floor)
        assert outcome(mitigation_coefficients, circuit, estimates, obs, floor) == want
        seen.add(want[0] if want[0] in ("floor", "missing") else "none")
    assert seen == {"floor", "missing", "none"}


def test_partial_table_fails_only_where_the_chain_reaches_it():
    circuit = CliffordCircuit(1, (Gate("H", (0,)),))
    # The last gate's noise sees Z itself: only the Z estimate is read.
    back = mitigation_coefficients(circuit, {"H": {P("Z"): 0.5}}, Observable(1, {P("Z"): 1.0}))
    assert back.terms == {P("Z"): 2.0}
    back = mitigation_coefficients(circuit, {"H": {}}, Observable(1, {P("I"): 0.3}))
    assert back.terms == {P("I"): 0.3} and back.min_abs_eigenvalue is None
    with pytest.raises(KeyError, match="no eigenvalue estimate for H noise on X"):
        mitigation_coefficients(circuit, {"H": {P("Z"): 0.5}}, Observable(1, {P("X"): 1.0}))
    with pytest.raises(KeyError):
        mitigation_coefficients(circuit, {"H": {}}, Observable(1, {P("X"): 1.0}))


# -- one division rule for the diagonal divide and the chain ---------------------


MISSING = object()


@pytest.mark.parametrize("estimate", [
    0.5, -0.7, 1.25, -1.25, np.inf, -np.inf, DEFAULT_EIGENVALUE_FLOOR,
    DEFAULT_EIGENVALUE_FLOOR / 2, np.nan, MISSING,
])
def test_divide_and_chain_share_one_division_rule(estimate):
    """Z through one S gate stays Z (S^dagger Z S = Z), so the chain divides by
    the same estimate the diagonal divide does, and must treat it alike."""
    obs = Observable(1, {P("Z"): 0.37})
    z_table = {} if estimate is MISSING else {P("Z"): estimate}
    circuit = CliffordCircuit(1, (Gate("S", (0,)),))
    routes = [
        lambda: backward_observable(obs, z_table),
        lambda: mitigation_coefficients(circuit, {"S": {P("X"): 0.9, P("Y"): 0.9, **z_table}}, obs),
    ]
    results = []
    for route in routes:
        try:
            back = route()
        except (RecoveryError, KeyError) as err:
            results.append(type(err))
        else:
            results.append((back.terms[P("Z")].hex(), len(back.warnings), back.min_abs_eigenvalue))
    assert results[0] == results[1]


def test_chain_nan_estimate_raises_and_names_the_string():
    circuit = CliffordCircuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    estimates = {"H": {P("X"): 0.9, P("Y"): 0.9, P("Z"): 0.9},
                 "CNOT": {p: 0.9 for p in iter_all_paulis(2) if not p.is_identity}}
    estimates["CNOT"][P("ZZ")] = float("nan")
    obs = Observable(2, {P("ZZ"): 1.0})  # the last gate's noise reads ZZ itself
    with pytest.raises(RecoveryError, match="ZZ is not a number"):
        mitigation_coefficients(circuit, estimates, obs)
