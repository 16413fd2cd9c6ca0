"""Dense density-matrix oracle: states, channels, circuits, and the exact
finite-sum check that the shadow estimator is unbiased."""

import numpy as np
import pytest

from paulishadow import cli, exact
from paulishadow.channels import (
    PauliChannel,
    ProductChannel,
    amplitude_damping_ptm,
    depolarizing_ptm,
    exact_transfer_matrix,
    reference_product_channel,
)
from paulishadow.clifford import (
    CliffordCircuit,
    Gate,
    exact_gate_estimates,
    mitigation_coefficients,
)
from paulishadow.observables import Observable, heisenberg_observable
from paulishadow.paulis import PauliString, enumerate_low_weight, iter_all_paulis, pauli_from_index


def P(label):
    return PauliString.from_label(label)


# -- states --------------------------------------------------------------------


def test_product_eigenstate_expectations():
    # axes 0=X, 1=Y, 2=Z
    st = exact.DenseState.product_eigenstate([2], [+1])
    assert exact.expectation(P("Z"), st) == pytest.approx(1.0)
    assert exact.expectation(P("X"), st) == pytest.approx(0.0)
    st = exact.DenseState.product_eigenstate([0, 1], [-1, +1])
    assert exact.expectation(P("XI"), st) == pytest.approx(-1.0)
    assert exact.expectation(P("IY"), st) == pytest.approx(1.0)
    assert exact.expectation(P("XY"), st) == pytest.approx(-1.0)
    assert np.trace(st.rho @ st.rho).real == pytest.approx(1.0)  # pure


def test_maximally_mixed():
    st = exact.DenseState.maximally_mixed(2)
    for p in iter_all_paulis(2):
        want = 1.0 if p.is_identity else 0.0
        assert exact.expectation(p, st) == pytest.approx(want)


def test_from_matrix_validation():
    with pytest.raises(ValueError):
        exact.DenseState.from_matrix(np.array([[0.5, 0.5], [0.5, 0.4]]))  # trace
    with pytest.raises(ValueError):
        exact.DenseState.from_matrix(np.array([[1.5, 0], [0, -0.5]]))  # not PSD
    with pytest.raises(ValueError):
        exact.DenseState.from_matrix(np.array([[0.5, 1j], [2j, 0.5]]))  # hermiticity


def test_haar_random_state_is_pure_and_seeded():
    st1 = exact.haar_random_state(2, 42)
    st2 = exact.haar_random_state(2, 42)
    np.testing.assert_allclose(st1.rho, st2.rho, atol=0)
    assert np.trace(st1.rho).real == pytest.approx(1.0)
    assert np.trace(st1.rho @ st1.rho).real == pytest.approx(1.0)
    evals = np.linalg.eigvalsh(st1.rho)
    assert evals.min() > -1e-12


# -- channel application -------------------------------------------------------


def test_pauli_channel_apply_matches_kraus_sum():
    rng = np.random.default_rng(7)
    ch = PauliChannel.from_terms(2, {P("XZ"): 0.15, P("ZI"): 0.25})
    st = exact.haar_random_state(2, rng)
    out = exact.apply_channel(ch, st)
    want = np.zeros((4, 4), dtype=complex)
    for q, prob in ch.sparse_terms().items():
        m = q.matrix()
        want += prob * (m @ st.rho @ m.conj().T)
    np.testing.assert_allclose(out.rho, want, atol=1e-12)


def test_product_and_sparse_agree():
    ch = reference_product_channel()
    sparse = PauliChannel.from_terms(2, ch.terms())
    st = exact.haar_random_state(2, 3)
    a = exact.apply_channel(ch, st).rho
    b = exact.apply_channel(sparse, st).rho
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_ptm_superop_matches_kraus_oracle():
    # amplitude damping has a textbook Kraus pair; the PTM path must agree
    gamma = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    dense = exact.DenseChannel(1, [k0, k1])
    ptm = ProductChannel([amplitude_damping_ptm(gamma)])
    st = exact.haar_random_state(1, 11)
    np.testing.assert_allclose(
        exact.apply_channel(ptm, st).rho, exact.apply_channel(dense, st).rho, atol=1e-12
    )


def test_ptm_superop_multi_qubit():
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    st = exact.haar_random_state(2, 13)
    out = exact.apply_channel(ch, st)
    # adjoint identity: tr(Q E(rho)) = sum_P M[P][Q] tr(P rho)
    m = exact_transfer_matrix(ch, 2)
    for q in enumerate_low_weight(2, 2):
        want = sum(
            m.entry(p, q) * exact.expectation(p, st) for p in m.basis
        )
        assert exact.expectation(q, out) == pytest.approx(want, abs=1e-12)


def test_dense_channel_trace_preservation_check():
    with pytest.raises(ValueError):
        exact.DenseChannel(1, [np.array([[1.0, 0.0], [0.0, 0.5]])])


def test_expectation_observable():
    obs = Observable(1, {P("Z"): 2.0, P("I"): 0.5})
    st = exact.DenseState.product_eigenstate([2], [-1])
    assert exact.expectation(obs, st) == pytest.approx(-1.5)


# -- gates and circuits --------------------------------------------------------


def test_gate_unitaries():
    h = exact.gate_unitary("H", (0,), 1)
    np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)
    s = exact.gate_unitary("S", (0,), 1)
    np.testing.assert_allclose(s, np.diag([1, 1j]), atol=1e-12)
    # qubit 0 is the most significant bit: CNOT(0->1) maps |10> -> |11>
    cnot = exact.gate_unitary("CNOT", (0, 1), 2)
    state = np.zeros(4)
    state[2] = 1.0  # |10>
    np.testing.assert_allclose(cnot @ state, np.eye(4)[3], atol=1e-12)
    state = np.zeros(4)
    state[1] = 1.0  # |01>, control clear
    np.testing.assert_allclose(cnot @ state, np.eye(4)[1], atol=1e-12)
    # reversed orientation
    rev = exact.gate_unitary("CNOT", (1, 0), 2)
    state = np.zeros(4)
    state[1] = 1.0  # |01>, control is qubit 1
    np.testing.assert_allclose(rev @ state, np.eye(4)[3], atol=1e-12)


def test_gate_unitary_embedding():
    # H on qubit 1 of 2 acts as I (x) H
    h2 = exact.gate_unitary("H", (1,), 2)
    h = exact.gate_unitary("H", (0,), 1)
    np.testing.assert_allclose(h2, np.kron(np.eye(2), h), atol=1e-12)


def test_simulate_ideal_circuit():
    circ = CliffordCircuit(1, [Gate("H", (0,))], {})
    st = exact.DenseState.product_eigenstate([2], [+1])  # |0>
    out = exact.simulate_ideal_circuit(circ, st)
    assert exact.expectation(P("X"), out) == pytest.approx(1.0)


def test_simulate_noisy_circuit_matches_manual():
    noise = PauliChannel.from_qubit_probs([(0.9, 0.04, 0.03, 0.03)])
    circ = CliffordCircuit(2, [Gate("H", (0,))], {"H": noise})
    st = exact.haar_random_state(2, 19)
    out = exact.simulate_noisy_circuit(circ, st)
    u = exact.gate_unitary("H", (0,), 2)
    mid = u @ st.rho @ u.conj().T
    want = np.zeros_like(mid)
    for q, prob in noise.terms().items():
        m = q.embed(2, (0,)).matrix()
        want += prob * (m @ mid @ m.conj().T)
    np.testing.assert_allclose(out.rho, want, atol=1e-12)


def full_register_circuit(circuit, state, noisy):
    """Reference simulation: a 2^n x 2^n unitary per gate, then one dense
    Kraus product per noise term, each embedded in the full register."""
    n = circuit.n
    rho = state.rho
    for gate in circuit.gates:
        u = exact.gate_unitary(gate.kind, gate.qubits, n)
        rho = u @ rho @ u.conj().T
        noise = circuit.noise.get(gate.kind)
        if noisy and noise is not None:
            out = np.zeros_like(rho)
            for q, prob in noise.terms().items():
                m = q.embed(n, gate.qubits).matrix()
                out += prob * (m @ rho @ m)
            rho = out
    return rho


def random_circuit(n, rng, depth=12):
    """H/S/CNOT gates on random (possibly non-adjacent, reversed) qubits, with
    product noise on H and S and correlated two-qubit noise on CNOT."""

    def mild(size):  # no-error probability at least 0.8
        probs = 0.2 * rng.dirichlet(np.ones(size))
        probs[0] += 0.8
        return probs

    gates = []
    for _ in range(depth):
        kind = str(rng.choice(["H", "S", "CNOT"] if n > 1 else ["H", "S"]))
        qubits = rng.choice(n, 2 if kind == "CNOT" else 1, replace=False)
        gates.append(Gate(kind, tuple(int(q) for q in qubits)))
    noise = {
        "H": PauliChannel.from_qubit_probs([mild(4)]),
        "S": PauliChannel.from_qubit_probs([mild(4)]),
        "CNOT": PauliChannel.from_terms(2, dict(zip(iter_all_paulis(2), mild(16)))),
    }
    return CliffordCircuit(n, gates, noise)


def test_circuit_simulation_matches_full_register_reference():
    rng = np.random.default_rng(2024)
    for n in range(1, 6):
        for trial in range(4):
            circuit = random_circuit(n, rng)
            state = exact.haar_random_state(n, rng)
            for noisy in (True, False):
                got = exact.simulate_circuit(circuit, state, noisy).rho
                np.testing.assert_allclose(
                    got, full_register_circuit(circuit, state, noisy), rtol=0, atol=1e-12
                )
    # Control above target on non-adjacent qubits, and noise that is not a
    # product: XX and ZI errors only.
    noise = PauliChannel.from_terms(2, {"XX": 0.1, "ZI": 0.05})
    assert not noise.is_product
    circuit = CliffordCircuit(4, [Gate("H", (3,)), Gate("CNOT", (3, 0))], {"CNOT": noise})
    state = exact.haar_random_state(4, 5)
    got = exact.simulate_noisy_circuit(circuit, state).rho
    np.testing.assert_allclose(
        got, full_register_circuit(circuit, state, True), rtol=0, atol=1e-12
    )


def test_mitigate_report_matches_full_register_reference():
    """The report's oracle values agree with the reference simulation and a
    dense trace to float rounding."""
    rng = np.random.default_rng(77)
    circuit = random_circuit(5, rng, depth=20)
    observable = heisenberg_observable(5)
    report = cli.run_mitigate(circuit, observable, 0, 1, 9, True, 1e-3)
    state = exact.haar_random_state(5, cli._derive_seed(9, 11))
    noisy = full_register_circuit(circuit, state, True)
    ideal = np.trace(observable.matrix() @ full_register_circuit(circuit, state, False)).real
    back = mitigation_coefficients(circuit, exact_gate_estimates(circuit), observable, 1e-3)
    value = np.trace(back.as_observable().matrix() @ noisy).real
    assert abs(report["ideal"] - ideal) <= 1e-12
    assert abs(report["value"] - value) <= 1e-12
    assert abs(report["absolute_error"] - abs(value - ideal)) <= 1e-12


def test_expectation_matches_dense_trace():
    rng = np.random.default_rng(3)
    state = exact.haar_random_state(4, rng)
    for p in list(iter_all_paulis(4))[::7]:
        want = np.trace(p.matrix() @ state.rho).real
        assert exact.expectation(p, state) == pytest.approx(want, abs=1e-14)


def test_expectation_gather_matches_dense_trace_for_observables_and_vectors():
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        psi = exact.haar_random_vector(n, rng)
        state = exact.DenseState.from_unit_vector(psi)
        mixed = exact.apply_channel(PauliChannel.from_qubit_probs(rng.dirichlet(np.ones(4), n)), state)
        labels = [pauli_from_index(n, int(i)) for i in rng.integers(0, 4**n, 8)]
        obs = Observable(n, {p: float(rng.normal()) for p in labels})
        signed = labels[0].negate()
        for o in (obs, signed):
            for st in (state, mixed):
                want = np.trace(o.matrix() @ st.rho).real
                assert abs(exact.expectation(o, st) - want) <= 1e-12
            want = np.vdot(psi, o.matrix() @ psi).real
            assert abs(exact.expectation(o, psi) - want) <= 1e-12
    with pytest.raises(ValueError, match="dimension"):
        exact.expectation(P("ZZ"), exact.haar_random_state(3, 1))
    with pytest.raises(ValueError, match="dimension"):
        exact.expectation(P("ZZ"), exact.haar_random_vector(1, 1))


def test_haar_state_is_the_outer_product_of_the_haar_vector():
    psi = exact.haar_random_vector(4, 12)
    np.testing.assert_array_equal(exact.haar_random_state(4, 12).rho, np.outer(psi, psi.conj()))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)


def test_statevector_ideal_run_matches_dense_run_and_trace():
    rng = np.random.default_rng(43)
    for n in range(1, 7):
        for trial in range(3):
            circuit = random_circuit(n, rng, depth=int(rng.integers(1, 40)))
            psi = exact.haar_random_vector(n, rng)
            dense = exact.simulate_ideal_circuit(circuit, exact.DenseState.from_unit_vector(psi))
            out = exact.simulate_ideal_statevector(circuit, psi)
            np.testing.assert_allclose(np.outer(out, out.conj()), dense.rho, rtol=0, atol=1e-12)
            obs = Observable(n, {pauli_from_index(n, int(i)): float(rng.normal())
                                 for i in rng.integers(0, 4**n, 10)})
            want = np.trace(obs.matrix() @ dense.rho).real
            assert abs(exact.expectation(obs, out) - want) <= 1e-12


# -- measurement ---------------------------------------------------------------


def test_basis_outcome_probabilities():
    zero = exact.DenseState.product_eigenstate([2], [+1])
    np.testing.assert_allclose(
        exact.basis_outcome_probabilities(zero, [2]), [1.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        exact.basis_outcome_probabilities(zero, [0]), [0.5, 0.5], atol=1e-12
    )
    # Bell state: ZZ outcomes perfectly correlated
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    st = exact.DenseState.pure(bell)
    np.testing.assert_allclose(
        exact.basis_outcome_probabilities(st, [2, 2]), [0.5, 0, 0, 0.5], atol=1e-12
    )
    np.testing.assert_allclose(
        exact.basis_outcome_probabilities(st, [0, 0]), [0.5, 0, 0, 0.5], atol=1e-12
    )


def test_sample_pauli_basis_outcomes():
    zero = exact.DenseState.product_eigenstate([2], [+1])
    rng = np.random.default_rng(23)
    bases = np.zeros((4000, 1), dtype=np.int8)
    bases[:2000, 0] = 2  # Z first, then X
    bases[2000:, 0] = 0
    signs = exact.sample_pauli_basis_outcomes(zero, bases, rng)
    assert np.all(signs[:2000, 0] == 1)
    assert abs(signs[2000:, 0].mean()) < 0.1  # fair coin in the X basis


def test_reference_channel_outcome_probability():
    # qubit-1 channel keeps a Z eigenstate with probability pI + pZ = 0.80
    ch = PauliChannel.from_qubit_probs([(0.75, 0.10, 0.10, 0.05)])
    zero = exact.DenseState.product_eigenstate([2], [+1])
    out = exact.apply_channel(ch, zero)
    probs = exact.basis_outcome_probabilities(out, [2])
    np.testing.assert_allclose(probs, [0.80, 0.20], atol=1e-12)


# -- brute-force transfer and estimator expectation oracles --------------------


def test_brute_force_identity_channel():
    ch = PauliChannel.identity(2)
    for p, lam in exact.brute_force_eigenvalues(ch, 2).items():
        assert lam == pytest.approx(1.0, abs=1e-12)
    m = exact.brute_force_transfer(ch, 2)
    np.testing.assert_allclose(m.matrix, np.eye(len(m.basis)), atol=1e-12)


def test_estimator_expectation_single_qubit_value():
    # E[x_hat(Z)] over the exact record distribution = (1/3) * 0.60
    ch = PauliChannel.from_qubit_probs([(0.75, 0.10, 0.10, 0.05)])
    exp = exact.shadow_estimator_expectations(ch, [P("Z")])
    assert exp[P("Z")] == pytest.approx(0.60 / 3.0, abs=1e-12)


def test_estimator_unbiasedness_exact_enumeration():
    # Finite-sum expectation equals (1/3)^|P| lambda_P for random channels.
    rng = np.random.default_rng(41)
    for n in (1, 2):
        paulis = [p for p in enumerate_low_weight(n, n) if not p.is_identity]
        for trial in range(4):
            probs = rng.dirichlet((8.0, 1.0, 1.0, 1.0), size=n)
            ch = PauliChannel.from_qubit_probs(probs)
            exp = exact.shadow_estimator_expectations(ch, paulis)
            for p in paulis:
                want = ch.eigenvalue(p) / 3.0**p.weight
                assert exp[p] == pytest.approx(want, abs=1e-12)


def test_transfer_estimator_expectation_matches_exact_matrix():
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    m = exact_transfer_matrix(ch, 2)
    pairs = [(P("II"), P("ZI")), (P("ZI"), P("ZI")), (P("XI"), P("XZ")),
             (P("IZ"), P("ZZ"))]
    exp = exact.shadow_transfer_estimator_expectations(ch, pairs)
    for p, q in pairs:
        want = m.entry(p, q) / 3.0**p.weight
        assert exp[(p, q)] == pytest.approx(want, abs=1e-12)
