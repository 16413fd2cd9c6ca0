"""Oracles: the matrix-free expectations and outcome probabilities the
commands take, checked against the tests' dense references, and the exact
finite-sum check that the shadow estimator is unbiased."""

import itertools
import json

import numpy as np
import pytest

from paulishadow import cli, exact
from paulishadow.channels import (
    PauliChannel,
    ProductChannel,
    amplitude_damping_ptm,
    depolarizing_ptm,
    exact_diagonal,
    exact_transfer_matrix,
    reference_product_channel,
)
from paulishadow.clifford import (
    CONJUGATION_TABLES,
    CliffordCircuit,
    Gate,
    exact_gate_estimates,
    mitigation_coefficients,
)
from paulishadow.observables import Observable, heisenberg_observable
from paulishadow.paulis import (
    LETTERS,
    PauliString,
    enumerate_low_weight,
    iter_all_paulis,
    letter_codes,
    pauli_from_index,
)

from reference import (
    DenseChannel,
    DenseState,
    apply_channel,
    basis_outcome_probabilities,
    brute_force_transfer,
    dense_expectation,
    embed,
    gate_unitary,
    maximally_mixed,
    pauli_index,
    pauli_product,
    product_eigenstate,
    shadow_transfer_estimator_expectations,
    simulate_circuit,
)


def P(label):
    return PauliString.from_label(label)


# -- states --------------------------------------------------------------------


def test_product_eigenstate_expectations():
    # axes 0=X, 1=Y, 2=Z
    st = product_eigenstate([2], [+1])
    assert dense_expectation(P("Z"), st) == pytest.approx(1.0)
    assert dense_expectation(P("X"), st) == pytest.approx(0.0)
    st = product_eigenstate([0, 1], [-1, +1])
    assert dense_expectation(P("XI"), st) == pytest.approx(-1.0)
    assert dense_expectation(P("IY"), st) == pytest.approx(1.0)
    assert dense_expectation(P("XY"), st) == pytest.approx(-1.0)
    assert np.trace(st.rho @ st.rho).real == pytest.approx(1.0)  # pure


def test_maximally_mixed():
    st = maximally_mixed(2)
    for p in iter_all_paulis(2):
        want = 1.0 if p.is_identity else 0.0
        assert dense_expectation(p, st) == pytest.approx(want)


def test_haar_random_vector_state_is_pure_and_seeded():
    st1 = DenseState.from_unit_vector(exact.haar_random_vector(2, 42))
    st2 = DenseState.from_unit_vector(exact.haar_random_vector(2, 42))
    np.testing.assert_allclose(st1.rho, st2.rho, atol=0)
    assert np.trace(st1.rho).real == pytest.approx(1.0)
    assert np.trace(st1.rho @ st1.rho).real == pytest.approx(1.0)
    evals = np.linalg.eigvalsh(st1.rho)
    assert evals.min() > -1e-12


# -- channel application -------------------------------------------------------


def test_pauli_channel_apply_matches_kraus_sum():
    rng = np.random.default_rng(7)
    ch = PauliChannel.from_terms(2, {P("XZ"): 0.15, P("ZI"): 0.25})
    st = DenseState.from_unit_vector(exact.haar_random_vector(2, rng))
    out = apply_channel(ch, st)
    want = np.zeros((4, 4), dtype=complex)
    for q, prob in ch.terms().items():
        m = q.matrix()
        want += prob * (m @ st.rho @ m.conj().T)
    np.testing.assert_allclose(out.rho, want, atol=1e-12)


def test_product_and_sparse_agree():
    ch = reference_product_channel()
    sparse = PauliChannel.from_terms(2, ch.terms())
    st = DenseState.from_unit_vector(exact.haar_random_vector(2, 3))
    a = apply_channel(ch, st).rho
    b = apply_channel(sparse, st).rho
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_ptm_superop_matches_kraus_oracle():
    # amplitude damping has a textbook Kraus pair; the PTM path must agree
    gamma = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    dense = DenseChannel(1, [k0, k1])
    ptm = ProductChannel([amplitude_damping_ptm(gamma)])
    st = DenseState.from_unit_vector(exact.haar_random_vector(1, 11))
    kraus_image = sum(k @ st.rho @ k.conj().T for k in dense.kraus)
    np.testing.assert_allclose(apply_channel(ptm, st).rho, kraus_image, atol=1e-12)


def test_ptm_superop_multi_qubit():
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    st = DenseState.from_unit_vector(exact.haar_random_vector(2, 13))
    out = apply_channel(ch, st)
    # adjoint identity: tr(Q E(rho)) = sum_P M[P][Q] tr(P rho)
    m = exact_transfer_matrix(ch, 2)
    for q in enumerate_low_weight(2, 2):
        want = sum(
            m.matrix[m.index(p), m.index(q)] * dense_expectation(p, st) for p in m.basis
        )
        assert dense_expectation(q, out) == pytest.approx(want, abs=1e-12)


def test_dense_channel_trace_preservation_check():
    with pytest.raises(ValueError):
        DenseChannel(1, [np.array([[1.0, 0.0], [0.0, 0.5]])])


def test_expectation_observable():
    obs = Observable(1, {P("Z"): 2.0, P("I"): 0.5})
    assert exact.expectation(obs, np.array([0.0, 1.0])) == pytest.approx(-1.5)  # |1>


# -- gates and circuits --------------------------------------------------------


def test_gate_unitaries():
    h = gate_unitary("H", (0,), 1)
    np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)
    s = gate_unitary("S", (0,), 1)
    np.testing.assert_allclose(s, np.diag([1, 1j]), atol=1e-12)
    # qubit 0 is the most significant bit: CNOT(0->1) maps |10> -> |11>
    cnot = gate_unitary("CNOT", (0, 1), 2)
    state = np.zeros(4)
    state[2] = 1.0  # |10>
    np.testing.assert_allclose(cnot @ state, np.eye(4)[3], atol=1e-12)
    state = np.zeros(4)
    state[1] = 1.0  # |01>, control clear
    np.testing.assert_allclose(cnot @ state, np.eye(4)[1], atol=1e-12)
    # reversed orientation
    rev = gate_unitary("CNOT", (1, 0), 2)
    state = np.zeros(4)
    state[1] = 1.0  # |01>, control is qubit 1
    np.testing.assert_allclose(rev @ state, np.eye(4)[3], atol=1e-12)


def test_gate_unitary_embedding():
    # H on qubit 1 of 2 acts as I (x) H
    h2 = gate_unitary("H", (1,), 2)
    h = gate_unitary("H", (0,), 1)
    np.testing.assert_allclose(h2, np.kron(np.eye(2), h), atol=1e-12)


def test_simulate_ideal_circuit():
    circ = CliffordCircuit(1, [Gate("H", (0,))], {})
    st = product_eigenstate([2], [+1])  # |0>
    out = simulate_circuit(circ, st, noisy=False)
    assert dense_expectation(P("X"), out) == pytest.approx(1.0)


def test_simulate_noisy_circuit_matches_manual():
    noise = PauliChannel.from_qubit_probs([(0.9, 0.04, 0.03, 0.03)])
    circ = CliffordCircuit(2, [Gate("H", (0,))], {"H": noise})
    st = DenseState.from_unit_vector(exact.haar_random_vector(2, 19))
    out = simulate_circuit(circ, st, noisy=True)
    u = gate_unitary("H", (0,), 2)
    mid = u @ st.rho @ u.conj().T
    want = np.zeros_like(mid)
    for q, prob in noise.terms().items():
        m = embed(q, 2, (0,)).matrix()
        want += prob * (m @ mid @ m.conj().T)
    np.testing.assert_allclose(out.rho, want, atol=1e-12)


def full_register_circuit(circuit, state, noisy):
    """Reference simulation: a 2^n x 2^n unitary per gate, then one dense
    Kraus product per noise term, each embedded in the full register."""
    n = circuit.n
    rho = state.rho
    for gate in circuit.gates:
        u = gate_unitary(gate.kind, gate.qubits, n)
        rho = u @ rho @ u.conj().T
        noise = circuit.noise.get(gate.kind)
        if noisy and noise is not None:
            out = np.zeros_like(rho)
            for q, prob in noise.terms().items():
                m = embed(q, n, gate.qubits).matrix()
                out += prob * (m @ rho @ m)
            rho = out
    return rho


def random_circuit_config(n, rng, depth=12):
    """A circuit file's JSON value: H/S/CNOT gates on random (possibly
    non-adjacent, reversed) qubits, with product noise on H and S and
    correlated two-qubit noise on CNOT."""

    def mild(size):  # no-error probability at least 0.8
        probs = 0.2 * rng.dirichlet(np.ones(size))
        probs[0] += 0.8
        return probs

    gates = []
    for _ in range(depth):
        kind = str(rng.choice(["H", "S", "CNOT"] if n > 1 else ["H", "S"]))
        qubits = rng.choice(n, 2 if kind == "CNOT" else 1, replace=False)
        gates.append({"g": kind, "q": [int(q) for q in qubits]})
    noise = {
        "H": pauli_product([mild(4)]),
        "S": pauli_product([mild(4)]),
        "CNOT": {"kind": "pauli-sparse", "n": 2,
                 "terms": [[str(p), float(prob)] for p, prob in zip(iter_all_paulis(2), mild(16))]},
    }
    return {"n": n, "gates": gates, "noise": noise}


def random_circuit(n, rng, depth=12):
    return CliffordCircuit.from_dict(random_circuit_config(n, rng, depth))


def test_circuit_simulation_matches_full_register_reference():
    rng = np.random.default_rng(2024)
    for n in range(1, 6):
        for trial in range(4):
            circuit = random_circuit(n, rng)
            state = DenseState.from_unit_vector(exact.haar_random_vector(n, rng))
            for noisy in (True, False):
                got = simulate_circuit(circuit, state, noisy).rho
                np.testing.assert_allclose(
                    got, full_register_circuit(circuit, state, noisy), rtol=0, atol=1e-12
                )
    # Control above target on non-adjacent qubits, and noise that is not a
    # product: XX and ZI errors only.
    noise = PauliChannel.from_terms(2, {"XX": 0.1, "ZI": 0.05})
    assert not noise.is_product
    circuit = CliffordCircuit(4, [Gate("H", (3,)), Gate("CNOT", (3, 0))], {"CNOT": noise})
    state = DenseState.from_unit_vector(exact.haar_random_vector(4, 5))
    got = simulate_circuit(circuit, state, noisy=True).rho
    np.testing.assert_allclose(
        got, full_register_circuit(circuit, state, True), rtol=0, atol=1e-12
    )


def test_mitigate_report_matches_full_register_reference(tmp_path, capsys):
    """The report's oracle values agree with the reference simulation and a
    dense trace to float rounding."""
    rng = np.random.default_rng(77)
    config = random_circuit_config(5, rng, depth=20)
    circuit = CliffordCircuit.from_dict(config)
    observable = heisenberg_observable(5)
    (tmp_path / "circuit.json").write_text(json.dumps(config))
    out = tmp_path / "report.json"
    rc = cli.main(["mitigate", "--circuit", str(tmp_path / "circuit.json"),
                   "--observable", "heisenberg", "--n", "5", "--shadows", "0", "--seed", "1",
                   "--state-seed", "9", "--exact-eigenvalues", "--floor", "1e-3",
                   "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    state = DenseState.from_unit_vector(exact.haar_random_vector(5, cli._derive_seed(9, 11)))
    noisy = full_register_circuit(circuit, state, True)
    ideal = np.trace(observable.matrix() @ full_register_circuit(circuit, state, False)).real
    back = mitigation_coefficients(circuit, exact_gate_estimates(circuit), observable, 1e-3)
    value = np.trace(Observable(back.n, back.terms).matrix() @ noisy).real
    assert abs(report["ideal"] - ideal) <= 1e-12
    assert abs(report["value"] - value) <= 1e-12
    assert abs(report["absolute_error"] - abs(value - ideal)) <= 1e-12


def test_expectation_matches_dense_trace():
    rng = np.random.default_rng(3)
    psi = exact.haar_random_vector(4, rng)
    state = DenseState.from_unit_vector(psi)
    for p in list(iter_all_paulis(4))[::7]:
        want = np.trace(p.matrix() @ state.rho).real
        assert exact.expectation(p, psi) == pytest.approx(want, abs=1e-14)


def test_expectation_gather_matches_dense_trace_for_observables_and_vectors():
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        psi = exact.haar_random_vector(n, rng)
        labels = [pauli_from_index(n, int(i)) for i in rng.integers(0, 4**n, 8)]
        obs = Observable(n, {p: float(rng.normal()) for p in labels})
        signed = PauliString(n, labels[0].x, labels[0].z, -labels[0].sign)
        for o in (obs, signed):
            want = np.vdot(psi, o.matrix() @ psi).real
            assert abs(exact.expectation(o, psi) - want) <= 1e-12
    with pytest.raises(ValueError, match="dimension"):
        exact.expectation(P("ZZ"), exact.haar_random_vector(3, 1))
    with pytest.raises(ValueError, match="dimension"):
        exact.expectation(P("ZZ"), exact.haar_random_vector(1, 1))


def test_statevector_ideal_run_matches_dense_run_and_trace():
    rng = np.random.default_rng(43)
    for n in range(1, 7):
        for trial in range(3):
            circuit = random_circuit(n, rng, depth=int(rng.integers(1, 40)))
            psi = exact.haar_random_vector(n, rng)
            dense = simulate_circuit(circuit, DenseState.from_unit_vector(psi), noisy=False)
            out = exact.simulate_ideal_statevector(circuit, psi)
            np.testing.assert_allclose(np.outer(out, out.conj()), dense.rho, rtol=0, atol=1e-12)
            obs = Observable(n, {pauli_from_index(n, int(i)): float(rng.normal())
                                 for i in rng.integers(0, 4**n, 10)})
            want = np.trace(obs.matrix() @ dense.rho).real
            assert abs(exact.expectation(obs, out) - want) <= 1e-12


@pytest.mark.parametrize("chunk", [exact.GATHER_CHUNK, 1])
def test_batched_gather_matches_dense_traces(chunk, monkeypatch):
    """Every chunking gives each state's trace; a one-element budget gathers
    one term per chunk."""
    monkeypatch.setattr(exact, "GATHER_CHUNK", chunk)
    rng = np.random.default_rng(47)
    for n in (1, 3, 5):
        strings = [pauli_from_index(n, int(i)) for i in rng.integers(0, 4**n, 9)]
        mats = np.stack([p.matrix() for p in strings])
        codes = letter_codes(strings, n)
        psis = np.stack([exact.haar_random_vector(n, rng) for _ in range(4)])
        want = np.einsum("sa,pab,sb->sp", psis.conj(), mats, psis)
        np.testing.assert_allclose(exact.pauli_expectations(codes, psis), want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(exact.pauli_expectations(codes, psis[0]), want[0],
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, table", list(CONJUGATION_TABLES.items()))
def test_heisenberg_tables_from_unitaries_equal_the_signed_conjugation_tables(kind, table):
    arity = table[0].n
    letters, factors = exact._heisenberg_table(kind, None)
    assert letters.shape == (arity, 4**arity)
    for before, after in zip(iter_all_paulis(arity), table):
        index = pauli_index(before)
        assert "".join(LETTERS[c] for c in letters[:, index]) == after.unsigned().to_label()
        assert factors[index] == pytest.approx(after.sign, abs=1e-15)


def test_heisenberg_oracle_matches_dense_noisy_run():
    rng = np.random.default_rng(53)
    sparse = PauliChannel.from_terms(2, {"XX": 0.1, "ZI": 0.05, "YZ": 0.02})
    assert not sparse.is_product
    for n in range(2, 9):
        for trial in range(2):
            circuit = random_circuit(n, rng, depth=int(rng.integers(10, 40)))
            if trial:
                circuit.noise["CNOT"] = sparse
            psi = exact.haar_random_vector(n, rng)
            strings = [pauli_from_index(n, int(i)) for i in rng.integers(0, 4**n, 12)]
            noisy = simulate_circuit(circuit, DenseState.from_unit_vector(psi), noisy=True)
            want = [dense_expectation(p, noisy) for p in strings]
            got = exact.noisy_expectations(circuit, strings, psi)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_channel_oracles_match_dense_channel(random_cp_ptm):
    """Product Pauli, sparse Pauli and non-unital ``ptm-product`` channels."""
    rng = np.random.default_rng(59)
    for n in range(1, 7):
        strings = [pauli_from_index(n, int(i)) for i in rng.integers(0, 4**n, 20)]
        errors = {pauli_from_index(n, int(i)): 0.04 for i in rng.integers(1, 4**n, 4)}
        channels = [
            PauliChannel.from_qubit_probs(rng.dirichlet((6, 1, 1, 1), n)),
            PauliChannel.from_terms(n, errors),
            ProductChannel([random_cp_ptm(rng) for _ in range(n)]),
        ]
        psi = exact.haar_random_vector(n, rng)
        for channel in channels:
            noisy = apply_channel(channel, DenseState.from_unit_vector(psi))
            want = [dense_expectation(p, noisy) for p in strings]
            got = exact.noisy_expectations(channel, strings, psi)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_noisy_expectations_of_a_batch_are_each_state_s(random_cp_ptm):
    """A (states, 2^n) amplitude array gives each row's values bitwise."""
    rng = np.random.default_rng(61)
    n = 4
    strings = [pauli_from_index(n, int(i)) for i in rng.integers(0, 4**n, 30)]
    circuit = random_circuit(n, rng, depth=20)
    circuit.noise["CNOT"] = PauliChannel.from_terms(2, {"XX": 0.1, "ZI": 0.05})
    psis = np.stack([exact.haar_random_vector(n, rng) for _ in range(3)])
    for noise in [
        PauliChannel.from_qubit_probs(rng.dirichlet((6, 1, 1, 1), n)),
        PauliChannel.from_terms(n, {pauli_from_index(n, 7): 0.1, pauli_from_index(n, 200): 0.05}),
        ProductChannel([random_cp_ptm(rng) for _ in range(n)]),
        circuit,
    ]:
        got = exact.noisy_expectations(noise, strings, psis)
        assert got.shape == (3, len(strings))
        for psi, row in zip(psis, got):
            np.testing.assert_array_equal(row, exact.noisy_expectations(noise, strings, psi))


# -- measurement ---------------------------------------------------------------


def test_basis_outcome_probabilities():
    ideal = PauliChannel.identity(1)
    zero = np.array([1.0, 0.0])
    np.testing.assert_allclose(
        exact.basis_outcome_probabilities(ideal, zero, [2]), [1.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        exact.basis_outcome_probabilities(ideal, zero, [0]), [0.5, 0.5], atol=1e-12
    )
    # Bell state: ZZ and XX outcomes perfectly correlated
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    for axes in ([2, 2], [0, 0]):
        np.testing.assert_allclose(
            exact.basis_outcome_probabilities(PauliChannel.identity(2), bell, axes),
            [0.5, 0, 0, 0.5], atol=1e-12,
        )
    # After an X error on qubit 0 alone, a ZZ measurement always disagrees;
    # an XX measurement does not see it.
    flip = PauliChannel.from_terms(2, {"XI": 1.0})
    np.testing.assert_allclose(
        exact.basis_outcome_probabilities(flip, bell, [2, 2]), [0, 0.5, 0.5, 0], atol=1e-12
    )
    np.testing.assert_allclose(
        exact.basis_outcome_probabilities(flip, bell, [0, 0]), [0.5, 0, 0, 0.5], atol=1e-12
    )


def test_reference_channel_outcome_probability():
    # qubit-1 channel keeps a Z eigenstate with probability pI + pZ = 0.80
    ch = PauliChannel.from_qubit_probs([(0.75, 0.10, 0.10, 0.05)])
    probs = exact.basis_outcome_probabilities(ch, np.array([1.0, 0.0]), [2])
    np.testing.assert_allclose(probs, [0.80, 0.20], atol=1e-12)


def test_outcome_probabilities_match_dense_reference():
    """Product and sparse Pauli channels, every basis on one to four qubits:
    the statevector's flipped outcome probabilities are the dense
    Kronecker-rotated ones of the noisy density matrix."""
    rng = np.random.default_rng(67)
    for n in range(1, 5):
        errors = {pauli_from_index(n, int(i)): 0.05 for i in rng.integers(1, 4**n, 3)}
        channels = [PauliChannel.from_qubit_probs(rng.dirichlet((6, 1, 1, 1), n)),
                    PauliChannel.from_terms(n, errors)]
        psi = exact.haar_random_vector(n, rng)
        for channel in channels:
            noisy = apply_channel(channel, DenseState.from_unit_vector(psi))
            for axes in itertools.product(range(3), repeat=n):
                np.testing.assert_allclose(exact.basis_outcome_probabilities(channel, psi, axes),
                                           basis_outcome_probabilities(noisy, axes),
                                           rtol=0, atol=1e-14)


# -- brute-force transfer and estimator expectation oracles --------------------


def test_brute_force_identity_channel():
    m = brute_force_transfer(PauliChannel.identity(2), 2)
    np.testing.assert_allclose(m.matrix, np.eye(len(m.basis)), atol=1e-12)


def test_estimator_expectation_single_qubit_value():
    # E[x_hat(Z)] over the exact record distribution = (1/3) * 0.60
    ch = PauliChannel.from_qubit_probs([(0.75, 0.10, 0.10, 0.05)])
    exp = shadow_transfer_estimator_expectations(ch, [(P("Z"), P("Z"))])
    assert exp[(P("Z"), P("Z"))] == pytest.approx(0.60 / 3.0, abs=1e-12)


def test_estimator_unbiasedness_exact_enumeration():
    # Finite-sum expectation equals (1/3)^|P| lambda_P for random channels.
    rng = np.random.default_rng(41)
    for n in (1, 2):
        paulis = [p for p in enumerate_low_weight(n, n) if not p.is_identity]
        for trial in range(4):
            probs = rng.dirichlet((8.0, 1.0, 1.0, 1.0), size=n)
            ch = PauliChannel.from_qubit_probs(probs)
            exp = shadow_transfer_estimator_expectations(ch, [(p, p) for p in paulis])
            for p, lam in zip(paulis, exact_diagonal(ch, paulis)):
                assert exp[(p, p)] == pytest.approx(lam / 3.0**p.weight, abs=1e-12)


def test_transfer_estimator_expectation_matches_exact_matrix():
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    m = exact_transfer_matrix(ch, 2)
    pairs = [(P("II"), P("ZI")), (P("ZI"), P("ZI")), (P("XI"), P("XZ")),
             (P("IZ"), P("ZZ"))]
    exp = shadow_transfer_estimator_expectations(ch, pairs)
    for p, q in pairs:
        want = m.matrix[m.index(p), m.index(q)] / 3.0**p.weight
        assert exp[(p, q)] == pytest.approx(want, abs=1e-12)
