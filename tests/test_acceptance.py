"""End-to-end acceptance gates for the shadow noise-learning pipeline.

Each test is one numbered guarantee; together they pin the oracle algebra,
estimator unbiasedness, sample-complexity concentration, the error-ratio
sweep, general weight-contracting recovery, circuit mitigation, the
preparation/measurement prefactor, and byte-level determinism.  Tolerances
are stated inline; Monte Carlo gates use fixed seeds with success-count
thresholds, so every run is reproducible.
"""

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
    CliffordCircuit,
    Gate,
    exact_gate_estimates,
    gate_arity,
    mitigation_coefficients,
)
from paulishadow.observables import Observable, heisenberg_observable
from paulishadow.paulis import PauliString, enumerate_low_weight, iter_all_paulis, letter_codes
from paulishadow.recovery import (
    backward_observable,
    backward_observable_general,
    recover_expectation,
    solve_upper_block_triangular,
)
from paulishadow.shadows import (
    estimate_eigenvalues,
    estimate_gate_eigenvalues,
    estimate_transfer_matrix,
    iter_channel_shadow_blocks,
    plan_sample_size,
    sample_gate_shadows,
)

from reference import (
    DenseState,
    apply_channel,
    brute_force_transfer,
    conjugate_pauli,
    dense_expectation,
    embed,
    restrict,
    shadow_transfer_estimator_expectations,
    simulate_circuit,
)


def P(label):
    return PauliString.from_label(label)


def normalized_heisenberg(n=2):
    obs = heisenberg_observable(n)
    return obs.scaled(1.0 / obs.spectral_norm())


def test_criterion_1_eigenvalue_oracle():
    """Closed-form product-channel eigenvalues match brute-force enumeration
    on every two-qubit Pauli to 1e-12, with the three pinned spot values."""
    ch = reference_product_channel()
    dense = brute_force_transfer(ch, 2)  # tr(P E(P)) / 2^n on the diagonal
    brute = dict(zip(dense.basis, np.diag(dense.matrix).tolist()))
    strings = list(iter_all_paulis(2))
    lam = dict(zip(strings, exact_diagonal(ch, strings).tolist()))
    for p in strings:
        assert lam[p] == pytest.approx(brute[p], abs=1e-12)
    assert lam[P("ZI")] == pytest.approx(0.60, abs=1e-12)
    assert lam[P("IZ")] == pytest.approx(0.64, abs=1e-12)
    assert lam[P("ZZ")] == pytest.approx(0.384, abs=1e-12)


def test_criterion_2_estimator_unbiasedness():
    """The exactly enumerated estimator expectation equals (1/3)^|P| lambda_P
    to 1e-12 for every weight >= 1 Pauli, over 20 random Pauli channels."""
    rng = np.random.default_rng(2024)
    channels = []
    for _ in range(10):
        channels.append(PauliChannel.from_qubit_probs(rng.dirichlet([8, 1, 1, 1], 1)))
    for _ in range(10):
        channels.append(PauliChannel.from_qubit_probs(rng.dirichlet([8, 1, 1, 1], 2)))
    assert len(channels) == 20
    for ch in channels:
        paulis = [p for p in iter_all_paulis(ch.n) if not p.is_identity]
        expectations = shadow_transfer_estimator_expectations(
            ch, [(p, p) for p in paulis])
        for p, lam in zip(paulis, exact_diagonal(ch, paulis)):
            want = (1.0 / 3.0) ** p.weight * lam
            assert expectations[(p, p)] == pytest.approx(want, abs=1e-12)


def test_criterion_3_concentration():
    """End-to-end recovery lands within epsilon = 0.1 of the ideal value in
    at least 85% of 200 independent runs at the planned record budget.

    The planner's sufficient count for these inputs is ~4.6e15 records,
    far past what any test run can draw, so the gate runs at a 2e5-record
    budget instead.  The per-run error only shrinks as the record count
    grows (the estimates concentrate), so a pass at the smaller budget
    implies a pass at the planned one; the capped run is the harder test.
    """
    epsilon, delta, n, k = 0.1, 0.1, 2, 2
    ch = reference_product_channel()
    obs = normalized_heisenberg(n)
    lam_min = np.abs(exact_diagonal(ch, enumerate_low_weight(n, k))).min()
    assert lam_min == pytest.approx(0.384, abs=1e-12)
    degree = int((letter_codes(list(obs.terms()), n) != 0).sum(axis=0).max())  # terms on a qubit
    assert degree == 4
    planned = plan_sample_size(epsilon, delta, n, k, degree, lam_min)
    budget = min(planned, 200_000)
    assert planned >= budget

    paulis = [p for p in obs.terms() if not p.is_identity]
    alpha_id = obs.coefficient(PauliString.identity(n))
    lam = dict(zip(paulis, exact_diagonal(ch, paulis).tolist()))
    runs, hits = 200, 0
    for run in range(runs):
        stream = iter_channel_shadow_blocks(ch, budget, seed=cli._derive_seed(30, run))
        est = estimate_eigenvalues(stream, paulis)
        state = DenseState.from_unit_vector(
            exact.haar_random_vector(n, cli._derive_seed(31, run)))
        back = backward_observable(obs, est)
        noisy = {p: lam[p] * dense_expectation(p, state) for p in paulis}
        f = recover_expectation(back.terms, noisy)
        ideal = dense_expectation(obs, state)
        if abs(f - ideal) <= epsilon:
            hits += 1
    assert hits >= 0.85 * runs


def test_criterion_4_error_ratio_sweep():
    """The full shadow-count sweep: the recovered-to-raw error ratio stays
    below 1 at every point and strictly improves from 1e4 to 2e5 records."""
    sweep = tuple(range(10_000, 200_001, 10_000))
    result = cli.run_fig2(
        reference_product_channel(),
        heisenberg_observable(2),
        sweep=sweep,
        n_states=500,
        repeats=10,
        seed=2718,
    )
    mean_r = result.point_means(result.ratio)
    assert mean_r.shape == (len(sweep),)
    assert np.all(mean_r < 1.0)
    assert mean_r[-1] < mean_r[0]


def test_criterion_5_weight_contracting_recovery():
    """General recovery through the weight-block transfer matrix: exact
    inversion is lossless to 1e-10 over 100 states; a 1e6-shadow estimate
    stays within 0.1 in >= 85% of 50 runs; the block solver agrees with a
    dense solve to 1e-10 on 100 random systems."""
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    obs = normalized_heisenberg(2)

    transfer = exact_transfer_matrix(ch, 2)
    back = backward_observable_general(obs, transfer)
    support = [p for p in back.terms if not p.is_identity]
    for trial in range(100):
        state = DenseState.from_unit_vector(
            exact.haar_random_vector(2, cli._derive_seed(50, trial)))
        noisy = apply_channel(ch, state)
        f = recover_expectation(back.terms, {p: dense_expectation(p, noisy) for p in support})
        assert abs(f - dense_expectation(obs, state)) <= 1e-10

    runs, hits = 50, 0
    for run in range(runs):
        blocks = iter_channel_shadow_blocks(ch, 1_000_000, cli._derive_seed(51, run))
        estimated = estimate_transfer_matrix(blocks, 2)
        back_est = backward_observable_general(obs, estimated)
        state = DenseState.from_unit_vector(
            exact.haar_random_vector(2, cli._derive_seed(52, run)))
        noisy = apply_channel(ch, state)
        f = recover_expectation(
            back_est.terms,
            {p: dense_expectation(p, noisy) for p in back_est.terms if not p.is_identity},
        )
        if abs(f - dense_expectation(obs, state)) <= 0.1:
            hits += 1
    assert hits >= 0.85 * runs

    rng = np.random.default_rng(404)
    for trial in range(100):
        sizes = rng.integers(1, 6, size=rng.integers(2, 5))
        dim = int(sizes.sum())
        mat = rng.normal(size=(dim, dim))
        blocks, start = [], 0
        for size in sizes:
            sl = slice(start, start + int(size))
            mat[sl, sl] += 3.0 * np.eye(int(size))
            blocks.append(sl)
            start += int(size)
        for i, a in enumerate(blocks):
            for b in blocks[:i]:
                mat[a, b] = 0.0
        rhs = rng.normal(size=dim)
        x, _ = solve_upper_block_triangular(mat, blocks, rhs)
        assert np.abs(x - np.linalg.solve(mat, rhs)).max() <= 1e-10


def random_noisy_circuit(rng):
    n = int(rng.integers(2, 5))
    depth = int(rng.integers(1, 7))
    gates = []
    for _ in range(depth):
        kind = str(rng.choice(["H", "S", "CNOT"]))
        if kind == "CNOT":
            q = tuple(int(x) for x in rng.choice(n, size=2, replace=False))
        else:
            q = (int(rng.integers(n)),)
        gates.append(Gate(kind, q))
    noise = {}
    for kind in {g.kind for g in gates}:
        arity = gate_arity(kind)
        total_error = rng.uniform(0.05, 0.15)
        probs = []
        for _ in range(arity):
            split = rng.dirichlet([1.0, 1.0, 1.0]) * total_error
            probs.append((1.0 - total_error, *split))
        noise[kind] = PauliChannel.from_qubit_probs(probs)
    return CliffordCircuit(n, tuple(gates), noise)


def chain_eigenvalue_product(circuit, p):
    product, current = 1.0, p
    for gate in reversed(circuit.gates):
        local = restrict(current, gate.qubits).unsigned()
        if not local.is_identity:
            product *= exact_diagonal(circuit.noise[gate.kind], [local])[0]
        current = conjugate_pauli(gate.kind, gate.qubits, current)
    return product


def test_criterion_6_circuit_mitigation():
    """Noisy-circuit expectations factor into an eigenvalue product times the
    ideal expectation (1e-10, all weight <= 2 Paulis, 50 random circuits);
    mitigation is exact with oracle eigenvalues and lands within 0.05 in
    >= 85% of runs when the eigenvalues are learned from 1e5 gate shadows."""
    rng = np.random.default_rng(606)
    runs, hits = 50, 0
    for run in range(runs):
        circuit = random_noisy_circuit(rng)
        n = circuit.n
        for table in exact_gate_estimates(circuit).values():
            assert min(table.values()) >= 0.3  # noise stays invertible
        state = DenseState.from_unit_vector(
            exact.haar_random_vector(n, cli._derive_seed(60, run)))
        noisy = simulate_circuit(circuit, state, noisy=True)
        ideal_state = simulate_circuit(circuit, state, noisy=False)

        for p in enumerate_low_weight(n, min(2, n)):
            if p.is_identity:
                continue
            got = dense_expectation(p, noisy)
            want = chain_eigenvalue_product(circuit, p) * dense_expectation(p, ideal_state)
            assert got == pytest.approx(want, abs=1e-10)

        target = embed(PauliString.from_label("ZZ"), n, (0, 1))
        obs = Observable(n, {target: 0.9})
        ideal = dense_expectation(obs, ideal_state)
        back = mitigation_coefficients(circuit, exact_gate_estimates(circuit), obs)
        assert dense_expectation(Observable(back.n, back.terms), noisy) == pytest.approx(
            ideal, abs=1e-10
        )

        learned = {}
        for kind in sorted({g.kind for g in circuit.gates}):
            blocks = sample_gate_shadows(
                kind,
                circuit.noise[kind],
                100_000,
                cli._derive_seed(61, run, *(ord(c) for c in kind)),
            )
            learned[kind] = estimate_gate_eigenvalues(blocks, kind)
        back = mitigation_coefficients(circuit, learned, obs)
        f = dense_expectation(Observable(back.n, back.terms), noisy)
        if abs(f - ideal) <= 0.05:
            hits += 1
    assert hits >= 0.85 * runs


def test_criterion_7_spam_factor():
    """Preparation/measurement flips at probability 0.1 are the identity
    channel with depolarizing of shrink 0.8 on each side.  They produce the
    squared contrast 0.64 +/- 0.02 at 1e6 samples, and dividing the separately
    estimated factor out restores identity-channel eigenvalues to 1 +/- 0.02."""
    flip = depolarizing_ptm(1 - 2 * 0.1)
    flipped = ProductChannel([flip @ flip])

    def factor(seed):
        stream = iter_channel_shadow_blocks(flipped, 1_000_000, seed)
        return estimate_eigenvalues(stream, [P("X")])[P("X")]

    assert factor(70) == pytest.approx(0.64, abs=0.02)
    divisor = factor(72)  # fresh calibration
    strings = [P(letter) for letter in "XYZ"]
    raw = estimate_eigenvalues(iter_channel_shadow_blocks(flipped, 1_000_000, seed=71), strings)
    for p in strings:
        assert raw[p] / divisor == pytest.approx(1.0, abs=0.02)


def test_criterion_8_determinism(tmp_path):
    """Repeated runs with one seed emit byte-identical outputs."""
    learn_a, learn_b = tmp_path / "la.csv", tmp_path / "lb.csv"
    args = ["learn", "--channel", "reference", "--k", "2", "--shadows", "40000",
            "--seed", "3"]
    assert cli.main(args + ["--out", str(learn_a)]) == 0
    assert cli.main(args + ["--out", str(learn_b)]) == 0
    assert learn_a.read_bytes() == learn_b.read_bytes()

    fig_a, fig_b = tmp_path / "fa.csv", tmp_path / "fb.csv"
    args = ["fig2", "--sweep", "10000,30000", "--states", "25", "--repeats", "3",
            "--seed", "8"]
    assert cli.main(args + ["--out", str(fig_a)]) == 0
    assert cli.main(args + ["--out", str(fig_b)]) == 0
    assert fig_a.read_bytes() == fig_b.read_bytes()

    rep_a, rep_b = tmp_path / "ra.json", tmp_path / "rb.json"
    args = ["recover", "--channel", "reference", "--observable", "heisenberg",
            "--n", "2", "--shadows", "20000", "--seed", "4", "--state-seed", "5"]
    assert cli.main(args + ["--out", str(rep_a)]) == 0
    assert cli.main(args + ["--out", str(rep_b)]) == 0
    assert rep_a.read_bytes() == rep_b.read_bytes()
