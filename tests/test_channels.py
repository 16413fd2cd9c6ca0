"""Channel models, eigenvalue oracles, transfer matrices, and config IO."""

import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulishadow import exact
from paulishadow.channels import (
    ConfigError,
    PauliChannel,
    ProductChannel,
    TransferMatrix,
    amplitude_damping_ptm,
    channel_eigenvalue_vector,
    channel_from_config,
    channel_from_eigenvalue_vector,
    channel_to_config,
    depolarizing_probs,
    depolarizing_ptm,
    exact_transfer_matrix,
    is_weight_contracting,
    load_channel,
    reference_product_channel,
    save_channel,
    walsh_eigenvalues,
    walsh_probabilities,
)
from paulishadow.paulis import PauliString, enumerate_low_weight, iter_all_paulis


def P(label):
    return PauliString.from_label(label)


def random_product_channel(rng, n):
    probs = rng.dirichlet((8.0, 1.0, 1.0, 1.0), size=n)
    return PauliChannel.from_qubit_probs(probs)


def random_sparse_channel(rng, n):
    labels = [str(p) for p in iter_all_paulis(n)]
    picks = rng.choice(len(labels), size=4, replace=False)
    raw = rng.dirichlet((6.0, 1.0, 1.0, 1.0))
    terms = {P(labels[i]): float(w) for i, w in zip(picks, raw)}
    return PauliChannel.from_terms(n, terms)


# -- construction and validation ----------------------------------------------


def test_product_channel_basics():
    ch = reference_product_channel()
    assert ch.n == 2 and ch.is_product
    np.testing.assert_allclose(ch.qubit_probs().sum(axis=1), 1.0, atol=1e-12)


def test_product_rejects_bad_probs():
    with pytest.raises(ValueError):
        PauliChannel.from_qubit_probs([(0.5, 0.5, 0.2, -0.2)])
    with pytest.raises(ValueError):
        PauliChannel.from_qubit_probs([(0.5, 0.1, 0.1, 0.1)])  # sum != 1


def test_sparse_terms_and_identity_fill():
    ch = PauliChannel.from_terms(2, {P("XZ"): 0.1, P("ZI"): 0.2})
    terms = ch.sparse_terms()
    assert terms[P("II")] == pytest.approx(0.7)
    with pytest.raises(ValueError):
        PauliChannel.from_terms(2, {P("XZ"): 0.8, P("ZI"): 0.3})  # sum > 1


def test_exactly_one_construction_form():
    with pytest.raises(ValueError):
        PauliChannel(1)
    with pytest.raises(ValueError):
        PauliChannel(1, qubit_probs=[(1, 0, 0, 0)], terms={P("I"): 1.0})


def test_identity_channel():
    ch = PauliChannel.identity(3)
    for p in enumerate_low_weight(3, 2):
        assert ch.eigenvalue(p) == pytest.approx(1.0)


# -- eigenvalues ---------------------------------------------------------------


def test_reference_qubit_eigenvalues():
    ch = reference_product_channel()
    lams = ch.qubit_eigenvalues()
    np.testing.assert_allclose(lams[0], [1.0, 0.70, 0.70, 0.60], atol=1e-12)
    np.testing.assert_allclose(lams[1], [1.0, 0.72, 0.72, 0.64], atol=1e-12)


def test_reference_spot_eigenvalues():
    ch = reference_product_channel()
    assert ch.eigenvalue(P("ZI")) == pytest.approx(0.60, abs=1e-12)
    assert ch.eigenvalue(P("IZ")) == pytest.approx(0.64, abs=1e-12)
    assert ch.eigenvalue(P("ZZ")) == pytest.approx(0.384, abs=1e-12)
    assert ch.eigenvalue(P("II")) == 1.0


def test_eigenvalue_sign_convention():
    # lambda_P = sum_Q (-1)^{<P,Q>} p(Q) with the symplectic pairing
    ch = PauliChannel.from_terms(1, {P("I"): 0.9, P("X"): 0.1})
    assert ch.eigenvalue(P("X")) == pytest.approx(1.0)
    assert ch.eigenvalue(P("Z")) == pytest.approx(0.8)
    assert ch.eigenvalue(P("Y")) == pytest.approx(0.8)


def test_eigenvalues_against_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(5):
        ch = random_product_channel(rng, 2)
        for p, lam in exact.brute_force_eigenvalues(ch, 2).items():
            assert ch.eigenvalue(p) == pytest.approx(lam, abs=1e-12)
        sp = random_sparse_channel(rng, 2)
        for p, lam in exact.brute_force_eigenvalues(sp, 2).items():
            assert sp.eigenvalue(p) == pytest.approx(lam, abs=1e-12)


def test_min_abs_eigenvalue():
    ch = reference_product_channel()
    assert ch.min_abs_eigenvalue(1) == pytest.approx(0.60, abs=1e-12)
    assert ch.min_abs_eigenvalue(2) == pytest.approx(0.384, abs=1e-12)
    sp = PauliChannel.from_terms(1, {P("X"): 0.1})
    assert sp.min_abs_eigenvalue(1) == pytest.approx(0.8, abs=1e-12)


def test_eigenvalue_vector_round_trip():
    rng = np.random.default_rng(23)
    ch = random_product_channel(rng, 2)
    vec = channel_eigenvalue_vector(ch)
    for p in iter_all_paulis(2):
        from paulishadow.paulis import pauli_index

        assert vec[pauli_index(p)] == pytest.approx(ch.eigenvalue(p), abs=1e-12)
    back = channel_from_eigenvalue_vector(2, vec)
    for p in iter_all_paulis(2):
        assert back.eigenvalue(p) == pytest.approx(ch.eigenvalue(p), abs=1e-12)


# -- Walsh transform -----------------------------------------------------------


def test_walsh_round_trip():
    rng = np.random.default_rng(5)
    probs = rng.dirichlet((4, 1, 1, 1))
    lams = walsh_eigenvalues(probs)
    assert lams[0] == pytest.approx(1.0)
    np.testing.assert_allclose(walsh_probabilities(lams), probs, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_walsh_round_trip_property(n, product, seed):
    # probabilities -> eigenvalues -> probabilities, for product and sparse channels
    rng = np.random.default_rng(seed)
    if product:
        probs = reduce(np.kron, rng.dirichlet(np.ones(4), size=n))
    else:
        probs = np.zeros(4**n)
        support = rng.choice(4**n, size=min(int(rng.integers(1, 8)), 4**n), replace=False)
        probs[support] = rng.dirichlet(np.ones(len(support)))
    lams = walsh_eigenvalues(probs)
    assert lams[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(walsh_probabilities(lams), probs, rtol=0, atol=1e-12)


def test_walsh_rejects_invalid_eigenvalues():
    # these eigenvalues imply a negative probability
    with pytest.raises(ValueError):
        walsh_probabilities(np.array([1.0, 0.8, 0.8, -0.9]))


def test_depolarizing_builders():
    probs = depolarizing_probs(0.8)
    assert probs[0] == pytest.approx(0.85)
    assert probs[1] == probs[2] == probs[3] == pytest.approx(0.05)
    np.testing.assert_allclose(
        np.diag(depolarizing_ptm(0.8)), [1.0, 0.8, 0.8, 0.8], atol=1e-15
    )
    ch = PauliChannel.from_qubit_probs([probs])
    for letter in "XYZ":
        assert ch.eigenvalue(P(letter)) == pytest.approx(0.8, abs=1e-12)


# -- product (PTM) channels ----------------------------------------------------


def test_amplitude_damping_ptm_entries():
    gamma = 0.2
    t = amplitude_damping_ptm(gamma)
    s = np.sqrt(1.0 - gamma)
    assert t[1, 1] == pytest.approx(s) and t[2, 2] == pytest.approx(s)
    assert t[3, 3] == pytest.approx(1.0 - gamma)
    assert t[3, 0] == pytest.approx(gamma)
    assert t[0, 0] == 1.0 and np.all(t[0, 1:] == 0.0)


def test_product_channel_trace_preservation_check():
    bad = np.eye(4)
    bad[0, 1] = 0.1  # first row must stay (1, 0, 0, 0)
    with pytest.raises(ValueError):
        ProductChannel([bad])


def test_product_channel_cp_check():
    ok = ProductChannel([amplitude_damping_ptm(0.3)])
    assert ok.choi_minimum_eigenvalue(0) > -1e-12
    stretch = np.diag([1.0, 1.2, 1.2, 1.2])  # not completely positive
    with pytest.raises(ValueError, match="not completely positive"):
        ProductChannel([stretch])


def test_output_bloch_amplitude_damping():
    ch = ProductChannel([amplitude_damping_ptm(0.2)])
    # |0> is a fixed point; |1> decays toward it
    np.testing.assert_allclose(ch.output_bloch(0, 2, +1), [0, 0, 1.0], atol=1e-12)
    np.testing.assert_allclose(ch.output_bloch(0, 2, -1), [0, 0, -0.6], atol=1e-12)
    # X eigenstates shrink by sqrt(1 - gamma)
    np.testing.assert_allclose(
        ch.output_bloch(0, 0, +1), [np.sqrt(0.8), 0, 0.2], atol=1e-12
    )


# -- transfer matrices ---------------------------------------------------------


def test_exact_transfer_diagonal_for_pauli_channels():
    ch = reference_product_channel()
    m = exact_transfer_matrix(ch, 2)
    for p in m.basis:
        for q in m.basis:
            want = ch.eigenvalue(p) if p == q else 0.0
            assert m.entry(p, q) == pytest.approx(want, abs=1e-12)


def test_exact_transfer_against_brute_force():
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    m = exact_transfer_matrix(ch, 2)
    bf = exact.brute_force_transfer(ch, 2)
    assert m.basis == bf.basis
    np.testing.assert_allclose(m.matrix, bf.matrix, atol=1e-12)


def per_entry_transfer_matrix(channel, basis):
    """Each adjoint transfer entry as a product over qubits, in qubit order."""
    factors = [channel.adjoint_factor(j) for j in range(channel.n)]
    matrix = np.empty((len(basis), len(basis)))
    for i, p in enumerate(basis):
        for j, q in enumerate(basis):
            entry = 1.0
            for qubit in range(channel.n):
                entry *= factors[qubit][p.letter_code(qubit), q.letter_code(qubit)]
            matrix[i, j] = entry
    return matrix


def test_product_transfer_matrix_equals_per_entry_product(random_cp_ptm):
    rng = np.random.default_rng(23)
    for n, k in [(1, 1), (2, 2), (3, 3), (4, 3), (5, 3), (6, 2)]:
        ch = ProductChannel([random_cp_ptm(rng) for _ in range(n)])
        m = exact_transfer_matrix(ch, k)
        assert np.array_equal(m.matrix, per_entry_transfer_matrix(ch, m.basis))


def test_amplitude_damping_transfer_entries():
    gamma = 0.2
    m = exact_transfer_matrix(ProductChannel([amplitude_damping_ptm(gamma)]), 1)
    assert m.entry(P("I"), P("Z")) == pytest.approx(gamma, abs=1e-12)
    assert m.entry(P("Z"), P("Z")) == pytest.approx(1 - gamma, abs=1e-12)
    assert m.entry(P("X"), P("X")) == pytest.approx(np.sqrt(1 - gamma), abs=1e-12)
    assert m.entry(P("Z"), P("I")) == 0.0


def test_transfer_block_structure():
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    m = exact_transfer_matrix(ch, 2)
    assert m.is_upper_block_triangular()
    slices = m.block_slices()
    assert [w for w, _ in slices] == [0, 1, 2]
    assert slices[0][1] == slice(0, 1)
    assert slices[1][1] == slice(1, 7)
    assert m.is_upper_block_triangular(tol=1e-15)
    with pytest.raises(KeyError):
        m.index(P("XXX"))  # not in the two-qubit basis


def test_is_weight_contracting():
    assert is_weight_contracting(ProductChannel([amplitude_damping_ptm(0.2)]), k=1)
    assert is_weight_contracting(reference_product_channel(), k=2)
    # a CNOT conjugation grows weight (X on control -> XX)
    unitary = exact.gate_unitary("CNOT", (0, 1), 2)
    dense = exact.DenseChannel.from_unitary(unitary)
    bf = exact.brute_force_transfer(dense, 2)
    assert not bf.is_upper_block_triangular()
    assert not is_weight_contracting(bf)


# -- config round trips --------------------------------------------------------


def test_config_round_trip_pauli_product(tmp_path):
    ch = reference_product_channel()
    path = tmp_path / "ch.json"
    save_channel(ch, path)
    back = load_channel(path)
    assert isinstance(back, PauliChannel) and back.is_product
    np.testing.assert_allclose(back.qubit_probs(), ch.qubit_probs(), atol=1e-15)


def test_config_round_trip_sparse(tmp_path):
    ch = PauliChannel.from_terms(2, {P("XZ"): 0.1, P("ZI"): 0.2})
    path = tmp_path / "sparse.json"
    save_channel(ch, path)
    back = load_channel(path)
    assert back.sparse_terms() == pytest.approx(
        {p: v for p, v in ch.sparse_terms().items()}
    )


def test_config_round_trip_ptm_product(tmp_path):
    ch = ProductChannel([amplitude_damping_ptm(0.25), depolarizing_ptm(0.7)])
    path = tmp_path / "ptm.json"
    save_channel(ch, path)
    back = load_channel(path)
    assert isinstance(back, ProductChannel)
    for j in range(2):
        np.testing.assert_allclose(back.ptm(j), ch.ptm(j), atol=1e-15)


def test_config_errors():
    with pytest.raises(ConfigError):
        channel_from_config({"kind": "nonsense"})
    with pytest.raises(ConfigError):
        channel_from_config({"kind": "pauli-product"})  # missing qubits
    with pytest.raises(ConfigError):
        channel_from_config(
            {"kind": "pauli-product", "qubits": [{"pI": 0.5, "pX": 0.2}]}
        )
    with pytest.raises(ConfigError):
        channel_from_config(
            {"kind": "pauli-sparse", "n": 1, "terms": [["X", 1.5]]}
        )


def test_config_identity_fill_convention():
    ch = channel_from_config(
        {"kind": "pauli-sparse", "n": 1, "terms": [["X", 0.25]]}
    )
    assert ch.sparse_terms()[P("I")] == pytest.approx(0.75)


def test_channel_to_config_kinds():
    assert channel_to_config(reference_product_channel())["kind"] == "pauli-product"
    sparse = PauliChannel.from_terms(1, {P("X"): 0.5})
    assert channel_to_config(sparse)["kind"] == "pauli-sparse"
    ptm = ProductChannel([depolarizing_ptm(0.9)])
    cfg = channel_to_config(ptm)
    assert cfg["kind"] == "ptm-product"
    assert json.dumps(cfg)  # JSON-serializable


# -- error sampling ------------------------------------------------------------


def test_sample_errors_product_distribution():
    ch = reference_product_channel()
    rng = np.random.default_rng(29)
    draws = ch.sample_errors(200_000, rng)
    assert draws.shape == (200_000, 2)
    freq = np.stack([(draws == c).mean(axis=0) for c in range(4)], axis=1)
    np.testing.assert_allclose(freq, ch.qubit_probs(), atol=0.01)


def sample_errors_broadcast(channel, count, rng):
    """The product-form sampler before the per-threshold compares, kept as the
    reference: a (count, n, 3) broadcast compare summed over its last axis."""
    u = rng.random((count, channel.n))
    cdf = np.cumsum(channel.qubit_probs(), axis=1)
    return (u[:, :, None] >= cdf[None, :, :-1]).sum(axis=2).astype(np.int8)


def test_sample_errors_product_matches_broadcast_reference():
    rng = np.random.default_rng(37)
    for n in range(1, 7):
        # Zero probabilities give repeated thresholds; pI = 1 gives only I.
        probs = rng.dirichlet((2.0, 0.5, 0.5, 0.5), size=n)
        probs[rng.random(n) < 0.3, 2] = 0.0
        probs[0] = (1.0, 0.0, 0.0, 0.0) if n == 3 else probs[0]
        ch = PauliChannel.from_qubit_probs(probs / probs.sum(axis=1, keepdims=True))
        for count, seed in ((1, 0), (1000, 1), (1 << 16, 2)):
            got = ch.sample_errors(count, np.random.default_rng(seed))
            want = sample_errors_broadcast(ch, count, np.random.default_rng(seed))
            assert got.dtype == np.int8
            np.testing.assert_array_equal(got, want)


def test_sample_errors_sparse_distribution():
    ch = PauliChannel.from_terms(2, {P("XZ"): 0.3, P("ZI"): 0.2})
    rng = np.random.default_rng(31)
    draws = ch.sample_errors(100_000, rng)
    # letter codes per qubit for XZ are (1, 3), for ZI (3, 0), identity (0, 0)
    frac_xz = np.mean((draws[:, 0] == 1) & (draws[:, 1] == 3))
    frac_zi = np.mean((draws[:, 0] == 3) & (draws[:, 1] == 0))
    frac_id = np.mean((draws == 0).all(axis=1))
    assert frac_xz == pytest.approx(0.3, abs=0.01)
    assert frac_zi == pytest.approx(0.2, abs=0.01)
    assert frac_id == pytest.approx(0.5, abs=0.01)


def test_to_product_channel():
    ch = reference_product_channel()
    ptm = ch.to_product_channel()
    assert isinstance(ptm, ProductChannel)
    m1 = exact_transfer_matrix(ch, 2)
    m2 = exact_transfer_matrix(ptm, 2)
    np.testing.assert_allclose(m1.matrix, m2.matrix, atol=1e-12)
