"""Channel models, eigenvalue oracles, transfer matrices, and the config reader."""

import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulishadow import channels, shadows
from paulishadow.channels import (
    ConfigError,
    PauliChannel,
    ProductChannel,
    amplitude_damping_ptm,
    channel_from_config,
    depolarizing_ptm,
    exact_diagonal,
    exact_transfer_matrix,
    load_channel,
    reference_product_channel,
    walsh_eigenvalues,
    walsh_probabilities,
)
from paulishadow.paulis import (
    PAULI_MATRICES,
    PauliString,
    enumerate_low_weight,
    iter_all_paulis,
    pauli_from_index,
)

from reference import (
    DenseChannel,
    brute_force_transfer,
    gate_unitary,
    pauli_product,
    ptm_product,
    symplectic_product,
)


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


def test_sparse_term_map_and_identity_fill():
    ch = PauliChannel.from_terms(2, {P("XZ"): 0.1, P("ZI"): 0.2})
    terms = ch.terms()
    assert terms[P("II")] == pytest.approx(0.7)
    with pytest.raises(ValueError):
        PauliChannel.from_terms(2, {P("XZ"): 0.8, P("ZI"): 0.3})  # sum > 1


def test_exactly_one_construction_form():
    with pytest.raises(ValueError):
        PauliChannel(1)
    with pytest.raises(ValueError):
        PauliChannel(1, qubit_probs=[(1, 0, 0, 0)], terms={P("I"): 1.0})


def test_identity_channel():
    strings = enumerate_low_weight(3, 2)
    assert exact_diagonal(PauliChannel.identity(3), strings).tolist() == pytest.approx(
        [1.0] * len(strings))


# -- eigenvalues ---------------------------------------------------------------


def test_reference_qubit_eigenvalues():
    ch = reference_product_channel()
    lams = ch.qubit_eigenvalues()
    np.testing.assert_allclose(lams[0], [1.0, 0.70, 0.70, 0.60], atol=1e-12)
    np.testing.assert_allclose(lams[1], [1.0, 0.72, 0.72, 0.64], atol=1e-12)


def test_reference_spot_eigenvalues():
    zi, iz, zz, ii = exact_diagonal(reference_product_channel(),
                                    [P("ZI"), P("IZ"), P("ZZ"), P("II")]).tolist()
    assert zi == pytest.approx(0.60, abs=1e-12)
    assert iz == pytest.approx(0.64, abs=1e-12)
    assert zz == pytest.approx(0.384, abs=1e-12)
    assert ii == 1.0


def test_eigenvalue_sign_convention():
    # lambda_P = sum_Q (-1)^{<P,Q>} p(Q) with the symplectic pairing
    ch = PauliChannel.from_terms(1, {P("I"): 0.9, P("X"): 0.1})
    assert exact_diagonal(ch, [P("X"), P("Z"), P("Y")]).tolist() == pytest.approx([1.0, 0.8, 0.8])


def test_eigenvalues_against_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(5):
        for ch in (random_product_channel(rng, 2), random_sparse_channel(rng, 2)):
            dense = brute_force_transfer(ch, 2)  # lambda_P = tr(P E(P)) / 2^n
            assert exact_diagonal(ch, dense.basis).tolist() == pytest.approx(
                np.diag(dense.matrix).tolist(), abs=1e-12)


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
    np.testing.assert_allclose(
        np.diag(depolarizing_ptm(0.8)), [1.0, 0.8, 0.8, 0.8], atol=1e-15
    )
    ch = PauliChannel.from_qubit_probs([(0.85, 0.05, 0.05, 0.05)])
    assert exact_diagonal(ch, [P("X"), P("Y"), P("Z")]).tolist() == pytest.approx(
        [0.8] * 3, abs=1e-12)


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


def test_choi_matrix_equals_the_kron_sum(random_cp_ptm):
    # The Choi matrix is sum_ab T_ab kron(sigma_b^T, sigma_a) / 4; the
    # contraction sums the same terms in another order, so a few ulps apart.
    rng = np.random.default_rng(5)
    for ptm in [np.diag([1.0, 1.2, 1.2, 1.2])] + [random_cp_ptm(rng) for _ in range(50)]:
        want = sum(ptm[a, b] * np.kron(PAULI_MATRICES[b].T, PAULI_MATRICES[a])
                   for a in range(4) for b in range(4)) / 4.0
        np.testing.assert_allclose(channels._choi_from_ptm(ptm), want, rtol=0, atol=1e-15)


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
    bf = brute_force_transfer(ch, 2)
    assert m.basis == bf.basis
    np.testing.assert_allclose(m.matrix, bf.matrix, rtol=0, atol=1e-12)


def test_exact_transfer_against_brute_force():
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    m = exact_transfer_matrix(ch, 2)
    bf = brute_force_transfer(ch, 2)
    assert m.basis == bf.basis
    np.testing.assert_allclose(m.matrix, bf.matrix, atol=1e-12)


def per_entry_transfer_matrix(channel, basis):
    """Each adjoint transfer entry as a product over qubits, in qubit order."""
    factors = [channel.ptm(j).T for j in range(channel.n)]
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
    i, x, z = m.index(P("I")), m.index(P("X")), m.index(P("Z"))
    assert m.matrix[i, z] == pytest.approx(gamma, abs=1e-12)
    assert m.matrix[z, z] == pytest.approx(1 - gamma, abs=1e-12)
    assert m.matrix[x, x] == pytest.approx(np.sqrt(1 - gamma), abs=1e-12)
    assert m.matrix[z, i] == 0.0


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
    damping = ProductChannel([amplitude_damping_ptm(0.2)])
    assert exact_transfer_matrix(damping, 1).is_upper_block_triangular()
    assert exact_transfer_matrix(reference_product_channel(), 2).is_upper_block_triangular()
    # a CNOT conjugation grows weight (X on control -> XX)
    unitary = gate_unitary("CNOT", (0, 1), 2)
    dense = DenseChannel(2, [unitary])
    bf = brute_force_transfer(dense, 2)
    assert not bf.is_upper_block_triangular()


# -- config files (the README's examples load in test_cli.py) ------------------


def test_config_round_trip_pauli_product(tmp_path):
    ch = reference_product_channel()
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(pauli_product(ch.qubit_probs().tolist())))
    back = load_channel(path)
    assert isinstance(back, PauliChannel) and back.is_product
    np.testing.assert_allclose(back.qubit_probs(), ch.qubit_probs(), atol=1e-15)


def test_config_round_trip_sparse(tmp_path):
    ch = PauliChannel.from_terms(2, {P("XZ"): 0.1, P("ZI"): 0.2})
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"kind": "pauli-sparse", "n": 2,
                                "terms": [[q.to_label(), p] for q, p in ch.terms().items()]}))
    back = load_channel(path)
    assert back.terms() == pytest.approx(ch.terms())


def test_config_round_trip_ptm_product(tmp_path):
    ch = ProductChannel([amplitude_damping_ptm(0.25), depolarizing_ptm(0.7)])
    path = tmp_path / "ptm.json"
    path.write_text(json.dumps(ptm_product([ch.ptm(j) for j in range(2)])))
    back = load_channel(path)
    assert isinstance(back, ProductChannel)
    for j in range(2):
        np.testing.assert_allclose(back.ptm(j), ch.ptm(j), atol=1e-15)


def test_config_errors():
    bad = [
        ({"kind": "nonsense"}, "unknown channel kind"),
        ({"kind": "pauli-product"}, "non-empty 'qubits' list"),
        ({"kind": "pauli-product", "qubits": [{"pI": 0.5, "pX": 0.2}]}, "missing probability"),
        ({"kind": "pauli-sparse", "n": 1, "terms": [["X", 1.5]]}, "must sum to 1"),
        ({"qubits": [{"pI": 1.0, "pX": 0, "pY": 0, "pZ": 0}]}, "needs a 'kind' field"),
        ({"kind": "pauli-sparse", "n": 2, "terms": [["XZZ", 0.1]]}, "is not an 2-qubit string"),
        ({"kind": "ptm-product", "qubits": [[1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0]]},
         "must hold 16 reals"),
    ]
    for cfg, message in bad:
        with pytest.raises(ConfigError, match=message):
            channel_from_config(cfg)


def test_config_identity_fill_convention():
    ch = channel_from_config(
        {"kind": "pauli-sparse", "n": 1, "terms": [["X", 0.25]]}
    )
    assert ch.terms()[P("I")] == pytest.approx(0.75)


# -- error sampling ------------------------------------------------------------
# The channel kernels draw a Pauli channel's errors through the block's raw
# Philox reader; the references draw the same uniforms as ``Generator.random``.


def pauli_errors(channel, count, seed):
    return shadows._pauli_errors(channel, count, shadows._PhiloxReader(shadows.block_rng(seed, 0)))


def test_sample_errors_product_distribution():
    ch = reference_product_channel()
    draws = pauli_errors(ch, 200_000, 29)
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
            got = pauli_errors(ch, count, seed)
            want = sample_errors_broadcast(ch, count, shadows.block_rng(seed, 0))
            assert got.dtype == np.int8
            np.testing.assert_array_equal(got, want)


def test_sample_errors_sparse_distribution():
    ch = PauliChannel.from_terms(2, {P("XZ"): 0.3, P("ZI"): 0.2})
    draws = pauli_errors(ch, 100_000, 31)
    # letter codes per qubit for XZ are (1, 3), for ZI (3, 0), identity (0, 0)
    frac_xz = np.mean((draws[:, 0] == 1) & (draws[:, 1] == 3))
    frac_zi = np.mean((draws[:, 0] == 3) & (draws[:, 1] == 0))
    frac_id = np.mean((draws == 0).all(axis=1))
    assert frac_xz == pytest.approx(0.3, abs=0.01)
    assert frac_zi == pytest.approx(0.2, abs=0.01)
    assert frac_id == pytest.approx(0.5, abs=0.01)
    # The reference picks each record's term by a searchsorted over rng.random.
    ch = PauliChannel.from_terms(3, {P("XZI"): 0.1, P("IYY"): 0.2, P("ZZZ"): 0.05,
                                     P("IIX"): 0.15})
    terms = ch.terms()
    cdf = np.cumsum(list(terms.values()))
    cdf[-1] = 1.0
    codes = np.array([[q.letter_code(j) for j in range(3)] for q in terms], np.int8)
    for count, seed in ((1, 0), (1000, 1), (1 << 16, 2)):
        u = shadows.block_rng(seed, 0).random(count)
        np.testing.assert_array_equal(pauli_errors(ch, count, seed),
                                      codes[np.searchsorted(cdf, u, side="right")])


def test_exact_diagonal_is_the_per_string_product_or_sum_bitwise(random_cp_ptm):
    """Per qubit in qubit order, identity letters included; sparse terms in
    term order."""
    rng = np.random.default_rng(41)
    for n in (1, 3, 5):
        strings = list(enumerate_low_weight(n, min(n, 3)))
        product = random_product_channel(rng, n)
        sparse = PauliChannel.from_terms(
            n, {pauli_from_index(n, int(i)): 0.03 for i in rng.integers(1, 4**n, 5)})
        ptms = ProductChannel([random_cp_ptm(rng) for _ in range(n)])
        eigs = product.qubit_eigenvalues()
        for channel, want in [
            (product, [reduce(lambda acc, j: acc * eigs[j, p.letter_code(j)], range(n), 1.0)
                       for p in strings]),
            (sparse, [sum(prob * (1.0 - 2.0 * symplectic_product(p, q))
                          for q, prob in sparse.terms().items()) for p in strings]),
            (ptms, [reduce(lambda acc, j: acc * ptms.ptm(j)[p.letter_code(j), p.letter_code(j)],
                           range(n), 1.0) for p in strings]),
        ]:
            got = exact_diagonal(channel, strings)
            assert got.tolist() == want
            np.testing.assert_array_equal(np.diag(exact_transfer_matrix(channel, min(n, 3)).matrix), got)
