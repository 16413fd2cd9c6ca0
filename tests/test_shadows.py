"""Shadow sampling, estimators, counts statistic, planner, and gate shadows.

Monte Carlo assertions use fixed seeds and tolerances a few standard
deviations wide, so they are deterministic; exactness claims (estimator
values, counts-vs-records agreement, unbiasedness enumerations) are checked
to 1e-12 or exactly.
"""

import itertools
import math

import numpy as np
import pytest

from paulishadow import exact
from paulishadow.channels import (
    PauliChannel,
    ProductChannel,
    amplitude_damping_ptm,
    depolarizing_ptm,
    exact_transfer_matrix,
    reference_product_channel,
)
from paulishadow.paulis import PauliString, enumerate_low_weight, iter_all_paulis
from paulishadow.shadows import (
    EigenvalueEstimates,
    ShadowCounts,
    ShadowRecords,
    block_rng,
    estimate_eigenvalues,
    estimate_gate_eigenvalues,
    estimate_spam_factor,
    estimate_state_expectations,
    estimate_transfer_entry,
    estimate_transfer_matrix,
    estimate_x,
    iter_channel_shadow_blocks,
    plan_sample_size,
    sample_channel_shadows,
    sample_gate_shadows,
)


def P(label):
    return PauliString.from_label(label)


def records_from_lists(s_axis, s_sign, t_axis, t_sign):
    return ShadowRecords(
        np.array(s_axis, dtype=np.int8),
        np.array(s_sign, dtype=np.int8),
        np.array(t_axis, dtype=np.int8),
        np.array(t_sign, dtype=np.int8),
    )


# -- record container ----------------------------------------------------------


def test_records_shape_validation():
    good = np.zeros((3, 2), dtype=np.int8)
    with pytest.raises(ValueError):
        ShadowRecords(good, good, good, np.zeros((3, 1), dtype=np.int8))
    with pytest.raises(ValueError):
        ShadowRecords(np.zeros(3, dtype=np.int8), good, good, good)


def test_records_slicing_and_concat():
    r = sample_channel_shadows(PauliChannel.identity(2), 100, seed=1)
    assert len(r) == 100 and r.n == 2
    front, back = r[:40], r[40:]
    both = ShadowRecords.concatenate([front, back])
    np.testing.assert_array_equal(both.s_axis, r.s_axis)
    np.testing.assert_array_equal(both.t_sign, r.t_sign)
    single = r[7]
    assert len(single) == 1


def test_records_text_round_trip(tmp_path):
    r = sample_channel_shadows(reference_product_channel(), 50, seed=9)
    lines = r.to_lines()
    assert all(line.startswith("s:") and " t:" in line for line in lines)
    back = ShadowRecords.from_lines(lines)
    np.testing.assert_array_equal(back.s_axis, r.s_axis)
    np.testing.assert_array_equal(back.s_sign, r.s_sign)
    np.testing.assert_array_equal(back.t_axis, r.t_axis)
    np.testing.assert_array_equal(back.t_sign, r.t_sign)
    path = tmp_path / "records.txt"
    r.save(path)
    loaded = ShadowRecords.load(path)
    np.testing.assert_array_equal(loaded.t_axis, r.t_axis)


def test_records_parse_examples_and_errors():
    r = ShadowRecords.from_lines(["s:Z+X- t:Z-Y+"])
    assert r.n == 2
    assert r.s_axis[0].tolist() == [2, 0] and r.s_sign[0].tolist() == [1, -1]
    assert r.t_axis[0].tolist() == [2, 1] and r.t_sign[0].tolist() == [-1, 1]
    for bad in ["s:Q+ t:Z-", "s:Z+ u:Z-", "s:Z t:Z-", "s:Z+X- t:Z-"]:
        with pytest.raises(ValueError):
            ShadowRecords.from_lines([bad])
    with pytest.raises(ValueError):
        ShadowRecords.from_lines(["# only a comment"])


# -- sampling determinism ------------------------------------------------------


def test_sampling_is_deterministic():
    ch = reference_product_channel()
    a = sample_channel_shadows(ch, 3000, seed=5)
    b = sample_channel_shadows(ch, 3000, seed=5)
    np.testing.assert_array_equal(a.s_axis, b.s_axis)
    np.testing.assert_array_equal(a.t_sign, b.t_sign)
    c = sample_channel_shadows(ch, 3000, seed=6)
    assert not np.array_equal(a.t_sign, c.t_sign)


def test_sampling_prefix_stability():
    # record i depends only on (seed, i), not on the total record count
    ch = reference_product_channel()
    small = sample_channel_shadows(ch, 1000, seed=12)
    big = sample_channel_shadows(ch, 70_000, seed=12)  # spans two blocks
    np.testing.assert_array_equal(big.s_axis[:1000], small.s_axis)
    np.testing.assert_array_equal(big.s_sign[:1000], small.s_sign)
    np.testing.assert_array_equal(big.t_axis[:1000], small.t_axis)
    np.testing.assert_array_equal(big.t_sign[:1000], small.t_sign)


def test_block_iteration_matches_batch():
    ch = reference_product_channel()
    blocks = list(iter_channel_shadow_blocks(ch, 70_000, seed=4))
    assert len(blocks) == 2 and len(blocks[0]) == 65536
    merged = ShadowRecords.concatenate(blocks)
    batch = sample_channel_shadows(ch, 70_000, seed=4)
    np.testing.assert_array_equal(merged.t_sign, batch.t_sign)


def _sample_ptm_block_per_qubit(channel, rng, block_size, spam):
    """One block of a product channel's records, its outcome probabilities
    computed qubit by qubit from the PTM columns: the reference for the
    sampler's table lookup, with the same draws in the same order."""
    shape = (block_size, channel.n)
    s_axis = rng.integers(0, 3, shape, dtype=np.int8)
    s_sign = (1 - 2 * rng.integers(0, 2, shape, dtype=np.int8)).astype(np.int8)
    physical_sign = s_sign
    if spam > 0.0:
        physical_sign = np.where(rng.random(shape) < spam, -s_sign, s_sign).astype(np.int8)
    t_axis = rng.integers(0, 3, shape, dtype=np.int8)
    u = rng.random(shape)
    t_sign = np.empty(shape, dtype=np.int8)
    rows = np.arange(block_size)
    for j in range(channel.n):
        ptm = channel.ptm(j)
        bloch = ptm[1:, 0][:, None] + physical_sign[:, j] * ptm[1:, s_axis[:, j] + 1]
        p_plus = np.clip((1.0 + bloch[t_axis[:, j], rows]) / 2.0, 0.0, 1.0)
        t_sign[:, j] = np.where(u[:, j] < p_plus, 1, -1)
    if spam > 0.0:
        t_sign = np.where(rng.random(shape) < spam, -t_sign, t_sign).astype(np.int8)
    return ShadowRecords(s_axis, s_sign, t_axis, t_sign)


@pytest.mark.parametrize("spam", [0.0, 0.1])
@pytest.mark.parametrize("block_size", [64, 250])  # 1000 records: a partial last block, none
def test_ptm_sampling_matches_per_qubit_reference(random_cp_ptm, block_size, spam):
    rng = np.random.default_rng(17)
    for n in range(1, 6):
        ch = ProductChannel([random_cp_ptm(rng) for _ in range(n)])
        got = sample_channel_shadows(ch, 1000, seed=n, block_size=block_size,
                                     spam_flip_probability=spam)
        blocks = -(-1000 // block_size)
        want = ShadowRecords.concatenate([
            _sample_ptm_block_per_qubit(ch, block_rng(n, b), block_size, spam)
            for b in range(blocks)
        ])[:1000]
        for field in ("s_axis", "s_sign", "t_axis", "t_sign"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def test_block_rng_is_counter_based():
    a = block_rng(99, 0).integers(0, 1000, 5)
    b = block_rng(99, 0).integers(0, 1000, 5)
    np.testing.assert_array_equal(a, b)
    c = block_rng(99, 1).integers(0, 1000, 5)
    assert not np.array_equal(a, c)


def test_identity_channel_sampling_marginals():
    # matched basis reproduces the prepared sign; mismatched is a fair coin
    r = sample_channel_shadows(PauliChannel.identity(1), 30_000, seed=8)
    match = r.t_axis[:, 0] == r.s_axis[:, 0]
    assert np.all(r.t_sign[match, 0] == r.s_sign[match, 0])
    flip = r.t_sign[~match, 0].astype(float)
    assert abs(flip.mean()) < 0.05
    # inputs uniform over the six eigenstates
    for axis in range(3):
        frac = (r.s_axis[:, 0] == axis).mean()
        assert frac == pytest.approx(1 / 3, abs=0.02)


def test_pauli_channel_sampling_flip_rate():
    # Z+ input measured in Z flips with probability pX + pY = 0.20
    ch = PauliChannel.from_qubit_probs([(0.75, 0.10, 0.10, 0.05)])
    r = sample_channel_shadows(ch, 100_000, seed=14)
    sel = (r.s_axis[:, 0] == 2) & (r.t_axis[:, 0] == 2)
    kept = (r.t_sign[sel, 0] == r.s_sign[sel, 0]).mean()
    assert kept == pytest.approx(0.80, abs=0.02)


def test_ptm_sampling_matches_pauli_sampling_statistics():
    # the same Pauli channel sampled via its PTM must estimate identically
    ch = reference_product_channel()
    ptm = ch.to_product_channel()
    est_a = estimate_eigenvalues(sample_channel_shadows(ch, 150_000, seed=2), 2, 2)
    est_b = estimate_eigenvalues(sample_channel_shadows(ptm, 150_000, seed=3), 2, 2)
    for p in enumerate_low_weight(2, 2):
        if p.is_identity:
            continue
        assert est_a[p] == pytest.approx(ch.eigenvalue(p), abs=0.06)
        assert est_b[p] == pytest.approx(ch.eigenvalue(p), abs=0.06)


# -- core estimator ------------------------------------------------------------


def test_estimate_x_single_record_values():
    # worked single-record examples
    r = records_from_lists([[2]], [[1]], [[2]], [[-1]])  # s=(Z,+), t=(Z,-)
    assert estimate_x(r, P("Z")) == pytest.approx(-3.0)
    r = records_from_lists([[0]], [[1]], [[2]], [[-1]])  # s=(X,+): mismatch
    assert estimate_x(r, P("Z")) == 0.0
    est = estimate_eigenvalues(
        records_from_lists([[2]], [[1]], [[2]], [[-1]]), 1, 1
    )
    assert est[P("Z")] == pytest.approx(-9.0)  # single records are unbounded


def test_per_record_values_in_allowed_set():
    ch = reference_product_channel()
    r = sample_channel_shadows(ch, 300, seed=6)
    for p in [P("ZI"), P("XZ")]:
        allowed = {0.0, 3.0**p.weight, -(3.0**p.weight)}
        for i in range(len(r)):
            assert estimate_x(r[i], p) in allowed


def test_estimate_x_rejects_empty():
    empty = sample_channel_shadows(PauliChannel.identity(1), 0, seed=0)
    with pytest.raises(ValueError):
        estimate_x(empty, P("Z"))


def test_estimate_eigenvalues_identity_exact():
    r = sample_channel_shadows(reference_product_channel(), 100, seed=1)
    est = estimate_eigenvalues(r, 2, 2)
    assert est[P("II")] == 1.0
    assert est.n_records == 100
    with pytest.raises(KeyError):
        est[PauliString.from_label("XX").embed(3, (0, 1))]


def test_estimates_converge_to_oracle():
    ch = reference_product_channel()
    est = estimate_eigenvalues(sample_channel_shadows(ch, 100_000, seed=20), 2, 2)
    for p in enumerate_low_weight(2, 2):
        assert est[p] == pytest.approx(ch.eigenvalue(p), abs=0.05)


def test_estimates_signed_lookup():
    est = EigenvalueEstimates(1, {P("Z"): 0.5}, 10)
    assert est[P("-Z")] == 0.5  # unsigned key lookup
    assert P("Z") in est and P("I") in est and P("X") not in est


def test_from_channel_oracle_table():
    ch = reference_product_channel()
    est = EigenvalueEstimates.from_channel(ch, 2)
    assert est.n_records == 0
    assert est[P("ZZ")] == pytest.approx(0.384, abs=1e-12)


# -- counts sufficient statistic ----------------------------------------------


def test_counts_match_direct_records_exactly():
    ch = reference_product_channel()
    r = sample_channel_shadows(ch, 20_000, seed=33)
    counts = ShadowCounts.from_records(r)
    assert counts.n_records == len(r)
    for p in enumerate_low_weight(2, 2):
        if p.is_identity:
            continue
        assert estimate_x(counts, p) == estimate_x(r, p)  # bit-for-bit equal
    for p, q in [(P("II"), P("ZI")), (P("XI"), P("XZ")), (P("ZI"), P("ZZ"))]:
        assert estimate_transfer_entry(counts, p, q) == estimate_transfer_entry(r, p, q)


def test_counts_merge_and_accumulate():
    ch = reference_product_channel()
    r = sample_channel_shadows(ch, 9000, seed=44)
    whole = ShadowCounts.from_records(r)
    a = ShadowCounts.from_records(r[:5000])
    b = ShadowCounts.from_records(r[5000:])
    merged = a.merge(b)
    np.testing.assert_array_equal(merged.counts, whole.counts)
    assert merged.n_records == 9000
    streamed = ShadowCounts.accumulate(iter_channel_shadow_blocks(ch, 9000, 44), 2)
    np.testing.assert_array_equal(streamed.counts, whole.counts)


def test_counts_qubit_cap():
    with pytest.raises(ValueError):
        ShadowCounts(5)
    with pytest.raises(ValueError):
        ShadowCounts(0)


def test_estimating_from_block_stream():
    ch = reference_product_channel()
    est = estimate_eigenvalues(iter_channel_shadow_blocks(ch, 50_000, 3), 2, 1)
    assert est[P("ZI")] == pytest.approx(0.60, abs=0.05)


# -- transfer estimation -------------------------------------------------------


def test_transfer_entry_identity_column():
    r = sample_channel_shadows(reference_product_channel(), 100, seed=2)
    assert estimate_transfer_entry(r, P("II"), P("II")) == 1.0
    assert estimate_transfer_entry(r, P("ZI"), P("II")) == 0.0


def test_transfer_entry_damping_leak():
    # the (I, Z) entry estimates gamma
    ch = ProductChannel([amplitude_damping_ptm(0.2), np.eye(4)])
    r = sample_channel_shadows(ch, 200_000, seed=7)
    leak = estimate_transfer_entry(r, P("II"), P("ZI"))
    assert leak == pytest.approx(0.2, abs=0.03)


def test_transfer_diagonal_matches_eigenvalues_on_pauli_channel():
    ch = reference_product_channel()
    r = sample_channel_shadows(ch, 100_000, seed=9)
    counts = ShadowCounts.from_records(r)
    for p in [P("ZI"), P("XZ")]:
        diag = estimate_transfer_entry(counts, p, p)
        lam = 3.0**p.weight * estimate_x(counts, p)
        assert diag == pytest.approx(lam, abs=1e-12)
    # off-diagonal entries vanish within a loose Hoeffding envelope
    envelope = 4 * 9 / math.sqrt(counts.n_records)
    hits = 0
    pairs = [(P("ZI"), P("XI")), (P("XI"), P("XZ")), (P("IZ"), P("ZZ")),
             (P("YI"), P("YZ")), (P("IX"), P("ZX"))]
    for p, q in pairs:
        if abs(estimate_transfer_entry(counts, p, q)) <= envelope:
            hits += 1
    assert hits >= len(pairs) - 1


def test_estimate_transfer_matrix_structure():
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    src = ShadowCounts.accumulate(iter_channel_shadow_blocks(ch, 300_000, 5), 2)
    m = estimate_transfer_matrix(src, 2, 2)
    assert m.basis == tuple(enumerate_low_weight(2, 2))
    assert m.matrix[0, 0] == 1.0
    np.testing.assert_array_equal(m.matrix[1:, 0], 0.0)
    assert m.is_upper_block_triangular(tol=1e-12)  # pinned zeros below blocks
    truth = exact_transfer_matrix(ch, 2)
    assert np.abs(m.matrix - truth.matrix).max() < 0.12


# -- planner -------------------------------------------------------------------


def test_plan_sample_size_frozen_value():
    # high-precision evaluation of the closed formula at the pinned inputs
    want = 4628334085009587
    got = plan_sample_size(0.1, 0.1, 2, 2, 4, 0.384)
    assert math.isclose(got, want, rel_tol=1e-12)
    assert got == plan_sample_size(0.1, 0.1, 2, 2, 4, 0.384)  # deterministic


def test_plan_sample_size_scaling():
    base = plan_sample_size(0.2, 0.1, 2, 2, 4, 0.384)
    finer = plan_sample_size(0.1, 0.1, 2, 2, 4, 0.384)
    assert finer / base == pytest.approx(4.0, rel=1e-9)
    # log growth in n through the union bound
    wide = plan_sample_size(0.1, 0.1, 6, 2, 4, 0.384)
    assert finer < wide < 2 * finer
    # monotone in delta and the eigenvalue floor
    assert plan_sample_size(0.1, 0.05, 2, 2, 4, 0.384) > finer
    assert plan_sample_size(0.1, 0.1, 2, 2, 4, 0.2) > finer


def test_plan_sample_size_validation():
    with pytest.raises(ValueError):
        plan_sample_size(0.0, 0.1, 2, 2, 4, 0.5)
    with pytest.raises(ValueError):
        plan_sample_size(0.1, 1.0, 2, 2, 4, 0.5)
    with pytest.raises(ValueError):
        plan_sample_size(0.1, 0.1, 2, 3, 4, 0.5)  # k > n
    with pytest.raises(ValueError):
        plan_sample_size(0.1, 0.1, 2, 2, 4, 0.0)  # vanishing eigenvalue


# -- gate shadows --------------------------------------------------------------


def gate_estimator_expectation(kind, noise, p):
    """Exact E[lambda_hat_P] by enumerating every (input, basis, outcome)
    configuration with dense-oracle probabilities."""
    from paulishadow.clifford import gate_arity

    g = gate_arity(kind)
    unitary = exact.gate_unitary(kind, tuple(range(g)), g)
    total = 0.0
    for s_digits in itertools.product(range(6), repeat=g):
        axes = [d // 2 for d in s_digits]
        signs = [1 - 2 * (d % 2) for d in s_digits]
        rho = exact.DenseState.product_eigenstate(axes, signs).rho
        rho = unitary @ rho @ unitary.conj().T
        if noise is not None:
            rho = exact.apply_to_operator(noise, rho)
        state = exact.DenseState(g, rho)
        for basis in itertools.product(range(3), repeat=g):
            probs = exact.basis_outcome_probabilities(state, basis)
            for outcome in range(2**g):
                t_sign = [1 - 2 * ((outcome >> (g - 1 - j)) & 1) for j in range(g)]
                rec = records_from_lists([axes], [signs], [basis], [t_sign])
                value = estimate_gate_eigenvalues(rec, kind)[p]
                total += probs[outcome] * value / (6**g * 3**g)
    return total


def test_gate_estimator_unbiased_single_qubit():
    noise = PauliChannel.from_qubit_probs([(0.7, 0.2, 0.05, 0.05)])
    for kind in ("H", "S"):
        for letter in "XYZ":
            want = noise.eigenvalue(P(letter))
            got = gate_estimator_expectation(kind, noise, P(letter))
            assert got == pytest.approx(want, abs=1e-12)


def test_gate_estimator_unbiased_cnot():
    noise = PauliChannel.from_qubit_probs(
        [(0.8, 0.1, 0.06, 0.04), (0.85, 0.05, 0.04, 0.06)]
    )
    for label in ["XI", "IZ", "XZ", "YY"]:
        want = noise.eigenvalue(P(label))
        got = gate_estimator_expectation("CNOT", noise, P(label))
        assert got == pytest.approx(want, abs=1e-12)


def test_noiseless_gate_estimates_are_one():
    r = ShadowRecords.concatenate(list(sample_gate_shadows("H", None, 40_000, seed=3)))
    est = estimate_gate_eigenvalues(r, "H")
    for letter in "XYZ":
        assert est[P(letter)] == pytest.approx(1.0, abs=0.05)


def test_gate_shadow_sign_handling():
    # S conjugates X to -Y; a dropped sign would flip the estimate
    noise = PauliChannel.from_qubit_probs([(0.7, 0.2, 0.05, 0.05)])  # lx=0.8
    r = ShadowRecords.concatenate(list(sample_gate_shadows("S", noise, 60_000, seed=11)))
    est = estimate_gate_eigenvalues(r, "S")
    assert est[P("X")] == pytest.approx(0.8, abs=0.05)
    assert est[P("Y")] == pytest.approx(0.5, abs=0.05)


def test_cnot_gate_shadows_converge():
    noise = PauliChannel.from_qubit_probs(
        [(0.75, 0.10, 0.10, 0.05), (0.77, 0.09, 0.09, 0.05)]
    )
    r = ShadowRecords.concatenate(list(sample_gate_shadows("CNOT", noise, 150_000, seed=21)))
    est = estimate_gate_eigenvalues(r, "CNOT")
    # pinned spot: X (x) I estimated through the conjugated input X (x) X
    assert est[P("XI")] == pytest.approx(0.70, abs=0.05)
    assert est[P("ZZ")] == pytest.approx(noise.eigenvalue(P("ZZ")), abs=0.07)


def test_gate_shadow_record_shape_and_determinism():
    r1 = ShadowRecords.concatenate(list(sample_gate_shadows("CNOT", None, 500, seed=5)))
    r2 = ShadowRecords.concatenate(list(sample_gate_shadows("CNOT", None, 500, seed=5)))
    assert r1.n == 2
    np.testing.assert_array_equal(r1.t_sign, r2.t_sign)
    with pytest.raises(ValueError):
        estimate_gate_eigenvalues(r1, "H")  # arity mismatch
    with pytest.raises(ValueError):
        next(sample_gate_shadows("H", PauliChannel.identity(2), 10, seed=0))


def test_gate_shadow_stream_blocks_and_prefixes():
    noise = PauliChannel.from_terms(2, {"XX": 0.05, "ZI": 0.03, "YZ": 0.02})
    blocks = list(sample_gate_shadows("CNOT", noise, 1000, seed=8, block_size=300))
    assert [len(b) for b in blocks] == [300, 300, 300, 100]
    full = ShadowRecords.concatenate(blocks)
    # Record i depends only on (seed, i): a shorter run is a prefix.
    for count in (1, 299, 300, 301, 999):
        short = ShadowRecords.concatenate(
            list(sample_gate_shadows("CNOT", noise, count, seed=8, block_size=300))
        )
        for field in ("s_axis", "s_sign", "t_axis", "t_sign"):
            np.testing.assert_array_equal(getattr(short, field), getattr(full, field)[:count])
    assert list(sample_gate_shadows("CNOT", noise, 0, seed=8)) == []
    with pytest.raises(ValueError):
        next(sample_gate_shadows("CNOT", noise, -1, seed=8))


def test_gate_shadow_stream_reduces_like_records():
    noise = PauliChannel.from_terms(2, {"XX": 0.05, "ZI": 0.03, "YZ": 0.02})
    for kind, chan in (("H", None), ("S", None), ("CNOT", noise)):
        g = 2 if kind == "CNOT" else 1
        for block_size in (1000, 4096):
            stream = sample_gate_shadows(kind, chan, 20_000, seed=12, block_size=block_size)
            streamed = ShadowCounts.accumulate(stream, g)
            records = ShadowRecords.concatenate(
                list(sample_gate_shadows(kind, chan, 20_000, seed=12, block_size=block_size))
            )
            whole = ShadowCounts.from_records(records)
            np.testing.assert_array_equal(streamed.counts, whole.counts)
            assert streamed.n_records == whole.n_records == 20_000
            # The histogram does not depend on how the records are cut into blocks.
            for size in (13, 777, 20_000):
                rechunked = ShadowCounts.accumulate(
                    (records[i : i + size] for i in range(0, len(records), size)), g
                )
                np.testing.assert_array_equal(rechunked.counts, whole.counts)
            assert (
                estimate_gate_eigenvalues(streamed, kind).values
                == estimate_gate_eigenvalues(records, kind).values
            )


# -- preparation/measurement error --------------------------------------------


def test_spam_factor_no_flips():
    assert estimate_spam_factor(0.0, 50_000, seed=2) == pytest.approx(1.0, abs=0.03)


def test_spam_factor_squared_contrast():
    got = estimate_spam_factor(0.1, 400_000, seed=4)
    assert got == pytest.approx(0.64, abs=0.02)


def test_spam_flip_probability_validation():
    with pytest.raises(ValueError):
        sample_channel_shadows(
            PauliChannel.identity(1), 10, seed=0, spam_flip_probability=1.5
        )


# -- state expectation estimation ---------------------------------------------


def test_state_expectations_fixed_points():
    zero = exact.DenseState.product_eigenstate([2, 2], [+1, +1])
    est = estimate_state_expectations(zero, [P("ZI"), P("ZZ"), P("XI")], 40_000, seed=6)
    assert est[P("ZI")] == pytest.approx(1.0, abs=0.05)
    assert est[P("ZZ")] == pytest.approx(1.0, abs=0.1)
    assert est[P("XI")] == pytest.approx(0.0, abs=0.05)
    mixed = exact.DenseState.maximally_mixed(1)
    est = estimate_state_expectations(mixed, [P("Z")], 40_000, seed=7)
    assert est[P("Z")] == pytest.approx(0.0, abs=0.05)


def test_state_expectations_against_dense_oracle():
    st = exact.haar_random_state(2, 31)
    noisy = exact.apply_channel(reference_product_channel(), st)
    paulis = [p for p in enumerate_low_weight(2, 2) if not p.is_identity]
    est = estimate_state_expectations(noisy, paulis, 100_000, seed=8)
    for p in paulis:
        assert est[p] == pytest.approx(exact.expectation(p, noisy), abs=0.05)


def test_state_expectations_signed_pauli():
    zero = exact.DenseState.product_eigenstate([2], [+1])
    est = estimate_state_expectations(zero, [P("-Z")], 20_000, seed=9)
    assert est[P("-Z")] == pytest.approx(-1.0, abs=0.05)


def test_state_expectations_needs_enough_records():
    zero = exact.DenseState.product_eigenstate([2], [+1])
    with pytest.raises(ValueError):
        estimate_state_expectations(zero, [P("Z")], 5, seed=0, n_batches=10)
