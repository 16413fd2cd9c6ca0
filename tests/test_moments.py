"""Moment tables against a per-record brute force.

Every estimator reads an exact integer numerator off a moment table: the
table of the joint histogram up to the cap, or past it the table of each
union support's marginal histogram.  The oracle here is the mask scan: for
each (input, output) Pauli pair, mask the records whose prepared and
measured axes match every letter and sum their sign parities.  Both sides
are exact integers, so they must agree bit for bit on any records, on either
side of the cap.  Property tests are derandomized, so every run draws the
same examples.  Hand-made records reach the estimators as a
``fixed_stream`` of ``BLOCK_ROWS``-row blocks, through the block driver.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulishadow import shadows
from paulishadow.channels import (
    PauliChannel,
    ProductChannel,
    amplitude_damping_ptm,
    depolarizing_ptm,
)
from paulishadow.paulis import PauliString, enumerate_low_weight, iter_all_paulis, letter_codes
from paulishadow.shadows import (
    estimate_eigenvalues,
    estimate_gate_eigenvalues,
    estimate_transfer_matrix,
    iter_channel_shadow_blocks,
    sample_gate_shadows,
)

from reference import (
    conjugate_pauli,
    fields,
    fixed_stream,
    records_from_fields,
    serial_records,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
BLOCK_ROWS = 32  # rows per block of a fixed stream: most records span several


def random_records(n, count, seed):
    rng = np.random.default_rng(seed)
    shape = (count, n)
    return records_from_fields(
        rng.integers(0, 3, shape, dtype=np.int8),
        (1 - 2 * rng.integers(0, 2, shape)).astype(np.int8),
        rng.integers(0, 3, shape, dtype=np.int8),
        (1 - 2 * rng.integers(0, 2, shape)).astype(np.int8),
    )


def brute_match_sum(records, in_pauli, out_pauli):
    """Sum over records of the signed match indicator of (P against s, Q against t)."""
    s_axis, s_sign, t_axis, t_sign = fields(records)
    mask = np.ones(len(records), dtype=bool)
    parity = np.ones(len(records), dtype=np.int64)
    for j in range(records.shape[1]):
        code = in_pauli.letter_code(j)
        if code:
            mask &= s_axis[:, j] == code - 1
            parity = parity * s_sign[:, j]
        code = out_pauli.letter_code(j)
        if code:
            mask &= t_axis[:, j] == code - 1
            parity = parity * t_sign[:, j]
    return int(parity[mask].sum())


def brute_numerator(records, in_pauli, out_pauli):
    """The moment-table entry: each matched output letter carries a factor 3."""
    return 3**out_pauli.weight * brute_match_sum(records, in_pauli, out_pauli)


def brute_entry(records, in_pauli, out_pauli):
    numer = brute_numerator(records, in_pauli, out_pauli)
    return 3.0 ** in_pauli.weight * numer / len(records)


def pauli_from_codes(codes):
    return PauliString.from_label("".join("IXYZ"[c] for c in codes))


def table_index(in_pauli, out_pauli):
    index = 0
    for j in range(in_pauli.n):
        index = index * 16 + in_pauli.letter_code(j) * 4 + out_pauli.letter_code(j)
    return index


@st.composite
def records_and_pairs(draw, n_min=1, n_max=6):
    n = draw(st.integers(n_min, n_max))
    count = draw(st.integers(1, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    codes = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(codes, codes), min_size=1, max_size=6))
    pairs = [(pauli_from_codes(a), pauli_from_codes(b)) for a, b in pairs]
    return random_records(n, count, seed), pairs


# -- lookups against the brute force ------------------------------------------


@PROPERTY
@given(records_and_pairs())
def test_transfer_entries_match_brute_force(read_pairs, case):
    # Pairs are unrestricted: below-block (|P| > |Q|), Q = I and, past four
    # qubits, union supports wider than the cap are drawn too.
    records, pairs = case
    got = read_pairs(fixed_stream(records, BLOCK_ROWS), pairs)
    assert got.tolist() == [brute_entry(records, p, q) for p, q in pairs]


@PROPERTY
@given(records_and_pairs())
def test_estimate_x_matches_brute_force(case):
    # x_hat(Q) = numer / N, and the eigenvalue estimate is 3^|Q| x_hat(Q)
    records, pairs = case
    stream = fixed_stream(records, BLOCK_ROWS)
    strings = [q for _, q in pairs]
    codes = letter_codes(strings, stream.n)
    total, numers = shadows._numerators(stream, 5 * codes)
    assert total == len(records)
    assert (numers / total).tolist() == [brute_numerator(records, q, q) / total for q in strings]
    est = estimate_eigenvalues(stream, strings)
    assert [est[q] for q in strings] == [brute_entry(records, q, q) for q in strings]


@PROPERTY
@given(records_and_pairs(n_max=4))
def test_counts_moment_table_matches_brute_force(counts_of, case):
    records, pairs = case
    n = records.shape[1]
    table = shadows._moment_table(counts_of(records), n, len(records))
    assert table.shape == (16**n,)
    assert table[0] == len(records)  # the all-identity moment counts records
    for p, q in pairs:
        assert table[table_index(p, q)] == brute_numerator(records, p, q)
    # Up to the cap, every pair is read from the whole register's table.
    digits = np.array(list(np.ndindex((16,) * n)), np.int8).reshape(-1, n)
    stream = fixed_stream(records, BLOCK_ROWS)
    np.testing.assert_array_equal(shadows._numerators(stream, digits)[1], table)


def test_wide_union_supports_past_the_cap(read_pairs):
    # weight-3 strings on disjoint supports: union weight 6 splits into a
    # two-qubit head and a four-qubit tail
    records = random_records(6, 400, seed=61)
    pairs = [(PauliString.from_label(p), PauliString.from_label(q)) for p, q in [
        ("XYZIII", "IIIZYX"), ("ZZZIII", "IIIXXX"), ("XIYIZI", "IXIYIZ"),
        ("YYIIII", "YIZIIX"), ("IIIIIZ", "ZIIIIZ")]]
    assert read_pairs(fixed_stream(records, BLOCK_ROWS), pairs).tolist() == [brute_entry(records, p, q) for p, q in pairs]


def test_transfer_matrix_past_the_cap_matches_brute_force():
    records = random_records(5, 300, seed=5)
    m = estimate_transfer_matrix(fixed_stream(records, BLOCK_ROWS), 2)
    assert m.basis == tuple(enumerate_low_weight(5, 2))
    for col, q in enumerate(m.basis):
        for row, p in enumerate(m.basis):
            if q.is_identity:
                want = 1.0 if p.is_identity else 0.0
            elif p.weight > q.weight:
                want = 0.0  # pinned below the block diagonal
            else:
                want = brute_entry(records, p, q)
            assert m.matrix[row, col] == want, (p, q)
    # At k = 3 a union support reaches six qubits, past the four-qubit table:
    # a seeded sample of the estimated entries, with many wide unions.
    records = random_records(6, 300, seed=63)
    m = estimate_transfer_matrix(fixed_stream(records, BLOCK_ROWS), 3)
    weights = np.array([p.weight for p in m.basis])
    cols, rows = np.nonzero((weights[None, :] <= weights[:, None]) & (weights[:, None] > 0))
    picks = np.random.default_rng(63).choice(len(rows), 2000, replace=False)
    wide = 0
    for row, col in zip(rows[picks], cols[picks]):
        p, q = m.basis[row], m.basis[col]
        wide += (p.x | p.z | q.x | q.z).bit_count() > 4
        assert m.matrix[row, col] == brute_entry(records, p, q), (p, q)
    assert wide >= 500


def test_eigenvalues_past_the_cap_match_brute_force():
    records = random_records(7, 500, seed=7)
    est = estimate_eigenvalues(fixed_stream(records, BLOCK_ROWS), enumerate_low_weight(7, 3))
    assert list(est) == list(enumerate_low_weight(7, 3))
    for p in enumerate_low_weight(7, 3):
        assert est[p] == (1.0 if p.is_identity else brute_entry(records, p, p))


def damping_stream(n, count, seed):
    """A stream of 700-record blocks from an amplitude-damping channel, whose
    transfer matrices have entries off the diagonal."""
    channel = ProductChannel([amplitude_damping_ptm(0.05 * (j + 1)) for j in range(n)])
    return iter_channel_shadow_blocks(channel, count, seed, block_size=700)


def test_records_and_counts_sources_agree_exactly(counts_of, hist_of, read_pairs):
    """Every estimator reads a sampled stream's records, served again in
    blocks of another size, as it reads the stream that drew them, bitwise:
    up to the cap both are counted into one histogram where each block is
    drawn, and past it both are drawn into records qubit by qubit."""
    for n, k in ((1, 1), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (6, 3)):
        stream = damping_stream(n, 2000, seed=44 + n)
        records = serial_records(stream)
        if n <= 4:
            np.testing.assert_array_equal(hist_of(stream), counts_of(records))
        else:
            np.testing.assert_array_equal(stream.records(), records)
        fixed = fixed_stream(records, 300)
        basis = enumerate_low_weight(n, k)
        a, c = estimate_eigenvalues(fixed, basis), estimate_eigenvalues(stream, basis)
        assert a == c and len(stream) == 2000
        a, c = estimate_transfer_matrix(fixed, k), estimate_transfer_matrix(stream, k)
        assert a.matrix[1, 1] == brute_entry(records, a.basis[1], a.basis[1])
        assert a.matrix[1, -1] == brute_entry(records, a.basis[1], a.basis[-1])
        np.testing.assert_array_equal(a.matrix, c.matrix)
        # estimated pairs, and below-block and identity-column ones, which the matrix pins
        b = a.basis
        pairs = [(b[1], b[-1]), (b[-1], b[-1]), (b[-1], b[1]), (b[1], b[0])]
        np.testing.assert_array_equal(read_pairs(fixed, pairs), read_pairs(stream, pairs))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_empty_stream_raises_on_either_side_of_the_cap(n):
    # no records to count up to the cap, nor to read past it
    for source in (damping_stream(n, 0, seed=1), fixed_stream(np.empty((0, n), np.uint8), 64)):
        with pytest.raises(ValueError, match="no records"):
            estimate_eigenvalues(source, enumerate_low_weight(n, 2))
        with pytest.raises(ValueError, match="no records"):
            estimate_transfer_matrix(source, 2)


# -- gate estimates ------------------------------------------------------------


def test_gate_eigenvalues_from_records_equal_counts_and_brute_force():
    for kind in ("H", "S", "CNOT"):
        stream = sample_gate_shadows(kind, None, 3000, seed=17)
        records = serial_records(stream)
        from_records = estimate_gate_eigenvalues(fixed_stream(records, 500), kind)
        from_stream = estimate_gate_eigenvalues(stream, kind)
        assert from_records == from_stream
        assert from_records[PauliString.identity(stream.n)] == 1.0
        qubits = tuple(range(stream.n))
        for p in list(iter_all_paulis(stream.n))[1:]:
            back = conjugate_pauli(kind, qubits, p)
            numer = brute_numerator(records, back, p)
            assert from_records[p] == back.sign * 3.0**back.weight * numer / len(records)


# -- every estimator, pinned ----------------------------------------------------

# SHA-256 of the float64 bytes of every estimate in ``estimates_digest``,
# recorded before the estimators read their pairs through one function.  A
# change to a numerator, to the 3^|P| / N scaling or to its order of
# operations changes it.
ESTIMATES_SHA256 = "f4e26eccde19a7084f898412dec45976a285d50eb33f3bbbf6f84545efc23271"


def digest_channel(kind, n):
    if kind == "ptm-product":
        return ProductChannel([amplitude_damping_ptm(0.05 * (j + 1))
                               @ depolarizing_ptm(0.97 - 0.01 * j) for j in range(n)])
    return PauliChannel.from_qubit_probs([(0.9 - 0.01 * j, 0.03, 0.04 + 0.01 * j, 0.03)
                                          for j in range(n)])


def estimates_digest():
    """Weight <= 2 eigenvalues and transfer matrices of channel streams on
    either side of the cap, and gate eigenvalues, each from the stream and
    from its records served in blocks of another size."""
    digest = hashlib.sha256()
    for kind in ("ptm-product", "pauli-product"):
        for n in (1, 2, 4, 5, 6):
            stream = iter_channel_shadow_blocks(digest_channel(kind, n), 3000, 40 + n, 700)
            k = min(n, 2)
            basis = enumerate_low_weight(n, k)
            for source in (stream, fixed_stream(stream.records(), 300)):
                est = estimate_eigenvalues(source, basis)
                digest.update(np.array([est[p] for p in basis]).tobytes())
                digest.update(estimate_transfer_matrix(source, k).matrix.tobytes())
    gates = [("H", None), ("S", PauliChannel.from_qubit_probs([(0.92, 0.02, 0.02, 0.04)])),
             ("CNOT", PauliChannel.from_terms(2, {"XX": 0.02, "ZI": 0.03, "IY": 0.01}))]
    for kind, noise in gates:
        stream = sample_gate_shadows(kind, noise, 3000, seed=17, block_size=700)
        for source in (stream, fixed_stream(stream.records(), 300)):
            # Every string but the identity, as the digest was recorded.
            values = list(estimate_gate_eigenvalues(source, kind).values())[1:]
            digest.update(np.array(values).tobytes())
    return digest.hexdigest()


def test_estimates_match_golden_digest():
    assert estimates_digest() == ESTIMATES_SHA256


def test_spam_factor_golden_values():
    # The unflipped one-qubit identity's X estimate, as calibration reads it.
    x = PauliString.from_label("X")
    stream = iter_channel_shadow_blocks(PauliChannel.identity(1), 50_000, seed=2)
    assert estimate_eigenvalues(stream, [x])[x] == 1.02474


# -- the float64 contraction against the int64 one ------------------------------


def moment_table_int64(hist, w):
    """The int64 contraction the BLAS one replaced, kept as its reference:
    the last qubit axis first, exact for any int64 histogram."""
    table = hist.astype(np.int64)
    for i in range(w):
        table = np.matmul(shadows._CELL_FACTORS, table.reshape(36 ** (w - 1 - i), 36, 16**i))
    return table.reshape(-1)


@pytest.mark.parametrize("w", [0, 1, 2, 3, 4])
def test_moment_table_equals_int64_contraction(w):
    rng = np.random.default_rng(70 + w)
    counts = rng.integers(0, 1000, 36**w)
    # Past the cap a histogram is weighted by head factors: signed, float.
    weighted = (rng.integers(-9, 10, 36**w) * rng.integers(0, 50, 36**w)).astype(np.float64)
    for hist in (counts, counts.astype(np.int32), weighted, np.zeros(36**w, np.int64)):
        got = shadows._moment_table(hist, w, np.abs(hist).sum())
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, moment_table_int64(hist, w))


@pytest.mark.parametrize("w", [1, 2, 4])
def test_moment_table_is_exact_up_to_the_bound_and_raises_past_it(w):
    rng = np.random.default_rng(80 + w)
    limit = (2**53 - 1) // 3**w  # the largest total absolute count allowed
    hist = np.zeros(36**w, np.int64)
    cells = rng.choice(36**w, 5, replace=False)
    hist[cells[:4]] = rng.integers(1, 1000, 4)
    hist[cells[4]] = limit - hist.sum()
    table = shadows._moment_table(hist, w, np.abs(hist).sum())
    np.testing.assert_array_equal(table, moment_table_int64(hist, w))
    hist[cells[4]] = -hist[cells[4]]  # the bound is on the absolute count
    table = shadows._moment_table(hist, w, np.abs(hist).sum())
    np.testing.assert_array_equal(table, moment_table_int64(hist, w))
    hist[cells[0]] += np.sign(hist[cells[0]])
    with pytest.raises(ValueError, match="2\\^53"):
        shadows._moment_table(hist, w, np.abs(hist).sum())


def test_past_the_cap_bound_covers_the_weighted_histogram(monkeypatch):
    """The bound passed for each union support, 3^|head| N, is at least its
    weighted histogram's total absolute count, the bound the guard needs."""
    calls = []
    moment_table = shadows._moment_table

    def spy(hist, w, bound):
        calls.append((w, bound, np.abs(hist).sum()))
        return moment_table(hist, w, bound)

    monkeypatch.setattr(shadows, "_moment_table", spy)
    s_axis, s_sign, t_axis, t_sign = fields(random_records(7, 300, 90))
    # Every measurement along Z: a head digit (I, Z) has factor +-3 on every
    # record, so supports with such heads reach the bound.
    along_z = records_from_fields(s_axis, s_sign, np.full_like(t_axis, 2), t_sign)
    estimate_transfer_matrix(fixed_stream(along_z, BLOCK_ROWS), 3)
    assert {w for w, _, _ in calls} == {1, 2, 3, 4}
    assert all(bound >= total for _, bound, total in calls)
    assert any(bound == total > 300 for _, bound, total in calls)


# -- one histogram, added to in any order --------------------------------------


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 200), st.integers(0, 200), st.integers(0, 2**32 - 1))
def test_moment_table_follows_merge(counts_of, n, first, second, seed):
    # The table is linear in the histogram: the table of two summed
    # histograms is the sum of their tables, and the whole records' table.
    records = random_records(n, first + second, seed)
    whole = shadows._moment_table(counts_of(records), n, len(records))
    head, tail = counts_of(records[:first]), counts_of(records[first:])
    summed = shadows._moment_table(head + tail, n, len(records))
    np.testing.assert_array_equal(summed, whole)
    np.testing.assert_array_equal(
        summed, shadows._moment_table(head, n, first) + shadows._moment_table(tail, n, second))
    assert summed[0] == first + second


@PROPERTY
@given(st.integers(1, 4), st.lists(st.integers(0, 150), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_merged_histograms_equal_the_concatenated_records(counts_of, n, sizes, seed):
    # Batches counted into one histogram, in either order, give the
    # histogram of their concatenation.
    parts = [random_records(n, size, seed + i) for i, size in enumerate(sizes)]
    whole = counts_of(np.concatenate(parts))
    for order in (parts, parts[::-1]):
        hist = np.zeros(36**n, np.int32)
        for part in order:
            fixed_stream(part, BLOCK_ROWS).count_into(hist)
        np.testing.assert_array_equal(hist, whole)
    assert whole.sum() == sum(sizes)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_records_count_into_equals_the_bincount_reference(counts_of, n, dtype):
    records = random_records(n, 3000, seed=30 + n)
    hist = np.zeros(36**n, dtype)
    fixed_stream(records, 700).count_into(hist)
    assert hist.dtype == dtype
    np.testing.assert_array_equal(hist, counts_of(records))


def test_counts_of_many_records_equal_the_sum_of_small_blocks(counts_of, hist_of):
    # 215 blocks of 700 records, each added to the histogram where it is drawn
    stream = damping_stream(3, 150_000, seed=9)
    whole = counts_of(stream.records())
    np.testing.assert_array_equal(hist_of(stream), whole)
    assert whole.sum() == 150_000
