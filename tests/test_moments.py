"""Moment tables against a per-record brute force, and records text I/O.

Every estimator reads an exact integer numerator off a moment table: the
table of the joint histogram up to the cap, or past it the table of each
union support's marginal histogram.  The oracle here is the mask scan: for
each (input, output) Pauli pair, mask the records whose prepared and
measured axes match every letter and sum their sign parities.  Both sides
are exact integers, so they must agree bit for bit on any records, on either
side of the cap.  Property tests are derandomized, so every run draws the
same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulishadow import shadows
from paulishadow.clifford import conjugate_pauli
from paulishadow.paulis import PauliString, enumerate_low_weight, iter_all_paulis
from paulishadow.shadows import (
    AXES,
    ShadowCounts,
    ShadowRecords,
    estimate_eigenvalues,
    estimate_gate_eigenvalues,
    estimate_transfer_entry,
    estimate_transfer_matrix,
    estimate_x,
    sample_gate_shadows,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def random_records(n, count, seed):
    rng = np.random.default_rng(seed)
    shape = (count, n)
    return ShadowRecords(
        rng.integers(0, 3, shape, dtype=np.int8),
        (1 - 2 * rng.integers(0, 2, shape)).astype(np.int8),
        rng.integers(0, 3, shape, dtype=np.int8),
        (1 - 2 * rng.integers(0, 2, shape)).astype(np.int8),
    )


def brute_match_sum(records, in_pauli, out_pauli):
    """Sum over records of the signed match indicator of (P against s, Q against t)."""
    mask = np.ones(len(records), dtype=bool)
    parity = np.ones(len(records), dtype=np.int64)
    for j in range(records.n):
        code = in_pauli.letter_code(j)
        if code:
            mask &= records.s_axis[:, j] == code - 1
            parity = parity * records.s_sign[:, j]
        code = out_pauli.letter_code(j)
        if code:
            mask &= records.t_axis[:, j] == code - 1
            parity = parity * records.t_sign[:, j]
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
def test_transfer_entries_match_brute_force(case):
    # Pairs are unrestricted: below-block (|P| > |Q|) and, past four qubits,
    # union supports wider than the cap are drawn too.
    records, pairs = case
    for p, q in pairs:
        got = estimate_transfer_entry(records, p, q)
        if q.is_identity:
            assert got == (1.0 if p.is_identity else 0.0)
        else:
            assert got == brute_entry(records, p, q)


@PROPERTY
@given(records_and_pairs())
def test_estimate_x_matches_brute_force(case):
    records, pairs = case
    for _, q in pairs:
        got = estimate_x(records, q)
        assert got == brute_numerator(records, q, q) / len(records)


@PROPERTY
@given(records_and_pairs(n_max=4))
def test_counts_moment_table_matches_brute_force(case):
    records, pairs = case
    table = ShadowCounts.from_records(records).moments()
    assert table.shape == (16**records.n,)
    assert table[0] == len(records)  # the all-identity moment counts records
    for p, q in pairs:
        assert table[table_index(p, q)] == brute_numerator(records, p, q)


def test_wide_union_supports_past_the_cap():
    # weight-3 strings on disjoint supports: union weight 6 splits into a
    # two-qubit head and a four-qubit tail
    records = random_records(6, 400, seed=61)
    for p, q in [("XYZIII", "IIIZYX"), ("ZZZIII", "IIIXXX"), ("XIYIZI", "IXIYIZ"),
                 ("YYIIII", "YIZIIX"), ("IIIIIZ", "ZIIIIZ")]:
        p, q = PauliString.from_label(p), PauliString.from_label(q)
        got = estimate_transfer_entry(records, p, q)
        assert got == brute_entry(records, p, q)


def test_transfer_matrix_past_the_cap_matches_brute_force():
    records = random_records(5, 300, seed=5)
    m = estimate_transfer_matrix(records, 5, 2)
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


def test_eigenvalues_past_the_cap_match_brute_force():
    records = random_records(7, 500, seed=7)
    est = estimate_eigenvalues(records, 7, 3)
    assert est.n_records == 500
    for p in enumerate_low_weight(7, 3):
        if not p.is_identity:
            assert est[p] == brute_entry(records, p, p)


def test_records_and_counts_sources_agree_exactly():
    records = random_records(3, 2000, seed=44)
    counts = ShadowCounts.from_records(records)
    a = estimate_transfer_matrix(records, 3, 2)
    b = estimate_transfer_matrix(counts, 3, 2)
    c = estimate_transfer_matrix(iter([records[:700], records[700:]]), 3, 2)
    assert a.matrix[1, 1] == brute_entry(records, a.basis[1], a.basis[1])
    np.testing.assert_array_equal(a.matrix, b.matrix)
    np.testing.assert_array_equal(a.matrix, c.matrix)
    # Past the cap a stream is joined into records: the same numbers, bitwise.
    for n in (5, 6):
        records = random_records(n, 2000, seed=44 + n)

        def stream():
            return iter([records[:700], records[700:1999], records[1999:]])

        a, c = estimate_eigenvalues(records, n, 2), estimate_eigenvalues(stream(), n, 2)
        assert a.values == c.values and c.n_records == 2000
        a, c = estimate_transfer_matrix(records, n, 2), estimate_transfer_matrix(stream(), n, 2)
        assert a.matrix[1, 1] == brute_entry(records, a.basis[1], a.basis[1])
        np.testing.assert_array_equal(a.matrix, c.matrix)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_empty_stream_raises_on_either_side_of_the_cap(n):
    # no records to count up to the cap, nothing to join past it
    for estimate in (estimate_eigenvalues, estimate_transfer_matrix):
        with pytest.raises(ValueError, match="no records"):
            estimate(iter([]), n, 2)


# -- gate estimates ------------------------------------------------------------


def test_gate_eigenvalues_from_records_equal_counts_and_brute_force():
    for kind in ("H", "S", "CNOT"):
        records = ShadowRecords.concatenate(list(sample_gate_shadows(kind, None, 3000, seed=17)))
        from_records = estimate_gate_eigenvalues(records, kind)
        from_counts = estimate_gate_eigenvalues(ShadowCounts.from_records(records), kind)
        assert from_records.values == from_counts.values
        qubits = tuple(range(records.n))
        for p in iter_all_paulis(records.n):
            if p.is_identity:
                continue
            back = conjugate_pauli(kind, qubits, p)
            numer = brute_numerator(records, back, p)
            assert from_records[p] == back.sign * 3.0**back.weight * numer / len(records)


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
    for hist in (counts, weighted, np.zeros(36**w, np.int64)):
        got = shadows._moment_table(hist, w)
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
    np.testing.assert_array_equal(shadows._moment_table(hist, w), moment_table_int64(hist, w))
    hist[cells[4]] = -hist[cells[4]]  # the bound is on the absolute count
    np.testing.assert_array_equal(shadows._moment_table(hist, w), moment_table_int64(hist, w))
    hist[cells[0]] += np.sign(hist[cells[0]])
    with pytest.raises(ValueError, match="2\\^53"):
        shadows._moment_table(hist, w)


# -- the table after update and merge ------------------------------------------


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 200), st.integers(0, 200), st.integers(0, 2**32 - 1))
def test_moment_table_follows_update_and_merge(n, first, second, seed):
    records = random_records(n, first + second, seed)
    whole = ShadowCounts.from_records(records).moments()
    counts = ShadowCounts.from_records(records[:first])
    before = counts.moments()
    other = ShadowCounts.from_records(records[first:])
    merged = counts.merge(other)
    np.testing.assert_array_equal(merged.moments(), whole)
    np.testing.assert_array_equal(counts.moments(), before)  # merge leaves its inputs
    counts.update(records[first:])
    np.testing.assert_array_equal(counts.moments(), whole)
    assert counts.moments()[0] == first + second


@PROPERTY
@given(st.integers(1, 4), st.lists(st.integers(0, 150), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_merged_histograms_equal_the_concatenated_records(n, sizes, seed):
    parts = [random_records(n, size, seed + i) for i, size in enumerate(sizes)]
    merged = ShadowCounts(n)
    for part in parts:
        merged = merged.merge(ShadowCounts.from_records(part))
    whole = ShadowCounts.from_records(ShadowRecords.concatenate(parts))
    np.testing.assert_array_equal(merged.counts, whole.counts)
    assert merged.n_records == whole.n_records == sum(sizes)


def test_counts_of_many_records_equal_the_sum_of_small_blocks():
    # from_records reduces a large batch in bounded chunks
    records = random_records(3, 150_000, seed=9)
    whole = ShadowCounts.from_records(records)
    blocks = (records[i : i + 7000] for i in range(0, len(records), 7000))
    parts = ShadowCounts.accumulate(blocks, 3)
    np.testing.assert_array_equal(whole.counts, parts.counts)
    assert whole.n_records == parts.n_records == 150_000


# -- records text format -------------------------------------------------------


def per_character_lines(records):
    """The text format written one character at a time."""
    out = []
    for i in range(len(records)):
        halves = []
        for axis, sign in ((records.s_axis, records.s_sign), (records.t_axis, records.t_sign)):
            halves.append("".join(
                AXES[axis[i, j]] + ("+" if sign[i, j] > 0 else "-") for j in range(records.n)
            ))
        out.append(f"s:{halves[0]} t:{halves[1]}")
    return out


def test_save_matches_per_character_writer(tmp_path):
    records = random_records(3, 10_000, seed=3)
    path = tmp_path / "records.txt"
    records.save(path)
    assert path.read_bytes() == ("\n".join(per_character_lines(records)) + "\n").encode()


def assert_same_records(a, b):
    for field in ("s_axis", "s_sign", "t_axis", "t_sign"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert getattr(b, field).dtype == np.int8


def test_records_text_round_trip_twelve_qubits(tmp_path):
    records = random_records(12, 3000, seed=12)
    path = tmp_path / "records.txt"
    records.save(path)
    assert_same_records(records, ShadowRecords.load(path))


@PROPERTY
@given(st.integers(1, 8), st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_records_text_round_trip(n, count, seed):
    records = random_records(n, count, seed)
    lines = records.to_lines()
    assert lines == per_character_lines(records)
    noisy = ["# header", ""] + ["  " + line.replace(" ", "\t") + " " for line in lines]
    assert_same_records(records, ShadowRecords.from_lines(noisy))


def test_records_text_rejects_other_qubit_counts():
    # the first record fixes n; a later line with more or fewer qubits fails
    for lines in (["s:Z+ t:Z-", "s:Z+ t:Z-Y+"], ["s:Z+X- t:Z-Y+", "s:Z+ t:Z-"],
                  ["# n=1", "s:X- t:Y+", "s:Z+ t:Z- t:Z-"]):
        with pytest.raises(ValueError, match=f"line {len(lines)}:"):
            ShadowRecords.from_lines(lines)
