"""Shadow sampling, estimators, counts statistic, planner, and gate shadows.

Monte Carlo assertions use fixed seeds and tolerances a few standard
deviations wide, so they are deterministic; exactness claims (estimator
values, counts-vs-records agreement, unbiasedness enumerations) are checked
to 1e-12 or exactly.
"""

import contextlib
import hashlib
import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from paulishadow import channels, exact, shadows
from paulishadow.channels import (
    PauliChannel,
    ProductChannel,
    amplitude_damping_ptm,
    depolarizing_ptm,
    exact_diagonal,
    exact_transfer_matrix,
    reference_product_channel,
)
from paulishadow.clifford import CliffordCircuit, exact_gate_estimates
from paulishadow.observables import heisenberg_observable
from paulishadow.paulis import PauliString, enumerate_low_weight
from paulishadow.shadows import (
    DEFAULT_BLOCK_SIZE,
    ShadowRecords,
    block_rng,
    estimate_eigenvalues,
    estimate_gate_eigenvalues,
    estimate_spam_factor,
    estimate_state_expectations,
    estimate_transfer_matrix,
    iter_channel_shadow_blocks,
    plan_sample_size,
    sample_gate_shadows,
)

from reference import maximally_mixed, product_eigenstate, records_from_fields


def P(label):
    return PauliString.from_label(label)


# -- record container ----------------------------------------------------------


def test_records_slicing_and_concat():
    r = iter_channel_shadow_blocks(PauliChannel.identity(2), 100, seed=1).records()
    assert len(r) == 100 and r.n == 2
    front, back = r[:40], r[40:]
    both = ShadowRecords.concatenate([front, back])
    np.testing.assert_array_equal(both.s_axis, r.s_axis)
    np.testing.assert_array_equal(both.t_sign, r.t_sign)
    single = r[7]
    assert len(single) == 1


def test_records_index_and_iterate_like_a_sequence():
    r = iter_channel_shadow_blocks(PauliChannel.identity(2), 5, seed=1).records()
    np.testing.assert_array_equal(r[-1].cells, r.cells[4:])
    np.testing.assert_array_equal(r[-5].cells, r.cells[:1])
    np.testing.assert_array_equal(r[np.int64(3)].cells, r.cells[3:4])
    for bad in (5, -6, np.int32(5)):
        with pytest.raises(IndexError):
            r[bad]
    items = list(r)
    assert len(items) == 5
    np.testing.assert_array_equal(np.concatenate([b.cells for b in items]), r.cells)


# -- sampling determinism ------------------------------------------------------


def test_sampling_is_deterministic():
    ch = reference_product_channel()
    a = iter_channel_shadow_blocks(ch, 3000, seed=5).records()
    b = iter_channel_shadow_blocks(ch, 3000, seed=5).records()
    np.testing.assert_array_equal(a.s_axis, b.s_axis)
    np.testing.assert_array_equal(a.t_sign, b.t_sign)
    c = iter_channel_shadow_blocks(ch, 3000, seed=6).records()
    assert not np.array_equal(a.t_sign, c.t_sign)


def test_sampling_prefix_stability():
    # record i depends only on (seed, block size, i), not on the total record count
    ch = reference_product_channel()
    small = iter_channel_shadow_blocks(ch, 1000, seed=12).records()
    big = iter_channel_shadow_blocks(ch, 70_000, seed=12).records()  # spans two blocks
    np.testing.assert_array_equal(big.s_axis[:1000], small.s_axis)
    np.testing.assert_array_equal(big.s_sign[:1000], small.s_sign)
    np.testing.assert_array_equal(big.t_axis[:1000], small.t_axis)
    np.testing.assert_array_equal(big.t_sign[:1000], small.t_sign)


def test_block_iteration_matches_batch():
    ch = reference_product_channel()
    blocks = list(iter_channel_shadow_blocks(ch, 70_000, seed=4))
    assert len(blocks) == 2 and len(blocks[0]) == 65536
    merged = ShadowRecords.concatenate(blocks)
    batch = iter_channel_shadow_blocks(ch, 70_000, seed=4).records()
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
    return records_from_fields(s_axis, s_sign, t_axis, t_sign)


# Record count and widths by block size.  1000 records end in a partial
# block of 64 and in none of 250.  The benchmark's shape, 70,000 records of
# four qubits, is a full block, whose base-3 draws each drop about 1,000 zero
# bytes, then a partial one.
PER_QUBIT_RUNS = {64: (1000, range(1, 6)), 250: (1000, range(1, 6)),
                  DEFAULT_BLOCK_SIZE: (70_000, (4,))}


@pytest.mark.parametrize("spam", [0.0, 0.1])
@pytest.mark.parametrize("block_size", sorted(PER_QUBIT_RUNS))
def test_ptm_sampling_matches_per_qubit_reference(random_cp_ptm, counts_of, hist_of,
                                                  block_size, spam):
    count, widths = PER_QUBIT_RUNS[block_size]
    rng = np.random.default_rng(17)
    for n in widths:
        ch = ProductChannel([random_cp_ptm(rng) for _ in range(n)])
        stream = iter_channel_shadow_blocks(ch, count, seed=n, block_size=block_size,
                                            spam_flip_probability=spam)
        got = stream.records()
        blocks = -(-count // block_size)
        want = ShadowRecords.concatenate([
            _sample_ptm_block_per_qubit(ch, block_rng(n, b), block_size, spam)
            for b in range(blocks)
        ])[:count]
        for field in ("s_axis", "s_sign", "t_axis", "t_sign"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        if n <= shadows.COUNTS_QUBIT_CAP:
            np.testing.assert_array_equal(hist_of(stream), counts_of(want))


def test_every_cell_decodes_and_encodes_back():
    cells = np.arange(36, dtype=np.uint8).reshape(36, 1)
    records = ShadowRecords(cells)
    fields = (records.s_axis, records.s_sign, records.t_axis, records.t_sign)
    assert all(f.dtype == np.int8 and f.shape == (36, 1) for f in fields)
    s_axis, s_sign, t_axis, t_sign = (f[:, 0].astype(int) for f in fields)
    assert set(s_axis) == set(t_axis) == {0, 1, 2} and set(s_sign) == set(t_sign) == {-1, 1}
    # the documented code: mixed radix (3, 2, 3, 2), a negative sign as bit 1
    code = ((s_axis * 2 + (s_sign < 0)) * 3 + t_axis) * 2 + (t_sign < 0)
    np.testing.assert_array_equal(code, np.arange(36))
    encoded = records_from_fields(*fields).cells
    assert encoded.dtype == np.uint8
    np.testing.assert_array_equal(encoded, cells)


def test_concatenate_streams_into_one_array():
    ch = reference_product_channel()
    blocks = list(iter_channel_shadow_blocks(ch, 1000, seed=3, block_size=300))
    listed = ShadowRecords.concatenate(blocks)
    assert listed.cells.dtype == np.uint8
    recorded = iter_channel_shadow_blocks(ch, 1000, 3, 300).records()
    np.testing.assert_array_equal(recorded.cells, listed.cells)
    empty = iter_channel_shadow_blocks(ch, 0, seed=3).records()
    assert len(empty) == 0 and empty.n == 2


# -- golden records ------------------------------------------------------------

# SHA-256 of the records' C-ordered (N, n) uint8 cells under fixed seeds.
# They were pinned from the same records as the digests of the former text
# format, which were recorded when records were still written as four int8
# arrays; at fixed n the cells and the text are one-to-one.  Any change to the
# random draws, their order, or the sign and axis conventions changes a digest.
GOLDEN_CELLS_SHA256 = {
    "CNOT-ideal-b250": "9bc5943b3c33bba01faca2c0d8aa226fdd436d6695dd230f770390e53ac01b7e",
    "CNOT-ideal-b64": "a423006d91930cdfecf9264f048483f049720c9fd4e0f4370a78bfdeca110382",
    "CNOT-ideal-b65536": "dca8b5f5be75c493d6b1874968de44b91f0a4f4e5c83aee257913ef48efac7c9",
    "CNOT-noisy-b250": "72343d3366f40f12e1f12529c48f92b9812529d1041f63b3a7bbffc9d12978fb",
    "CNOT-noisy-b64": "9e93aa5de2961ac15b4d00ce30e442e843fe630a9d4412c0ff69b83ca50b8346",
    "CNOT-noisy-b65536": "525ae1126ca378abfda9ca5bcc9500e393889ebb7f3dfff412c43407ec69a12e",
    "H-ideal-b250": "86d8a3c5566618cfad08fb1d0ea56bef8da8341a591b72861be62fb660c6eebc",
    "H-ideal-b64": "aaa47894d92450a03fab80da448195f3f540c8f77446ee06099731c2a3aabd9c",
    "H-ideal-b65536": "2f266e3a7ef575b724639c90cc78496e5628d5ec2f82fb5435ee44f0ad317f49",
    "H-noisy-b250": "c8bee7a3f1c2e78e4b51a37d71078c60432434003587ba781a5618e0e0a846bf",
    "H-noisy-b64": "1a2474c2593567d1cebb80e1c79a78d504d27640ae0e9b43e82f924e85b3ebe2",
    "H-noisy-b65536": "3eb3c1cf53515ac5078a6cf8aca7864e041373e7628d233f18fb79f2f994be97",
    "S-ideal-b250": "4d27a9efa0f1e101a187cc6da09064142df22ebf07fe9c04ed344f7864ab5189",
    "S-ideal-b64": "dfac4659dc38319084251d97f6e2b28cf047060af2ac9b3b2424b06f9f77e2c2",
    "S-ideal-b65536": "4c0a19db6b858969ca5fd4c6f204ad326c965f40f9995bd9718dbc796c19c43a",
    "S-noisy-b250": "6466c410579206f936588c3e8011dfc7117ee0da9e909c1caede486046b75536",
    "S-noisy-b64": "78756706957c43de85098ab43989bab1e70bbb65630b635aa1def5fb329410ae",
    "S-noisy-b65536": "505d16c5374960202cc68c563d669ecb7359323f7a1a2cdd39b1b7a61cb683d0",
    "pauli-product-spam0.0-b250": "b4cc8ea91a8505b46d6187712c0347baf028ce8eb11335f825c9491857a6b740",
    "pauli-product-spam0.0-b64": "e3ea90d815a607f3296f6dcc0727e71416483cd1a7f1c113f5a428ad7c7c0495",
    "pauli-product-spam0.0-b65536": "60843cd24072eb7b91e17d637798704adef7fc85e6b7e7d78c86454c71ea839c",
    "pauli-product-spam0.1-b250": "f104c8c4218800fd145a63f82b72302293c55d4fb152473ceae200af717cec37",
    "pauli-product-spam0.1-b64": "e09b1ed2b72f6e0b9476f829e0239fcdeef7ec851892931fcecbbe265e31a0f0",
    "pauli-product-spam0.1-b65536": "a306fb6ace1d112d53a3c26fd4eca287ea7366fac7b5c35e6d709dda25b85e58",
    "pauli-sparse-spam0.0-b250": "47378b1bba70823e6936cfe68224d6d65c02801ee90a37be4c527b6db1a9c10a",
    "pauli-sparse-spam0.0-b64": "16c0befe393a6cfe181fc43de1583d0a771ef80ab683462d8b0c2a8be4454f37",
    "pauli-sparse-spam0.0-b65536": "8d56e98c7ec207f72dd8c580aad0e42335149d88a54f89b0f67d1dd24a1fdd89",
    "pauli-sparse-spam0.1-b250": "5a1bb96ff12f386cbfbe2bcee8c40d8f1ca79f5ee219737c3af11efd9820c8aa",
    "pauli-sparse-spam0.1-b64": "dad6f7a821ece62818ac60096358bcd7533d848392b42a02aefec17c538b4791",
    "pauli-sparse-spam0.1-b65536": "0d929a3119a9eb9b4e629c8096c750bdc2ff01c13401bb0dc9572dca07b1ba96",
    "ptm-product-spam0.0-b250": "9861e57e43beb6c60dc5cf46a8dce29fbc86eb00206e202bef1c6da53ba9adff",
    "ptm-product-spam0.0-b64": "71a580b9f152b8a447a2f7ee89ca0bfb30b219586be6f81b0e8e898ff15c2344",
    "ptm-product-spam0.0-b65536": "2fe3106ceedaa416d158a7ffcd6b8244b088a3cbf1799159a59d297e4e44c864",
    "ptm-product-spam0.1-b250": "eda83be6872e89f125e9d8cf5b50b23752910f5fa1a3b1d70b8a69a415985cfc",
    "ptm-product-spam0.1-b64": "a41b0b4066e72ef7dd19d3f0b95857bb2c8157d4954fa807602df28318b492bf",
    "ptm-product-spam0.1-b65536": "3a42b76cfd1f0a7a33e04ce771a4c1dd9efba5dc25c2ac7ffe3a5444296c91c9",
}
_H_PTM = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]], float)
GOLDEN_CHANNELS = {
    "pauli-product": lambda: PauliChannel.from_qubit_probs(
        [(0.85, 0.05, 0.06, 0.04), (0.9, 0.02, 0.03, 0.05), (0.8, 0.1, 0.05, 0.05)]
    ),
    "pauli-sparse": lambda: PauliChannel.from_terms(
        3, {"XIZ": 0.05, "YYI": 0.03, "IZZ": 0.04, "ZII": 0.02}
    ),
    "ptm-product": lambda: ProductChannel(
        [amplitude_damping_ptm(0.3) @ _H_PTM, depolarizing_ptm(0.8), amplitude_damping_ptm(0.1)]
    ),
}
GOLDEN_GATE_NOISE = {
    "H": lambda: PauliChannel.from_qubit_probs([(0.9, 0.05, 0.03, 0.02)]),
    "S": lambda: PauliChannel.from_qubit_probs([(0.92, 0.02, 0.02, 0.04)]),
    "CNOT": lambda: PauliChannel.from_terms(2, {"XX": 0.02, "ZI": 0.03, "IY": 0.01}),
}
# record count by block size: every run ends in a partial block
GOLDEN_COUNTS = {64: 1001, 250: 1001, DEFAULT_BLOCK_SIZE: DEFAULT_BLOCK_SIZE + 4465}


def golden_records(case):
    source, variant, size = case.rsplit("-", 2)
    block_size = int(size[1:])
    count = GOLDEN_COUNTS[block_size]
    if source in GOLDEN_CHANNELS:
        spam = float(variant.removeprefix("spam"))
        stream = iter_channel_shadow_blocks(GOLDEN_CHANNELS[source](), count, 7, block_size, spam)
        return stream.records()
    noise = GOLDEN_GATE_NOISE[source]() if variant == "noisy" else None
    return ShadowRecords.concatenate(list(sample_gate_shadows(source, noise, count, 11, block_size)))


def cells_digest(records):
    return hashlib.sha256(np.ascontiguousarray(records.cells).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_CELLS_SHA256))
def test_saved_records_match_golden_digest(case):
    assert cells_digest(golden_records(case)) == GOLDEN_CELLS_SHA256[case]


# -- the draws and the helper threads the records must not depend on -------------


def test_draw_identities_the_samplers_rely_on(monkeypatch):
    # The gate sampler draws int32 digits where the records were pinned with
    # int64 ones, every sampler draws its uniforms in slices, and the channel
    # samplers read their digits and uniforms from the raw Philox stream.  A
    # numpy that breaks one of these identities fails here before it fails a
    # golden digest.
    for m in (2, 3, 6):
        for shape in ((1,), (1001,), (4097, 2)):
            a, b = block_rng(9, m), block_rng(9, m)
            np.testing.assert_array_equal(a.integers(0, m, shape, dtype=np.int32),
                                          b.integers(0, m, shape, dtype=np.int64))
            assert a.integers(0, m, dtype=np.int32) == b.integers(0, m)  # still in step
            assert a.random() == b.random()
    for k in (1, 2, 7, 1000, 1001):
        # 32-bit words in next_uint32 order: each 64-bit output's low half first
        a, b = block_rng(3, k), block_rng(3, k)
        words = a.integers(0, 1 << 32, k, dtype=np.uint32)
        raw = b.bit_generator.random_raw(-(-k // 2)).astype("<u8").view("<u4")
        np.testing.assert_array_equal(words, raw[:k])
        # random() is (raw >> 11) 2^-53, and a pending half-word survives it
        for _ in range(3):
            assert a.random() == (int(b.bit_generator.random_raw()) >> 11) * 2.0**-53
        if k % 2:
            assert a.integers(0, 1 << 32, dtype=np.uint32) == raw[k]
        assert a.integers(0, 1 << 32, dtype=np.uint32) == b.bit_generator.random_raw() & 0xFFFFFFFF
    for high in (2, 3):
        # digits and uniforms in turn: the reader's digits are numpy's int8
        # draw, and a half-word a digit draw leaves pending waits through the
        # uniforms, as numpy's does
        a, b = block_rng(5, high), block_rng(5, high)
        reader, pending = shadows._PhiloxReader(a), []
        for count in (3, 1000, 5):
            np.testing.assert_array_equal(reader.digits(high, (count,)),
                                          b.integers(0, high, count, dtype=np.int8).view(np.uint8))
            pending.append(reader.half is not None)
            np.testing.assert_array_equal(reader.uniform_ints(2) * 2.0**-53, b.random(2))
        assert any(pending)
    monkeypatch.setattr(channels, "UNIFORM_SLICE", 64)
    for shape in ((1000,), (333, 3), (5, 100)):
        a, b = block_rng(4, 1), block_rng(4, 1)
        a.integers(0, 3, 7, dtype=np.int8)  # a draw before, as in the samplers
        b.integers(0, 3, 7, dtype=np.int8)
        whole = a.random(shape)
        sliced = np.empty(shape)
        for rows, u in channels.uniform_slices(b, shape):
            sliced[rows] = u
        np.testing.assert_array_equal(sliced, whole)
        assert a.random() == b.random()


def test_uniform_thresholds_compare_like_the_doubles():
    # u = (raw >> 11) 2^-53 >= p exactly when raw >> 11 >= ceil(p 2^53),
    # checked on raw words at and beside each threshold's first and last word.
    # The edges are dyadic; at 0.1 and 1/3, p 2^53 is not an integer.
    for p in (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, 0.1, 1.0 / 3.0):
        threshold = int(shadows._uniform_thresholds(p))
        raws = [k * 2**11 + d for k in (threshold - 1, threshold, threshold + 1)
                for d in (-1, 0, 1) if 0 <= k * 2**11 + d < 2**64]
        raws = np.array(raws, np.uint64)
        np.testing.assert_array_equal((raws >> np.uint64(11)) >= shadows._uniform_thresholds(p),
                                      (raws >> np.uint64(11)) * 2.0**-53 >= p)
    np.testing.assert_array_equal(shadows._uniform_thresholds([-0.5, 0.0, 1.0, 1.5]),
                                  np.array([0, 0, 2**53, 2**53], np.uint64))


def assert_digits_match_int8_draw(reader, b, high, shape):
    """``reader``'s digits give ``b``'s int8 draw, and both streams end in
    step: the same pending half-word, and the same outputs after it."""
    np.testing.assert_array_equal(reader.digits(high, shape),
                                  b.integers(0, high, shape, dtype=np.int8).view(np.uint8))
    assert (reader.half is not None) == b.bit_generator.state["has_uint32"]
    np.testing.assert_array_equal(reader.digits(3, 5), b.integers(0, 3, 5, dtype=np.int8))
    assert reader.uniform_ints(1)[0] * 2.0**-53 == b.random()
    np.testing.assert_array_equal(reader.words(1), b.integers(0, 1 << 32, 1, dtype=np.uint32))


@pytest.mark.parametrize("high", [2, 3])
@pytest.mark.parametrize("before", [0, 3, 7])  # int8 digits drawn first; 3 leaves a half-word
def test_digits_drawn_as_words_match_numpys_int8_draw(high, before):
    # numpy's buffered Lemire draw of int8 reads the bytes of successive
    # 32-bit words; the reader draws the words whole from the raw stream and
    # must give the same digits and leave the stream where numpy's one call
    # would.
    for shape in ((1,), (3,), (1001,), (4097, 2), (65536, 4)):
        reader, b = shadows._PhiloxReader(block_rng(6, before)), block_rng(6, before)
        reader.digits(3, before)
        b.integers(0, 3, before, dtype=np.int8)
        pending = reader.half is not None
        assert pending == (before == 3)  # Philox keeps half of a 64-bit word
        assert pending == b.bit_generator.state["has_uint32"]
        assert_digits_match_int8_draw(reader, b, high, shape)


@pytest.mark.parametrize("high", [2, 3])
def test_digit_top_ups_skip_zero_bytes_like_numpy(high, monkeypatch):
    # One word per draw: every byte past the first four digits is a top-up.
    monkeypatch.setattr(shadows, "_DIGIT_WORDS", 1)
    count = 1001
    reader, b = shadows._PhiloxReader(block_rng(2, 5)), block_rng(2, 5)
    assert_digits_match_int8_draw(reader, b, high, (count,))
    # The first count bytes hold a zero, so a draw of 3 rejected it and topped up.
    words = block_rng(2, 5).integers(0, 1 << 32, count, dtype=np.uint32)
    assert (words.astype("<u4").view(np.uint8)[:count] == 0).any()


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_each_block_lands_in_its_own_rows(helpers, monkeypatch):
    monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)
    helper_drew, drawn_on = threading.Event(), {}

    def sample(rng):
        block = int(rng.bit_generator.state["state"]["counter"][2])  # counter = block << 128
        on_caller = threading.current_thread() is threading.main_thread()
        if not on_caller:
            helper_drew.set()
        elif helpers:  # the caller's first block waits until a helper has one
            assert helper_drew.wait(30)
        drawn_on[block] = on_caller
        cells = np.zeros((10, 2), np.uint8)
        cells[:, 0], cells[:, 1] = block, np.arange(10)  # (block, row in the block)
        return ShadowRecords(cells)

    stream = shadows.BlockStream(2, 95, 0, 10, sample, tally=None)
    want = np.stack([np.arange(95) // 10, np.arange(95) % 10], 1)
    np.testing.assert_array_equal(stream.records().cells, want)
    assert sorted(drawn_on) == list(range(10))
    assert (not all(drawn_on.values())) == (helpers > 0)
    # Iteration yields the same blocks in order, each drawn on the calling thread.
    drawn_on.clear()
    blocks = list(stream)
    assert [len(b) for b in blocks] == [10] * 9 + [5]
    np.testing.assert_array_equal(ShadowRecords.concatenate(blocks).cells, want)
    assert drawn_on == dict.fromkeys(range(10), True)


@contextlib.contextmanager
def fast_thread_switching():
    """Switch threads every microsecond, so a lost or repeated update shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_many_helpers_under_fast_thread_switching_keep_every_block(counts_of, hist_of,
                                                                   monkeypatch):
    # More helpers than cores, switching threads every microsecond: a block
    # lost, repeated or yielded out of order changes the records, and one
    # lost, repeated or raced in the count route changes the histogram.
    channel = GOLDEN_CHANNELS["ptm-product"]()
    monkeypatch.setattr(shadows, "_helper_count", lambda: 0)
    serial = iter_channel_shadow_blocks(channel, 5000, seed=6, block_size=64).records()
    monkeypatch.setattr(shadows, "_helper_count", lambda: 5)
    with fast_thread_switching():
        grouped = iter_channel_shadow_blocks(channel, 5000, seed=6, block_size=64).records()
        counted = hist_of(iter_channel_shadow_blocks(channel, 5000, seed=6, block_size=64))
    np.testing.assert_array_equal(grouped.cells, serial.cells)
    np.testing.assert_array_equal(counted, counts_of(serial))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_samples_with_its_own_helpers(monkeypatch):
    # The helper threads live for the process; a child forked after they
    # started has none, and must start its own instead of waiting forever.
    monkeypatch.setattr(shadows, "_helper_count", lambda: 1)
    channel = GOLDEN_CHANNELS["ptm-product"]()
    want = iter_channel_shadow_blocks(channel, 300, seed=2, block_size=64).records().cells
    pid = os.fork()
    if pid == 0:
        try:
            got = iter_channel_shadow_blocks(channel, 300, seed=2, block_size=64).records().cells
            os._exit(0 if np.array_equal(got, want) else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish sampling")
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_no_executor_module_is_imported_until_a_helper_samples():
    # concurrent.futures imports logging; a process that samples no helper
    # block, such as one on a single CPU, should not pay for either.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import paulishadow.cli\n"
        "from paulishadow import shadows\n"
        "from paulishadow.channels import reference_product_channel\n"
        "lazy = {'concurrent.futures', 'logging'}\n"
        "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
        "shadows._helper_count = lambda: 0\n"
        "shadows.iter_channel_shadow_blocks(reference_product_channel(), 300, 1, 64).records()\n"
        "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
        "shadows._helper_count = lambda: 1\n"
        "blocks = shadows.iter_channel_shadow_blocks(reference_product_channel(), 64, 1, 64)\n"
        "hist = np.zeros(36**2, np.int32)\n"
        "blocks.count_into(hist)\n"
        "assert hist.sum() == 64\n"
        "assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()\n"
    )
    src = os.path.dirname(os.path.dirname(shadows.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr


def check_sampler_fault_reaches_the_caller(route, helpers, faulty, monkeypatch, counts_of,
                                           hist_of):
    """A block that raises on the caller or on a helper while the stream is
    counted or recorded: its own exception reaches the caller after every
    helper has stopped, and the helpers are free for the next stream."""
    monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)

    class SamplerFault(RuntimeError):
        pass

    drawn = []

    def sample(rng):
        block = int(rng.bit_generator.state["state"]["counter"][2])
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (faulty == "caller"):
            raise SamplerFault(f"block drawn on the {faulty}")
        time.sleep(0.002)  # leaves the faulty thread time to take a block
        drawn.append(block)
        return ShadowRecords(np.full((1, 1), block % 36, np.uint8))

    stream = shadows.BlockStream(1, 400, 0, 1, sample, lambda rng, left: (sample(rng).cells[:, 0], 1))
    with pytest.raises(SamplerFault, match=f"^block drawn on the {faulty}$") as caught:
        if route == "records":
            stream.records()
        else:
            stream.count_into(np.zeros(36, np.int32))
    assert type(caught.value) is SamplerFault
    # No thread took a block once the fault was raised, and none is still
    # drawing: every helper stopped before the exception reached here.
    stopped = len(drawn)
    assert stopped < 100
    time.sleep(0.05)
    assert len(drawn) == stopped
    # The helpers are free for the next stream, which counts and records whole.
    fresh = iter_channel_shadow_blocks(GOLDEN_CHANNELS["pauli-sparse"](), 1001, 7, 64)
    serial = ShadowRecords.concatenate(list(fresh))
    np.testing.assert_array_equal(fresh.records().cells, serial.cells)
    np.testing.assert_array_equal(hist_of(fresh), counts_of(serial))


@pytest.mark.parametrize("helpers", [1, 3])
@pytest.mark.parametrize("faulty", ["caller", "helper"])
def test_sampler_exception_in_the_count_route_reaches_the_caller(helpers, faulty, monkeypatch,
                                                                counts_of, hist_of):
    check_sampler_fault_reaches_the_caller("count_into", helpers, faulty, monkeypatch, counts_of,
                                           hist_of)


@pytest.mark.parametrize("helpers", [1, 3])
@pytest.mark.parametrize("faulty", ["caller", "helper"])
def test_sampler_exception_in_the_records_route_reaches_the_caller(helpers, faulty, monkeypatch,
                                                                  counts_of, hist_of):
    check_sampler_fault_reaches_the_caller("records", helpers, faulty, monkeypatch, counts_of,
                                           hist_of)


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_records_and_gate_estimates_do_not_depend_on_the_helper_count(
    helpers, monkeypatch, counts_of, hist_of
):
    monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)
    for case in sorted(GOLDEN_CELLS_SHA256):
        assert cells_digest(golden_records(case)) == GOLDEN_CELLS_SHA256[case]
    check_gate_streams_reduce_like_records(counts_of, hist_of)


# (block size, count): partial last blocks, whole blocks only, one exact
# block, and fewer records than one block.
STREAM_SIZES = [(64, 1001), (250, 1001), (250, 1000), (250, 250), (250, 100)]


@pytest.mark.parametrize("spam", [0.0, 0.1])
@pytest.mark.parametrize("source", sorted(GOLDEN_CHANNELS))
def test_channel_stream_reduces_like_records(source, spam, monkeypatch, counts_of, hist_of):
    # The driver's records and counts, whichever thread draws each block,
    # match the blocks that iteration draws in order on the calling thread.
    channel = GOLDEN_CHANNELS[source]()
    for helpers in (0, 1, 3):
        monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)
        for block_size, count in STREAM_SIZES:
            stream = iter_channel_shadow_blocks(channel, count, 7, block_size, spam)
            serial = ShadowRecords.concatenate(list(stream))
            with fast_thread_switching():
                recorded = stream.records()
                counted = hist_of(stream)
            np.testing.assert_array_equal(recorded.cells, serial.cells)
            np.testing.assert_array_equal(counted, counts_of(serial))
            assert counted.sum() == count


def test_an_iterated_stream_still_counts_and_records_whole(counts_of, hist_of):
    # A stream keeps no state: iterating it, in full or in part, leaves
    # every record to the next count, recording or iteration.
    channel = GOLDEN_CHANNELS["ptm-product"]()
    stream = iter_channel_shadow_blocks(channel, 1001, 7, 250)
    assert len(stream) == 1001
    whole = ShadowRecords.concatenate(list(stream))
    blocks = iter(stream)
    first = next(blocks)
    np.testing.assert_array_equal(stream.records().cells, whole.cells)
    counted = hist_of(stream)
    np.testing.assert_array_equal(counted, counts_of(whole))
    assert counted.sum() == len(stream) == 1001
    np.testing.assert_array_equal(ShadowRecords.concatenate([first, *blocks]).cells, whole.cells)


def test_block_rng_is_counter_based():
    a = block_rng(99, 0).integers(0, 1000, 5)
    b = block_rng(99, 0).integers(0, 1000, 5)
    np.testing.assert_array_equal(a, b)
    c = block_rng(99, 1).integers(0, 1000, 5)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed, block", [(0, 0), (99, 1), (2**64 + 3, 2**64 + 5),
                                         (2**128 + 17, 3), (2**200 - 1, 2**70), (-5, 2),
                                         (7, 2**64), (7, 2**128 - 1)])
def test_block_rng_sets_the_philox_key_and_counter_without_os_entropy(seed, block):
    # Key and counter in little-endian 64-bit words, the counter's low 128
    # bits zero, and a fresh buffer.  Each generator is built anew, from
    # fresh OS entropy that the key replaces, so no draw depends on it.
    key = seed % 2**128
    want = {"counter": [0, 0, block % 2**64, block >> 64], "key": [key % 2**64, key >> 64]}
    raws = []
    for _ in range(2):
        bit_generator = block_rng(seed, block).bit_generator
        state = bit_generator.state
        assert {k: v.tolist() for k, v in state["state"].items()} == want
        assert (state["buffer_pos"], state["has_uint32"]) == (4, 0)
        raws.append(bit_generator.random_raw(8).tolist())
    assert raws[0] == raws[1]


def test_identity_channel_sampling_marginals():
    # matched basis reproduces the prepared sign; mismatched is a fair coin
    r = iter_channel_shadow_blocks(PauliChannel.identity(1), 30_000, seed=8).records()
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
    r = iter_channel_shadow_blocks(ch, 100_000, seed=14).records()
    sel = (r.s_axis[:, 0] == 2) & (r.t_axis[:, 0] == 2)
    kept = (r.t_sign[sel, 0] == r.s_sign[sel, 0]).mean()
    assert kept == pytest.approx(0.80, abs=0.02)


def test_ptm_sampling_matches_pauli_sampling_statistics():
    # the same Pauli channel sampled via its PTM must estimate identically
    ch = reference_product_channel()
    ptm = ch.to_product_channel()
    basis = enumerate_low_weight(2, 2)
    est_a = estimate_eigenvalues(iter_channel_shadow_blocks(ch, 150_000, seed=2).records(), basis)
    est_b = estimate_eigenvalues(iter_channel_shadow_blocks(ptm, 150_000, seed=3).records(), basis)
    for p, lam in zip(basis, exact_diagonal(ch, basis)):
        if p.is_identity:
            continue
        assert est_a[p] == pytest.approx(lam, abs=0.06)
        assert est_b[p] == pytest.approx(lam, abs=0.06)


# -- core estimator ------------------------------------------------------------


def test_estimate_x_single_record_values():
    # worked single-record examples: x_hat(Z) is the numerator over one
    # record, and the eigenvalue estimate is 3 x_hat
    z_pair = np.array([[5 * 3]], np.int8)  # digit in * 4 + out of (Z, Z)
    r = records_from_fields([[2]], [[1]], [[2]], [[-1]])  # s=(Z,+), t=(Z,-)
    assert shadows._numerators(r, z_pair)[1].tolist() == [-3]
    assert estimate_eigenvalues(r, [P("Z")])[P("Z")] == -9.0  # single records are unbounded
    r = records_from_fields([[0]], [[1]], [[2]], [[-1]])  # s=(X,+): mismatch
    assert shadows._numerators(r, z_pair)[1].tolist() == [0]
    assert estimate_eigenvalues(r, [P("Z")])[P("Z")] == 0.0


def undrawable(stream):
    """The stream with a sampler that fails the test if a block is drawn."""

    def draw(*_):
        raise AssertionError("a block was drawn")

    stream.sample = stream.tally = draw
    return stream


def test_strings_of_another_width_are_rejected():
    # An estimator takes its width from the source, and a string of another
    # width fails before any block is drawn.
    for n in (2, 6):
        stream = iter_channel_shadow_blocks(PauliChannel.identity(n), 500, seed=1)
        records = stream.records()
        for source in (records, undrawable(stream)):
            for p in (P("XZZ" + "I" * (n - 2)), P("X" * 10)):
                with pytest.raises(ValueError, match=f"{p} has {p.n} qubits, expected {n}"):
                    estimate_eigenvalues(source, [P("Z" * n), p])
    # A CNOT's table on an H stream: two-qubit strings against one qubit.
    with pytest.raises(ValueError, match="has 2 qubits, expected 1"):
        estimate_gate_eigenvalues(undrawable(sample_gate_shadows("H", None, 500, seed=1)), "CNOT")


def test_per_record_values_in_allowed_set():
    # x_hat(P) of one record is 0 or +-3^|P|, so its eigenvalue estimate is
    # 0 or +-9^|P|
    ch = reference_product_channel()
    r = iter_channel_shadow_blocks(ch, 300, seed=6).records()
    strings = [P("ZI"), P("XZ")]
    for i in range(len(r)):
        est = estimate_eigenvalues(r[i], strings)
        for p in strings:
            assert est[p] in {0.0, 9.0**p.weight, -(9.0**p.weight)}


def test_estimate_x_rejects_empty():
    empty = iter_channel_shadow_blocks(PauliChannel.identity(1), 0, seed=0).records()
    with pytest.raises(ValueError):
        estimate_eigenvalues(empty, [P("Z")])


def test_estimate_eigenvalues_identity_exact():
    r = iter_channel_shadow_blocks(reference_product_channel(), 100, seed=1).records()
    est = estimate_eigenvalues(r, enumerate_low_weight(2, 2))
    assert est[P("II")] == 1.0
    assert list(est) == list(enumerate_low_weight(2, 2))
    assert len(est.values) == len(est.values()) == 16  # perfbench/tracing.py reads the first
    with pytest.raises(KeyError):
        est[PauliString.from_label("XX").embed(3, (0, 1))]


def test_estimates_converge_to_oracle():
    ch = reference_product_channel()
    basis = enumerate_low_weight(2, 2)
    est = estimate_eigenvalues(iter_channel_shadow_blocks(ch, 100_000, seed=20).records(), basis)
    for p, lam in zip(basis, exact_diagonal(ch, basis)):
        assert est[p] == pytest.approx(lam, abs=0.05)


# -- counts sufficient statistic ----------------------------------------------


def test_counts_match_direct_records_exactly(read_pairs):
    ch = reference_product_channel()
    r = iter_channel_shadow_blocks(ch, 20_000, seed=33).records()
    stream = iter_channel_shadow_blocks(ch, 20_000, seed=33)
    assert len(stream) == len(r)
    basis = enumerate_low_weight(2, 2)
    # bit-for-bit equal
    assert estimate_eigenvalues(stream, basis) == estimate_eigenvalues(r, basis)
    pairs = [(P(p), P(q)) for p, q in [("II", "ZI"), ("XI", "XZ"), ("ZI", "ZZ"), ("ZZ", "II")]]
    np.testing.assert_array_equal(read_pairs(stream, pairs), read_pairs(r, pairs))


def test_counts_merge_and_accumulate(counts_of, hist_of):
    # Two batches counted into one histogram, and the stream that drew them
    # counted where each block is drawn, give the records' histogram.
    ch = reference_product_channel()
    r = iter_channel_shadow_blocks(ch, 9000, seed=44).records()
    whole = counts_of(r)
    merged = np.zeros(36**2, np.int32)
    r[:5000].count_into(merged)
    r[5000:].count_into(merged)
    np.testing.assert_array_equal(merged, whole)
    assert merged.sum() == 9000
    np.testing.assert_array_equal(hist_of(iter_channel_shadow_blocks(ch, 9000, 44)), whole)


class CountedStream:
    """A stream of ``count`` records, every one in joint cell 5, that checks
    the dtype of the histogram it is counted into."""

    def __init__(self, n, count, dtype):
        self.n, self.count, self.dtype = n, count, dtype

    def __len__(self):
        return self.count

    def count_into(self, counts):
        assert counts.dtype == self.dtype
        counts[5] += self.count


def test_counts_are_int32():
    for n in range(1, shadows.COUNTS_QUBIT_CAP + 1):
        # Cell 5 is X+ in and Z- out on the last qubit: I in, Z out reads -3.
        digits = np.zeros((2, n), np.int64)
        digits[1, -1] = 3
        total, numers = shadows._numerators(CountedStream(n, 1000, np.int32), digits)
        assert total == 1000
        assert numers.tolist() == [1000, -3000]


def test_counts_widen_to_int64_before_a_total_passes_int32():
    # A source is counted whole, so the widening comes before its first
    # record: 2^31 - 1 records fit an int32 cell, one more would wrap it.
    digits = np.array([[0, 0], [0, 3]])
    for count, dtype in ((2**31 - 1, np.int32), (2**31, np.int64)):
        total, numers = shadows._numerators(CountedStream(2, count, dtype), digits)
        assert total == count and numers.tolist() == [count, -3 * count]
        # A block stream's tally adds all of its records to one cell in one
        # block; into an int32 histogram, 2^31 of them would not convert.
        stream = shadows.BlockStream(2, count, 0, count, None, lambda rng, left: (np.array([5]), left))
        assert shadows._numerators(stream, digits)[1].tolist() == [count, -3 * count]


def _traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees allocated while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _block_peaks(channel) -> list[int]:
    """Traced peak bytes of drawing one full block, without and with
    preparation/measurement flips, each after a warm-up block."""
    peaks = []
    for spam in (0.0, 0.1):
        sample = shadows._block_sampler(channel, DEFAULT_BLOCK_SIZE, spam)
        sample(block_rng(1, 0))
        peaks.append(_traced_peak(lambda: sample(block_rng(1, 1))))
    return peaks


def test_four_qubit_reduce_path_stays_small(monkeypatch, hist_of):
    # The int32 histogram is 6.4 MiB, and a transfer-matrix block keeps two
    # block arrays through its uniform loop (the cells and the p_plus entries),
    # with preparation/measurement flips as without: no uniform slice lives
    # on while the next is drawn.
    monkeypatch.setattr(shadows, "_helper_count", lambda: 1)  # two blocks at a time
    channel = ProductChannel([amplitude_damping_ptm(0.1 * (j + 1)) for j in range(4)])
    peaks = _block_peaks(channel)
    assert max(peaks) < 1.3 * 2**20
    assert peaks[1] < peaks[0] + 2**16
    blocks = iter_channel_shadow_blocks(channel, 200_000, seed=5)  # counted as drawn
    assert _traced_peak(lambda: hist_of(blocks)) < 12 * 2**20


def test_records_past_the_cap_are_held_once(monkeypatch):
    # Past four qubits a stream is drawn into records qubit by qubit, and the
    # tables read each qubit's row in place.  A transposed copy of the
    # records took the peak from 2.2 to 2.9 times the record bytes here.
    monkeypatch.setattr(shadows, "_helper_count", lambda: 1)  # two blocks at a time
    channel = PauliChannel.from_qubit_probs([(0.9, 0.04, 0.03, 0.03)] * 10)
    strings = [p for p in heisenberg_observable(10).support() if not p.is_identity]
    estimate_eigenvalues(iter_channel_shadow_blocks(channel, 1000, 3), strings)  # warm-up
    stream = iter_channel_shadow_blocks(channel, 500_000, 3)
    assert _traced_peak(lambda: estimate_eigenvalues(stream, strings)) < 2.5 * 500_000 * 10


def test_four_qubit_pauli_block_stays_small():
    # A Pauli-channel block folds its input digit and its measured axis into
    # the cells as they are drawn, works the error's outcome bit out in place,
    # and the error sampler drops each uniform slice before the next: at most
    # four 256 KiB block arrays meet, with flips as without.
    peaks = _block_peaks(PauliChannel.from_qubit_probs([(0.85, 0.05, 0.06, 0.04)] * 4))
    assert max(peaks) < 1.2 * 2**20
    assert peaks[1] < peaks[0] + 2**16


def test_estimating_from_block_stream():
    ch = reference_product_channel()
    est = estimate_eigenvalues(iter_channel_shadow_blocks(ch, 50_000, 3),
                               enumerate_low_weight(2, 1))
    assert est[P("ZI")] == pytest.approx(0.60, abs=0.05)


# -- transfer estimation -------------------------------------------------------


def test_transfer_entry_identity_column(read_pairs):
    # lambda_P(I) = delta_PI: the pair reader gives (I, I) as N / N, and the
    # transfer matrix pins the rest of the column
    r = iter_channel_shadow_blocks(reference_product_channel(), 100, seed=2).records()
    assert read_pairs(r, [(P("II"), P("II"))]).tolist() == [1.0]
    m = estimate_transfer_matrix(r, 2)
    assert m.matrix[0, 0] == 1.0
    np.testing.assert_array_equal(m.matrix[1:, 0], 0.0)


def test_transfer_entry_damping_leak(read_pairs):
    # the (I, Z) entry estimates gamma
    ch = ProductChannel([amplitude_damping_ptm(0.2), np.eye(4)])
    r = iter_channel_shadow_blocks(ch, 200_000, seed=7).records()
    m = estimate_transfer_matrix(r, 1)
    leak = m.matrix[m.index(P("II")), m.index(P("ZI"))]
    assert leak == read_pairs(r, [(P("II"), P("ZI"))]).item()
    assert leak == pytest.approx(0.2, abs=0.03)


def test_transfer_diagonal_matches_eigenvalues_on_pauli_channel(read_pairs):
    ch = reference_product_channel()
    stream = iter_channel_shadow_blocks(ch, 100_000, seed=9)
    m = estimate_transfer_matrix(stream, 2)
    est = estimate_eigenvalues(stream, m.basis)
    for p in [P("ZI"), P("XZ")]:
        assert m.matrix[m.index(p), m.index(p)] == est[p]
    # off-diagonal entries vanish within a loose Hoeffding envelope
    envelope = 4 * 9 / math.sqrt(len(stream))
    pairs = [(P(p), P(q)) for p, q in [("ZI", "XI"), ("XI", "XZ"), ("IZ", "ZZ"), ("YI", "YZ"),
                                       ("IX", "ZX")]]
    off = [m.matrix[m.index(p), m.index(q)] for p, q in pairs]
    np.testing.assert_array_equal(off, read_pairs(stream, pairs))
    assert sum(abs(entry) <= envelope for entry in off) >= len(pairs) - 1


def test_estimate_transfer_matrix_structure():
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    m = estimate_transfer_matrix(iter_channel_shadow_blocks(ch, 300_000, 5), 2)
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
        rho = product_eigenstate(axes, signs).rho
        rho = unitary @ rho @ unitary.conj().T
        if noise is not None:
            rho = exact.apply_to_operator(noise, rho)
        state = exact.DenseState(g, rho)
        for basis in itertools.product(range(3), repeat=g):
            probs = exact.basis_outcome_probabilities(state, basis)
            for outcome in range(2**g):
                t_sign = [1 - 2 * ((outcome >> (g - 1 - j)) & 1) for j in range(g)]
                rec = records_from_fields([axes], [signs], [basis], [t_sign])
                value = estimate_gate_eigenvalues(rec, kind)[p]
                total += probs[outcome] * value / (6**g * 3**g)
    return total


def gate_outcome_cdfs_per_state(kind, noise):
    """(6^g, 3^g, 2^g) outcome CDFs built one input state and one basis at a
    time: the reference for the sampler's batched table."""
    from paulishadow.clifford import gate_arity

    g = gate_arity(kind)
    unitary = exact.gate_unitary(kind, tuple(range(g)), g)
    cdfs = np.empty((6**g, 3**g, 2**g))
    for s_idx, s_digits in enumerate(itertools.product(range(6), repeat=g)):
        axes = [d // 2 for d in s_digits]
        signs = [1 - 2 * (d % 2) for d in s_digits]
        rho = product_eigenstate(axes, signs).rho
        rho = unitary @ rho @ unitary.conj().T
        if noise is not None:
            rho = exact.apply_to_operator(noise, rho)
        state = exact.DenseState(g, rho)
        for b_idx, basis in enumerate(itertools.product(range(3), repeat=g)):
            cdf = np.cumsum(exact.basis_outcome_probabilities(state, basis))
            cdf[-1] = 1.0
            cdfs[s_idx, b_idx] = cdf
    return cdfs


def test_gate_outcome_cdfs_match_per_state_reference():
    product = PauliChannel.from_qubit_probs([(0.8, 0.1, 0.06, 0.04), (0.85, 0.05, 0.04, 0.06)])
    sparse = PauliChannel.from_terms(2, {"XX": 0.05, "ZI": 0.03, "YZ": 0.02})
    cases = [("H", None), ("S", None), ("CNOT", None), ("CNOT", product), ("CNOT", sparse)]
    cases += [(kind, PauliChannel.from_qubit_probs([(0.7, 0.2, 0.06, 0.04)])) for kind in "HS"]
    for kind, noise in cases:
        g = 2 if kind == "CNOT" else 1
        want = gate_outcome_cdfs_per_state(kind, noise)
        # rows by (input digit, basis axis) per qubit, as the sampler reads them
        order = [a for j in range(g) for a in (j, g + j)] + [2 * g]
        want = want.reshape((6,) * g + (3,) * g + (2**g,)).transpose(order).reshape(18**g, 2**g)
        got = shadows._gate_outcome_cdfs(kind, noise)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_gate_estimator_unbiased_single_qubit():
    noise = PauliChannel.from_qubit_probs([(0.7, 0.2, 0.05, 0.05)])
    for kind in ("H", "S"):
        for letter, want in zip("XYZ", exact_diagonal(noise, [P("X"), P("Y"), P("Z")])):
            got = gate_estimator_expectation(kind, noise, P(letter))
            assert got == pytest.approx(want, abs=1e-12)


def test_gate_estimator_unbiased_cnot():
    noise = PauliChannel.from_qubit_probs(
        [(0.8, 0.1, 0.06, 0.04), (0.85, 0.05, 0.04, 0.06)]
    )
    strings = [P(label) for label in ["XI", "IZ", "XZ", "YY"]]
    for p, want in zip(strings, exact_diagonal(noise, strings)):
        got = gate_estimator_expectation("CNOT", noise, p)
        assert got == pytest.approx(want, abs=1e-12)


def test_noiseless_gate_estimates_are_one():
    r = ShadowRecords.concatenate(list(sample_gate_shadows("H", None, 40_000, seed=3)))
    est = estimate_gate_eigenvalues(r, "H")
    for letter in "XYZ":
        assert est[P(letter)] == pytest.approx(1.0, abs=0.05)


def test_gate_estimates_key_every_local_string_as_the_oracle_does():
    # Sampled and oracle tables share one type and one key order: every
    # local string, the identity first, whose estimate is N / N.
    noise = {"S": PauliChannel.from_qubit_probs([(0.9, 0.05, 0.03, 0.02)]),
             "CNOT": PauliChannel.from_terms(2, {"XX": 0.02, "ZI": 0.03})}
    for kind, qubits in (("H", [0]), ("S", [0]), ("CNOT", [0, 1])):
        circuit = CliffordCircuit(len(qubits), ((kind, qubits),), noise)
        est = estimate_gate_eigenvalues(sample_gate_shadows(kind, noise.get(kind), 700, 9), kind)
        oracle = exact_gate_estimates(circuit)[kind]
        assert list(est) == list(oracle) and len(est) == 4 ** len(qubits)
        assert est[PauliString.identity(len(qubits))] == 1.0


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
    assert est[P("ZZ")] == pytest.approx(exact_diagonal(noise, [P("ZZ")])[0], abs=0.07)


def test_gate_shadow_record_shape_and_determinism():
    r1 = ShadowRecords.concatenate(list(sample_gate_shadows("CNOT", None, 500, seed=5)))
    r2 = ShadowRecords.concatenate(list(sample_gate_shadows("CNOT", None, 500, seed=5)))
    assert r1.n == 2
    np.testing.assert_array_equal(r1.t_sign, r2.t_sign)
    with pytest.raises(ValueError):
        estimate_gate_eigenvalues(r1, "H")  # arity mismatch
    with pytest.raises(ValueError):
        sample_gate_shadows("H", PauliChannel.identity(2), 10, seed=0)


def test_gate_shadow_stream_blocks_and_prefixes():
    noise = PauliChannel.from_terms(2, {"XX": 0.05, "ZI": 0.03, "YZ": 0.02})
    blocks = list(sample_gate_shadows("CNOT", noise, 1000, seed=8, block_size=300))
    assert [len(b) for b in blocks] == [300, 300, 300, 100]
    full = ShadowRecords.concatenate(blocks)
    # Record i depends only on (seed, block size, i): a shorter run is a prefix.
    for count in (1, 299, 300, 301, 999):
        short = ShadowRecords.concatenate(
            list(sample_gate_shadows("CNOT", noise, count, seed=8, block_size=300))
        )
        for field in ("s_axis", "s_sign", "t_axis", "t_sign"):
            np.testing.assert_array_equal(getattr(short, field), getattr(full, field)[:count])
    assert list(sample_gate_shadows("CNOT", noise, 0, seed=8)) == []
    with pytest.raises(ValueError):
        sample_gate_shadows("CNOT", noise, -1, seed=8)


@pytest.mark.parametrize("block_size", [0, -5])
def test_block_size_below_one_is_rejected(block_size):
    # A size of 0 divided by zero and a negative one returned empty rows.
    streams = [
        lambda: iter_channel_shadow_blocks(PauliChannel.identity(1), 10, 1, block_size=block_size),
        lambda: sample_gate_shadows("H", None, 10, 1, block_size=block_size),
    ]
    for stream in streams:
        with pytest.raises(ValueError, match="block size must be >= 1"):
            stream().records()
        with pytest.raises(ValueError, match="block size must be >= 1"):
            stream().count_into(np.zeros(36, np.int64))


def check_gate_streams_reduce_like_records(counts_of, hist_of):
    """At the current helper count, a gate stream's driver records and counts
    (its outcome index bincounted where each block is drawn) match the blocks
    iteration draws on the calling thread."""
    noise = PauliChannel.from_terms(2, {"XX": 0.05, "ZI": 0.03, "YZ": 0.02})
    sizes = [*STREAM_SIZES, (1000, 20_000), (4096, 20_000), (1000, 1000), (4096, 300)]
    for kind, chan in (("H", None), ("S", None), ("CNOT", noise)):
        g = 2 if kind == "CNOT" else 1
        for block_size, count in sizes:
            stream = sample_gate_shadows(kind, chan, count, 12, block_size)
            records = ShadowRecords.concatenate(list(stream))
            with fast_thread_switching():
                recorded = stream.records()
                counted = hist_of(stream)
            np.testing.assert_array_equal(recorded.cells, records.cells)
            np.testing.assert_array_equal(counted, counts_of(records))
            assert counted.sum() == count
            from_stream = estimate_gate_eigenvalues(stream, kind)
            assert from_stream == estimate_gate_eigenvalues(records, kind)


def test_gate_shadow_stream_reduces_like_records(monkeypatch, counts_of, hist_of):
    for helpers in (0, 1, 3):
        monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)
        check_gate_streams_reduce_like_records(counts_of, hist_of)


# -- preparation/measurement error --------------------------------------------


def test_spam_factor_no_flips():
    assert estimate_spam_factor(0.0, 50_000, seed=2) == pytest.approx(1.0, abs=0.03)


def test_spam_factor_squared_contrast():
    got = estimate_spam_factor(0.1, 400_000, seed=4)
    assert got == pytest.approx(0.64, abs=0.02)


def test_spam_flip_probability_validation():
    with pytest.raises(ValueError):
        iter_channel_shadow_blocks(PauliChannel.identity(1), 10, seed=0, spam_flip_probability=1.5)


# -- state expectation estimation ---------------------------------------------


def test_state_expectations_fixed_points():
    zero = product_eigenstate([2, 2], [+1, +1])
    est = estimate_state_expectations(zero, [P("ZI"), P("ZZ"), P("XI")], 40_000, seed=6)
    assert est[P("ZI")] == pytest.approx(1.0, abs=0.05)
    assert est[P("ZZ")] == pytest.approx(1.0, abs=0.1)
    assert est[P("XI")] == pytest.approx(0.0, abs=0.05)
    mixed = maximally_mixed(1)
    est = estimate_state_expectations(mixed, [P("Z")], 40_000, seed=7)
    assert est[P("Z")] == pytest.approx(0.0, abs=0.05)


def test_state_expectations_against_dense_oracle():
    st = exact.DenseState.from_unit_vector(exact.haar_random_vector(2, 31))
    noisy = exact.apply_channel(reference_product_channel(), st)
    paulis = [p for p in enumerate_low_weight(2, 2) if not p.is_identity]
    est = estimate_state_expectations(noisy, paulis, 100_000, seed=8)
    for p in paulis:
        assert est[p] == pytest.approx(exact.expectation(p, noisy), abs=0.05)


def test_state_expectations_signed_pauli():
    zero = product_eigenstate([2], [+1])
    est = estimate_state_expectations(zero, [P("-Z")], 20_000, seed=9)
    assert est[P("-Z")] == pytest.approx(-1.0, abs=0.05)


def test_state_expectations_needs_enough_records():
    zero = product_eigenstate([2], [+1])
    with pytest.raises(ValueError):
        estimate_state_expectations(zero, [P("Z")], 5, seed=0)
