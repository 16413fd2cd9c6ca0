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

from paulishadow import exact, shadows
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
    block_rng,
    estimate_eigenvalues,
    estimate_gate_eigenvalues,
    estimate_state_expectations,
    estimate_transfer_matrix,
    iter_channel_shadow_blocks,
    plan_sample_size,
    sample_gate_shadows,
)

from reference import (
    DenseState,
    apply_channel,
    apply_to_operator,
    basis_outcome_probabilities,
    dense_expectation,
    embed,
    fields,
    fixed_stream,
    gate_unitary,
    product_eigenstate,
    records_from_fields,
    serial_records,
)


def P(label):
    return PauliString.from_label(label)


# -- sampling determinism ------------------------------------------------------


def test_sampling_is_deterministic():
    ch = reference_product_channel()
    a = iter_channel_shadow_blocks(ch, 3000, seed=5).records()
    b = iter_channel_shadow_blocks(ch, 3000, seed=5).records()
    np.testing.assert_array_equal(a, b)
    c = iter_channel_shadow_blocks(ch, 3000, seed=6).records()
    assert not np.array_equal(fields(a)[3], fields(c)[3])  # the outcome signs differ


def test_sampling_prefix_stability():
    # record i depends only on (seed, block size, i), not on the total record count
    ch = reference_product_channel()
    small = iter_channel_shadow_blocks(ch, 1000, seed=12).records()
    big = iter_channel_shadow_blocks(ch, 70_000, seed=12).records()  # spans two blocks
    np.testing.assert_array_equal(big[:1000], small)


def test_block_iteration_matches_batch():
    # The blocks drawn one after another on the calling thread, a full one
    # and the kept rows of the next, are the batch the driver records.
    stream = iter_channel_shadow_blocks(reference_product_channel(), 70_000, seed=4)
    sizes = [len(stream.sample(block_rng(4, b), 70_000 - b * 65536)) for b in (0, 1)]
    assert sizes == [65536, 70_000 - 65536]
    np.testing.assert_array_equal(serial_records(stream), stream.records())


def _sample_ptm_block_per_qubit(channel, rng, block_size):
    """One block of a product channel's records, its outcome probabilities
    computed qubit by qubit from the PTM columns: the reference for the
    sampler's table lookup, with the same draws in the same order."""
    shape = (block_size, channel.n)
    s_axis = rng.integers(0, 3, shape, dtype=np.int8)
    s_sign = (1 - 2 * rng.integers(0, 2, shape, dtype=np.int8)).astype(np.int8)
    t_axis = rng.integers(0, 3, shape, dtype=np.int8)
    u = rng.random(shape)
    t_sign = np.empty(shape, dtype=np.int8)
    rows = np.arange(block_size)
    for j in range(channel.n):
        ptm = channel.ptm(j)
        bloch = ptm[1:, 0][:, None] + s_sign[:, j] * ptm[1:, s_axis[:, j] + 1]
        p_plus = np.clip((1.0 + bloch[t_axis[:, j], rows]) / 2.0, 0.0, 1.0)
        t_sign[:, j] = np.where(u[:, j] < p_plus, 1, -1)
    return records_from_fields(s_axis, s_sign, t_axis, t_sign)


# Record count and widths by block size.  1000 records end in a partial
# block of 64 and in none of 250.  The benchmark's shape, 70,000 records of
# four qubits, is a full block, whose base-3 draws each drop about 1,000 zero
# bytes, then a partial one.
PER_QUBIT_RUNS = {64: (1000, range(1, 6)), 250: (1000, range(1, 6)),
                  DEFAULT_BLOCK_SIZE: (70_000, (4,))}


@pytest.mark.parametrize("block_size", sorted(PER_QUBIT_RUNS))
def test_ptm_sampling_matches_per_qubit_reference(random_cp_ptm, counts_of, hist_of, block_size):
    count, widths = PER_QUBIT_RUNS[block_size]
    rng = np.random.default_rng(17)
    for n in widths:
        ch = ProductChannel([random_cp_ptm(rng) for _ in range(n)])
        stream = iter_channel_shadow_blocks(ch, count, seed=n, block_size=block_size)
        got = stream.records()
        blocks = -(-count // block_size)
        want = np.concatenate([_sample_ptm_block_per_qubit(ch, block_rng(n, b), block_size)
                               for b in range(blocks)])[:count]
        np.testing.assert_array_equal(got, want)
        if n <= shadows.COUNTS_QUBIT_CAP:
            np.testing.assert_array_equal(hist_of(stream), counts_of(want))


def test_every_cell_decodes_and_encodes_back():
    cells = np.arange(36, dtype=np.uint8).reshape(36, 1)
    decoded = fields(cells)
    assert all(f.dtype == np.int8 and f.shape == (36, 1) for f in decoded)
    s_axis, s_sign, t_axis, t_sign = (f[:, 0].astype(int) for f in decoded)
    assert set(s_axis) == set(t_axis) == {0, 1, 2} and set(s_sign) == set(t_sign) == {-1, 1}
    # the documented code: mixed radix (3, 2, 3, 2), a negative sign as bit 1
    code = ((s_axis * 2 + (s_sign < 0)) * 3 + t_axis) * 2 + (t_sign < 0)
    np.testing.assert_array_equal(code, np.arange(36))
    encoded = records_from_fields(*decoded)
    assert encoded.dtype == np.uint8
    np.testing.assert_array_equal(encoded, cells)


def test_concatenate_streams_into_one_array():
    ch = reference_product_channel()
    listed = serial_records(iter_channel_shadow_blocks(ch, 1000, seed=3, block_size=300))
    assert listed.dtype == np.uint8
    recorded = iter_channel_shadow_blocks(ch, 1000, 3, 300).records()
    assert recorded.dtype == np.uint8
    np.testing.assert_array_equal(recorded, listed)
    empty = iter_channel_shadow_blocks(ch, 0, seed=3).records()
    assert empty.shape == (0, 2)


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
    "pauli-product-b250": "b4cc8ea91a8505b46d6187712c0347baf028ce8eb11335f825c9491857a6b740",
    "pauli-product-b64": "e3ea90d815a607f3296f6dcc0727e71416483cd1a7f1c113f5a428ad7c7c0495",
    "pauli-product-b65536": "60843cd24072eb7b91e17d637798704adef7fc85e6b7e7d78c86454c71ea839c",
    "pauli-sparse-b250": "47378b1bba70823e6936cfe68224d6d65c02801ee90a37be4c527b6db1a9c10a",
    "pauli-sparse-b64": "16c0befe393a6cfe181fc43de1583d0a771ef80ab683462d8b0c2a8be4454f37",
    "pauli-sparse-b65536": "8d56e98c7ec207f72dd8c580aad0e42335149d88a54f89b0f67d1dd24a1fdd89",
    "ptm-product-b250": "9861e57e43beb6c60dc5cf46a8dce29fbc86eb00206e202bef1c6da53ba9adff",
    "ptm-product-b64": "71a580b9f152b8a447a2f7ee89ca0bfb30b219586be6f81b0e8e898ff15c2344",
    "ptm-product-b65536": "2fe3106ceedaa416d158a7ffcd6b8244b088a3cbf1799159a59d297e4e44c864",
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
    source, size = case.rsplit("-", 1)
    block_size = int(size[1:])
    count = GOLDEN_COUNTS[block_size]
    if source in GOLDEN_CHANNELS:
        return iter_channel_shadow_blocks(GOLDEN_CHANNELS[source](), count, 7, block_size).records()
    source, variant = source.split("-")
    noise = GOLDEN_GATE_NOISE[source]() if variant == "noisy" else None
    return sample_gate_shadows(source, noise, count, 11, block_size).records()


def cells_digest(records):
    return hashlib.sha256(np.ascontiguousarray(records).tobytes()).hexdigest()


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
    monkeypatch.setattr(shadows, "UNIFORM_SLICE", 64)
    for shape in ((1000,), (333, 3), (5, 100)):
        a, b = block_rng(4, 1), block_rng(4, 1)
        a.integers(0, 3, 7, dtype=np.int8)  # a draw before, as in the samplers
        reader = shadows._PhiloxReader(b)
        reader.digits(3, (7,))
        whole = a.random(shape)
        sliced = np.empty(shape)
        for rows in shadows.row_slices(shape):
            part = sliced[rows]
            part[...] = (reader.uniform_ints(part.size) * 2.0**-53).reshape(part.shape)
        np.testing.assert_array_equal(sliced, whole)
        assert a.random() == reader.uniform_ints(1)[0] * 2.0**-53


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


@pytest.mark.parametrize("cdf", [(0.25, 0.5, 0.75, 1.0), (0.1, 0.3, 0.6, 0.7, 1.0)])
def test_uniform_thresholds_pick_like_the_doubles(cdf):
    # A sparse channel's record picks its term by a searchsorted of the
    # uniform's 53-bit integer over the CDF's thresholds, and rng.random's
    # double over the CDF itself picks the same term, on raw words at and
    # beside each threshold's first word.  0.25 is dyadic; 0.1 is not.
    cdf = np.array(cdf)
    thresholds = shadows._uniform_thresholds(cdf)
    raws = np.array([k * 2**11 + d for k in map(int, thresholds) for d in (-1, 0, 1)
                     if 0 <= k * 2**11 + d < 2**64], np.uint64)
    k = raws >> np.uint64(11)
    np.testing.assert_array_equal(np.searchsorted(thresholds, k, side="right"),
                                  np.searchsorted(cdf, k * 2.0**-53, side="right"))


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
    helper_drew, drawn_on, asked = threading.Event(), {}, {}

    def sample(rng, left):
        block = int(rng.bit_generator.state["state"]["counter"][2])  # counter = block << 128
        on_caller = threading.current_thread() is threading.main_thread()
        if not on_caller:
            helper_drew.set()
        elif helpers:  # the caller's first block waits until a helper has one
            assert helper_drew.wait(30)
        drawn_on[block], asked[block] = on_caller, left
        cells = np.zeros((min(left, 10), 2), np.uint8)
        cells[:, 0], cells[:, 1] = block, np.arange(len(cells))  # (block, row in the block)
        return cells

    stream = shadows.BlockStream(2, 95, 0, 10, sample, tally=None)
    want = np.stack([np.arange(95) // 10, np.arange(95) % 10], 1)
    np.testing.assert_array_equal(stream.records(), want)
    assert sorted(drawn_on) == list(range(10))
    assert (not all(drawn_on.values())) == (helpers > 0)
    # Each block is asked for the records still wanted from its start.
    assert asked == {b: 95 - 10 * b for b in range(10)}


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
    np.testing.assert_array_equal(grouped, serial)
    np.testing.assert_array_equal(counted, counts_of(serial))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_samples_with_its_own_helpers(monkeypatch):
    # The helper threads live for the process; a child forked after they
    # started has none, and must start its own instead of waiting forever.
    monkeypatch.setattr(shadows, "_helper_count", lambda: 1)
    channel = GOLDEN_CHANNELS["ptm-product"]()
    want = iter_channel_shadow_blocks(channel, 300, seed=2, block_size=64).records()
    pid = os.fork()
    if pid == 0:
        try:
            got = iter_channel_shadow_blocks(channel, 300, seed=2, block_size=64).records()
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

    def sample(rng, left):
        block = int(rng.bit_generator.state["state"]["counter"][2])
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (faulty == "caller"):
            raise SamplerFault(f"block drawn on the {faulty}")
        time.sleep(0.002)  # leaves the faulty thread time to take a block
        drawn.append(block)
        return np.full((1, 1), block % 36, np.uint8)

    stream = shadows.BlockStream(1, 400, 0, 1, sample,
                                 lambda rng, left: (sample(rng, left)[:, 0], 1))
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
    serial = serial_records(fresh)
    np.testing.assert_array_equal(fresh.records(), serial)
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


@pytest.mark.parametrize("source", sorted(GOLDEN_CHANNELS))
def test_channel_stream_reduces_like_records(source, monkeypatch, counts_of, hist_of):
    # The driver's records and counts, whichever thread draws each block,
    # match the blocks drawn in order on the calling thread.
    channel = GOLDEN_CHANNELS[source]()
    for helpers in (0, 1, 3):
        monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)
        for block_size, count in STREAM_SIZES:
            stream = iter_channel_shadow_blocks(channel, count, 7, block_size)
            serial = serial_records(stream)
            with fast_thread_switching():
                recorded = stream.records()
                counted = hist_of(stream)
            np.testing.assert_array_equal(recorded, serial)
            np.testing.assert_array_equal(counted, counts_of(serial))
            assert counted.sum() == count


# One stream per kernel: the transfer-matrix, Pauli-product, Pauli-sparse
# and two gate kernels.
KERNEL_STREAMS = {
    "ptm-product": lambda count: iter_channel_shadow_blocks(
        GOLDEN_CHANNELS["ptm-product"](), count, 7),
    "pauli-product": lambda count: iter_channel_shadow_blocks(
        GOLDEN_CHANNELS["pauli-product"](), count, 7),
    "pauli-sparse": lambda count: iter_channel_shadow_blocks(
        GOLDEN_CHANNELS["pauli-sparse"](), count, 7),
    "H": lambda count: sample_gate_shadows("H", GOLDEN_GATE_NOISE["H"](), count, 11),
    "CNOT": lambda count: sample_gate_shadows("CNOT", GOLDEN_GATE_NOISE["CNOT"](), count, 11),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_STREAMS))
def test_a_block_keeps_a_prefix_of_its_full_draw(kernel, counts_of):
    # A kernel asked for r records draws every block-sized array a full block
    # draws and stops only its last draw at r rows: its records and tally are
    # the full block's first r.
    stream, size = KERNEL_STREAMS[kernel](1), DEFAULT_BLOCK_SIZE
    full = stream.sample(block_rng(5, 2), size)
    for kept in (1, 37, size - 1, size):
        cells = stream.sample(block_rng(5, 2), kept)
        np.testing.assert_array_equal(cells, full[:kept])
        hist = np.zeros(36**stream.n, np.int64)
        np.add.at(hist, *stream.tally(block_rng(5, 2), kept))
        np.testing.assert_array_equal(hist, counts_of(full[:kept]))


@pytest.mark.parametrize("kernel", sorted(KERNEL_STREAMS))
def test_the_driver_matches_the_serial_blocks_around_a_whole_block(kernel, monkeypatch,
                                                                   counts_of, hist_of):
    size = DEFAULT_BLOCK_SIZE
    for count in (size - 1, size, size + 1, 200_001):
        stream = KERNEL_STREAMS[kernel](count)
        serial = serial_records(stream)
        assert len(serial) == count
        for helpers in (0, 1):
            monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)
            np.testing.assert_array_equal(stream.records(), serial)
            np.testing.assert_array_equal(hist_of(stream), counts_of(serial))


def test_a_last_block_draws_outcome_uniforms_for_its_kept_rows_only(monkeypatch, hist_of):
    # 1,000,000 = 15 * 65,536 + 16,960: the last block of a four-qubit
    # transfer-matrix stream asks for 16,960 * 4 outcome uniforms, and the
    # stream for one per record and qubit.
    asked, uniform_ints = [], shadows._PhiloxReader.uniform_ints

    def noting(reader, count):
        asked.append(count)
        return uniform_ints(reader, count)

    monkeypatch.setattr(shadows._PhiloxReader, "uniform_ints", noting)
    monkeypatch.setattr(shadows, "_helper_count", lambda: 0)
    channel = ProductChannel([amplitude_damping_ptm(0.1 * (j + 1)) for j in range(4)])
    stream = iter_channel_shadow_blocks(channel, 1_000_000, seed=5)
    last = 1_000_000 - 15 * DEFAULT_BLOCK_SIZE
    assert len(stream.sample(block_rng(5, 15), last)) == last == 16_960
    assert sum(asked) == 16_960 * 4
    asked.clear()
    assert hist_of(stream).sum() == 1_000_000
    assert sum(asked) == 1_000_000 * 4


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
    records = iter_channel_shadow_blocks(PauliChannel.identity(1), 30_000, seed=8).records()
    s_axis, s_sign, t_axis, t_sign = (f[:, 0] for f in fields(records))
    match = t_axis == s_axis
    assert np.all(t_sign[match] == s_sign[match])
    flip = t_sign[~match].astype(float)
    assert abs(flip.mean()) < 0.05
    # inputs uniform over the six eigenstates
    for axis in range(3):
        frac = (s_axis == axis).mean()
        assert frac == pytest.approx(1 / 3, abs=0.02)


def test_pauli_channel_sampling_flip_rate():
    # Z+ input measured in Z flips with probability pX + pY = 0.20
    ch = PauliChannel.from_qubit_probs([(0.75, 0.10, 0.10, 0.05)])
    records = iter_channel_shadow_blocks(ch, 100_000, seed=14).records()
    s_axis, s_sign, t_axis, t_sign = (f[:, 0] for f in fields(records))
    sel = (s_axis == 2) & (t_axis == 2)
    kept = (t_sign[sel] == s_sign[sel]).mean()
    assert kept == pytest.approx(0.80, abs=0.02)


def test_ptm_sampling_matches_pauli_sampling_statistics():
    # the same Pauli channel sampled via its PTM must estimate identically
    ch = reference_product_channel()
    ptm = ProductChannel([np.diag(e) for e in ch.qubit_eigenvalues()])
    basis = enumerate_low_weight(2, 2)
    est_a = estimate_eigenvalues(iter_channel_shadow_blocks(ch, 150_000, seed=2), basis)
    est_b = estimate_eigenvalues(iter_channel_shadow_blocks(ptm, 150_000, seed=3), basis)
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
    r = fixed_stream(records_from_fields([[2]], [[1]], [[2]], [[-1]]), 1)  # s=(Z,+), t=(Z,-)
    assert shadows._numerators(r, z_pair)[1].tolist() == [-3]
    assert estimate_eigenvalues(r, [P("Z")])[P("Z")] == -9.0  # single records are unbounded
    r = fixed_stream(records_from_fields([[0]], [[1]], [[2]], [[-1]]), 1)  # s=(X,+): mismatch
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
        for source in (fixed_stream(stream.records(), 100), undrawable(stream)):
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
        est = estimate_eigenvalues(fixed_stream(r[i : i + 1], 1), strings)
        for p in strings:
            assert est[p] in {0.0, 9.0**p.weight, -(9.0**p.weight)}


def test_estimate_x_rejects_empty():
    empty = iter_channel_shadow_blocks(PauliChannel.identity(1), 0, seed=0)
    with pytest.raises(ValueError):
        estimate_eigenvalues(empty, [P("Z")])


def test_estimate_eigenvalues_identity_exact():
    r = iter_channel_shadow_blocks(reference_product_channel(), 100, seed=1)
    est = estimate_eigenvalues(r, enumerate_low_weight(2, 2))
    assert est[P("II")] == 1.0
    assert list(est) == list(enumerate_low_weight(2, 2))
    assert len(est.values) == len(est.values()) == 16  # perfbench/tracing.py reads the first
    with pytest.raises(KeyError):
        est[embed(PauliString.from_label("XX"), 3, (0, 1))]


def test_estimates_converge_to_oracle():
    ch = reference_product_channel()
    basis = enumerate_low_weight(2, 2)
    est = estimate_eigenvalues(iter_channel_shadow_blocks(ch, 100_000, seed=20), basis)
    for p, lam in zip(basis, exact_diagonal(ch, basis)):
        assert est[p] == pytest.approx(lam, abs=0.05)


# -- counts sufficient statistic ----------------------------------------------


def test_counts_match_direct_records_exactly(read_pairs):
    ch = reference_product_channel()
    stream = iter_channel_shadow_blocks(ch, 20_000, seed=33)
    r = fixed_stream(stream.records(), 3000)  # the records, served in other blocks
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
    fixed_stream(r[:5000], 1000).count_into(merged)
    fixed_stream(r[5000:], 1000).count_into(merged)
    np.testing.assert_array_equal(merged, whole)
    assert merged.sum() == 9000
    np.testing.assert_array_equal(hist_of(iter_channel_shadow_blocks(ch, 9000, 44)), whole)


class CountedStream:
    """A stream of ``count`` records spread evenly over the joint cells, the
    remainder in cell 5, that notes the dtype of each histogram it is counted
    into.  The amounts are cast as ``BlockStream.count_into`` casts them, so
    they wrap with the counts."""

    def __init__(self, n, count):
        self.n, self.count, self.dtypes = n, count, []

    def __len__(self):
        return self.count

    def count_into(self, counts):
        self.dtypes.append(counts.dtype)
        hist = np.full(len(counts), self.count // len(counts), np.int64)
        hist[5] += self.count % len(counts)
        counts += hist.astype(counts.dtype)


def test_count_width_follows_the_record_total():
    # A cell expects at most total / 18^n records: up to 16 * 18^n records
    # the counts are uint8, and one record more takes int32.
    for n in range(1, shadows.COUNTS_QUBIT_CAP + 1):
        # Cell 5 is X+ in and Z- out on the last qubit: I in, Z out reads -3;
        # the evenly spread records read 0.
        digits = np.zeros((2, n), np.int64)
        digits[1, -1] = 3
        bound = 16 * 18**n
        for count, dtype in ((bound, np.uint8), (bound + 1, np.int32)):
            stream = CountedStream(n, count)
            total, numers = shadows._numerators(stream, digits)
            assert stream.dtypes == [dtype]
            assert total == count
            assert numers.tolist() == [count, -3 * (count % 36**n)]


def test_counts_widen_to_int64_before_a_total_passes_int32():
    # A source is counted whole, so the widening comes before its first
    # record: 2^31 - 1 records fit an int32 cell, one more would wrap it.
    digits = np.array([[0, 0], [0, 3]])
    for count, dtype in ((2**31 - 1, np.int32), (2**31, np.int64)):
        counted = CountedStream(2, count)
        total, numers = shadows._numerators(counted, digits)
        assert counted.dtypes == [dtype]
        assert total == count and numers.tolist() == [count, -3 * (count % 36**2)]
        # A block stream's tally adds all of its records to one cell in one
        # block; into an int32 histogram, 2^31 of them would not convert.
        stream = shadows.BlockStream(2, count, 0, count, None, lambda rng, left: (np.array([5]), left))
        assert shadows._numerators(stream, digits)[1].tolist() == [count, -3 * count]


def _noting_widths(source):
    """``source`` with its ``count_into`` noting each histogram's dtype in ``source.dtypes``."""
    count_into, source.dtypes = source.count_into, []

    def noting(counts):
        source.dtypes.append(counts.dtype)
        count_into(counts)

    source.count_into = noting
    return source


@pytest.mark.parametrize("source", ["records", "unit amounts", "gate tally", "python int"])
def test_a_wrapped_uint8_cell_is_counted_again(source, hist_of):
    # 288 = 16 * 18 one-qubit records fit the uint8 rule, yet all of them sit
    # in cell 5 (X+ in, Z- out), which wraps to 32: the sum check must catch
    # it and recount at int32.  Blocks of 100 add unit amounts; the gate-style
    # tally adds one bincount whose bin 5 is 288; the last tally's amount is a
    # Python int, which a plain uint8 cast would refuse.
    count, where = 16 * 18, np.array([5])
    tallies = {
        "unit amounts": (100, lambda rng, left: (np.full(min(left, 100), 5), 1)),
        "gate tally": (count, lambda rng, left: (np.arange(36), np.bincount(where.repeat(left), minlength=36))),
        "python int": (count, lambda rng, left: (where, left)),
    }
    if source == "records":
        stream = fixed_stream(np.full((count, 1), 5, np.uint8), 64)
    else:
        block_size, tally = tallies[source]
        stream = shadows.BlockStream(1, count, 0, block_size, None, tally)
    digits = np.array([[0], [3], [4], [7], [12], [15]])  # in * 4 + out, read against the table
    reference = shadows._moment_table(hist_of(stream), 1, count)[shadows._table_index(digits)]
    total, numers = shadows._numerators(_noting_widths(stream), digits)
    np.testing.assert_array_equal(numers, reference)
    assert numers.tolist() == [count, -3 * count, count, -3 * count, 0, 0]
    assert stream.dtypes == [np.uint8, np.int32]


def _traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees allocated while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _block_peak(channel) -> int:
    """Traced peak bytes of drawing one full block, after a warm-up block."""
    sample = shadows._block_sampler(channel, DEFAULT_BLOCK_SIZE)
    sample(block_rng(1, 0), DEFAULT_BLOCK_SIZE)
    return _traced_peak(lambda: sample(block_rng(1, 1), DEFAULT_BLOCK_SIZE))


def test_four_qubit_reduce_path_stays_small(monkeypatch, hist_of):
    # The int32 histogram is 6.4 MiB, and a transfer-matrix block keeps two
    # block arrays through its uniform loop (the cells and the p_plus entries):
    # no uniform slice lives on while the next is drawn.
    monkeypatch.setattr(shadows, "_helper_count", lambda: 1)  # two blocks at a time
    channel = ProductChannel([amplitude_damping_ptm(0.1 * (j + 1)) for j in range(4)])
    assert _block_peak(channel) < 1.3 * 2**20
    blocks = iter_channel_shadow_blocks(channel, 200_000, seed=5)  # counted as drawn
    assert _traced_peak(lambda: hist_of(blocks)) < 12 * 2**20


def test_four_qubit_transfer_estimate_stays_small(monkeypatch):
    # A million four-qubit records are counted into a 1.6 MiB uint8
    # histogram while two blocks are drawn at a time, and the moment table
    # is contracted six leading cells at a time.  An int32 histogram (6.4 MiB)
    # and all 36 slab tables at once took the traced peak to 9.2 MiB.
    monkeypatch.setattr(shadows, "_helper_count", lambda: 1)  # two blocks at a time
    channel = ProductChannel([amplitude_damping_ptm(0.1 * (j + 1)) for j in range(4)])
    estimate_transfer_matrix(iter_channel_shadow_blocks(channel, 1000, 5), 2)  # warm-up
    stream = iter_channel_shadow_blocks(channel, 1_000_000, seed=5)
    assert _traced_peak(lambda: estimate_transfer_matrix(stream, 2)) < 5 * 2**20


def test_records_past_the_cap_are_held_once(monkeypatch):
    # Past four qubits a stream is drawn into records qubit by qubit, and the
    # tables read each qubit's row in place.  A transposed copy of the
    # records took the peak from 2.2 to 2.9 times the record bytes here.
    monkeypatch.setattr(shadows, "_helper_count", lambda: 1)  # two blocks at a time
    channel = PauliChannel.from_qubit_probs([(0.9, 0.04, 0.03, 0.03)] * 10)
    strings = [p for p in heisenberg_observable(10).terms() if not p.is_identity]
    estimate_eigenvalues(iter_channel_shadow_blocks(channel, 1000, 3), strings)  # warm-up
    stream = iter_channel_shadow_blocks(channel, 500_000, 3)
    assert _traced_peak(lambda: estimate_eigenvalues(stream, strings)) < 2.5 * 500_000 * 10


def test_four_qubit_pauli_block_stays_small():
    # A Pauli-channel block folds its input digit and its measured axis into
    # the cells as they are drawn, works the error's outcome bit out in place,
    # and the error sampler drops each uniform slice before the next: at most
    # four 256 KiB block arrays meet.
    peak = _block_peak(PauliChannel.from_qubit_probs([(0.85, 0.05, 0.06, 0.04)] * 4))
    assert peak < 1.2 * 2**20


def test_estimating_from_block_stream():
    ch = reference_product_channel()
    est = estimate_eigenvalues(iter_channel_shadow_blocks(ch, 50_000, 3),
                               enumerate_low_weight(2, 1))
    assert est[P("ZI")] == pytest.approx(0.60, abs=0.05)


# -- transfer estimation -------------------------------------------------------


def test_transfer_entry_identity_column(read_pairs):
    # lambda_P(I) = delta_PI: the pair reader gives (I, I) as N / N, and the
    # transfer matrix pins the rest of the column
    r = iter_channel_shadow_blocks(reference_product_channel(), 100, seed=2)
    assert read_pairs(r, [(P("II"), P("II"))]).tolist() == [1.0]
    m = estimate_transfer_matrix(r, 2)
    assert m.matrix[0, 0] == 1.0
    np.testing.assert_array_equal(m.matrix[1:, 0], 0.0)


def test_transfer_entry_damping_leak(read_pairs):
    # the (I, Z) entry estimates gamma
    ch = ProductChannel([amplitude_damping_ptm(0.2), np.eye(4)])
    r = iter_channel_shadow_blocks(ch, 200_000, seed=7)
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
    unitary = gate_unitary(kind, tuple(range(g)), g)
    total = 0.0
    for s_digits in itertools.product(range(6), repeat=g):
        axes = [d // 2 for d in s_digits]
        signs = [1 - 2 * (d % 2) for d in s_digits]
        rho = product_eigenstate(axes, signs).rho
        rho = unitary @ rho @ unitary.conj().T
        if noise is not None:
            rho = apply_to_operator(noise, rho)
        state = DenseState(g, rho)
        for basis in itertools.product(range(3), repeat=g):
            probs = basis_outcome_probabilities(state, basis)
            for outcome in range(2**g):
                t_sign = [1 - 2 * ((outcome >> (g - 1 - j)) & 1) for j in range(g)]
                rec = fixed_stream(records_from_fields([axes], [signs], [basis], [t_sign]), 1)
                value = estimate_gate_eigenvalues(rec, kind)[p]
                total += probs[outcome] * value / (6**g * 3**g)
    return total


def gate_outcome_cdfs_per_state(kind, noise):
    """(6^g, 3^g, 2^g) outcome CDFs built one input state and one basis at a
    time: the reference for the sampler's batched table."""
    from paulishadow.clifford import gate_arity

    g = gate_arity(kind)
    unitary = gate_unitary(kind, tuple(range(g)), g)
    cdfs = np.empty((6**g, 3**g, 2**g))
    for s_idx, s_digits in enumerate(itertools.product(range(6), repeat=g)):
        axes = [d // 2 for d in s_digits]
        signs = [1 - 2 * (d % 2) for d in s_digits]
        rho = product_eigenstate(axes, signs).rho
        rho = unitary @ rho @ unitary.conj().T
        if noise is not None:
            rho = apply_to_operator(noise, rho)
        state = DenseState(g, rho)
        for b_idx, basis in enumerate(itertools.product(range(3), repeat=g)):
            cdf = np.cumsum(basis_outcome_probabilities(state, basis))
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
    est = estimate_gate_eigenvalues(sample_gate_shadows("H", None, 40_000, seed=3), "H")
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
    est = estimate_gate_eigenvalues(sample_gate_shadows("S", noise, 60_000, seed=11), "S")
    assert est[P("X")] == pytest.approx(0.8, abs=0.05)
    assert est[P("Y")] == pytest.approx(0.5, abs=0.05)


def test_cnot_gate_shadows_converge():
    noise = PauliChannel.from_qubit_probs(
        [(0.75, 0.10, 0.10, 0.05), (0.77, 0.09, 0.09, 0.05)]
    )
    est = estimate_gate_eigenvalues(sample_gate_shadows("CNOT", noise, 150_000, seed=21), "CNOT")
    # pinned spot: X (x) I estimated through the conjugated input X (x) X
    assert est[P("XI")] == pytest.approx(0.70, abs=0.05)
    assert est[P("ZZ")] == pytest.approx(exact_diagonal(noise, [P("ZZ")])[0], abs=0.07)


def test_gate_shadow_record_shape_and_determinism():
    stream = sample_gate_shadows("CNOT", None, 500, seed=5)
    r1, r2 = stream.records(), sample_gate_shadows("CNOT", None, 500, seed=5).records()
    assert r1.shape == (500, 2)
    np.testing.assert_array_equal(r1, r2)
    with pytest.raises(ValueError):
        estimate_gate_eigenvalues(stream, "H")  # arity mismatch
    with pytest.raises(ValueError):
        sample_gate_shadows("H", PauliChannel.identity(2), 10, seed=0)


def test_gate_shadow_stream_blocks_and_prefixes():
    noise = PauliChannel.from_terms(2, {"XX": 0.05, "ZI": 0.03, "YZ": 0.02})
    stream = sample_gate_shadows("CNOT", noise, 1000, seed=8, block_size=300)
    sizes = [len(stream.sample(block_rng(8, b), 1000 - 300 * b)) for b in range(4)]
    assert sizes == [300, 300, 300, 100]
    full = serial_records(stream)
    # Record i depends only on (seed, block size, i): a shorter run is a prefix.
    for count in (1, 299, 300, 301, 999):
        short = sample_gate_shadows("CNOT", noise, count, seed=8, block_size=300).records()
        np.testing.assert_array_equal(short, full[:count])
    assert len(sample_gate_shadows("CNOT", noise, 0, seed=8).records()) == 0
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
    drawn in order on the calling thread."""
    noise = PauliChannel.from_terms(2, {"XX": 0.05, "ZI": 0.03, "YZ": 0.02})
    sizes = [*STREAM_SIZES, (1000, 20_000), (4096, 20_000), (1000, 1000), (4096, 300)]
    for kind, chan in (("H", None), ("S", None), ("CNOT", noise)):
        g = 2 if kind == "CNOT" else 1
        for block_size, count in sizes:
            stream = sample_gate_shadows(kind, chan, count, 12, block_size)
            records = serial_records(stream)
            with fast_thread_switching():
                recorded = stream.records()
                counted = hist_of(stream)
            np.testing.assert_array_equal(recorded, records)
            np.testing.assert_array_equal(counted, counts_of(records))
            assert counted.sum() == count
            from_stream = estimate_gate_eigenvalues(stream, kind)
            assert from_stream == estimate_gate_eigenvalues(fixed_stream(records, 300), kind)


def test_gate_shadow_stream_reduces_like_records(monkeypatch, counts_of, hist_of):
    for helpers in (0, 1, 3):
        monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)
        check_gate_streams_reduce_like_records(counts_of, hist_of)


# -- preparation/measurement error --------------------------------------------


@pytest.mark.parametrize("p", [0.05, 0.1, 0.3])
def test_flips_are_the_composed_channel(random_cp_ptm, p):
    # A preparation or readout flip at rate p is depolarizing of shrink
    # 1 - 2p, so flips on both sides of a channel are that channel composed
    # with it on each side, which the channel kernels sample as any other.
    flip = depolarizing_ptm(1 - 2 * p)
    rng = np.random.default_rng(31)
    ptms = [random_cp_ptm(rng) for _ in range(4)]
    for ptm in [*ptms, amplitude_damping_ptm(0.3) @ depolarizing_ptm(0.8)]:
        plain, composed = ProductChannel([ptm]), ProductChannel([flip @ ptm @ flip])
        for axis, sign, b in itertools.product(range(3), (1, -1), range(3)):
            q, q_flipped = ((1 + plain.output_bloch(0, axis, s)[b]) / 2 for s in (sign, -sign))
            m = (1 - p) * q + p * q_flipped  # the prepared sign flips
            want = (1 - p) * m + p * (1 - m)  # the reported outcome flips
            got = (1 + composed.output_bloch(0, axis, sign)[b]) / 2
            assert got == pytest.approx(want, abs=1e-14)
    # A Pauli product channel stays one: each qubit's X, Y and Z eigenvalues
    # scale by (1 - 2p)^2, and the probabilities follow by the inverse Walsh
    # transform.  A Pauli channel's PTM is diag(1, lX, lY, lZ).
    probs = [(0.85, 0.05, 0.06, 0.04), (0.73, 0.09, 0.09, 0.09), (1.0, 0.0, 0.0, 0.0)]
    eigenvalues = PauliChannel.from_qubit_probs(probs).qubit_eigenvalues()
    _, lx, ly, lz = (eigenvalues * (1 - 2 * p) ** 2).T
    flipped_probs = np.stack([1 + lx + ly + lz, 1 + lx - ly - lz,
                              1 - lx + ly - lz, 1 - lx - ly + lz], 1) / 4
    flipped = PauliChannel.from_qubit_probs(flipped_probs).qubit_eigenvalues()
    for got, qubit in zip(flipped, eigenvalues):
        np.testing.assert_allclose(np.diag(got), flip @ np.diag(qubit) @ flip, rtol=0, atol=1e-14)


# -- state expectation estimation ---------------------------------------------


ZERO = np.array([1.0, 0.0])


def test_sample_pauli_basis_outcomes():
    rng = np.random.default_rng(23)
    bases = np.zeros((4000, 1), dtype=np.int8)
    bases[:2000, 0] = 2  # Z first, then X
    bases[2000:, 0] = 0
    signs = shadows.sample_pauli_basis_outcomes(PauliChannel.identity(1), ZERO, bases, rng)
    assert np.all(signs[:2000, 0] == 1)
    assert abs(signs[2000:, 0].mean()) < 0.1  # fair coin in the X basis


def test_state_expectations_fixed_points():
    zero = np.kron(ZERO, ZERO)
    est = estimate_state_expectations(PauliChannel.identity(2), zero,
                                      [P("ZI"), P("ZZ"), P("XI")], 40_000, seed=6)
    assert est[P("ZI")] == pytest.approx(1.0, abs=0.05)
    assert est[P("ZZ")] == pytest.approx(1.0, abs=0.1)
    assert est[P("XI")] == pytest.approx(0.0, abs=0.05)
    depolarize = PauliChannel.from_qubit_probs([(0.25, 0.25, 0.25, 0.25)])  # to I/2
    est = estimate_state_expectations(depolarize, ZERO, [P("Z")], 40_000, seed=7)
    assert est[P("Z")] == pytest.approx(0.0, abs=0.05)


def test_state_expectations_against_dense_oracle():
    psi = exact.haar_random_vector(2, 31)
    channel = reference_product_channel()
    noisy = apply_channel(channel, DenseState.from_unit_vector(psi))
    paulis = [p for p in enumerate_low_weight(2, 2) if not p.is_identity]
    est = estimate_state_expectations(channel, psi, paulis, 100_000, seed=8)
    for p in paulis:
        assert est[p] == pytest.approx(dense_expectation(p, noisy), abs=0.05)


def test_state_expectations_signed_pauli():
    est = estimate_state_expectations(PauliChannel.identity(1), ZERO, [P("-Z")], 20_000, seed=9)
    assert est[P("-Z")] == pytest.approx(-1.0, abs=0.05)


def test_state_expectations_needs_enough_records():
    with pytest.raises(ValueError):
        estimate_state_expectations(PauliChannel.identity(1), ZERO, [P("Z")], 5, seed=0)
