"""Shadow sampling, estimators, counts statistic, planner, and gate shadows.

Monte Carlo assertions use fixed seeds and tolerances a few standard
deviations wide, so they are deterministic; exactness claims (estimator
values, counts-vs-records agreement, unbiasedness enumerations) are checked
to 1e-12 or exactly.
"""

import hashlib
import itertools
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from paulishadow import channels, exact, shadows
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
    DEFAULT_BLOCK_SIZE,
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
    # record i depends only on (seed, block size, i), not on the total record count
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


def test_every_cell_decodes_and_encodes_back():
    cells = np.arange(36, dtype=np.uint8).reshape(36, 1)
    records = ShadowRecords.from_cells(cells)
    fields = (records.s_axis, records.s_sign, records.t_axis, records.t_sign)
    assert all(f.dtype == np.int8 and f.shape == (36, 1) for f in fields)
    s_axis, s_sign, t_axis, t_sign = (f[:, 0].astype(int) for f in fields)
    assert set(s_axis) == set(t_axis) == {0, 1, 2} and set(s_sign) == set(t_sign) == {-1, 1}
    # the documented code: mixed radix (3, 2, 3, 2), a negative sign as bit 1
    code = ((s_axis * 2 + (s_sign < 0)) * 3 + t_axis) * 2 + (t_sign < 0)
    np.testing.assert_array_equal(code, np.arange(36))
    encoded = ShadowRecords(*fields).cells
    assert encoded.dtype == np.uint8
    np.testing.assert_array_equal(encoded, cells)
    signs = {1: "+", -1: "-"}
    assert records.to_lines() == [
        f"s:{'XYZ'[a]}{signs[b]} t:{'XYZ'[c]}{signs[d]}"
        for a, b, c, d in zip(s_axis, s_sign, t_axis, t_sign)
    ]


def test_concatenate_streams_into_one_array():
    ch = reference_product_channel()
    blocks = list(iter_channel_shadow_blocks(ch, 1000, seed=3, block_size=300))
    listed = ShadowRecords.concatenate(blocks)
    streamed = ShadowRecords.concatenate(iter(blocks), (1000, 2))
    assert streamed.cells.dtype == np.uint8
    np.testing.assert_array_equal(streamed.cells, listed.cells)
    np.testing.assert_array_equal(sample_channel_shadows(ch, 1000, 3, 300).cells, listed.cells)
    for wrong in (999, 1001):
        with pytest.raises(ValueError):
            ShadowRecords.concatenate(iter(blocks), (wrong, 2))
    empty = sample_channel_shadows(ch, 0, seed=3)
    assert len(empty) == 0 and empty.n == 2


# -- golden records ------------------------------------------------------------

# SHA-256 of ``ShadowRecords.save`` bytes under fixed seeds, recorded when
# records were still written as four int8 arrays.  Any change to the random
# draws, their order, or the sign and axis conventions changes a digest.
GOLDEN_SAVE_SHA256 = {
    "pauli-product-spam0.0-b64": "933f464d3e8484658414b3ebb6da51582923d523ab5929c40924d145da7ece3a",
    "pauli-product-spam0.0-b250": "478f4113c0e765f56d6ac66002cf161ac2d482bf327b722ed714656a76c46f62",
    "pauli-product-spam0.0-b65536": "70ffaed398980c01a433a55a0dfecd18483ed4d1e5429fb828699134692db8eb",
    "pauli-product-spam0.1-b64": "3838dd2018583c27656b2915c3b740fa0dded91b3547c51d85820b6c9fe43941",
    "pauli-product-spam0.1-b250": "74692a64d6eca6584b65aa4804f0ed0a8673ca794aaa6c815a1b2d805d5eea0e",
    "pauli-product-spam0.1-b65536": "147d158f3fa0d3caf612927baa9e31b0629aac5a5ad6cd33a16c75f6bb36ca2e",
    "pauli-sparse-spam0.0-b64": "e784de21d00879f4fda634138132649c46f40357b062c2b619ebd0ac5fd3397f",
    "pauli-sparse-spam0.0-b250": "75f2d482b29330191e0894f2ad940fd8d38a33a3a3e43f2539d546de5153d187",
    "pauli-sparse-spam0.0-b65536": "02b5db2ffa3653f021f80e439fc8522264a5b432e4d5ebbba0ef65b1b63fd592",
    "pauli-sparse-spam0.1-b64": "bda34390a0133e0f3f5ce0edaa1de2aa4fcf9bd23f10498e3d49524657ee1308",
    "pauli-sparse-spam0.1-b250": "c4a348097b256c098718b217cf95a52173ec66475085c0760da7ebe1f93a9059",
    "pauli-sparse-spam0.1-b65536": "19dc554db506f569f631d5b762739e42885f98276c2cc18abdba014f371d9601",
    "ptm-product-spam0.0-b64": "c917584853f0fe48e82920e22d730ba157e17ccb8797cb047b5df24f6239f3bb",
    "ptm-product-spam0.0-b250": "2bbe2cc275044b088e1ac8441de00607c2cd2efcd0150d3b32cf2f411a8d5990",
    "ptm-product-spam0.0-b65536": "68382a393a6d363b6e482ffc37ec3d3612f64fa55efdb05fb89f65c11bdc58e8",
    "ptm-product-spam0.1-b64": "41bfb60ac8747d1ed4d82e7c036623a5d20d6a1e775aebe44791b1d8644c6360",
    "ptm-product-spam0.1-b250": "5997a58f2e90dfab75b096aaba0956ba926c23cc04d1a84618dd7e7e885959e2",
    "ptm-product-spam0.1-b65536": "fce65c461cfa288dd6241aecfb847da4b3a047c3bf5ee41acdb7328ab4d5b945",
    "H-ideal-b64": "4c246ee17e8af68b1febd84ea23e7cf868fe9bdab03eddf5c1d342961e3deeca",
    "H-ideal-b250": "99e53920a88392228abab07f33d25e06b34e42be47430720819d8a8a7e8b4870",
    "H-ideal-b65536": "efef2447607cad6e7804495663517814e7147269f63cabaf5d4c97d22ced5d0d",
    "H-noisy-b64": "c5d4fd77238b75ebdc0786e4b1ecd40fc16c1cb2a6b6e9bf53c0867ef3d24bc4",
    "H-noisy-b250": "a7663c537d6dbc081620547e2539096f17a956444f5aaa6da613268aedca2050",
    "H-noisy-b65536": "fc134c0ad1b90d8d0aedfdaec3789e9f854b0b28c9bd2864ca29b153062f4cd2",
    "S-ideal-b64": "7962bc7e54ac9dd126ba204a2a892842a6f219e51e6f1f049673ba5e2bf0a254",
    "S-ideal-b250": "36a54337d86b304f693710f31f0455f13cebd671f88c5e811d31acb980c0a4db",
    "S-ideal-b65536": "0628003cdf581b9f9da23dfb109626ab9aba73a7cd6e9392414c8db7a84369fe",
    "S-noisy-b64": "c066b624354358f15a9ff4ae41e38c27a7c7a3a591e93f24c945b9fbbf05989c",
    "S-noisy-b250": "9874a83266df486d00da21d4458c9d783655a5bab3793386e1b3c87e76d03231",
    "S-noisy-b65536": "66c74e70f232619d7d08f1d921b234c6bb97462b9c627b611b3aebf848cd29b2",
    "CNOT-ideal-b64": "3ad86795a8f73514c3e239722f5cded653deef4c4c60740fcd0e3aeed95b9412",
    "CNOT-ideal-b250": "50ba3e8b09fb63d413fd08320162566649ceae3998189528998c64b93a4db515",
    "CNOT-ideal-b65536": "0174c913e8473892e57a0bfb294a7d369b0ba4275d9895e04d07d4d8a2cd8c8a",
    "CNOT-noisy-b64": "36ff0ce702d200199ced955108c4a360dc8de4259a0de636d441a9939c676a9d",
    "CNOT-noisy-b250": "9c63f1140ba194b4523f38d0fdc47632bc68230b44f03affb8bcecd15a665fdb",
    "CNOT-noisy-b65536": "2c3f73c2bf2f8e918189c0bb81693321a363799d9bbae70257af817848695b54",
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
        return sample_channel_shadows(GOLDEN_CHANNELS[source](), count, 7, block_size, spam)
    noise = GOLDEN_GATE_NOISE[source]() if variant == "noisy" else None
    return ShadowRecords.concatenate(list(sample_gate_shadows(source, noise, count, 11, block_size)))


def saved_digest(records, path):
    records.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_SAVE_SHA256))
def test_saved_records_match_golden_digest(case, tmp_path):
    assert saved_digest(golden_records(case), tmp_path / "records.txt") == GOLDEN_SAVE_SHA256[case]


# -- the draws and the helper threads the records must not depend on -------------


def test_draw_identities_the_samplers_rely_on(monkeypatch):
    # The gate sampler draws int32 digits where the records were pinned with
    # int64 ones, and every sampler draws its uniforms in slices.  A numpy
    # that breaks either identity fails here before it fails a golden digest.
    for m in (2, 3, 6):
        for shape in ((1,), (1001,), (4097, 2)):
            a, b = block_rng(9, m), block_rng(9, m)
            np.testing.assert_array_equal(a.integers(0, m, shape, dtype=np.int32),
                                          b.integers(0, m, shape, dtype=np.int64))
            assert a.integers(0, m, dtype=np.int32) == b.integers(0, m)  # still in step
            assert a.random() == b.random()
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


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_blocks_are_sampled_in_groups_of_one_per_cpu(helpers, monkeypatch):
    monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)

    def sample(rng):
        block = rng.bit_generator.state["state"]["counter"][2]  # counter = block << 128
        on_caller = threading.current_thread() is threading.main_thread()
        return ShadowRecords.from_cells(np.tile(np.uint8([block, on_caller]), (10, 1)))

    blocks = list(shadows._iter_blocks(95, seed=0, block_size=10, sample=sample))
    assert [len(b) for b in blocks] == [10] * 9 + [5]
    assert [b.cells[0, 0] for b in blocks] == list(range(10))
    # The calling thread samples the first block of each group, helpers the rest.
    assert [b.cells[0, 1] for b in blocks] == [b % (helpers + 1) == 0 for b in range(10)]


def test_many_helpers_under_fast_thread_switching_keep_every_block(monkeypatch):
    # More helpers than cores, switching threads every microsecond: a block
    # lost, repeated or yielded out of order changes the records.
    channel = GOLDEN_CHANNELS["ptm-product"]()
    monkeypatch.setattr(shadows, "_helper_count", lambda: 0)
    serial = sample_channel_shadows(channel, 5000, seed=6, block_size=64)
    monkeypatch.setattr(shadows, "_helper_count", lambda: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        grouped = sample_channel_shadows(channel, 5000, seed=6, block_size=64)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(grouped.cells, serial.cells)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_samples_with_its_own_helpers(monkeypatch):
    # The helper threads live for the process; a child forked after they
    # started has none, and must start its own instead of waiting forever.
    monkeypatch.setattr(shadows, "_helper_count", lambda: 1)
    channel = GOLDEN_CHANNELS["ptm-product"]()
    want = sample_channel_shadows(channel, 300, seed=2, block_size=64).cells
    pid = os.fork()
    if pid == 0:
        try:
            got = sample_channel_shadows(channel, 300, seed=2, block_size=64).cells
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


def test_sampler_exception_on_a_helper_reaches_the_consumer(monkeypatch):
    monkeypatch.setattr(shadows, "_helper_count", lambda: 1)

    class SamplerFault(RuntimeError):
        pass

    def sample(rng):
        if threading.current_thread() is not threading.main_thread():
            raise SamplerFault("block drawn on a helper")
        return ShadowRecords.from_cells(np.zeros((10, 1), np.uint8))

    blocks = shadows._iter_blocks(20, seed=0, block_size=10, sample=sample)
    assert len(next(blocks)) == 10  # the calling thread's block
    with pytest.raises(SamplerFault, match="^block drawn on a helper$") as caught:
        next(blocks)
    assert type(caught.value) is SamplerFault


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_records_and_gate_estimates_do_not_depend_on_the_helper_count(
    helpers, monkeypatch, tmp_path
):
    monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)
    for case in sorted(GOLDEN_SAVE_SHA256):
        assert saved_digest(golden_records(case), tmp_path / "records.txt") == GOLDEN_SAVE_SHA256[case]
    test_gate_shadow_stream_reduces_like_records()


@pytest.mark.parametrize("spam", [0.0, 0.1])
@pytest.mark.parametrize("source", sorted(GOLDEN_CHANNELS))
def test_channel_stream_reduces_like_records(source, spam):
    channel = GOLDEN_CHANNELS[source]()
    for block_size in (64, 250):
        stream = iter_channel_shadow_blocks(channel, 1001, 7, block_size, spam)
        streamed = ShadowCounts.accumulate(stream, 3)
        whole = ShadowCounts.from_records(sample_channel_shadows(channel, 1001, 7, block_size, spam))
        np.testing.assert_array_equal(streamed.counts, whole.counts)
        assert streamed.n_records == whole.n_records == 1001


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
        rho = exact.DenseState.product_eigenstate(axes, signs).rho
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
    # Record i depends only on (seed, block size, i): a shorter run is a prefix.
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
