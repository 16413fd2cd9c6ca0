"""Channel shadows: randomized sampling and eigenvalue / transfer estimation.

Protocol
--------
Each record prepares a uniformly random product Pauli eigenstate ``s`` (axis
in {X,Y,Z} and sign per qubit), sends it through the channel, and measures
every qubit in a fresh uniformly random Pauli basis, yielding ``t``.  The
core estimator for a Pauli string P is

    x_hat(P) = mean over records of
               prod_j tr(P_j (3|t_j><t_j| - I)) * tr(P_j |s_j><s_j|),

whose per-record value is 0 or +-3^|P|; the eigenvalue estimate is
``3^|P| * x_hat``.  Because the values are exact integers, estimators
accumulate signed integer counts (no floating-point summation error), and
blocks add into one histogram in any order.

Estimation
----------
A record is one uint8 cell per qubit, ``((s_axis * 2 + s_bit) * 3 + t_axis)
* 2 + t_bit``: (s axis, s sign, t axis, t sign) in mixed radix (3, 2, 3, 2),
with axis codes 0=X, 1=Y, 2=Z and a negative sign as bit 1, which every
sampler writes directly; records are an (N, n) uint8 array of cells.  An
estimator takes a ``BlockStream`` and the stream's width: a string of
another width fails in ``letter_codes``, before any block is drawn.  Every
estimator reads its pairs through one pair reader, ``_read_pairs``: it takes
(P, Q) as rows of digits P_j * 4 + Q_j, which the estimator builds from
letter codes, and returns each pair's ``3^|P| * numer / N``.  Up to four
qubits, ``_numerators`` counts the stream into one joint 36^n histogram of
cells (``count_into``): uint8 counts up to 16 * 18^n records, checked by
their sum (the table's all-identity entry) and counted again wider if a
cell wrapped, int32 up to 2^31 - 1 records and int64 past that.
Contracting it once, qubit by qubit, against the (16, 36) table of
per-qubit factors gives the 16^n *moment table*: the entry at mixed-radix index
sum_j (P_j * 4 + Q_j) * 16^(n-1-j), with letter codes I=0, X=1, Y=2, Z=3
and qubit 0 most significant, is the numerator of (P, Q): the sum over
records of prod_j tr(P_j s_j) tr(Q_j (3 t_j - I)).
The contraction is float64 matrix products through BLAS; every partial sum
is an integer below 2^53 (it raises otherwise), so the table is exact and
each estimate is the same float as a per-record sum would give.
Past four qubits, a stream is drawn into records, held once, and each
(P, Q) is read from its union support's table, built from that support's
marginal histogram (2k qubits at most for a weight <= k transfer entry).
One 36^w histogram and its 16^w table live at a time.  A support wider than
four qubits keeps a four-qubit table, and the records' factors on the other
qubits weight its histogram.

Randomness
----------
Sampling uses the counter-based Philox generator.  Records are produced in
fixed-size blocks; block ``b`` of a run with seed ``s`` always draws from
``Philox(key=s, counter=b << 128)``.  Every draw but a block's last is
block-sized; the last stops at the rows the block keeps, a prefix of its
full draw.  So record ``i`` depends only on (seed, block size, i): the
records for a smaller count are a prefix of those for a larger one, but
another block size gives other records.  Channel and gate shadows are both
streamed as a ``BlockStream``, whose one parallel driver alone calls the
kernels: the calling thread and up to one helper per further block (one
per usable CPU past the first, on a ``concurrent.futures.ThreadPoolExecutor``;
under ``taskset -c 0`` no executor starts) take block numbers from one list.
``BlockStream.count_into`` counts a stream where each block is drawn, every
thread adding its blocks into the one histogram, and ``BlockStream.records``
writes block b into its own rows of one array.  Integer addition commutes and
the rows are disjoint, so any split of the blocks between threads gives the
same counts and records.
Samplers draw their uniforms in slices, which give the same doubles as one
call, so their temporaries stay small.  The channel kernels read every draw
straight from the block generator's raw Philox stream (``_PhiloxReader``,
through ``bit_generator.random_raw``), one digit draw and one slice at a
time, with the values that ``Generator.integers(..., dtype=np.int8)`` and
``Generator.random`` give: digits from the bytes of 32-bit words, and each
outcome bit or Pauli error from a compare of the uniform's 53-bit integer
against thresholds (``_uniform_thresholds``), so no doubles are
built.  Only the gate kernel draws through the ``Generator``.  Both kinds
of draw release the GIL: on a shared 2-core VM, raw and full-range uint32
draws ran 1.3-1.7x faster on two threads than one after the other.
Gathers release it through any index type, and ``np.bincount`` and
``np.add.at`` hold it for part of each call.  The kernels gather through
intp indices converted one slice at a time, faster on one thread (32,768
uint64 values: 118 us through uint8 codes, 65 us through their intp copy),
and work their bits out with uint8 ufuncs.
On that VM, numpy operations of about 15 us or less barely overlap between
the two threads (a 262,144-element uint8 add ran 1.15-1.25x faster on two).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from functools import lru_cache, partial, reduce
from typing import Sequence

import numpy as np

from . import exact
from .channels import PauliChannel, ProductChannel, TransferMatrix
from .clifford import CONJUGATION_TABLES, gate_arity
from .observables import locality_norm_constant
from .paulis import (
    PAULI_MATRICES,
    PauliString,
    enumerate_low_weight,
    iter_all_paulis,
    letter_codes,
    low_weight_count,
)

DEFAULT_BLOCK_SIZE = 1 << 16
COUNTS_QUBIT_CAP = 4  # 36^n histogram cells
INT32_RECORDS = np.iinfo(np.int32).max  # records an int32 histogram holds
EXPECTATION_BATCHES = 10  # median-of-means batches of estimate_state_expectations


# -- sampling ------------------------------------------------------------------


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Block ``block``'s generator in run ``seed``; the key overrides Philox's OS-entropy seed."""
    return np.random.Generator(np.random.Philox(key=seed % (1 << 128), counter=block << 128))


# 32-bit words per top-up of ``_PhiloxReader.digits``.  A base-3 draw holds
# three arrays of that many bytes at once (words, mask, kept bytes); at 2^15
# words the measured-axis draw became the 4-qubit transfer-matrix block's peak.
_DIGIT_WORDS = 1 << 14


def _uniform_thresholds(p) -> np.ndarray:
    """ceil(p 2^53) as uint64, clipped to [0, 2^53].  numpy's ``random()``
    is u = (raw >> 11) 2^-53 for a raw 64-bit output, and p 2^53 is exact,
    so u >= p exactly when raw >> 11 is at least this threshold."""
    return np.ceil(np.clip(p, 0.0, 1.0) * 2.0**53).astype(np.uint64)


class _PhiloxReader:
    """One block generator's draws, read from its raw Philox stream
    (``bit_generator.random_raw``) with the values numpy's own calls give.

    ``words`` gives 32-bit words in ``next_uint32`` order: the low half of
    each 64-bit output first.  A high half left over stays pending for the
    next ``words``, also across ``uniform_ints`` draws, which read whole
    outputs as ``next_double`` does: numpy keeps the half buffered through
    ``rng.random`` calls, so digits and uniforms read in turn are the values
    that its calls in that order give.
    """

    def __init__(self, rng: np.random.Generator):
        self.raw = rng.bit_generator.random_raw
        self.half = None  # the pending high half-word, as a 1-element '<u4' array

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` >= 1 words as '<u4', whatever the host's byte
        order, or only the pending half-word if there is one (joining it to
        the others would hold a second copy of the draw)."""
        if self.half is not None:
            words, self.half = self.half, None
            return words
        words = self.raw(-(-count // 2)).astype("<u8", copy=False).view("<u4")
        self.half = words[count:].copy() if count % 2 else None
        return words[:count]

    def uniform_ints(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms of ``rng.random`` as the uint64 k of u = k 2^-53."""
        raw = self.raw(count)
        raw >>= np.uint64(11)
        return raw

    def digits(self, high: int, shape) -> np.ndarray:
        """``rng.integers(0, high, shape, dtype=np.int8)`` as uint8, for
        ``high`` 2 or 3.

        numpy's buffered Lemire draw of int8 reads the little-endian bytes of
        successive 32-bit words and maps byte b to ``(high * b) >> 8``,
        rejecting b = 0 for 3; the bytes after the last digit's are dropped.
        Each top-up reads ceil(remaining / 4) words, so no draw goes past the
        word holding the last digit and the stream ends where numpy's one
        call would.
        """
        out = np.empty(shape, dtype=np.uint8)
        flat = out.reshape(-1)
        done = 0
        while done < flat.size:
            left = flat.size - done
            b = self.words(min(-(-left // 4), _DIGIT_WORDS)).view(np.uint8)
            if high == 3:
                b = b[b != 0]
            b = b[:left]
            part = flat[done : done + b.size]
            if high == 2:
                np.right_shift(b, 7, out=part)  # (2 b) >> 8
            else:
                np.subtract(b, 1, out=part)
                np.floor_divide(part, 85, out=part)  # (3 b) >> 8 for b >= 1
            done += b.size
            del b  # before the next words are drawn
        return out


# Values per draw or gather of a sampler's slice.  Consecutive draws give the
# same values as one, so slicing bounds the temporaries without changing a
# draw.  On a 2-core VM, 2^15 kept n = 2 Pauli-error draws at about 2.4-3.1 ms
# per 65,536-record block, while 2^17 made the n = 4 transfer-matrix sampler
# fault in about 1,000 fresh pages per block.
UNIFORM_SLICE = 1 << 15


def row_slices(shape: tuple[int, ...]):
    """Yield the slices that split ``shape`` along its first axis into
    pieces of about ``UNIFORM_SLICE`` values."""
    count, *rest = shape
    step = max(UNIFORM_SLICE // math.prod(rest), 1)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _pauli_errors(channel: PauliChannel, count: int, reader: _PhiloxReader) -> np.ndarray:
    """``count`` error strings of a Pauli channel as (count, n) int8 letter
    codes: a uniform per qubit (product form) or per record (sparse form),
    its 53-bit integer compared with the thresholds of the CDFs."""
    letters = np.zeros((count, channel.n), dtype=np.int8)
    if channel.is_product:
        # The letter counts the qubit's thresholds at or below u.
        thresholds = _uniform_thresholds(np.cumsum(channel.qubit_probs(), axis=1)[:, :-1].T)
        for rows in row_slices(letters.shape):
            k = reader.uniform_ints(letters[rows].size).reshape(-1, channel.n)
            for threshold in thresholds:
                letters[rows] += k >= threshold
            del k  # before the next slice is drawn
        return letters
    terms = channel.terms()
    cdf = np.cumsum(list(terms.values()))
    cdf[-1] = 1.0
    thresholds, codes = _uniform_thresholds(cdf), letter_codes(list(terms), channel.n)
    for rows in row_slices(letters.shape):
        k = reader.uniform_ints(rows.stop - rows.start)
        letters[rows] = codes[np.searchsorted(thresholds, k, side="right")]
    return letters


def _helper_count() -> int:
    """Helper threads that sample blocks: one per usable CPU past the first."""
    try:
        return len(os.sched_getaffinity(0)) - 1
    except AttributeError:  # no affinity outside Linux
        return (os.cpu_count() or 1) - 1


@lru_cache(maxsize=None)
def _helpers(count: int):
    """The executor of ``count`` helper threads that sample blocks, started
    on first use and kept for the life of the process.  glibc gives each
    thread a heap that keeps its high-water mark; a thread started afresh
    for each group now and then got a new heap before the last one's was
    released (1.7 MB more peak RSS in four of ten ``mitigate-n8`` runs)."""
    from concurrent.futures import ThreadPoolExecutor  # imports logging: 6-8 ms, 0.6 MB

    return ThreadPoolExecutor(count, thread_name_prefix="paulishadow-sampler")


if hasattr(os, "register_at_fork"):  # a forked child has no helper threads
    os.register_at_fork(after_in_child=_helpers.cache_clear)


class BlockStream:
    """The recipe of one sampling run; ``len`` is the number of records in all.

    ``sample(rng, left)`` draws block b's min(left, block size) kept records
    from its generator as a (kept, n) uint8 cell array, and ``tally(rng,
    left)`` returns the joint cells and amounts that they add to a
    histogram.  Only a kernel's last draw stops at the kept rows.  A stream
    keeps no state, so it can be counted and recorded any number of times.
    """

    def __init__(self, n: int, count: int, seed: int, block_size: int, sample, tally):
        if count < 0:
            raise ValueError(f"record count must be >= 0, got {count}")
        if block_size < 1:
            raise ValueError(f"block size must be >= 1, got {block_size}")
        self.n, self.count, self.seed, self.block_size = n, count, seed, block_size
        self.sample, self.tally = sample, tally

    def __len__(self) -> int:
        return self.count

    def _drive(self, visit) -> None:
        """Call ``visit(block, left)`` once per block, ``left`` being the
        records still wanted from its start: the calling thread and up to one
        ``_helpers`` thread per further block take block numbers from one
        shared list.  A visit that raises empties the list, and reaches the
        caller once no helper runs."""
        todo, lock = list(reversed(range(-(-self.count // self.block_size)))), threading.Lock()

        def take() -> int | None:
            with lock:
                return todo.pop() if todo else None

        def work() -> None:
            try:
                for block in iter(take, None):
                    visit(block, self.count - block * self.block_size)
            finally:  # after a fault, no thread takes another block
                with lock:
                    todo.clear()

        helpers = _helper_count()
        pending = [_helpers(helpers).submit(work) for _ in range(min(helpers, len(todo) - 1))]
        try:
            work()
        finally:
            for future in pending:
                future.exception()  # waits for the helper
        for future in pending:
            future.result()

    def count_into(self, counts: np.ndarray) -> None:
        """Add every record into ``counts``, each block under a lock as it is tallied."""
        lock = threading.Lock()

        def visit(block: int, left: int) -> None:
            where, amounts = self.tally(block_rng(self.seed, block), left)
            # The cast wraps, as the counts do; np.asarray(300, np.uint8) raises.
            amounts = np.asarray(amounts).astype(counts.dtype, copy=False)
            with lock:  # amounts of the counts' dtype keep np.add.at on its fast path
                np.add.at(counts, where, amounts)

        self._drive(visit)

    def records(self) -> np.ndarray:
        """Every record as an (N, n) uint8 cell array, each block written into
        its own rows; the array is the transposed view of one (n, N) array,
        so each qubit's cells are one contiguous row."""
        cells = np.empty((self.n, self.count), dtype=np.uint8).T

        def visit(block: int, left: int) -> None:
            rows = slice(block * self.block_size, (block + 1) * self.block_size)
            cells[rows] = self.sample(block_rng(self.seed, block), left)

        self._drive(visit)
        return cells


def _block_sampler(channel: PauliChannel | ProductChannel, block_size: int):
    """The kernel drawing a block's kept channel shadow records as cells."""
    n = channel.n
    shape = (block_size, n)
    if isinstance(channel, ProductChannel):
        # P(+) by (qubit, input axis, input sign bit, measured axis), as the
        # threshold that a + outcome's uniform is below, and each record's
        # offset of its qubit's 6 input digits (a same-shape add is fast).
        plus_below = _uniform_thresholds(np.ravel(
            [(1.0 + channel.output_bloch(j, axis, sign)) / 2.0
             for j in range(n) for axis in range(3) for sign in (1, -1)]))
        offsets = np.tile(6 * np.arange(n), (block_size, 1)).astype(np.min_scalar_type(18 * n))
    elif not isinstance(channel, PauliChannel):
        raise TypeError(f"cannot sample shadows of {type(channel).__name__}")

    def sample(rng: np.random.Generator, left: int) -> np.ndarray:
        reader, kept = _PhiloxReader(rng), min(left, block_size)
        cells = reader.digits(3, shape)  # the cells, built in place in the input axes
        cells *= 2
        cells += reader.digits(2, shape)  # the input digit
        # Each draw is folded into the cells as soon as it can be.
        if isinstance(channel, PauliChannel):
            # At most four block arrays meet: while the outcome read in the
            # prepared axis is worked out, and at the coin's mask.
            errors = _pauli_errors(channel, block_size, reader).view(np.uint8)
            # An error other than I and the prepared axis flips the input's bit.
            axis_bit = np.right_shift(cells, 1)
            axis_bit += 1  # the prepared axis as a letter code
            np.not_equal(errors, axis_bit, out=axis_bit.view(np.bool_))
            np.minimum(errors, 1, out=errors)
            axis_bit &= errors
            np.bitwise_and(cells, 1, out=errors)
            axis_bit ^= errors
            del errors  # before two more block-sized draws
            t_axis = reader.digits(3, shape)[:kept]  # measured axis
            cells, axis_bit = cells[:kept], axis_bit[:kept]
            same = np.right_shift(cells, 1)
            np.equal(same, t_axis, out=same.view(np.bool_))  # the prepared axis is measured
            cells *= 3
            cells += t_axis
            del t_axis
            # Another basis reads a fair coin.
            t_bit = reader.digits(2, (kept, n))
            np.copyto(t_bit, axis_bit, where=same.view(np.bool_))
            del axis_bit, same
        else:
            # Two block arrays live through the outcome loop: the cells, and
            # each record's entry of plus_below, then in place its outcome bit.
            t_axis = reader.digits(3, shape)[:kept]
            cells = cells[:kept]
            t_bit = np.add(cells, offsets[:kept])  # 6j + input digit: the sign bit is its low bit
            cells *= 3
            cells += t_axis
            t_bit *= 3
            t_bit += t_axis  # 18j + input digit * 3 + measured axis
            del t_axis
            flat = t_bit.reshape(-1)
            for rows in row_slices((kept * n,)):
                # A slice holds two arrays at a time: the intp index and the
                # gathered thresholds, then the thresholds and the uniforms.
                index = flat[rows].astype(np.intp)
                at = plus_below[index]
                del index
                np.greater_equal(reader.uniform_ints(at.size), at, out=flat[rows])
                del at  # before the next slice is drawn
        cells *= 2
        cells += t_bit
        return cells

    return sample


def iter_channel_shadow_blocks(
    channel: PauliChannel | ProductChannel,
    count: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> BlockStream:
    """Stream records in deterministic blocks (see module docstring)."""
    sample = _block_sampler(channel, block_size)
    # int32 codes (36^4 < 2^31): every thread that counts holds one block's.
    return BlockStream(channel.n, count, seed, block_size, sample, lambda rng, left: (
        _joint_cells(sample(rng, left).T, range(channel.n), np.int32), 1))


# -- estimation ----------------------------------------------------------------


# Every cell's (s_axis, s_sign, t_axis, t_sign), as the rows of a (4, 36)
# int8 decode table.
_CELL_FIELDS = np.array(list(itertools.product(range(3), (1, -1), range(3), (1, -1))), np.int8).T


def _cell_factor_table() -> np.ndarray:
    """(16, 36) table: per-qubit estimator factor by (in*4 + out letter, cell)."""
    s_axis, s_sign, t_axis, t_sign = _CELL_FIELDS
    letter = np.arange(4)[:, None]
    f_in = np.where(letter == 0, 1, np.where(letter == s_axis + 1, s_sign, 0))
    f_out = np.where(letter == 0, 1, np.where(letter == t_axis + 1, 3 * t_sign, 0))
    return (f_in[:, None, :] * f_out[None, :, :]).reshape(16, 36).astype(np.int64)


_CELL_FACTORS = _cell_factor_table()
_CELL_FACTORS_T = _CELL_FACTORS.T.astype(np.float64)  # (36, 16), for BLAS


def _joint_cells(cells: np.ndarray, qubits: Sequence[int], dtype=np.int64) -> np.ndarray:
    """Joint cell of every record on ``qubits``, first qubit most significant;
    ``cells`` is (n, N), one row per qubit."""
    codes = np.zeros(cells.shape[1], dtype=dtype)
    for j in qubits:
        codes *= 36
        codes += cells[j]
    return codes


def _moment_table(hist: np.ndarray, w: int, bound: int) -> np.ndarray:
    """Contract a 36^w histogram of integers into its int64 16^w moment table.

    The table is contracted one leading cell at a time: each 36^(w-1) slab
    of the histogram gives its own 16^(w-1) table in w - 1 float64 matrix
    products through BLAS, each contracting the leading qubit axis and
    appending that qubit's letter axis (so qubit 0 ends most significant
    again).  Six leading cells make a group, and one product with their
    rows of the factor table adds the group's slab tables into the result.
    So no float copy of the histogram is held, only of one slab, and no
    (36^(w-1), 16) intermediate (6 MB at w = 4) nor all 36 slab tables
    (1.2 MB at w = 4) at once.  A
    factor is at most 3 in magnitude, so every partial sum is an integer of
    magnitude at most 3^w N, with N the histogram's total absolute count.
    Below 2^53 that is exact in float64 under any summation order; past it
    this raises.  The caller passes ``bound`` >= N from the counts it
    already has, so the histogram is not scanned for it.
    """
    if 3.0**w * bound >= 2.0**53:
        raise ValueError(f"3^{w} times a total count of {bound:.6g} is past 2^53: "
                         "the moments would round")
    if w == 0:
        return hist.reshape(-1).astype(np.int64)
    moments, slabs = np.zeros((16, 16 ** (w - 1))), np.empty((6, 16 ** (w - 1)))
    for group in range(0, 36, 6):
        for row, table in enumerate(hist.reshape(36, -1)[group : group + 6]):
            for _ in range(w - 1):
                table = table.reshape(36, -1).T.astype(np.float64, copy=False) @ _CELL_FACTORS_T
            slabs[row] = table.reshape(-1)
        moments += _CELL_FACTORS_T[group : group + 6].T @ slabs
    return moments.reshape(-1).astype(np.int64)


def _table_index(digits: np.ndarray) -> np.ndarray:
    """Moment-table index of each row of digits, first column most significant."""
    return digits @ 16 ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.int64)


def _record_factors(cells: np.ndarray, qubits, digits) -> np.ndarray | None:
    """Each record's exact integer factor on ``qubits`` for the given digits;
    None stands for all ones (no qubits)."""
    weights = None
    for j, digit in zip(qubits, digits):
        factor = _CELL_FACTORS[digit].take(cells[j])
        weights = factor if weights is None else weights * factor
    return weights


def _marginal_numerators(records: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Numerators of records past the joint cap, from one moment table per
    union support.

    A support wider than the cap splits into a head and a cap-wide tail:
    the head's digits weight each record by its factor there, and the table
    covers the tail.  Pairs are grouped by (head digits, tail qubits); each
    group bincounts its tail histogram, weighted by the head factors, and its
    table is read, then dropped.  ``records`` is an (N, n) cell array, read
    qubit by qubit through its transpose (a view of a stream's records).
    """
    cells = np.ascontiguousarray(records.T)
    n = records.shape[1]
    support = digits != 0
    # The tail is the last COUNTS_QUBIT_CAP qubits of each pair's support (int8: <= 2k).
    last = np.cumsum(support[:, ::-1], axis=1, dtype=np.int8)[:, ::-1]
    tail = support & (last <= COUNTS_QUBIT_CAP)
    keys = np.hstack([np.where(tail, 0, digits), tail])
    order = np.lexsort(keys.T)
    keys = keys[order]
    change = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(np.r_[True, change]) if len(digits) else []
    numers = np.empty(len(digits), dtype=np.int64)
    for start, stop in zip(starts, [*starts[1:], len(digits)]):
        key, members = keys[start], order[start:stop]
        head = np.flatnonzero(key[:n])
        tail_qubits = np.flatnonzero(key[n:])
        weights = _record_factors(cells, head, key[head])
        w = len(tail_qubits)
        # Integer weights keep the float histogram exact below 2^53; a head
        # factor is at most 3 in magnitude, so 3^|head| N bounds its total.
        hist = np.bincount(_joint_cells(cells, tail_qubits), weights, minlength=36**w)
        del weights  # before the next group's are built
        table = _moment_table(hist, w, 3 ** len(head) * len(records))
        numers[members] = table[_table_index(digits[members][:, tail_qubits])]
    return numers


def _numerators(stream: BlockStream, digits: np.ndarray) -> tuple[int, np.ndarray]:
    """Record count and the exact int64 numerator of each row of digits in * 4 + out.

    Up to the joint cap the stream is counted into one 36^n histogram where
    each block is drawn, and its moment table serves every pair.
    A cell expects at most total / 18^n records (uniform input digits and
    measured axes), so up to 16 * 18^n records the counts are uint8 (1.7 MB
    at n = 4).  A wrap takes exactly 256 off their sum, the moment table's
    all-identity entry, so a short sum means a recount of the stateless
    stream at int32; past 2^31 - 1 records the counts are int64.  Past the
    cap the stream is drawn into records, read per union support.
    """
    total = len(stream)
    if total == 0:
        raise ValueError("no records")
    if len(digits) == 0:  # nothing to read, so nothing is drawn
        return total, np.zeros(0, np.int64)
    if stream.n > COUNTS_QUBIT_CAP:
        return total, _marginal_numerators(stream.records(), digits)
    wide = np.int32 if total <= INT32_RECORDS else np.int64
    for dtype in [np.uint8, wide] if total <= 16 * 18**stream.n else [wide]:
        hist = np.zeros(36**stream.n, dtype)
        stream.count_into(hist)
        table = _moment_table(hist, stream.n, total)
        if table[0] == total:  # the all-identity numerator is the counts' sum: no cell wrapped
            break
    return total, table[_table_index(digits)]


def _read_pairs(stream: BlockStream, digits: np.ndarray) -> np.ndarray:
    """lambda_hat_P(Q) = 3^|P| numer / N of each (P, Q) pair,
    given as rows of digits P_j * 4 + Q_j of input and output letter codes:
    P is read against the prepared eigenstate s, Q against the measurement t.
    The caller builds the one digit array, so no copy of either side's codes
    is held while the numerators are counted."""
    total, numers = _numerators(stream, digits)
    return 3.0 ** (digits >= 4).sum(axis=1) * numers / total


class _SizedValues(partial):
    """``dict.values`` bound to one table, which ``len`` also reads."""

    def __len__(self) -> int:
        return len(self.args[0])


class _Estimates(dict):
    """A ``{PauliString: float}`` dict whose ``values`` is also sized, as
    ``perfbench/tracing.py`` counts estimated entries: ``len(result.values)``."""

    values = property(lambda table: _SizedValues(dict.values, table))


def estimate_eigenvalues(
    stream: BlockStream, strings: Sequence[PauliString]
) -> dict[PauliString, float]:
    """lambda_hat(P) = 3^|P| x_hat(P) for each of ``strings``, of the stream's
    width, keyed in the given order; the identity's numerator is the record
    count, so its estimate is exactly 1.0."""
    values = _read_pairs(stream, 5 * letter_codes(strings, stream.n))
    return _Estimates(zip(strings, values.tolist()))


def estimate_transfer_matrix(stream: BlockStream, k: int) -> TransferMatrix:
    """Estimated adjoint transfer matrix on the stream's weight <= k basis.

    Entries with |P| > |Q| are structurally zero under the weight-contracting
    assumption and are pinned to 0; the identity column is exact.
    """
    basis = tuple(enumerate_low_weight(stream.n, k))
    codes = letter_codes(basis, stream.n)
    weights = (codes != 0).sum(axis=1)
    # Estimated entries, column by column: Q is not the identity, |P| <= |Q|.
    cols, rows = np.nonzero((weights[None, :] <= weights[:, None]) & (weights[:, None] > 0))
    matrix = np.zeros((len(basis), len(basis)))
    matrix[0, 0] = 1.0  # identity column: lambda_P(I) = delta_PI
    matrix[rows, cols] = _read_pairs(stream, 4 * codes[rows] + codes[cols])
    return TransferMatrix(stream.n, k, basis, matrix)


# -- sample-size planning ------------------------------------------------------


def plan_sample_size(
    epsilon: float,
    delta: float,
    n: int,
    k: int,
    degree: int,
    min_eigenvalue: float,
) -> int:
    """Records sufficient for end-to-end recovery error epsilon w.p. 1 - delta.

    The per-eigenvalue target is ``min_eigenvalue * C(k, degree) * epsilon / 3``
    with C the locality-norm constant; a Hoeffding bound with a union over all
    weight <= k strings gives the count.  Deliberately conservative.  A count
    past the float range (or a target that squares to 0) raises ValueError.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0.0 < min_eigenvalue <= 1.0:
        raise ValueError(f"min eigenvalue must be in (0, 1], got {min_eigenvalue}")
    try:
        target = min_eigenvalue * locality_norm_constant(k, degree) * epsilon / 3.0
        per_string = target / 3.0**k
        strings = low_weight_count(n, k)
        bound = 2.0 * 9.0**k * math.log(2.0 * strings / delta) / per_string**2
        return int(math.ceil(bound))
    except (OverflowError, ZeroDivisionError):
        raise ValueError("the record count is past the float range") from None


# -- gate shadows --------------------------------------------------------------


def _gate_outcome_cdfs(kind: str, noise: PauliChannel) -> np.ndarray:
    """(18^g, 2^g) outcome CDFs of a noisy gate.  Row digit j, qubit 0 most
    significant, is qubit j's input digit (axis * 2 + sign bit) * 3 + basis
    axis; outcome bit j is 1 for -1.  The 6^g product eigenstates are both
    the inputs and the outcome projectors, so one product through the gate's
    noisy superoperator gives every outcome probability."""
    g = gate_arity(kind)
    if noise.n != g:
        raise ValueError(f"{kind} noise must act on {g} qubits, got {noise.n}")
    one = [(np.eye(2) + sign * PAULI_MATRICES[a]) / 2 for a in (1, 2, 3) for sign in (1, -1)]
    flat = np.array([reduce(np.kron, f).ravel() for f in itertools.product(one, repeat=g)])
    superop = exact.gate_superop(kind, noise).reshape(4**g, 4**g)
    probs = (flat @ superop.T @ flat.conj().T).real.reshape((6,) * g + (3, 2) * g)
    # axes (s_j; b_j, o_j) -> (s_0, b_0, s_1, b_1, ...; o_0, o_1, ...)
    order = [a for j in range(g) for a in (j, g + 2 * j)] + [g + 2 * j + 1 for j in range(g)]
    probs = np.clip(probs.transpose(order).reshape(18**g, 2**g), 0.0, None)
    cdfs = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    cdfs[:, -1] = 1.0
    return cdfs


def sample_gate_shadows(
    kind: str,
    noise: PauliChannel,
    count: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> BlockStream:
    """Stream shadow records of a noisy gate in deterministic blocks: random
    eigenstate in, gate plus noise, random Pauli measurement out.  ``n`` of
    every block is the gate arity; blocks follow the (seed, block) scheme of
    ``iter_channel_shadow_blocks``.

    A block draws int32 input digits, int32 basis digits, then one uniform
    per kept record.  The row of ``_gate_outcome_cdfs`` is built in place from
    the digits, the outcome counts the row's thresholds at or below the uniform,
    and ``row * 2^g + outcome`` indexes a table that holds the record's g
    cells as one g-byte word.  A histogram bincounts that index instead and
    adds the bins at each index's joint cell."""
    g = gate_arity(kind)
    outcomes = 2**g
    # Threshold k of every row, one contiguous row per k.
    thresholds = np.ascontiguousarray(_gate_outcome_cdfs(kind, noise)[:, :-1].T)
    # The g cells of (row, outcome): cell j is 2 * row digit j + outcome bit j.
    digits = np.unravel_index(np.arange(36**g), (18,) * g + (2,) * g)
    cell_table = np.stack([2 * digits[j] + digits[g + j] for j in range(g)], 1).astype(np.uint8)
    cell_words = cell_table.view(f"u{g}").reshape(-1)  # gates act on one or two qubits
    joint_cells = _joint_cells(cell_table.T, range(g))

    def outcome_index(rng: np.random.Generator, left: int) -> np.ndarray:
        shape = (block_size, g)
        # int32 draws take the same 32-bit words as int64 ones; each is
        # narrowed before the next, so no two block-sized int32 arrays meet.
        digits = rng.integers(0, 6, shape, dtype=np.int32).astype(np.uint8)  # input digits
        digits *= 3
        digits += rng.integers(0, 3, shape, dtype=np.int32).astype(np.uint8)  # basis digits
        row = digits[:, 0].astype(np.int16)
        for j in range(1, g):
            row *= 18
            row += digits[:, j]
        del digits  # before the uniforms and their intp indices
        row = row[:left]  # the last draw, the uniforms, is of the kept rows only
        # A slice holds each record's uniform, intp row and one gathered
        # threshold, so it takes UNIFORM_SLICE / outcomes records.
        for rows in row_slices((len(row), outcomes)):
            part = row[rows]
            index = part.astype(np.intp)
            u = rng.random(len(index))
            outcome = (u >= thresholds[0][index]).view(np.uint8)
            for k in range(1, outcomes - 1):
                outcome += u >= thresholds[k][index]
            part *= outcomes
            part += outcome
        return row

    def sample(rng: np.random.Generator, left: int) -> np.ndarray:
        index = outcome_index(rng, left)
        words = np.empty(len(index), cell_words.dtype)
        for rows in row_slices(words.shape):
            words[rows] = cell_words[index[rows].astype(np.intp)]
        return words.view(np.uint8).reshape(-1, g)

    def tally(rng: np.random.Generator, left: int) -> tuple[np.ndarray, np.ndarray]:
        return joint_cells, np.bincount(outcome_index(rng, left), minlength=36**g)

    return BlockStream(g, count, seed, block_size, sample, tally)


def estimate_gate_eigenvalues(stream: BlockStream, kind: str) -> dict[PauliString, float]:
    """Noise eigenvalues of a gate from its shadow stream, whose width must
    be the gate's arity: every local string in ``iter_all_paulis`` order,
    the identity first at exactly 1.0.

    The input-side Pauli is the backward conjugation U^dagger P U, read from
    the kind's conjugation table; its sign multiplies the estimate, and the
    3^|.| rescaling uses the conjugated weight (the input side is what the
    random eigenstate sees).
    """
    strings, backs = list(iter_all_paulis(gate_arity(kind))), CONJUGATION_TABLES[kind]
    values = _read_pairs(stream, 4 * letter_codes(backs, stream.n)
                         + letter_codes(strings, stream.n))
    values *= [back.sign for back in backs]
    return _Estimates(zip(strings, values.tolist()))


# -- state expectation estimation ---------------------------------------------


def sample_pauli_basis_outcomes(
    channel: PauliChannel, psi: np.ndarray, bases: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample measurement signs of E(|psi><psi|) for each record's product basis.

    ``bases`` is (N, n) with axis codes; returns (N, n) int8 signs.  Records
    sharing a basis are sampled together from the exact joint distribution.
    """
    signs = np.empty(bases.shape, dtype=np.int8)
    uniques, inverse = np.unique(bases, axis=0, return_inverse=True)
    bit_shift = np.arange(bases.shape[1] - 1, -1, -1)
    for g, axes in enumerate(uniques):
        rows = np.flatnonzero(inverse == g)
        cdf = np.cumsum(exact.basis_outcome_probabilities(channel, psi, axes))
        cdf[-1] = 1.0
        outcomes = np.searchsorted(cdf, rng.random(rows.size), side="right")
        bits = (outcomes[:, None] >> bit_shift[None, :]) & 1
        signs[rows] = (1 - 2 * bits).astype(np.int8)
    return signs


def estimate_state_expectations(
    channel: PauliChannel,
    psi: np.ndarray,
    paulis: Sequence[PauliString],
    count: int,
    seed: int,
) -> dict[PauliString, float]:
    """Median-of-means Pauli expectations of E(|psi><psi|), for a Pauli
    channel E and a unit statevector psi, from random-basis shadows.

    Measures ``count`` snapshots in uniformly random product Pauli bases
    (outcomes drawn from the exact distribution), reconstructs each Pauli's
    single-shot estimator, and returns the median of ``EXPECTATION_BATCHES``
    batch means.
    """
    if count < EXPECTATION_BATCHES:
        raise ValueError(f"need at least {EXPECTATION_BATCHES} records, got {count}")
    n = channel.n
    rng = block_rng(seed, 0)
    bases = rng.integers(0, 3, (count, n), dtype=np.int8)
    signs = sample_pauli_basis_outcomes(channel, psi, bases, rng)
    edges = np.linspace(0, count, EXPECTATION_BATCHES + 1).astype(int)
    out: dict[PauliString, float] = {}
    for p, codes in zip(paulis, letter_codes(paulis, n)):
        support = np.flatnonzero(codes)
        hit = (bases[:, support] == codes[support] - 1).all(axis=1)
        values = np.where(hit, signs[:, support].prod(axis=1, dtype=np.int64), 0)
        batch_means = [
            p.sign * 3.0 ** p.weight * values[a:b].sum() / (b - a)
            for a, b in zip(edges[:-1], edges[1:])
        ]
        out[p] = float(np.median(batch_means))
    return out
