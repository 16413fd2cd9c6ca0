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
accumulate signed integer counts (no floating-point summation error) and are
mergeable across blocks.

Estimation
----------
A record is one uint8 cell per qubit: (s axis, s sign, t axis, t sign) in
mixed radix (3, 2, 3, 2), which every sampler writes directly.
``ShadowCounts`` holds the joint 36^n histogram of cells (n <= 4).
Contracting it once, qubit by qubit, against the (16, 36) table of
per-qubit factors gives the 16^n *moment table*: the entry at mixed-radix
index sum_j (P_j * 4 + Q_j) * 16^(n-1-j), with letter codes I=0, X=1, Y=2,
Z=3 and qubit 0 most significant, is the numerator of (P, Q): the sum over
records of prod_j tr(P_j s_j) tr(Q_j (3 t_j - I)).  Every eigenvalue,
transfer entry and gate estimate is one lookup, ``3^|P| * numer / N``.
The contraction is float64 matrix products through BLAS; every partial sum
is an integer below 2^53 (it raises otherwise), so the table is exact and
each estimate is the same float as a per-record sum would give.
Past the cap, each (P, Q) is read from the table of its union support,
built from that support's marginal histogram: weight <= k supports for
eigenvalues, <= 2k for transfer entries.  One 36^w histogram and its 16^w
table live at a time.  A support wider than four qubits keeps a four-qubit
table, and the records' factors on the other qubits weight its histogram.

Randomness
----------
Sampling uses the counter-based Philox generator.  Records are produced in
fixed-size blocks; block ``b`` of a run with seed ``s`` always draws from
``Philox(key=s, counter=b << 128)`` and always draws full-block-sized arrays,
so record ``i`` depends only on (seed, block size, i): the records for a
smaller count are a prefix of those for a larger one, but another block
size gives other records.  Channel and gate shadows share this block driver
and are both streamed, so a caller that reduces each block into a histogram
holds one block per usable CPU at a time, and the histogram does not depend
on how the records are re-chunked for reduction.  The driver samples blocks
on one helper thread per usable CPU past the first, and the records do not
depend on that count: under ``taskset -c 0`` it samples on one thread.
Samplers draw their uniforms in slices, which give the same doubles as one
call, so their temporaries stay small.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import threading
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import exact
from .channels import PauliChannel, ProductChannel, TransferMatrix, uniform_slices
from .clifford import conjugate_pauli, gate_arity
from .observables import locality_norm_constant
from .paulis import (
    PAULI_MATRICES,
    PauliString,
    enumerate_low_weight,
    iter_all_paulis,
    letter_codes,
    low_weight_count,
)

AXES = "XYZ"
# (axis letter, sign) bytes -> input or measurement digit axis * 2 + sign bit
_DIGITS = np.full((256, 256), -1, dtype=np.int8)
_DIGITS[tuple(np.array([(ord(a), ord(s)) for a in AXES for s in "+-"]).T)] = np.arange(6)
DEFAULT_BLOCK_SIZE = 1 << 16
COUNTS_QUBIT_CAP = 4  # 36^n histogram cells


# -- records -------------------------------------------------------------------


# Every cell's (s_axis, s_sign, t_axis, t_sign), as the rows of a (4, 36)
# int8 decode table, and its four characters of text.
_CELL_FIELDS = np.array(list(itertools.product(range(3), (1, -1), range(3), (1, -1))), np.int8).T
_CELL_TEXT = np.frombuffer(
    "".join(map("".join, itertools.product(AXES, "+-", AXES, "+-"))).encode(), np.uint8
).reshape(36, 4)


class ShadowRecords:
    """A batch of shadow records: one (N, n) uint8 ``cells`` array.

    A cell codes a qubit's intended input eigenstate and its measurement,
    ``((s_axis * 2 + s_bit) * 3 + t_axis) * 2 + t_bit``, with axis codes
    0=X, 1=Y, 2=Z and a negative sign as bit 1.  The samplers write cells;
    the constructor encodes them from (N, n) ``s_axis``, ``s_sign``,
    ``t_axis`` and ``t_sign`` arrays (signs +-1), which the properties decode.
    """

    def __init__(self, s_axis, s_sign, t_axis, t_sign):
        fields = [np.asarray(f) for f in (s_axis, s_sign, t_axis, t_sign)]
        s_axis, s_sign, t_axis, t_sign = fields
        if len({f.shape for f in fields}) > 1 or s_axis.ndim != 2:
            raise ValueError(f"expected four (N, n) arrays, got shapes {[f.shape for f in fields]}")
        cells = ((s_axis * 2 + (s_sign < 0)) * 3 + t_axis) * 2 + (t_sign < 0)
        self.cells = cells.astype(np.uint8)

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> "ShadowRecords":
        """Wrap an (N, n) uint8 cell array, without a copy."""
        out = cls.__new__(cls)
        out.cells = cells
        return out

    s_axis = property(lambda self: _CELL_FIELDS[0].take(self.cells))
    s_sign = property(lambda self: _CELL_FIELDS[1].take(self.cells))
    t_axis = property(lambda self: _CELL_FIELDS[2].take(self.cells))
    t_sign = property(lambda self: _CELL_FIELDS[3].take(self.cells))

    def __len__(self) -> int:
        return self.cells.shape[0]

    @property
    def n(self) -> int:
        return self.cells.shape[1]

    def __getitem__(self, key) -> "ShadowRecords":
        if isinstance(key, int):
            key = slice(key, key + 1)
        return ShadowRecords.from_cells(self.cells[key])

    @classmethod
    def concatenate(
        cls, batches: Iterable["ShadowRecords"], shape: tuple[int, int] | None = None
    ) -> "ShadowRecords":
        """Join batches.  Given the total ``shape``, the batches may be a
        stream: each is copied into one preallocated array as it arrives."""
        if shape is None:
            return cls.from_cells(np.concatenate([b.cells for b in batches]))
        cells = np.empty(shape, dtype=np.uint8)
        stop = 0
        for batch in batches:
            cells[stop : stop + len(batch)] = batch.cells
            stop += len(batch)
        if stop != shape[0]:
            raise ValueError(f"expected {shape[0]} records, got {stop}")
        return cls.from_cells(cells)

    # one record per line: "s:Z+X- t:Z-Y+"

    def to_lines(self) -> list[str]:
        n = self.n
        text = np.empty((len(self), 4 * n + 6), dtype=np.uint8)
        text[:, :2] = np.frombuffer(b"s:", np.uint8)
        text[:, 2 * n + 2 : 2 * n + 5] = np.frombuffer(b" t:", np.uint8)
        text[:, -1] = ord("\n")
        chars = _CELL_TEXT[self.cells]  # (N, n, 4)
        text[:, 2 : 2 * n + 2] = chars[:, :, :2].reshape(len(self), 2 * n)
        text[:, 2 * n + 5 : 4 * n + 5] = chars[:, :, 2:].reshape(len(self), 2 * n)
        return text.tobytes().decode("ascii").splitlines()

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "ShadowRecords":
        lines = [" ".join(raw.split()) for raw in lines]
        first = next((line for line in lines if line and line[0] != "#"), None)
        if first is None:
            raise ValueError("no records found")
        n = max(len(first) - 5, 0) // 4
        # One code point per column; a longer line shows in the last column.
        text = np.array(lines, dtype=f"U{4 * n + 6}")
        text = np.minimum(text.view(np.uint32).reshape(len(lines), 4 * n + 6), 255)
        kept = np.flatnonzero((text[:, 0] != 0) & (text[:, 0] != ord("#")))
        text = text[kept]
        axes = np.r_[2 : 2 * n + 2 : 2, 2 * n + 5 : 4 * n + 5 : 2]
        digits = _DIGITS[text[:, axes], text[:, axes + 1]]
        ok = (
            (text[:, :2] == [ord("s"), ord(":")]).all(axis=1)
            & (text[:, 2 * n + 2 : 2 * n + 5] == [ord(" "), ord("t"), ord(":")]).all(axis=1)
            & (digits >= 0).all(axis=1)
            & (text[:, 4 * n + 5 :] == 0).all(axis=1)
        )
        if not ok.all():
            row = kept[np.argmin(ok)]
            raise ValueError(f"line {row + 1}: expected 's:... t:...' with {n} qubits a side, "
                             f"got {lines[row]!r}")
        # A cell's first digit in radix 6 is its input's, the second its measurement's.
        return cls.from_cells((6 * digits[:, :n] + digits[:, n:]).view(np.uint8))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")

    @classmethod
    def load(cls, path) -> "ShadowRecords":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_lines(fh)


# -- sampling ------------------------------------------------------------------


def block_rng(seed: int, block: int) -> np.random.Generator:
    """The deterministic generator owning block ``block`` of run ``seed``."""
    return np.random.Generator(
        np.random.Philox(key=seed % (1 << 128), counter=block << 128)
    )


def _helper_count() -> int:
    """Helper threads that sample blocks: one per usable CPU past the first."""
    try:
        return len(os.sched_getaffinity(0)) - 1
    except AttributeError:  # no affinity outside Linux
        return (os.cpu_count() or 1) - 1


class _HelperBlock:
    """A block being sampled on a helper thread.  ``result()`` waits for it
    and returns it, or raises the exception the sampler raised.

    The block is returned as a copy made by the calling thread, so a
    consumer that holds blocks (past the joint cap they are joined) holds
    them in its own heap, and the helper's holds one block's temporaries."""

    def __init__(self):
        self.done = threading.Event()
        self.records = self.error = None

    def result(self) -> ShadowRecords:
        self.done.wait()
        if self.error is not None:
            raise self.error
        return ShadowRecords.from_cells(self.records.cells.copy())


class _Helpers:
    """Helper threads that sample blocks, started on first use and kept for
    the life of the process.  glibc gives each thread a heap that keeps its
    high-water mark; a thread started afresh for each group now and then got
    a new heap before the last one's was released (1.7 MB more peak RSS in
    four of ten ``mitigate-n8`` runs)."""

    def __init__(self):
        self._reset()
        if hasattr(os, "register_at_fork"):  # a forked child has no helper threads
            os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.tasks = queue.SimpleQueue()
        self.threads = []
        self.lock = threading.Lock()

    def submit(self, sample, rng: np.random.Generator, helpers: int) -> _HelperBlock:
        """Queue one block, first starting threads until there are ``helpers``."""
        with self.lock:
            while len(self.threads) < helpers:
                self.threads.append(threading.Thread(target=self._serve, daemon=True))
                self.threads[-1].start()
        block = _HelperBlock()
        self.tasks.put((sample, rng, block))
        return block

    def _serve(self) -> None:
        while True:
            sample, rng, block = self.tasks.get()
            try:
                block.records = sample(rng)
            except BaseException as exc:  # raised again in the consumer
                block.error = exc
            block.done.set()


_HELPERS = _Helpers()


def _iter_blocks(count: int, seed: int, block_size: int, sample) -> Iterator[ShadowRecords]:
    """The block driver: ``sample(rng)`` draws one full block from block b's
    generator, and the last block is sliced to the records still wanted.

    Blocks are taken in groups, one block per usable CPU: the calling thread
    samples the group's first block and one helper thread each of the rest
    (numpy releases the GIL in the Philox fills and large ufuncs).  Blocks
    are yielded in block order, and every block draws from its own
    generator, so the records do not depend on the number of helpers."""
    if count < 0:
        raise ValueError(f"record count must be >= 0, got {count}")
    blocks = range(-(-count // block_size))
    helpers = _helper_count()
    for first in range(0, len(blocks), helpers + 1):
        group = blocks[first : first + helpers + 1]
        pending = [_HELPERS.submit(sample, block_rng(seed, b), helpers) for b in group[1:]]
        sampled = itertools.chain([sample(block_rng(seed, first))], (p.result() for p in pending))
        for block, records in zip(group, sampled):
            left = count - block * block_size
            yield records[:left] if left < block_size else records


def _block_sampler(channel: PauliChannel | ProductChannel, block_size: int, spam: float):
    """The kernel drawing one full block of channel shadow records as cells."""
    n = channel.n
    shape = (block_size, n)
    if isinstance(channel, ProductChannel):
        # P(+) by (qubit, input axis, physical sign bit, measured axis), and each
        # record's offset of its qubit's 18 entries (a same-shape add is fast).
        p_plus = np.ravel([(1.0 + channel.output_bloch(j, axis, sign)) / 2.0
                           for j in range(n) for axis in range(3) for sign in (1, -1)])
        offsets = np.tile(18 * np.arange(n), (block_size, 1)).astype(np.min_scalar_type(18 * n))
    elif not isinstance(channel, PauliChannel):
        raise TypeError(f"cannot sample shadows of {type(channel).__name__}")

    def flips(rng: np.random.Generator) -> np.ndarray:
        out = np.empty(shape, dtype=np.uint8)
        for rows, u in uniform_slices(rng, shape):
            np.less(u, spam, out=out[rows])
        return out

    def sample(rng: np.random.Generator) -> ShadowRecords:
        s_axis = rng.integers(0, 3, shape, dtype=np.int8).view(np.uint8)
        s_bit = rng.integers(0, 2, shape, dtype=np.int8).view(np.uint8)
        physical_bit = s_bit
        if spam > 0.0:
            physical_bit = flips(rng)
            physical_bit ^= s_bit
        if isinstance(channel, PauliChannel):
            errors = channel.sample_errors(block_size, rng).view(np.uint8)
            # An error other than I and the prepared axis flips the outcome
            # read in the prepared axis.
            axis_bit = (errors != 0).view(np.uint8)
            errors -= 1
            axis_bit &= errors != s_axis
            axis_bit ^= physical_bit
            del errors  # before two more block-sized draws
            t_axis = rng.integers(0, 3, shape, dtype=np.int8).view(np.uint8)
            # Another basis reads a fair coin.
            t_bit = rng.integers(0, 2, shape, dtype=np.int8).view(np.uint8)
            np.copyto(t_bit, axis_bit, where=t_axis == s_axis)
        else:
            t_axis = rng.integers(0, 3, shape, dtype=np.int8).view(np.uint8)
            # Each record's entry of p_plus, then in place its outcome bit.
            t_bit = np.multiply(s_axis, 2, dtype=offsets.dtype)
            t_bit += physical_bit
            t_bit *= 3
            t_bit += t_axis
            t_bit += offsets
            for rows, u in uniform_slices(rng, shape):
                np.greater_equal(u, p_plus.take(t_bit[rows]), out=t_bit[rows])
        if spam > 0.0:
            t_bit ^= flips(rng)
        # The cells, in place in the input axes.
        cells = s_axis
        cells *= 2
        cells += s_bit
        cells *= 3
        cells += t_axis
        cells *= 2
        cells += t_bit
        return ShadowRecords.from_cells(cells)

    return sample


def iter_channel_shadow_blocks(
    channel: PauliChannel | ProductChannel,
    count: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    spam_flip_probability: float = 0.0,
) -> Iterator[ShadowRecords]:
    """Stream records in deterministic blocks (see module docstring)."""
    if not 0.0 <= spam_flip_probability <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {spam_flip_probability}")
    sample = _block_sampler(channel, block_size, spam_flip_probability)
    yield from _iter_blocks(count, seed, block_size, sample)


def sample_channel_shadows(
    channel: PauliChannel | ProductChannel,
    count: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    spam_flip_probability: float = 0.0,
) -> ShadowRecords:
    blocks = iter_channel_shadow_blocks(channel, count, seed, block_size, spam_flip_probability)
    return ShadowRecords.concatenate(blocks, (max(count, 0), channel.n))


# -- estimation ----------------------------------------------------------------


def _cell_factor_table() -> np.ndarray:
    """(16, 36) table: per-qubit estimator factor by (in*4 + out letter, cell)."""
    s_axis, s_sign, t_axis, t_sign = _CELL_FIELDS
    letter = np.arange(4)[:, None]
    f_in = np.where(letter == 0, 1, np.where(letter == s_axis + 1, s_sign, 0))
    f_out = np.where(letter == 0, 1, np.where(letter == t_axis + 1, 3 * t_sign, 0))
    return (f_in[:, None, :] * f_out[None, :, :]).reshape(16, 36).astype(np.int64)


_CELL_FACTORS = _cell_factor_table()
_CELL_FACTORS_T = _CELL_FACTORS.T.astype(np.float64)  # (36, 16), for BLAS


def _joint_cells(cells: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Joint cell of every record on ``qubits``, first qubit most significant;
    ``cells`` is (n, N), one row per qubit."""
    codes = np.zeros(cells.shape[1], dtype=np.int64)
    for j in qubits:
        codes *= 36
        codes += cells[j]
    return codes


def _moment_table(hist: np.ndarray, w: int) -> np.ndarray:
    """Contract a 36^w histogram of integers into its int64 16^w moment table.

    The table is contracted one leading cell at a time: each 36^(w-1) slab
    of the histogram gives its own 16^(w-1) table in w - 1 float64 matrix
    products through BLAS, each contracting the leading qubit axis and
    appending that qubit's letter axis (so qubit 0 ends most significant
    again), and one product with the factor table sums the 36 slab tables
    over the leading cell.  So no float copy of the histogram is held, and
    no (36^(w-1), 16) intermediate (6 MB at w = 4).  A factor is at most 3 in
    magnitude, so every partial sum is an integer of magnitude at most
    3^w N, with N the histogram's total absolute count.  Below 2^53 that is
    exact in float64 under any summation order; past it this raises.
    """
    total = float(hist.sum() if hist.min() >= 0 else np.abs(hist).sum())
    if 3.0**w * total >= 2.0**53:
        raise ValueError(f"3^{w} times a total count of {total:.6g} is past 2^53: "
                         "the moments would round")
    if w == 0:
        return hist.reshape(-1).astype(np.int64)
    slabs = np.empty((36, 16 ** (w - 1)))
    for cell, table in enumerate(hist.reshape(36, -1)):
        for _ in range(w - 1):
            table = table.reshape(36, -1).T.astype(np.float64, copy=False) @ _CELL_FACTORS_T
        slabs[cell] = table.reshape(-1)
    return (_CELL_FACTORS_T.T @ slabs).reshape(-1).astype(np.int64)


def _pair_letters(pairs, n: int) -> np.ndarray:
    """(len(pairs), n) int8 letter of every (input, output) pair on every
    qubit, in_code * 4 + out_code: the moment-table digit of that qubit."""
    return 4 * letter_codes([p for p, _ in pairs], n) + letter_codes([q for _, q in pairs], n)


def _table_index(letters: np.ndarray) -> np.ndarray:
    """Moment-table index of each row of letters, first column most significant."""
    return letters @ 16 ** np.arange(letters.shape[1] - 1, -1, -1, dtype=np.int64)


class ShadowCounts:
    """Joint histogram over per-qubit (s_axis, s_sign, t_axis, t_sign) cells.

    A sufficient statistic for every estimator in this module: 36 cells per
    qubit, 36^n joint cells (n <= 4).  Counts are integers, so estimates
    derived from them are exact functions of the drawn records, and two
    histograms merge by addition.
    """

    def __init__(self, n: int):
        if not 1 <= n <= COUNTS_QUBIT_CAP:
            raise ValueError(f"counts need 1 <= n <= {COUNTS_QUBIT_CAP}, got {n}")
        self.n = n
        self.counts = np.zeros(36**n, dtype=np.int64)
        self.n_records = 0

    @classmethod
    def from_records(cls, records: ShadowRecords) -> "ShadowCounts":
        out = cls(records.n)
        out.update(records)
        return out

    @classmethod
    def accumulate(cls, blocks: Iterable[ShadowRecords], n: int) -> "ShadowCounts":
        out = cls(n)
        for block in blocks:
            out.update(block)
        return out

    def update(self, records: ShadowRecords) -> None:
        if records.n != self.n:
            raise ValueError(f"records have n={records.n}, counts have n={self.n}")
        for start in range(0, len(records), DEFAULT_BLOCK_SIZE):  # bounds the temporaries
            block = records[start : start + DEFAULT_BLOCK_SIZE]
            np.add.at(self.counts, _joint_cells(block.cells.T, range(self.n)), 1)
        self.n_records += len(records)

    def merge(self, other: "ShadowCounts") -> "ShadowCounts":
        if other.n != self.n:
            raise ValueError(f"cannot merge n={other.n} into n={self.n}")
        out = ShadowCounts(self.n)
        out.counts = self.counts + other.counts
        out.n_records = self.n_records + other.n_records
        return out

    def moments(self) -> np.ndarray:
        """The 16^n moment table of the current counts."""
        return _moment_table(self.counts, self.n)


def _record_factors(cells: np.ndarray, qubits, letters) -> np.ndarray | None:
    """Each record's exact integer factor on ``qubits`` for the given letters;
    None stands for all ones (no qubits)."""
    weights = None
    for j, letter in zip(qubits, letters):
        factor = _CELL_FACTORS[letter].take(cells[j])
        weights = factor if weights is None else weights * factor
    return weights


def _marginal_numerators(records: ShadowRecords, pairs) -> list[int]:
    """Numerators past the joint cap, from one moment table per union support.

    A support wider than the cap splits into a head and a cap-wide tail: the
    head's letters weight each record by its factor there, and the table
    covers the tail.  Pairs are grouped by (head letters, tail qubits); each
    group bincounts its tail histogram, weighted by the head factors, and its
    table is read, then dropped.
    """
    cells = np.ascontiguousarray(records.cells.T)
    n = records.n
    letters = _pair_letters(pairs, n)
    support = letters != 0
    # The tail is the last COUNTS_QUBIT_CAP qubits of each pair's support.
    tail = support & (np.cumsum(support[:, ::-1], axis=1)[:, ::-1] <= COUNTS_QUBIT_CAP)
    keys = np.hstack([np.where(tail, 0, letters), tail])
    order = np.lexsort(keys.T)
    keys = keys[order]
    change = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(np.r_[True, change]) if len(pairs) else []
    numers = np.empty(len(pairs), dtype=np.int64)
    for start, stop in zip(starts, [*starts[1:], len(pairs)]):
        key, members = keys[start], order[start:stop]
        head = np.flatnonzero(key[:n])
        tail_qubits = np.flatnonzero(key[n:])
        weights = _record_factors(cells, head, key[head])
        tail_letters = letters[members][:, tail_qubits]
        w = len(tail_qubits)
        # Integer weights keep the float histogram exact below 2^53.
        hist = np.bincount(_joint_cells(cells, tail_qubits), weights, minlength=36**w)
        table = _moment_table(hist, w)
        numers[members] = table[_table_index(tail_letters)]
    return numers.tolist()


def _numerators(source, n: int, pairs) -> tuple[int, list[int]]:
    """Record count and the exact numerator of every (input, output) pair.

    ``source`` is a ShadowCounts, a ShadowRecords, or a stream of record
    blocks; up to the joint cap, records and streams are reduced to counts,
    and past it a stream is joined into records.
    """
    if not isinstance(source, (ShadowCounts, ShadowRecords)):
        if n <= COUNTS_QUBIT_CAP:
            source = ShadowCounts.accumulate(source, n)
        else:  # an empty first batch joins an empty stream to zero records
            empty = ShadowRecords.from_cells(np.empty((0, n), dtype=np.uint8))
            source = ShadowRecords.concatenate([empty, *source])
    if source.n != n:
        raise ValueError(f"source has n={source.n}, expected {n}")
    if isinstance(source, ShadowRecords) and n <= COUNTS_QUBIT_CAP:
        source = ShadowCounts.from_records(source)
    total = source.n_records if isinstance(source, ShadowCounts) else len(source)
    if total == 0:
        raise ValueError("no records")
    if isinstance(source, ShadowRecords):
        return total, _marginal_numerators(source, pairs)
    return total, source.moments()[_table_index(_pair_letters(pairs, n))].tolist()


def estimate_x(records: ShadowRecords | ShadowCounts, p: PauliString) -> float:
    """x_hat(P): mean per-record estimator value (no 3^|P| rescaling)."""
    total, (numer,) = _numerators(records, records.n, [(p, p)])
    return numer / total


@dataclass
class EigenvalueEstimates:
    """Estimated eigenvalues for every string of weight <= k."""

    n: int
    values: dict[PauliString, float]
    n_records: int

    def __getitem__(self, p: PauliString) -> float:
        p = p.unsigned()
        if p.is_identity:
            return 1.0
        try:
            return self.values[p]
        except KeyError:
            raise KeyError(f"no eigenvalue estimate for {p}") from None

    def __contains__(self, p: PauliString) -> bool:
        p = p.unsigned()
        return p.is_identity or p in self.values

    def items(self):
        return self.values.items()

    @classmethod
    def from_channel(cls, channel: PauliChannel, k: int) -> "EigenvalueEstimates":
        """Oracle table: exact eigenvalues, usable wherever estimates are."""
        values = {
            p: channel.eigenvalue(p)
            for p in enumerate_low_weight(channel.n, k)
            if not p.is_identity
        }
        return cls(channel.n, values, 0)


def estimate_eigenvalues(
    source: ShadowRecords | ShadowCounts | Iterable[ShadowRecords],
    n: int,
    k: int,
) -> EigenvalueEstimates:
    """lambda_hat(P) = 3^|P| x_hat(P) for every weight <= k string."""
    strings = [p for p in enumerate_low_weight(n, k) if not p.is_identity]
    total, numers = _numerators(source, n, [(p, p) for p in strings])
    values = {p: 3.0 ** p.weight * numer / total for p, numer in zip(strings, numers)}
    return EigenvalueEstimates(n, values, total)


def estimate_transfer_entry(
    records: ShadowRecords | ShadowCounts, in_pauli: PauliString, out_pauli: PauliString
) -> float:
    """lambda_hat_P(Q) = 3^|P| x_hat(P, Q): input side against s, output against t."""
    total, (numer,) = _numerators(records, records.n, [(in_pauli, out_pauli)])
    if out_pauli.is_identity:
        return 1.0 if in_pauli.is_identity else 0.0
    return 3.0 ** in_pauli.weight * numer / total


def estimate_transfer_matrix(
    source: ShadowRecords | ShadowCounts | Iterable[ShadowRecords],
    n: int,
    k: int,
) -> TransferMatrix:
    """Estimated adjoint transfer matrix on the weight <= k basis.

    Entries with |P| > |Q| are structurally zero under the weight-contracting
    assumption and are pinned to 0; the identity column is exact.
    """
    basis = tuple(enumerate_low_weight(n, k))
    weights = np.array([p.weight for p in basis])
    # Estimated entries, column by column: Q is not the identity, |P| <= |Q|.
    cols, rows = np.nonzero((weights[None, :] <= weights[:, None]) & (weights[:, None] > 0))
    total, numers = _numerators(source, n, [(basis[r], basis[c]) for r, c in zip(rows, cols)])
    matrix = np.zeros((len(basis), len(basis)))
    matrix[0, 0] = 1.0  # identity column: lambda_P(I) = delta_PI
    matrix[rows, cols] = 3.0 ** weights[rows] * np.array(numers, dtype=np.int64) / total
    return TransferMatrix(n, k, basis, matrix)


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
    weight <= k strings gives the count.  Deliberately conservative.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0.0 < min_eigenvalue <= 1.0:
        raise ValueError(f"min eigenvalue must be in (0, 1], got {min_eigenvalue}")
    target = min_eigenvalue * locality_norm_constant(k, degree) * epsilon / 3.0
    per_string = target / 3.0**k
    strings = low_weight_count(n, k)
    bound = 2.0 * 9.0**k * math.log(2.0 * strings / delta) / per_string**2
    return int(math.ceil(bound))


# -- gate shadows --------------------------------------------------------------


def _gate_outcome_cdfs(kind: str, noise: PauliChannel | None) -> np.ndarray:
    """(18^g, 2^g) outcome CDFs of a noisy gate.  Row digit j, qubit 0 most
    significant, is qubit j's input digit (axis * 2 + sign bit) * 3 + basis
    axis; outcome bit j is 1 for -1.  The 6^g product eigenstates are both
    the inputs and the outcome projectors, so one product through the gate's
    noisy superoperator gives every outcome probability."""
    g = gate_arity(kind)
    if noise is not None and noise.n != g:
        raise ValueError(f"{kind} noise must act on {g} qubits, got {noise.n}")
    one = [(np.eye(2) + sign * PAULI_MATRICES[a]) / 2 for a in (1, 2, 3) for sign in (1, -1)]
    flat = np.array([reduce(np.kron, f).ravel() for f in itertools.product(one, repeat=g)])
    superop = exact.gate_superop(kind, g, noise).reshape(4**g, 4**g)
    probs = (flat @ superop.T @ flat.conj().T).real.reshape((6,) * g + (3, 2) * g)
    # axes (s_j; b_j, o_j) -> (s_0, b_0, s_1, b_1, ...; o_0, o_1, ...)
    order = [a for j in range(g) for a in (j, g + 2 * j)] + [g + 2 * j + 1 for j in range(g)]
    probs = np.clip(probs.transpose(order).reshape(18**g, 2**g), 0.0, None)
    cdfs = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    cdfs[:, -1] = 1.0
    return cdfs


def sample_gate_shadows(
    kind: str,
    noise: PauliChannel | None,
    count: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[ShadowRecords]:
    """Stream shadow records of a noisy gate in deterministic blocks: random
    eigenstate in, gate plus noise, random Pauli measurement out.  ``n`` of
    every block is the gate arity; blocks follow the (seed, block) scheme of
    ``iter_channel_shadow_blocks``.

    A block draws int32 input digits, int32 basis digits, then one uniform
    per record.  The row of ``_gate_outcome_cdfs`` is built in place from the
    digits, the outcome counts the row's thresholds at or below the uniform,
    and ``row * 2^g + outcome`` indexes a table that holds the record's g
    cells as one g-byte word."""
    g = gate_arity(kind)
    outcomes = 2**g
    # Threshold k of every row, one contiguous row per k.
    thresholds = np.ascontiguousarray(_gate_outcome_cdfs(kind, noise)[:, :-1].T)
    # The g cells of (row, outcome): cell j is 2 * row digit j + outcome bit j.
    digits = np.unravel_index(np.arange(36**g), (18,) * g + (2,) * g)
    cell_table = np.stack([2 * digits[j] + digits[g + j] for j in range(g)], 1).astype(np.uint8)
    cell_words = cell_table.view(f"u{g}").reshape(-1)  # gates act on one or two qubits

    def sample(rng: np.random.Generator) -> ShadowRecords:
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
        for rows, u in uniform_slices(rng, (block_size,)):
            part = row[rows]
            # Fancy indexing reads the int16 rows without an intp copy.
            outcome = (u >= thresholds[0][part]).view(np.uint8)
            for k in range(1, outcomes - 1):
                outcome += u >= thresholds[k][part]
            part *= outcomes
            part += outcome
        return ShadowRecords.from_cells(cell_words[row].view(np.uint8).reshape(shape))

    yield from _iter_blocks(count, seed, block_size, sample)


def estimate_gate_eigenvalues(
    records: ShadowRecords | ShadowCounts, kind: str
) -> EigenvalueEstimates:
    """Noise eigenvalues of a gate from its shadow records.

    The input-side Pauli is the backward conjugation U^dagger P U; its sign
    multiplies the estimate, and the 3^|.| rescaling uses the conjugated
    weight (the input side is what the random eigenstate sees).
    """
    g = gate_arity(kind)
    if records.n != g:
        raise ValueError(f"{kind} records must have n={g}, got {records.n}")
    qubits = tuple(range(g))
    strings = [p for p in iter_all_paulis(g) if not p.is_identity]
    backs = [conjugate_pauli(kind, qubits, p) for p in strings]
    total, numers = _numerators(records, g, list(zip(backs, strings)))
    values = {
        p: back.sign * 3.0 ** back.weight * numer / total
        for p, back, numer in zip(strings, backs, numers)
    }
    return EigenvalueEstimates(g, values, total)


# -- preparation/measurement error ---------------------------------------------


def estimate_spam_factor(flip_probability: float, count: int, seed: int) -> float:
    """Estimated noiseless-channel prefactor under preparation/measurement flips.

    Runs the protocol on a single qubit with an identity channel, flipping the
    prepared eigenstate and the reported outcome each with the given
    probability, and estimates the (known to be 1) X eigenvalue.  The return
    value concentrates on (p0 - p1)^2; divide estimates from the same hardware
    by it to undo the prep/measurement bias.
    """
    records = sample_channel_shadows(
        PauliChannel.identity(1), count, seed, spam_flip_probability=flip_probability
    )
    x = PauliString.from_label("X")
    return 3.0 * estimate_x(records, x)


# -- state expectation estimation ---------------------------------------------


def estimate_state_expectations(
    state: "exact.DenseState",
    paulis: Sequence[PauliString],
    count: int,
    seed: int,
    n_batches: int = 10,
) -> dict[PauliString, float]:
    """Median-of-means Pauli expectations of a state from random-basis shadows.

    Measures ``count`` snapshots in uniformly random product Pauli bases
    (outcomes drawn from the exact distribution), reconstructs each Pauli's
    single-shot estimator, and returns the median of ``n_batches`` batch
    means.
    """
    if count < n_batches:
        raise ValueError(f"need at least {n_batches} records, got {count}")
    n = state.n
    rng = block_rng(seed, 0)
    bases = rng.integers(0, 3, (count, n), dtype=np.int8)
    signs = exact.sample_pauli_basis_outcomes(state, bases, rng)
    edges = np.linspace(0, count, n_batches + 1).astype(int)
    out: dict[PauliString, float] = {}
    for p, codes in zip(paulis, letter_codes(paulis, n)):
        support = np.flatnonzero(codes)
        hit = (bases[:, support] == codes[support] - 1).all(axis=1)
        values = np.where(hit, signs[:, support].prod(axis=1, dtype=np.int64), 0)
        batch_means = [
            p.sign * 3.0 ** p.weight * values[a:b].sum() / max(b - a, 1)
            for a, b in zip(edges[:-1], edges[1:])
        ]
        out[p] = float(np.median(batch_means))
    return out
