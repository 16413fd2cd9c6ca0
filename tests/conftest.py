"""Shared fixtures."""

import numpy as np
import pytest

from paulishadow.channels import amplitude_damping_ptm, depolarizing_ptm
from paulishadow import shadows
from paulishadow.paulis import letter_codes


@pytest.fixture
def random_cp_ptm():
    """A function of a numpy Generator returning a random single-qubit PTM
    that is completely positive and, in general, neither unital nor diagonal:
    rotation, amplitude damping, rotation, depolarizing."""

    def rotation(rng):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        out = np.eye(4)
        out[1:, 1:] = q * np.linalg.det(q)  # a proper rotation is a unitary channel
        return out

    def draw(rng):
        damping = amplitude_damping_ptm(rng.uniform(0.05, 0.6))
        return rotation(rng) @ damping @ rotation(rng) @ depolarizing_ptm(rng.uniform(0.5, 1.0))

    return draw


@pytest.fixture(scope="session")
def counts_of():
    """A function of shadow records returning their int32 36^n histogram,
    built by ``np.bincount`` of each record's joint cell code (qubit 0 most
    significant): a reference independent of ``count_into`` and of the
    estimators' readers."""

    def count(records):
        codes = np.zeros(len(records), np.int64)
        for j in range(records.n):
            codes = codes * 36 + records.cells[:, j]
        return np.bincount(codes, minlength=36**records.n).astype(np.int32)

    return count


@pytest.fixture(scope="session")
def hist_of():
    """A function of a records or stream source returning the int32 36^n
    histogram that its ``count_into`` fills."""

    def count(source):
        hist = np.zeros(36**source.n, np.int32)
        source.count_into(hist)
        return hist

    return count


@pytest.fixture(scope="session")
def read_pairs():
    """A function of a shadow source and (P, Q) Pauli string pairs returning
    each pair's lambda_hat_P(Q) through the estimators' pair reader, after
    checking the record count that the reader reports."""

    def read(source, pairs):
        ins, outs = zip(*pairs)
        digits = 4 * letter_codes(ins, source.n) + letter_codes(outs, source.n)
        total, values = shadows._read_pairs(source, digits)
        assert total == len(source)
        return values

    return read
