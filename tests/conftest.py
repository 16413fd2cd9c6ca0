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
    """A function of (N, n) shadow records returning their int32 36^n
    histogram, built by ``np.bincount`` of each record's joint cell code
    (qubit 0 most significant): a reference independent of ``count_into``
    and of the estimators' readers."""

    def count(records):
        n = records.shape[1]
        codes = np.zeros(len(records), np.int64)
        for j in range(n):
            codes = codes * 36 + records[:, j]
        return np.bincount(codes, minlength=36**n).astype(np.int32)

    return count


@pytest.fixture(scope="session")
def hist_of():
    """A function of a stream returning the int32 36^n histogram that its
    ``count_into`` fills."""

    def count(stream):
        hist = np.zeros(36**stream.n, np.int32)
        stream.count_into(hist)
        return hist

    return count


@pytest.fixture(scope="session")
def read_pairs():
    """A function of a shadow stream and (P, Q) Pauli string pairs returning
    each pair's lambda_hat_P(Q) through the estimators' pair reader."""

    def read(stream, pairs):
        ins, outs = zip(*pairs)
        return shadows._read_pairs(stream, 4 * letter_codes(ins, stream.n)
                                   + letter_codes(outs, stream.n))

    return read
