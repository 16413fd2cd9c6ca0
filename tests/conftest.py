"""Shared fixtures."""

import numpy as np
import pytest

from paulishadow.channels import amplitude_damping_ptm, depolarizing_ptm


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
