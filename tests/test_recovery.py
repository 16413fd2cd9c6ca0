"""Backward observables: diagonal division, block back-substitution, and the
exact-inverse recovery identity."""

import math

import numpy as np
import pytest

from paulishadow import exact
from paulishadow.channels import (
    PauliChannel,
    ProductChannel,
    TransferMatrix,
    amplitude_damping_ptm,
    depolarizing_ptm,
    exact_diagonal,
    exact_transfer_matrix,
    reference_product_channel,
)
from paulishadow.observables import Observable, heisenberg_observable
from paulishadow.paulis import PauliString, enumerate_low_weight
from paulishadow.recovery import (
    IllConditionedError,
    RecoveryError,
    RecoveryFloorError,
    backward_observable,
    backward_observable_general,
    recover_expectation,
    recovery_report,
    solve_upper_block_triangular,
)

from reference import DenseState, apply_channel, dense_expectation


def P(label):
    return PauliString.from_label(label)


# -- diagonal route ------------------------------------------------------------


def test_backward_divides_by_estimates():
    obs = Observable(2, {P("ZI"): 0.6, P("XZ"): -0.3, P("II"): 0.2})
    ests = {P("ZI"): 0.5, P("XZ"): 0.25}
    back = backward_observable(obs, ests)
    assert back.terms[P("ZI")] == pytest.approx(1.2)
    assert back.terms[P("XZ")] == pytest.approx(-1.2)
    assert back.terms[P("II")] == 0.2  # identity passes through untouched
    assert back.provenance == "diagonal"
    assert back.min_abs_eigenvalue == pytest.approx(0.25)
    assert back.warnings == []


def test_backward_floor_raises_with_fields():
    obs = Observable(1, {P("X"): 1.0})
    with pytest.raises(RecoveryFloorError) as err:
        backward_observable(obs, {P("X"): 0.01})
    assert err.value.pauli == P("X")
    assert err.value.estimate == pytest.approx(0.01)
    assert err.value.floor == pytest.approx(0.05)
    assert isinstance(err.value, RecoveryError)
    # a custom floor moves the threshold
    back = backward_observable(obs, {P("X"): 0.01}, floor=0.005)
    assert back.terms[P("X")] == pytest.approx(100.0)


def test_backward_clamps_out_of_range_estimates():
    obs = Observable(1, {P("Z"): 0.5})
    back = backward_observable(obs, {P("Z"): 1.25})
    assert back.terms[P("Z")] == pytest.approx(0.5)  # divided by the clamp, 1.0
    assert len(back.warnings) == 1 and "clamp" in back.warnings[0]


def test_backward_missing_estimate_raises():
    obs = Observable(1, {P("Y"): 1.0})
    with pytest.raises(KeyError, match="Y"):
        backward_observable(obs, {P("X"): 0.9})


def test_backward_nan_estimate_raises_and_names_the_string():
    obs = Observable(2, {P("ZI"): 0.6, P("XZ"): -0.3})
    with pytest.raises(RecoveryError, match="XZ is not a number") as err:
        backward_observable(obs, {P("ZI"): 0.5, P("XZ"): float("nan")})
    assert err.value.pauli == P("XZ")


def test_backward_coefficient_respects_sign():
    back = backward_observable(Observable(1, {P("Z"): 0.4}), {P("Z"): 0.8})
    assert back.coefficient(P("Z")) == pytest.approx(0.5)
    assert back.coefficient(P("-Z")) == pytest.approx(-0.5)
    assert back.coefficient(P("X")) == 0.0
    as_obs = Observable(back.n, back.terms)
    assert as_obs.terms()[P("Z")] == pytest.approx(0.5)


# -- block triangular solver ---------------------------------------------------


def random_block_system(rng, sizes):
    dim = sum(sizes)
    mat = rng.normal(size=(dim, dim))
    blocks, start = [], 0
    for size in sizes:
        sl = slice(start, start + size)
        mat[sl, sl] += 3.0 * np.eye(size)  # keep diagonal blocks well conditioned
        start += size
        blocks.append(sl)
    clean = mat.copy()
    for i, a in enumerate(blocks):
        for b in blocks[:i]:
            clean[a, b] = 0.0
    return mat, clean, blocks


def test_block_solver_matches_dense_solve():
    rng = np.random.default_rng(77)
    for sizes in [(1, 3), (1, 3, 9), (2, 2, 5, 4)]:
        for _ in range(5):
            mat, clean, blocks = random_block_system(rng, sizes)
            rhs = rng.normal(size=sum(sizes))
            x, condition = solve_upper_block_triangular(mat, blocks, rhs)
            want = np.linalg.solve(clean, rhs)
            assert np.abs(x - want).max() < 1e-10
            assert condition > 0


def test_block_solver_ignores_entries_below_blocks():
    rng = np.random.default_rng(3)
    mat, clean, blocks = random_block_system(rng, (1, 3))
    rhs = rng.normal(size=4)
    x_dirty, _ = solve_upper_block_triangular(mat, blocks, rhs)
    x_clean, _ = solve_upper_block_triangular(clean, blocks, rhs)
    np.testing.assert_allclose(x_dirty, x_clean, atol=1e-14)


def test_block_solver_flags_singular_block():
    # A near-singular block fails the condition threshold; an exactly
    # singular one, [[1, 1], [1, 1]], has no inverse and an infinite condition.
    blocks = [slice(0, 1), slice(1, 3)]
    for corner, condition in ((1.0 + 1e-9, None), (1.0, math.inf)):
        mat = np.array([[1.0, 0.5, 0.5], [0.0, 1.0, 1.0], [0.0, 1.0, corner]])
        with pytest.raises(IllConditionedError) as err:
            solve_upper_block_triangular(mat, blocks, np.ones(3))
        assert err.value.block_weight == 1
        assert err.value.condition > err.value.threshold
        assert condition is None or err.value.condition == condition


def test_block_solver_flags_nan_block():
    mat = np.array([[1.0, 0.5, 0.5], [0.0, 1.0, 0.2], [0.0, 0.1, np.nan]])
    blocks = [slice(0, 1), slice(1, 3)]
    with pytest.raises(RecoveryError, match="weight-1 diagonal block") as err:
        solve_upper_block_triangular(mat, blocks, np.ones(3))
    assert isinstance(err.value, IllConditionedError)
    assert err.value.block_weight == 1 and np.isnan(err.value.condition)


def test_block_solver_flags_nan_above_the_diagonal():
    mat = np.array([[1.0, np.nan, 0.5], [0.0, 1.0, 0.2], [0.0, 0.1, 1.0]])
    blocks = [slice(0, 1), slice(1, 3)]
    with pytest.raises(RecoveryError, match="weight-0 block has a non-finite right-hand side"):
        solve_upper_block_triangular(mat, blocks, np.ones(3))


# -- general route -------------------------------------------------------------


def test_general_backward_amplitude_damping_closed_form():
    gamma = 0.3
    ch = ProductChannel([amplitude_damping_ptm(gamma)])
    transfer = exact_transfer_matrix(ch, 1)
    back = backward_observable_general(Observable(1, {P("Z"): 1.0}), transfer)
    assert back.provenance == "block-triangular"
    assert back.terms[P("Z")] == pytest.approx(1.0 / (1.0 - gamma), abs=1e-12)
    assert back.terms[P("I")] == pytest.approx(-gamma / (1.0 - gamma), abs=1e-12)
    assert back.condition_estimate is not None and back.condition_estimate >= 1.0


def test_general_backward_requires_matching_width():
    transfer = exact_transfer_matrix(reference_product_channel(), 2)
    with pytest.raises(ValueError):
        backward_observable_general(Observable(1, {P("Z"): 1.0}), transfer)


def test_general_backward_rejects_terms_past_weight_cap():
    ch = reference_product_channel()
    transfer = exact_transfer_matrix(ch, 1)
    obs = Observable(2, {P("ZZ"): 1.0})  # weight 2 > k = 1
    with pytest.raises(KeyError):
        backward_observable_general(obs, transfer)


def test_general_backward_stops_at_the_observable_locality():
    """A cutoff k above the locality changes nothing: the heavier blocks are
    neither solved nor condition-checked, even when one is singular."""
    ch = ProductChannel([amplitude_damping_ptm(0.2), amplitude_damping_ptm(0.3)])
    full = exact_transfer_matrix(ch, 2)
    matrix = full.matrix.copy()
    heavy = dict(full.block_slices())[2]
    matrix[heavy, heavy] = 0.0  # a singular weight-2 block
    transfer = TransferMatrix(2, 2, full.basis, matrix)
    obs = Observable(2, {P("ZI"): 1.0, P("IZ"): 0.5})
    back = backward_observable_general(obs, transfer)
    want = backward_observable_general(obs, exact_transfer_matrix(ch, 1))
    assert back.terms == want.terms
    assert back.condition_estimate == want.condition_estimate


def test_general_matches_diagonal_on_pauli_channel():
    ch = reference_product_channel()
    obs = heisenberg_observable(2)
    strings = enumerate_low_weight(2, 2)
    back_d = backward_observable(obs, dict(zip(strings, exact_diagonal(ch, strings).tolist())))
    back_g = backward_observable_general(obs, exact_transfer_matrix(ch, 2))
    for p, coeff in back_d.terms.items():
        assert back_g.terms.get(p, 0.0) == pytest.approx(coeff, abs=1e-12)


# -- recovered value -----------------------------------------------------------


def test_recover_expectation_identity_term_multiplies_one():
    terms = {P("I"): 0.3, P("Z"): 2.0}
    value = recover_expectation(terms, {P("Z"): 0.25})
    assert value == pytest.approx(0.3 + 0.5)
    with pytest.raises(KeyError, match="Z"):
        recover_expectation(terms, {})


def test_exact_recovery_identity_pauli_channels():
    # with exact eigenvalues the recovered value equals the ideal one
    rng = np.random.default_rng(50)
    for trial in range(6):
        probs = rng.dirichlet([12, 1, 1, 1], size=2)
        ch = PauliChannel.from_qubit_probs(probs)
        obs = heisenberg_observable(2)
        state = DenseState.from_unit_vector(exact.haar_random_vector(2, 100 + trial))
        noisy = apply_channel(ch, state)
        strings = enumerate_low_weight(2, 2)
        back = backward_observable(obs, dict(zip(strings, exact_diagonal(ch, strings).tolist())))
        expectations = {
            p: dense_expectation(p, noisy) for p in back.support() if not p.is_identity
        }
        got = recover_expectation(back.terms, expectations)
        want = dense_expectation(obs, state)
        assert got == pytest.approx(want, abs=1e-10)


def test_exact_recovery_identity_general_channel():
    ch = ProductChannel([amplitude_damping_ptm(0.2), depolarizing_ptm(0.8)])
    obs = heisenberg_observable(2)
    transfer = exact_transfer_matrix(ch, 2)
    back = backward_observable_general(obs, transfer)
    for trial in range(6):
        state = DenseState.from_unit_vector(exact.haar_random_vector(2, 200 + trial))
        noisy = apply_channel(ch, state)
        expectations = {
            p: dense_expectation(p, noisy) for p in back.support() if not p.is_identity
        }
        got = recover_expectation(back.terms, expectations)
        want = dense_expectation(obs, state)
        assert got == pytest.approx(want, abs=1e-10)


def test_recovery_report_shape():
    back = backward_observable(Observable(1, {P("Z"): 1.0}), {P("Z"): 0.8})
    report = recovery_report(back, 1.25, ideal=1.2)
    assert report["value"] == 1.25
    assert report["ideal"] == 1.2
    assert report["absolute_error"] == pytest.approx(0.05)
    assert report["provenance"] == "diagonal"
    assert report["terms"] == {"Z": pytest.approx(1.25)}
    assert report["warnings"] == []
