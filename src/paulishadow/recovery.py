"""Backward observables: undoing channel noise in the Pauli coefficients.

For a Pauli channel the adjoint transfer matrix is diagonal, so each
coefficient divides by its eigenvalue estimate.  For a general
weight-contracting channel the coefficients solve ``M alpha_bar = alpha``
restricted to the weight <= k block, by back-substitution over weight blocks
from the heaviest down.  Only the blocks the observable reaches (weight at
most its locality) are solved and condition-checked: a heavier block has a
zero right-hand side, so its part of the solution is zero, and a cutoff k
above the locality costs time only.

One division rule (``_divisors``) serves this diagonal divide and the
Clifford chain in ``clifford``: an estimate is clamped into [-1, 1], with a
warning; one that is not a number or below the floor after the clamp raises
:class:`RecoveryFloorError`, and a missing one ``KeyError``.  The block solve
raises :class:`IllConditionedError` instead when a diagonal block's 1-norm
condition estimate is past ``DEFAULT_CONDITION_THRESHOLD`` or not a number,
and :class:`RecoveryError` when a block's right-hand side is not finite.
A 1x1 block's 1-norm condition is always 1, so on the diagonal only a floor
sees a small eigenvalue; a larger block's near-singularity shows in its
condition estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .channels import TransferMatrix
from .observables import Observable
from .paulis import PauliString

DEFAULT_EIGENVALUE_FLOOR = 0.05
DEFAULT_CONDITION_THRESHOLD = 1e6


class RecoveryError(Exception):
    """Base class for unrecoverable noise-inversion failures."""


class RecoveryFloorError(RecoveryError):
    """An eigenvalue estimate fell below the inversion floor or is not a number."""

    def __init__(self, pauli: PauliString, estimate: float, floor: float):
        self.pauli = pauli
        self.estimate = estimate
        self.floor = floor
        problem = (
            f"eigenvalue estimate for {pauli} is not a number" if math.isnan(estimate) else
            f"|eigenvalue estimate| {abs(estimate):.3g} for {pauli} is below the floor {floor:g}"
        )
        super().__init__(f"{problem}; the direction is unrecoverable at this noise level")


class IllConditionedError(RecoveryError):
    """A diagonal weight block of the transfer matrix is near singular."""

    def __init__(self, block_weight: int, condition: float, threshold: float):
        self.block_weight = block_weight
        self.condition = condition
        self.threshold = threshold
        bound = "" if math.isnan(condition) else f" > {threshold:g}"
        super().__init__(
            f"weight-{block_weight} diagonal block has condition estimate "
            f"{condition:.3g}{bound}; the block is unrecoverable"
        )


@dataclass
class BackwardObservable:
    """The noise-corrected coefficient vector O_bar with provenance."""

    n: int
    terms: dict[PauliString, float]
    provenance: str
    min_abs_eigenvalue: float | None = None
    condition_estimate: float | None = None
    warnings: list[str] = field(default_factory=list)

    def coefficient(self, p: PauliString) -> float:
        return self.terms.get(p.unsigned(), 0.0) * p.sign


def _divisors(
    estimates: Mapping[PauliString, float], strings: Sequence[PauliString], floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The division rule as arrays over ``strings``: the estimates as given
    (NaN where missing), clamped into [-1, 1], where the clamp moved one, and
    where one fails (missing, not a number, or below ``floor`` once clamped)."""
    raw = np.array([estimates[p] if p in estimates else np.nan for p in strings], dtype=float)
    clamped = np.clip(raw, -1.0, 1.0)
    return raw, clamped, np.abs(raw) > 1.0, ~(np.abs(clamped) >= floor)


def backward_observable(
    observable: Observable,
    estimates: Mapping[PauliString, float],
    floor: float = DEFAULT_EIGENVALUE_FLOOR,
) -> BackwardObservable:
    """Divide each coefficient by its (clamped) eigenvalue estimate.

    The identity term divides by exactly 1; every other term follows the
    division rule, and the first failing term, in term order, raises.
    """
    terms = observable.terms()
    strings = [p for p in terms if not p.is_identity]
    raw, clamped, moved, failing = _divisors(estimates, strings, floor)
    if failing.any():
        i = int(np.argmax(failing))
        if strings[i] not in estimates:
            raise KeyError(f"no eigenvalue estimate for {strings[i]}")
        raise RecoveryFloorError(strings[i], float(clamped[i]), floor)
    divided = dict(zip(strings, (np.array([terms[p] for p in strings]) / clamped).tolist()))
    return BackwardObservable(
        observable.n,
        {p: divided.get(p, alpha) for p, alpha in terms.items()},
        provenance="diagonal",
        min_abs_eigenvalue=float(np.abs(clamped).min()) if strings else None,
        warnings=[f"clamped estimate {raw[i]:.6g} for {strings[i]} into [-1, 1]"
                  for i in np.flatnonzero(moved)],
    )


def solve_upper_block_triangular(
    matrix: np.ndarray,
    blocks: Sequence[slice],
    rhs: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Back-substitute over diagonal blocks (block w: weight w), heaviest first.

    Returns the solution and the largest 1-norm condition estimate among the
    diagonal blocks.  A block that is singular, whose condition estimate
    exceeds ``DEFAULT_CONDITION_THRESHOLD`` or is not a number raises
    :class:`IllConditionedError`; a block whose right-hand side, once the
    heavier blocks are substituted, is not finite (say, from a NaN above the
    block diagonal) raises :class:`RecoveryError`.  Entries of ``matrix``
    below the block diagonal are ignored (assumed zero), and the solution
    past the last block stays zero.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    x = np.zeros_like(rhs)
    worst_condition = 0.0
    for weight, sl in reversed(list(enumerate(blocks))):
        diag = matrix[sl, sl]
        residual = rhs[sl] - matrix[sl, sl.stop:] @ x[sl.stop:]
        try:
            inverse = np.linalg.inv(diag)
        except np.linalg.LinAlgError:
            raise IllConditionedError(weight, float("inf"), DEFAULT_CONDITION_THRESHOLD) from None
        condition = float(
            np.linalg.norm(diag, 1) * np.linalg.norm(inverse, 1)
        )
        if not condition <= DEFAULT_CONDITION_THRESHOLD:
            raise IllConditionedError(weight, condition, DEFAULT_CONDITION_THRESHOLD)
        if not np.isfinite(residual).all():
            raise RecoveryError(f"weight-{weight} block has a non-finite right-hand side; "
                                "the block is unrecoverable")
        worst_condition = max(worst_condition, condition)
        x[sl] = inverse @ residual
    return x, worst_condition


def backward_observable_general(
    observable: Observable,
    transfer: TransferMatrix,
) -> BackwardObservable:
    """Solve M alpha_bar = alpha on the weight <= k basis, blockwise.

    Every term of the observable must sit inside the transfer matrix's basis;
    the solution's support stays inside that basis by construction.  Blocks
    heavier than the observable's locality have a zero right-hand side: they
    are neither solved nor condition-checked, so the condition estimate and
    :class:`IllConditionedError` cover only the blocks the observable
    reaches, and the heavier blocks' coefficients stay zero.
    """
    if observable.n != transfer.n:
        raise ValueError(
            f"observable acts on {observable.n} qubits, transfer on {transfer.n}"
        )
    rhs = np.zeros(len(transfer.basis))
    for p, alpha in observable.terms().items():
        rhs[transfer.index(p)] = alpha  # raises KeyError past weight k
    slices = [sl for w, sl in transfer.block_slices() if w <= observable.locality]
    solution, condition = solve_upper_block_triangular(transfer.matrix, slices, rhs)
    terms = {
        p: float(solution[i])
        for i, p in enumerate(transfer.basis)
        if solution[i] != 0.0
    }
    return BackwardObservable(
        observable.n,
        terms,
        provenance="block-triangular",
        condition_estimate=condition,
    )


def recover_expectation(
    terms: Mapping[PauliString, float], expectations: Mapping[PauliString, float]
) -> float:
    """f = sum_P c_P tr(P E(sigma)) over the coefficients ``terms``, summed
    in term order as one numpy sum; the identity term multiplies 1 unless
    ``expectations`` gives it."""
    values = []
    for p in terms:
        if p.is_identity:
            values.append(expectations.get(p, 1.0))  # tr(E(sigma)) = 1 for any channel
        elif p in expectations:
            values.append(expectations[p])
        else:
            raise KeyError(f"no noisy expectation supplied for {p}")
    return float((np.array(list(terms.values())) * np.array(values)).sum())


def recovery_report(back: BackwardObservable | None, value: float, ideal: float) -> dict:
    """JSON-ready summary of a recovery run against its ideal value, or with
    ``back`` None of the uncorrected baseline."""
    report = {
        "value": value,
        "ideal": ideal,
        "absolute_error": abs(value - ideal),
        "provenance": "baseline" if back is None else back.provenance,
    }
    if back is not None:
        report.update(
            terms={p.to_label(): coeff for p, coeff in back.terms.items()},
            min_abs_eigenvalue=back.min_abs_eigenvalue,
            condition_estimate=back.condition_estimate,
            warnings=list(back.warnings),
        )
    return report
