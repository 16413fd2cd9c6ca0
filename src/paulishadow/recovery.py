"""Backward observables: undoing channel noise in the Pauli coefficients.

For a Pauli channel the adjoint transfer matrix is diagonal, so each
coefficient divides by its eigenvalue estimate.  For a general
weight-contracting channel the coefficients solve ``M alpha_bar = alpha``
restricted to the weight <= k block, by back-substitution over weight blocks
from the heaviest down.
"""

from __future__ import annotations

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
    """An eigenvalue estimate fell below the inversion floor."""

    def __init__(self, pauli: PauliString, estimate: float, floor: float):
        self.pauli = pauli
        self.estimate = estimate
        self.floor = floor
        super().__init__(
            f"|eigenvalue estimate| {abs(estimate):.3g} for {pauli} is below "
            f"the floor {floor:g}; the direction is unrecoverable at this noise level"
        )


class IllConditionedError(RecoveryError):
    """A diagonal weight block of the transfer matrix is near singular."""

    def __init__(self, block_weight: int, condition: float, threshold: float):
        self.block_weight = block_weight
        self.condition = condition
        self.threshold = threshold
        super().__init__(
            f"weight-{block_weight} diagonal block has condition estimate "
            f"{condition:.3g} > {threshold:g}; the block is unrecoverable"
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

    def support(self) -> tuple[PauliString, ...]:
        return tuple(self.terms)

    def as_observable(self) -> Observable:
        return Observable(self.n, self.terms)


def _clamped(value: float) -> float:
    return max(-1.0, min(1.0, value))


def backward_observable(
    observable: Observable,
    estimates: Mapping[PauliString, float],
    floor: float = DEFAULT_EIGENVALUE_FLOOR,
) -> BackwardObservable:
    """Divide each coefficient by its (clamped) eigenvalue estimate.

    Estimates are clamped into [-1, 1] before dividing; a magnitude below
    ``floor`` raises :class:`RecoveryFloorError`.  The identity term divides
    by exactly 1.
    """
    terms: dict[PauliString, float] = {}
    min_used: float | None = None
    warnings: list[str] = []
    for p, alpha in observable.terms().items():
        if p.is_identity:
            terms[p] = alpha
            continue
        try:
            raw = estimates[p]
        except KeyError:
            raise KeyError(f"no eigenvalue estimate for {p}") from None
        lam = _clamped(float(raw))
        if lam != raw:
            warnings.append(f"clamped estimate {raw:.6g} for {p} into [-1, 1]")
        if abs(lam) < floor:
            raise RecoveryFloorError(p, lam, floor)
        terms[p] = alpha / lam
        min_used = abs(lam) if min_used is None else min(min_used, abs(lam))
    return BackwardObservable(
        observable.n,
        terms,
        provenance="diagonal",
        min_abs_eigenvalue=min_used,
        warnings=warnings,
    )


def solve_upper_block_triangular(
    matrix: np.ndarray,
    blocks: Sequence[slice],
    rhs: np.ndarray,
    condition_threshold: float = DEFAULT_CONDITION_THRESHOLD,
) -> tuple[np.ndarray, float]:
    """Back-substitute over diagonal blocks (block w: weight w), heaviest first.

    Returns the solution and the largest 1-norm condition estimate among the
    diagonal blocks.  Entries of ``matrix`` below the block diagonal are
    ignored (assumed zero).
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
            raise IllConditionedError(weight, float("inf"), condition_threshold) from None
        condition = float(
            np.linalg.norm(diag, 1) * np.linalg.norm(inverse, 1)
        )
        worst_condition = max(worst_condition, condition)
        if condition > condition_threshold:
            raise IllConditionedError(weight, condition, condition_threshold)
        x[sl] = inverse @ residual
    return x, worst_condition


def backward_observable_general(
    observable: Observable,
    transfer: TransferMatrix,
    condition_threshold: float = DEFAULT_CONDITION_THRESHOLD,
) -> BackwardObservable:
    """Solve M alpha_bar = alpha on the weight <= k basis, blockwise.

    Every term of the observable must sit inside the transfer matrix's basis;
    the solution's support stays inside that basis by construction.
    """
    if observable.n != transfer.n:
        raise ValueError(
            f"observable acts on {observable.n} qubits, transfer on {transfer.n}"
        )
    rhs = np.zeros(len(transfer.basis))
    for p, alpha in observable.terms().items():
        rhs[transfer.index(p)] = alpha  # raises KeyError past weight k
    slices = [sl for _, sl in transfer.block_slices()]
    solution, condition = solve_upper_block_triangular(
        transfer.matrix, slices, rhs, condition_threshold
    )
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
    back: BackwardObservable, expectations: Mapping[PauliString, float]
) -> float:
    """f = sum_P alpha_bar_P tr(P E(sigma)); the identity term multiplies 1."""
    total = 0.0
    for p, coeff in back.terms.items():
        if p.is_identity:
            value = expectations.get(p, 1.0)  # tr(E(sigma)) = 1 for any channel
        else:
            try:
                value = expectations[p]
            except KeyError:
                raise KeyError(f"no noisy expectation supplied for {p}") from None
        total += coeff * value
    return total


def recovery_report(
    back: BackwardObservable,
    value: float,
    ideal: float | None = None,
) -> dict:
    """JSON-ready summary of a recovery run."""
    report = {
        "value": value,
        "provenance": back.provenance,
        "terms": {p.to_label(): coeff for p, coeff in back.terms.items()},
        "min_abs_eigenvalue": back.min_abs_eigenvalue,
        "condition_estimate": back.condition_estimate,
        "warnings": list(back.warnings),
    }
    if ideal is not None:
        report["ideal"] = ideal
        report["absolute_error"] = abs(value - ideal)
    return report
