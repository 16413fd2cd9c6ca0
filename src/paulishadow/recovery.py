"""Backward observables: undoing channel noise in the Pauli coefficients.

For a Pauli channel the adjoint transfer matrix is diagonal, so each
coefficient divides by its eigenvalue estimate.  For a general
weight-contracting channel the coefficients solve ``M alpha_bar = alpha``
restricted to the weight <= k block, by back-substitution over weight blocks
from the heaviest down.

One division rule (``_divisors``) serves this diagonal divide and the
Clifford chain in ``clifford``: an estimate is clamped into [-1, 1], with a
warning; one that is not a number or below the floor after the clamp raises
:class:`RecoveryFloorError`, and a missing one ``KeyError``.  The block solve
raises :class:`IllConditionedError` instead when a diagonal block's 1-norm
condition estimate is past ``DEFAULT_CONDITION_THRESHOLD`` or not a number.
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

    def support(self) -> tuple[PauliString, ...]:
        return tuple(self.terms)

    def as_observable(self) -> Observable:
        return Observable(self.n, self.terms)


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
    :class:`IllConditionedError`.  Entries of ``matrix`` below the block
    diagonal are ignored (assumed zero).
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
        worst_condition = max(worst_condition, condition)
        x[sl] = inverse @ residual
    return x, worst_condition


def backward_observable_general(
    observable: Observable,
    transfer: TransferMatrix,
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
