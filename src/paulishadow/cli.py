"""Batch command-line front end.

Subcommands: ``learn`` (channel eigenvalue estimation report),
``recover`` / ``recover-general`` (noise-corrected expectation values),
``mitigate`` (Clifford circuit mitigation), ``plan`` (sample-size planning),
and ``fig2`` (the bundled mean-absolute-error ratio experiment sweeping the
shadow count).  Each command is one function that checks its arguments,
passes record streams to the estimators (which choose their own statistic)
and prints.  All output is deterministic under fixed seeds: every run seed,
and every derived per-trial seed, is a pure function of the command
arguments, so repeated runs are byte-identical.

Exit status: 0 on success, 2 when recovery fails its eigenvalue floor or
conditioning checks, 1 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exact
from .channels import (
    ConfigError,
    PauliChannel,
    ProductChannel,
    exact_diagonal,
    exact_transfer_matrix,
    load_channel,
    reference_product_channel,
)
from .clifford import CliffordCircuit, exact_gate_estimates, mitigation_coefficients
from .observables import Observable, heisenberg_observable
from .paulis import PauliString, enumerate_low_weight, letter_codes
from .recovery import (
    DEFAULT_EIGENVALUE_FLOOR,
    RecoveryError,
    RecoveryFloorError,
    backward_observable,
    backward_observable_general,
    recover_expectation,
    recovery_report,
)
from .shadows import (
    EXPECTATION_BATCHES,
    estimate_eigenvalues,
    estimate_gate_eigenvalues,
    estimate_state_expectations,
    estimate_transfer_matrix,
    iter_channel_shadow_blocks,
    plan_sample_size,
    sample_gate_shadows,
)

CSV_VERSION = "v1"
DEFAULT_SWEEP = tuple(m * 10_000 for m in range(1, 21))


def _derive_seed(*parts: int) -> int:
    """A 128-bit seed that is a pure function of the given integers."""
    state = np.random.SeedSequence(list(parts)).generate_state(4, np.uint32)
    return int.from_bytes(state.tobytes(), "little")


def _check_k(k: int, n: int, locality: int = 0) -> None:
    if not locality <= k <= n:
        raise ConfigError(f"need locality {locality} <= k <= n = {n}, got k={k}")


def _check_shadows(shadows: int) -> None:
    if shadows < 1:
        raise ConfigError(f"shadow count must be at least 1, got {shadows}")


def _check_qubits(n: int, cap: int) -> None:
    if n > cap:
        raise ConfigError(f"{n} qubits exceed the {cap}-qubit limit of this command's oracle")


def _check_floor(floor: float) -> None:
    if not 0.0 < floor <= 1.0:  # also rejects nan
        raise ConfigError(f"eigenvalue floor must be in (0, 1], got {floor}")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _check_out(path: str | None) -> None:
    """Refuse an empty ``--out`` path, a directory, or one whose parent is not one."""
    if path == "":
        raise ConfigError("--out needs a path, or - for standard output")
    parent = os.path.dirname(path or "") or "."
    if path not in (None, "-") and (os.path.isdir(path) or not os.path.isdir(parent)):
        problem = "it is a directory" if os.path.isdir(path) else f"{parent} is not a directory"
        raise ConfigError(f"cannot write {path}: {problem}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(lines: Sequence[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        _write(out_path, text)


def _resolve_channel(arg: str) -> PauliChannel | ProductChannel:
    if arg == "reference":
        return reference_product_channel()
    return load_channel(arg)


def _resolve_observable(arg: str, n: int) -> Observable:
    try:
        return heisenberg_observable(n) if arg == "heisenberg" else Observable.load(arg)
    except FileNotFoundError:
        raise ConfigError(
            f"observable {arg!r} is neither a readable file nor a built-in name"
        ) from None
    except (ValueError, OSError) as exc:
        raise ConfigError(f"observable {arg!r}: {exc}") from None


# -- learn ---------------------------------------------------------------------


def cmd_learn(args: argparse.Namespace) -> int:
    channel = _resolve_channel(args.channel)
    n = channel.n
    _check_k(args.k, n)
    _check_shadows(args.shadows)
    basis = enumerate_low_weight(n, args.k)
    estimates = estimate_eigenvalues(
        iter_channel_shadow_blocks(channel, args.shadows, args.seed), basis
    )
    exact_diag = exact_diagonal(channel, basis).tolist()
    lines = [
        f"# paulishadow learn {CSV_VERSION}",
        f"# channel: {args.channel}",
        f"# n: {n}",
        f"# k: {args.k}",
        f"# shadows: {args.shadows}",
        f"# seed: {args.seed}",
        "pauli,estimate,exact,abs_error",
    ]
    for p, truth in zip(basis, exact_diag):
        est = estimates[p]
        lines.append(f"{p},{_fmt(est)},{_fmt(truth)},{_fmt(abs(est - truth))}")
    _emit(lines, args.out)
    return 0


# -- recover / recover-general / mitigate -------------------------------------


def _print_report(back, observable: Observable, noise, psi: np.ndarray, ideal: float,
                  out_path: str | None) -> int:
    """Print the recovered value on the state ``psi`` sent through ``noise``
    (a channel or a noisy circuit), or with ``back`` None the uncorrected
    baseline, and emit the JSON report to ``out_path`` if one is given."""
    terms = observable.terms() if back is None else back.terms
    noisy = exact.noisy_expectations(noise, list(terms), psi)
    value = recover_expectation(terms, dict(zip(terms, noisy.tolist())))
    report = recovery_report(back, value, ideal)
    print(f"{'baseline' if back is None else 'recovered'}: {_fmt(report['value'])}")
    print(f"ideal: {_fmt(report['ideal'])}")
    print(f"absolute_error: {_fmt(report['absolute_error'])}")
    if out_path is not None:
        _emit([json.dumps(report, indent=2, sort_keys=True, default=str)], out_path)
    return 0


def cmd_recover(args: argparse.Namespace, general: bool) -> int:
    channel = _resolve_channel(args.channel)
    if not (general or isinstance(channel, PauliChannel)):
        raise ConfigError("recover expects a Pauli channel; use recover-general "
                          "for other weight-contracting channels")
    observable = _resolve_observable(args.observable, args.n)
    n = channel.n
    if observable.n != n:
        raise ConfigError(f"observable acts on {observable.n} qubits, channel on {n}")
    if args.k is not None:  # checked only: the estimates follow the observable
        _check_k(args.k, n, observable.locality)
    _check_qubits(n, exact.STATEVECTOR_QUBIT_CAP)
    if not general:
        _check_floor(args.floor)
    if not (args.baseline or args.exact_eigenvalues):
        _check_shadows(args.shadows)
    psi = exact.haar_random_vector(n, _derive_seed(args.state_seed, 11))
    ideal = exact.expectation(observable, psi)
    if args.baseline:
        back = None
    elif general:
        transfer = (exact_transfer_matrix(channel, observable.locality) if args.exact_eigenvalues
                    else estimate_transfer_matrix(iter_channel_shadow_blocks(
                        channel, args.shadows, args.seed), observable.locality))
        back = backward_observable_general(observable, transfer)
    else:
        strings = [p for p in observable.terms() if not p.is_identity]
        estimates = (dict(zip(strings, exact_diagonal(channel, strings).tolist()))
                     if args.exact_eigenvalues else estimate_eigenvalues(
                         iter_channel_shadow_blocks(channel, args.shadows, args.seed), strings))
        back = backward_observable(observable, estimates, args.floor)
    return _print_report(back, observable, channel, psi, ideal, args.out)


def cmd_mitigate(args: argparse.Namespace) -> int:
    circuit = CliffordCircuit.load(args.circuit)
    _check_qubits(circuit.n, exact.STATEVECTOR_QUBIT_CAP)
    observable = _resolve_observable(args.observable, args.n)
    if observable.n != circuit.n:
        raise ConfigError(f"observable acts on {observable.n} qubits, circuit on {circuit.n}")
    _check_floor(args.floor)
    if not (args.baseline or args.exact_eigenvalues):
        _check_shadows(args.shadows)
    psi = exact.haar_random_vector(circuit.n, _derive_seed(args.state_seed, 11))
    ideal = exact.expectation(observable, exact.simulate_ideal_statevector(circuit, psi))
    if args.baseline:
        back = None
    else:
        if args.exact_eigenvalues:
            estimates = exact_gate_estimates(circuit)
        else:
            estimates = {}
            for kind in sorted({g.kind for g in circuit.gates}):
                blocks = sample_gate_shadows(
                    kind, circuit.noise[kind], args.shadows,
                    _derive_seed(args.seed, 23, *(ord(c) for c in kind)),
                )
                estimates[kind] = estimate_gate_eigenvalues(blocks, kind)
        back = mitigation_coefficients(circuit, estimates, observable, args.floor)
    return _print_report(back, observable, circuit, psi, ideal, args.out)


# -- plan ----------------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    try:
        records = plan_sample_size(
            args.epsilon, args.delta, args.n, args.k, args.degree, args.min_eigenvalue
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None
    print(f"epsilon: {_fmt(args.epsilon)}")
    print(f"delta: {_fmt(args.delta)}")
    print(f"n: {args.n}")
    print(f"k: {args.k}")
    print(f"degree: {args.degree}")
    print(f"min_eigenvalue: {_fmt(args.min_eigenvalue)}")
    print(f"records: {records}")
    return 0


# -- fig2 ----------------------------------------------------------------------


@dataclass
class Fig2Result:
    sweep: tuple[int, ...]
    mae_raw: np.ndarray        # (points, repeats)
    mae_recovered: np.ndarray  # (points, repeats)
    ratio: np.ndarray          # (points, repeats)
    norm_constant: float

    @property
    def succeeded(self) -> np.ndarray:
        """(points, repeats) mask of the trials whose recovery cleared the
        floor; the others have ``nan`` recovered error and ratio."""
        return ~np.isnan(self.mae_recovered)

    def point_means(self, values: np.ndarray) -> np.ndarray:
        """Per-point mean of (points, repeats) ``values`` over the trials that succeeded."""
        return np.array([row[ok].mean() for row, ok in zip(values, self.succeeded)])

    def std_ratio(self) -> np.ndarray:
        return np.array([row[ok].std() for row, ok in zip(self.ratio, self.succeeded)])


def run_fig2(
    channel: PauliChannel,
    observable: Observable,
    sweep: Sequence[int],
    n_states: int,
    repeats: int,
    seed: int,
    exact_eigenvalues: bool = False,
    expectation_shadows: int | None = None,
) -> Fig2Result:
    """Mean-absolute-error ratio experiment.

    For each sweep point: learn eigenvalues from that many fresh shadows,
    recover tr(O sigma) for a batch of Haar-random states, and compare the
    recovered mean absolute error to the uncorrected one.  Only the
    observable's own eigenvalues are learned.  The observable is
    normalized to unit spectral norm first.  Noisy-state expectations are
    the statevector oracle's ``noisy_expectations`` unless
    ``expectation_shadows`` is given, in which case they are median-of-means
    estimates from that many random-basis shadows of each noisy state.

    A trial whose recovery hits the default eigenvalue floor gets ``nan``
    recovered error and ratio; if every trial at some point hits it, this raises.
    """
    if not isinstance(channel, PauliChannel):
        raise ConfigError("the sweep experiment expects a Pauli channel")
    sweep = tuple(int(x) for x in sweep)
    if any(b <= a for a, b in zip(sweep, sweep[1:])) or any(x <= 0 for x in sweep):
        raise ConfigError(f"sweep must be positive and increasing, got {sweep}")
    n = channel.n
    if observable.n != n:
        raise ConfigError(f"observable acts on {observable.n} qubits, channel on {n}")
    if observable.locality == 0:  # identity terms only, or none: the zero observable
        raise ConfigError("an observable without a non-identity term has no noise to undo")
    _check_qubits(n, exact.STATE_QUBIT_CAP)  # the dense spectral norm below
    if n_states < 1 or repeats < 1:
        raise ConfigError(f"need at least one state and one repeat, got {n_states} and {repeats}")
    if expectation_shadows is not None and expectation_shadows < EXPECTATION_BATCHES:
        raise ConfigError(f"expectation estimates take {EXPECTATION_BATCHES} batch means, "
                          f"got {expectation_shadows} shadows")
    norm = observable.spectral_norm()
    observable = observable.scaled(1.0 / norm)

    paulis = [p for p in observable.terms() if not p.is_identity]
    alpha = np.array([observable.coefficient(p) for p in paulis])
    alpha_id = observable.coefficient(PauliString.identity(n))
    codes = letter_codes(paulis, n)

    mae_raw = np.empty((len(sweep), repeats))
    mae_rec = np.empty((len(sweep), repeats))
    for rep in range(repeats):
        rng = np.random.default_rng(_derive_seed(seed, 5001, rep))
        psis = np.stack([exact.haar_random_vector(n, rng) for _ in range(n_states)])
        ideal_vals = exact.pauli_expectations(codes, psis).real @ alpha + alpha_id
        if expectation_shadows is not None:
            noisy_t = np.empty((n_states, len(paulis)))
            for i, psi in enumerate(psis):
                ests = estimate_state_expectations(
                    channel,
                    psi,
                    paulis,
                    expectation_shadows,
                    _derive_seed(seed, 7001, rep, i),
                )
                noisy_t[i] = [ests[p] for p in paulis]
        else:
            noisy_t = exact.noisy_expectations(channel, paulis, psis)  # tr(P channel(sigma))
        raw_vals = noisy_t @ alpha + alpha_id
        mae_raw[:, rep] = np.abs(raw_vals - ideal_vals).mean()
        for pi, count in enumerate(sweep):
            if exact_eigenvalues:
                estimates = dict(zip(paulis, exact_diagonal(channel, paulis).tolist()))
            else:
                blocks = iter_channel_shadow_blocks(
                    channel, count, _derive_seed(seed, 3001, rep, pi)
                )
                estimates = estimate_eigenvalues(blocks, paulis)
            try:
                back = backward_observable(observable, estimates)
            except RecoveryFloorError:
                mae_rec[pi, rep] = np.nan
                continue
            bar = np.array([back.coefficient(p) for p in paulis])
            bar_id = back.coefficient(PauliString.identity(n))
            rec_vals = noisy_t @ bar + bar_id
            mae_rec[pi, rep] = np.abs(rec_vals - ideal_vals).mean()
    lost = np.flatnonzero(np.isnan(mae_rec).all(axis=1))
    if len(lost):
        raise RecoveryError(f"every trial at {sweep[lost[0]]} shadows hit the eigenvalue "
                            f"floor {DEFAULT_EIGENVALUE_FLOOR:g}")
    ratio = mae_rec / mae_raw
    return Fig2Result(sweep, mae_raw, mae_rec, ratio, norm)


def cmd_fig2(args: argparse.Namespace) -> int:
    channel = _resolve_channel(args.channel)
    observable = _resolve_observable(args.observable, args.n)
    try:
        sweep = (DEFAULT_SWEEP if args.sweep is None  # an empty --sweep is an error
                 else tuple(int(s) for s in args.sweep.split(",")))
    except ValueError:
        raise ConfigError(f"sweep must be comma-separated integers, got {args.sweep!r}") from None
    result = run_fig2(
        channel,
        observable,
        sweep,
        args.states,
        args.repeats,
        args.seed,
        exact_eigenvalues=args.exact_eigenvalues,
        expectation_shadows=args.expectation_shadows,
    )
    lines = [
        f"# paulishadow fig2 {CSV_VERSION}",
        f"# channel: {args.channel}",
        f"# observable: {args.observable}",
        f"# n: {channel.n}",
        f"# k: {observable.locality}",
        f"# states: {args.states}",
        f"# repeats: {args.repeats}",
        f"# seed: {args.seed}",
        f"# sweep: {','.join(str(x) for x in result.sweep)}",
        f"# norm_constant: {_fmt(result.norm_constant)}",
        "N,trial,mae_raw,mae_recovered,r,std_r",
    ]
    summaries = zip(result.point_means(result.mae_raw), result.point_means(result.mae_recovered),
                    result.point_means(result.ratio), result.std_ratio())
    for pi, (count, summary) in enumerate(zip(result.sweep, summaries)):
        for rep in range(args.repeats):
            lines.append(
                f"{count},{rep},{_fmt(result.mae_raw[pi, rep])},"
                f"{_fmt(result.mae_recovered[pi, rep])},{_fmt(result.ratio[pi, rep])},"
            )
        lines.append(f"{count},summary," + ",".join(_fmt(x) for x in summary))
    _emit(lines, args.out)
    hits = int((~result.succeeded).sum())
    if hits:
        print(f"{hits} of {result.ratio.size} trials hit the eigenvalue floor; "
              "their summaries leave them out", file=sys.stderr)
    return 0


# -- argument wiring -----------------------------------------------------------


def _add_observable_options(sub: argparse.ArgumentParser, default: str | None = None) -> None:
    sub.add_argument("--observable", required=default is None, default=default,
                     help="observable file path, or 'heisenberg' for the paper's fixed chain")
    sub.add_argument("--n", type=int, default=2,
                     help="qubit count for built-in observables")


def _add_recover_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--shadows", type=int, default=100_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--state-seed", type=int, default=0,
                     help="seed of the Haar-random test state")
    route = sub.add_mutually_exclusive_group()
    route.add_argument("--exact-eigenvalues", action="store_true",
                       help="use oracle noise characterization instead of sampling")
    route.add_argument("--baseline", action="store_true",
                       help="report the uncorrected noisy expectation instead")
    sub.add_argument("--out", default=None, help="JSON report path; - is stdout (default: none)")


def _add_floor_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--floor", type=float, default=DEFAULT_EIGENVALUE_FLOOR,
                     help="smallest eigenvalue magnitude the inversion divides by, in (0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulishadow",
        description="Shadow-based noise learning, recovery, and mitigation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    learn = subs.add_parser("learn", help="estimate channel eigenvalues")
    learn.add_argument("--channel", required=True,
                       help="channel config path or the built-in name 'reference'")
    learn.add_argument("--k", type=int, default=2)
    learn.add_argument("--shadows", type=int, default=100_000)
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--out", default=None, help="CSV output path (default or -: stdout)")
    learn.set_defaults(func=cmd_learn)

    for name, general in (("recover", False), ("recover-general", True)):
        rec = subs.add_parser(
            name,
            help="recover an ideal expectation value"
            + (" via the transfer matrix" if general else ""),
        )
        rec.add_argument("--channel", required=True)
        _add_observable_options(rec)
        rec.add_argument("--k", type=int, default=None,
                         help="checked only (locality <= k <= n); estimates follow the observable")
        _add_recover_options(rec)
        if not general:
            _add_floor_option(rec)
        rec.set_defaults(func=lambda a, g=general: cmd_recover(a, g))

    mit = subs.add_parser("mitigate", help="mitigate a noisy Clifford circuit")
    mit.add_argument("--circuit", required=True, help="circuit JSON path")
    _add_observable_options(mit)
    _add_recover_options(mit)
    _add_floor_option(mit)
    mit.set_defaults(func=cmd_mitigate)

    plan = subs.add_parser("plan", help="sufficient shadow count for a target accuracy")
    plan.add_argument("--epsilon", type=float, required=True)
    plan.add_argument("--delta", type=float, required=True)
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--k", type=int, required=True)
    plan.add_argument("--degree", type=int, required=True)
    plan.add_argument("--min-eigenvalue", type=float, required=True)
    plan.set_defaults(func=cmd_plan)

    fig2 = subs.add_parser("fig2", help="error-ratio sweep over shadow counts")
    fig2.add_argument("--channel", default="reference")
    _add_observable_options(fig2, default="heisenberg")
    fig2.add_argument("--sweep", default=None,
                      help="comma-separated shadow counts (default 10000..200000)")
    fig2.add_argument("--states", type=int, default=500)
    fig2.add_argument("--repeats", type=int, default=10)
    fig2.add_argument("--seed", type=int, default=0)
    fig2.add_argument("--exact-eigenvalues", action="store_true",
                      help="inject oracle eigenvalues (pipeline sanity mode)")
    fig2.add_argument("--expectation-shadows", type=int, default=None, metavar="N",
                      help="estimate noisy-state expectations from N shadows per state")
    fig2.add_argument("--out", default=None, help="CSV output path (default or -: stdout)")
    fig2.set_defaults(func=cmd_fig2)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option in ("seed", "state_seed"):  # one seed range; block_rng wraps at 2^128
            if not 0 <= getattr(args, option, 0) < 2**128:
                raise ConfigError(f"--{option.replace('_', '-')} must be in [0, 2^128)")
        _check_out(getattr(args, "out", None))  # before any record is drawn
        return args.func(args)
    except RecoveryError as err:
        print(f"recovery failed: {err}", file=sys.stderr)
        return 2
    except (ConfigError, FileNotFoundError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
