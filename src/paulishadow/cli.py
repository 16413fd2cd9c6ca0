"""Batch command-line front end.

Subcommands: ``learn`` (channel eigenvalue estimation report),
``recover`` / ``recover-general`` (noise-corrected expectation values),
``mitigate`` (Clifford circuit mitigation), ``plan`` (sample-size planning),
and ``fig2`` (the bundled mean-absolute-error ratio experiment sweeping the
shadow count).  All output is deterministic under fixed seeds: every run
seed, and every derived per-trial seed, is a pure function of the command
arguments, so repeated runs are byte-identical.

Exit status: 0 on success, 2 when recovery fails its eigenvalue floor or
conditioning checks, 1 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exact
from .channels import (
    ConfigError,
    PauliChannel,
    ProductChannel,
    exact_transfer_matrix,
    load_channel,
    reference_product_channel,
)
from .clifford import CliffordCircuit, exact_gate_estimates, gate_arity, mitigation_coefficients
from .observables import Observable, heisenberg_observable
from .paulis import PauliString, enumerate_low_weight
from .recovery import (
    DEFAULT_EIGENVALUE_FLOOR,
    RecoveryError,
    backward_observable,
    backward_observable_general,
    recovery_report,
)
from .shadows import (
    COUNTS_QUBIT_CAP,
    EigenvalueEstimates,
    ShadowCounts,
    ShadowRecords,
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


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _emit(lines: Sequence[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _resolve_channel(arg: str) -> PauliChannel | ProductChannel:
    if arg == "reference":
        return reference_product_channel()
    return load_channel(arg)


def _resolve_observable(arg: str, args: argparse.Namespace) -> Observable:
    if arg == "heisenberg":
        return heisenberg_observable(
            args.n,
            jx=args.jx,
            jy=args.jy,
            jz=args.jz,
            hz=args.hz,
            field_on_all=args.field_on_all,
            periodic=args.periodic,
        )
    try:
        return Observable.load(arg)
    except FileNotFoundError:
        raise ConfigError(
            f"observable {arg!r} is neither a readable file nor a built-in name"
        ) from None


def _shadow_source(channel, n: int, shadows: int, seed: int):
    """Sample and reduce to the smallest sufficient statistic for estimation."""
    blocks = iter_channel_shadow_blocks(channel, shadows, seed)
    if n <= COUNTS_QUBIT_CAP:
        return ShadowCounts.accumulate(blocks, n)
    return ShadowRecords.concatenate(blocks, (shadows, n))


# -- learn ---------------------------------------------------------------------


def run_learn(channel, k: int, shadows: int, seed: int) -> list[tuple[str, float, float, float]]:
    """Rows of (pauli label, estimate, exact value, absolute error)."""
    n = channel.n
    source = _shadow_source(channel, n, shadows, seed)
    estimates = estimate_eigenvalues(source, n, k)
    exact_diag = exact_transfer_matrix(channel, k)
    rows = []
    for p in enumerate_low_weight(n, k):
        est = estimates[p]
        truth = exact_diag.entry(p, p)
        rows.append((str(p), est, truth, abs(est - truth)))
    return rows


def cmd_learn(args: argparse.Namespace) -> int:
    channel = _resolve_channel(args.channel)
    rows = run_learn(channel, args.k, args.shadows, args.seed)
    lines = [
        f"# paulishadow learn {CSV_VERSION}",
        f"# channel: {args.channel}",
        f"# n: {channel.n}",
        f"# k: {args.k}",
        f"# shadows: {args.shadows}",
        f"# seed: {args.seed}",
        "pauli,estimate,exact,abs_error",
    ]
    for label, est, truth, err in rows:
        lines.append(f"{label},{_fmt(est)},{_fmt(truth)},{_fmt(err)}")
    _emit(lines, args.out)
    return 0


# -- recover / recover-general / mitigate -------------------------------------


def run_recover(
    channel,
    observable: Observable,
    k: int,
    shadows: int,
    seed: int,
    state_seed: int,
    exact_eigenvalues: bool,
    floor: float,
    general: bool,
    baseline: bool,
) -> dict:
    n = channel.n
    if observable.n != n:
        raise ConfigError(
            f"observable acts on {observable.n} qubits, channel on {n}"
        )
    state = exact.haar_random_state(n, _derive_seed(state_seed, 11))
    noisy = exact.apply_channel(channel, state)
    ideal = exact.expectation(observable, state)
    if baseline:
        value = exact.expectation(observable, noisy)
        return {
            "value": value,
            "provenance": "baseline",
            "ideal": ideal,
            "absolute_error": abs(value - ideal),
        }
    if general:
        if exact_eigenvalues:
            transfer = exact_transfer_matrix(channel, k)
        else:
            source = _shadow_source(channel, n, shadows, seed)
            transfer = estimate_transfer_matrix(source, n, k)
        back = backward_observable_general(observable, transfer)
    else:
        if exact_eigenvalues:
            estimates = EigenvalueEstimates.from_channel(channel, k)
        else:
            source = _shadow_source(channel, n, shadows, seed)
            estimates = estimate_eigenvalues(source, n, k)
        back = backward_observable(observable, estimates, floor)
    value = exact.expectation(back.as_observable(), noisy)
    return recovery_report(back, value, ideal)


def _print_report(report: dict, out_path: str | None) -> None:
    label = "baseline" if report.get("provenance") == "baseline" else "recovered"
    print(f"{label}: {_fmt(report['value'])}")
    print(f"ideal: {_fmt(report['ideal'])}")
    print(f"absolute_error: {_fmt(report['absolute_error'])}")
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def cmd_recover(args: argparse.Namespace, general: bool) -> int:
    channel = _resolve_channel(args.channel)
    observable = _resolve_observable(args.observable, args)
    k = args.k if args.k is not None else observable.locality
    report = run_recover(
        channel,
        observable,
        k,
        args.shadows,
        args.seed,
        args.state_seed,
        args.exact_eigenvalues,
        args.floor,
        general,
        args.baseline,
    )
    _print_report(report, args.out)
    return 0


def run_mitigate(
    circuit: CliffordCircuit,
    observable: Observable,
    shadows: int,
    seed: int,
    state_seed: int,
    exact_eigenvalues: bool,
    floor: float,
    baseline: bool = False,
) -> dict:
    if observable.n != circuit.n:
        raise ConfigError(
            f"observable acts on {observable.n} qubits, circuit on {circuit.n}"
        )
    psi = exact.haar_random_vector(circuit.n, _derive_seed(state_seed, 11))
    noisy = exact.simulate_noisy_circuit(circuit, exact.DenseState.from_unit_vector(psi))
    ideal = exact.expectation(observable, exact.simulate_ideal_statevector(circuit, psi))
    if baseline:
        value = exact.expectation(observable, noisy)
        return {
            "value": value,
            "provenance": "baseline",
            "ideal": ideal,
            "absolute_error": abs(value - ideal),
        }
    if exact_eigenvalues:
        estimates = exact_gate_estimates(circuit)
    else:
        estimates = {}
        for kind in sorted({g.kind for g in circuit.gates}):
            blocks = sample_gate_shadows(
                kind, circuit.noise.get(kind), shadows,
                _derive_seed(seed, 23, *(ord(c) for c in kind)),
            )
            counts = ShadowCounts.accumulate(blocks, gate_arity(kind))
            estimates[kind] = estimate_gate_eigenvalues(counts, kind)
    back = mitigation_coefficients(circuit, estimates, observable, floor)
    value = exact.expectation(back.as_observable(), noisy)
    return recovery_report(back, value, ideal)


def cmd_mitigate(args: argparse.Namespace) -> int:
    circuit = CliffordCircuit.load(args.circuit)
    observable = _resolve_observable(args.observable, args)
    report = run_mitigate(
        circuit,
        observable,
        args.shadows,
        args.seed,
        args.state_seed,
        args.exact_eigenvalues,
        args.floor,
        args.baseline,
    )
    _print_report(report, args.out)
    return 0


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

    def mean_ratio(self) -> np.ndarray:
        return self.ratio.mean(axis=1)

    def std_ratio(self) -> np.ndarray:
        return self.ratio.std(axis=1)


def run_fig2(
    channel: PauliChannel,
    observable: Observable,
    k: int,
    sweep: Sequence[int],
    n_states: int,
    repeats: int,
    seed: int,
    exact_eigenvalues: bool = False,
    estimated_expectations: bool = False,
    expectation_shadows: int = 10_000,
    floor: float = DEFAULT_EIGENVALUE_FLOOR,
) -> Fig2Result:
    """Mean-absolute-error ratio experiment.

    For each sweep point: learn eigenvalues from that many fresh shadows,
    recover tr(O sigma) for a batch of Haar-random states, and compare the
    recovered mean absolute error to the uncorrected one.  The observable is
    normalized to unit spectral norm first.  Noisy-state expectations come
    from the dense oracle unless ``estimated_expectations`` is set, in which
    case they are median-of-means shadow estimates.
    """
    if not isinstance(channel, PauliChannel):
        raise ConfigError("the sweep experiment expects a Pauli channel")
    sweep = tuple(int(x) for x in sweep)
    if any(b <= a for a, b in zip(sweep, sweep[1:])) or any(x <= 0 for x in sweep):
        raise ConfigError(f"sweep must be positive and increasing, got {sweep}")
    n = channel.n
    if observable.n != n:
        raise ConfigError(f"observable acts on {observable.n} qubits, channel on {n}")
    norm = observable.spectral_norm()
    if norm == 0.0:
        raise ConfigError("cannot normalize the zero observable")
    observable = observable.scaled(1.0 / norm)

    paulis = [p for p in observable.support() if not p.is_identity]
    alpha = np.array([observable.coefficient(p) for p in paulis])
    alpha_id = observable.coefficient(PauliString.identity(n))
    pauli_mats = np.stack([p.matrix() for p in paulis])
    lam = np.array([channel.eigenvalue(p) for p in paulis])

    mae_raw = np.empty((len(sweep), repeats))
    mae_rec = np.empty((len(sweep), repeats))
    for rep in range(repeats):
        rng = np.random.default_rng(_derive_seed(seed, 5001, rep))
        states = [exact.haar_random_state(n, rng) for _ in range(n_states)]
        rhos = np.stack([st.rho for st in states])
        t = np.einsum("pij,sji->sp", pauli_mats, rhos).real  # tr(P sigma)
        ideal_vals = t @ alpha + alpha_id
        if estimated_expectations:
            noisy_t = np.empty_like(t)
            for i, st in enumerate(states):
                noisy = exact.apply_channel(channel, st)
                ests = estimate_state_expectations(
                    noisy,
                    paulis,
                    expectation_shadows,
                    _derive_seed(seed, 7001, rep, i),
                )
                noisy_t[i] = [ests[p] for p in paulis]
        else:
            noisy_t = t * lam[None, :]  # tr(P channel(sigma)) for Pauli channels
        raw_vals = noisy_t @ alpha + alpha_id
        raw_err = np.abs(raw_vals - ideal_vals).mean()
        for pi, count in enumerate(sweep):
            if exact_eigenvalues:
                estimates = EigenvalueEstimates.from_channel(channel, k)
            else:
                source = _shadow_source(
                    channel, n, count, _derive_seed(seed, 3001, rep, pi)
                )
                estimates = estimate_eigenvalues(source, n, k)
            back = backward_observable(observable, estimates, floor)
            bar = np.array([back.coefficient(p) for p in paulis])
            bar_id = back.coefficient(PauliString.identity(n))
            rec_vals = noisy_t @ bar + bar_id
            mae_raw[pi, rep] = raw_err
            mae_rec[pi, rep] = np.abs(rec_vals - ideal_vals).mean()
    ratio = mae_rec / mae_raw
    return Fig2Result(sweep, mae_raw, mae_rec, ratio, norm)


def cmd_fig2(args: argparse.Namespace) -> int:
    channel = _resolve_channel(args.channel)
    observable = _resolve_observable(args.observable, args)
    sweep = (
        tuple(int(s) for s in args.sweep.split(","))
        if args.sweep
        else DEFAULT_SWEEP
    )
    result = run_fig2(
        channel,
        observable,
        args.k,
        sweep,
        args.states,
        args.repeats,
        args.seed,
        exact_eigenvalues=args.exact_eigenvalues,
        estimated_expectations=args.estimated_expectations,
        expectation_shadows=args.expectation_shadows,
    )
    lines = [
        f"# paulishadow fig2 {CSV_VERSION}",
        f"# channel: {args.channel}",
        f"# observable: {args.observable}",
        f"# n: {channel.n}",
        f"# k: {args.k}",
        f"# states: {args.states}",
        f"# repeats: {args.repeats}",
        f"# seed: {args.seed}",
        f"# sweep: {','.join(str(x) for x in result.sweep)}",
        f"# norm_constant: {_fmt(result.norm_constant)}",
        "N,trial,mae_raw,mae_recovered,r,std_r",
    ]
    for pi, count in enumerate(result.sweep):
        for rep in range(args.repeats):
            lines.append(
                f"{count},{rep},{_fmt(result.mae_raw[pi, rep])},"
                f"{_fmt(result.mae_recovered[pi, rep])},{_fmt(result.ratio[pi, rep])},"
            )
        lines.append(
            f"{count},summary,{_fmt(result.mae_raw[pi].mean())},"
            f"{_fmt(result.mae_recovered[pi].mean())},{_fmt(result.mean_ratio()[pi])},"
            f"{_fmt(result.std_ratio()[pi])}"
        )
    _emit(lines, args.out)
    return 0


# -- argument wiring -----------------------------------------------------------


def _add_observable_options(sub: argparse.ArgumentParser, default: str | None = None) -> None:
    sub.add_argument("--observable", required=default is None, default=default,
                     help="observable file path or the built-in name 'heisenberg'")
    sub.add_argument("--n", type=int, default=2,
                     help="qubit count for built-in observables")
    sub.add_argument("--jx", type=float, default=0.27)
    sub.add_argument("--jy", type=float, default=0.42)
    sub.add_argument("--jz", type=float, default=0.76)
    sub.add_argument("--hz", type=float, default=0.6)
    sub.add_argument("--field-on-all", action="store_true",
                     help="place the field term on every qubit")
    sub.add_argument("--periodic", action="store_true",
                     help="add the wrap-around bond")


def _add_recover_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--shadows", type=int, default=100_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--state-seed", type=int, default=0,
                     help="seed of the Haar-random test state")
    sub.add_argument("--exact-eigenvalues", action="store_true",
                     help="use oracle noise characterization instead of sampling")
    sub.add_argument("--floor", type=float, default=DEFAULT_EIGENVALUE_FLOOR)
    sub.add_argument("--baseline", action="store_true",
                     help="report the uncorrected noisy expectation instead")
    sub.add_argument("--out", default=None, help="write a JSON report here")


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
    learn.add_argument("--out", default=None, help="CSV output path (default stdout)")
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
                         help="estimation weight cutoff (default: observable locality)")
        _add_recover_options(rec)
        rec.set_defaults(func=lambda a, g=general: cmd_recover(a, g))

    mit = subs.add_parser("mitigate", help="mitigate a noisy Clifford circuit")
    mit.add_argument("--circuit", required=True, help="circuit JSON path")
    _add_observable_options(mit)
    _add_recover_options(mit)
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
    fig2.add_argument("--k", type=int, default=2)
    fig2.add_argument("--sweep", default=None,
                      help="comma-separated shadow counts (default 10000..200000)")
    fig2.add_argument("--states", type=int, default=500)
    fig2.add_argument("--repeats", type=int, default=10)
    fig2.add_argument("--seed", type=int, default=0)
    fig2.add_argument("--exact-eigenvalues", action="store_true",
                      help="inject oracle eigenvalues (pipeline sanity mode)")
    fig2.add_argument("--estimated-expectations", action="store_true",
                      help="estimate noisy-state expectations from shadows too")
    fig2.add_argument("--expectation-shadows", type=int, default=10_000)
    fig2.add_argument("--out", default=None, help="CSV output path (default stdout)")
    fig2.set_defaults(func=cmd_fig2)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RecoveryError as err:
        print(f"recovery failed: {err}", file=sys.stderr)
        return 2
    except (ConfigError, FileNotFoundError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
