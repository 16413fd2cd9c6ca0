"""Command line surface: outputs, exit codes, and byte-level determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paulishadow import cli, exact, shadows
from paulishadow.channels import (
    PauliChannel,
    ProductChannel,
    amplitude_damping_ptm,
    exact_transfer_matrix,
    reference_product_channel,
    save_channel,
)
from paulishadow.clifford import CliffordCircuit, Gate
from paulishadow.observables import Observable, heisenberg_observable
from paulishadow.paulis import PauliString, enumerate_low_weight
from paulishadow.recovery import RecoveryError
from paulishadow.shadows import plan_sample_size


def P(label):
    return PauliString.from_label(label)


@pytest.fixture
def damping_channel_path(tmp_path):
    path = tmp_path / "damping.json"
    save_channel(ProductChannel([amplitude_damping_ptm(0.2), np.eye(4)]), path)
    return str(path)


@pytest.fixture
def x_observable_path(tmp_path):
    path = tmp_path / "obs.txt"
    Observable(1, {P("X"): 1.0}).save(path)
    return str(path)


# -- plan ----------------------------------------------------------------------


def test_plan_prints_inputs_and_count(capsys):
    rc = cli.main(
        [
            "plan", "--epsilon", "0.1", "--delta", "0.1", "--n", "2",
            "--k", "2", "--degree", "4", "--min-eigenvalue", "0.384",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert lines["epsilon"] == "0.1" and lines["delta"] == "0.1"
    assert lines["n"] == "2" and lines["k"] == "2" and lines["degree"] == "4"
    assert int(lines["records"]) == plan_sample_size(0.1, 0.1, 2, 2, 4, 0.384)


def test_plan_rejects_bad_inputs(capsys):
    rc = cli.main(
        [
            "plan", "--epsilon", "0", "--delta", "0.1", "--n", "2",
            "--k", "2", "--degree", "4", "--min-eigenvalue", "0.384",
        ]
    )
    assert rc == 1


# -- learn ---------------------------------------------------------------------


def learn_args(out_path, shadows="20000"):
    return [
        "learn", "--channel", "reference", "--k", "2",
        "--shadows", shadows, "--seed", "7", "--out", str(out_path),
    ]


def test_learn_csv_contents(tmp_path):
    out = tmp_path / "learn.csv"
    assert cli.main(learn_args(out)) == 0
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert comments[0].startswith("# paulishadow learn")
    header_index = lines.index("pauli,estimate,exact,abs_error")
    rows = lines[header_index + 1:]
    assert len(rows) == 16  # all weight <= 2 strings on 2 qubits
    ch = reference_product_channel()
    by_label = {}
    for row in rows:
        label, est, truth, err = row.split(",")
        by_label[label] = (float(est), float(truth), float(err))
    assert set(by_label) == {str(p) for p in enumerate_low_weight(2, 2)}
    for p in enumerate_low_weight(2, 2):
        est, truth, err = by_label[str(p)]
        assert truth == pytest.approx(ch.eigenvalue(p), abs=1e-10)
        assert err == pytest.approx(abs(est - truth), abs=1e-10)
        # weight-2 entries fluctuate with scale 27/sqrt(N) ~ 0.19 at this size
        assert abs(est - truth) < 0.25
    assert by_label["II"][0] == 1.0


def test_learn_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(learn_args(a))
    cli.main(learn_args(b))
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    cli.main(learn_args(c, shadows="25000"))
    assert a.read_bytes() != c.read_bytes()


def test_learn_stdout_mode(capsys):
    rc = cli.main(
        ["learn", "--channel", "reference", "--k", "1", "--shadows", "5000", "--seed", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "pauli,estimate,exact,abs_error" in out
    assert len([l for l in out.splitlines() if l and not l.startswith("#")]) == 1 + 7


def test_learn_missing_channel_file_exits_one(tmp_path, capsys):
    rc = cli.main(learn_args(tmp_path / "x.csv")[:2] + ["/nope/nothing.json"] + learn_args(tmp_path / "x.csv")[3:])
    assert rc == 1


def test_non_completely_positive_ptm_config_exits_one(tmp_path, capsys):
    # diag(1, 1.3, 1, 1) is trace preserving but has Choi defect 0.075; the
    # sampler would clip its outcome probabilities and estimate 1.0, not 1.3
    path = tmp_path / "stretch.json"
    path.write_text(json.dumps({"kind": "ptm-product", "qubits": [
        [1, 0, 0, 0, 0, 1.3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]]}))
    out = tmp_path / "x.csv"
    rc = cli.main(["learn", "--channel", str(path), "--k", "1", "--out", str(out)])
    assert rc == 1
    assert "not completely positive" in capsys.readouterr().err
    assert not out.exists()


# Channel files the digest cases load, written into the working directory so
# the CSV's "# channel:" line is the same on every machine.
LEARN_CHANNELS = {
    "pauli4.json": lambda: PauliChannel.from_qubit_probs([(0.9, 0.05, 0.03, 0.02)] * 4),
    "ptm6.json": lambda: ProductChannel([amplitude_damping_ptm(0.05 * (j + 1)) for j in range(6)]),
    "pauli10.json": lambda: PauliChannel.from_qubit_probs(
        [(0.92 - 0.01 * j, 0.03, 0.03, 0.02 + 0.01 * j) for j in range(10)]
    ),
}

# SHA-256 of learn CSVs on both sides of the joint cap.  Every float in a
# learn CSV is an exact integer ratio or an element-wise product, so the
# bytes do not depend on the BLAS in use.
LEARN_DIGESTS = {
    "reference-k2": ("reference", "2", "20000",
        "88f3c5ec210ecaf034e99c95297317fc73b5db7c2fc75c7c781fbadabfe15a3b"),
    "pauli4-k1": ("pauli4.json", "1", "20000",
        "8a88b996079c029d1f0f10da37835700d5729a7ad0dd4b2790c7132cc1ecc112"),
    "ptm6-k3": ("ptm6.json", "3", "1500",
        "23de94ca755364a1992745a657eb797b4e086c06eb854bf2de2f021a1e90b658"),
    "pauli10-k2": ("pauli10.json", "2", "500",
        "4354b07fea9a9e10541f02cc0c3ef57b098a095325c027b2dbe0c0d93984d4d0"),
}


@pytest.mark.parametrize("case", sorted(LEARN_DIGESTS))
def test_learn_csv_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    channel, k, shadows, digest = LEARN_DIGESTS[case]
    if channel in LEARN_CHANNELS:
        save_channel(LEARN_CHANNELS[channel](), channel)
    argv = ["learn", "--channel", channel, "--k", k, "--shadows", shadows, "--seed", "3",
            "--out", "learn.csv"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(Path("learn.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_learn_csv_digests_do_not_depend_on_the_helper_count(helpers, tmp_path, monkeypatch):
    monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)
    for case in sorted(LEARN_DIGESTS):
        (tmp_path / case).mkdir()
        test_learn_csv_digests(case, tmp_path / case, monkeypatch)
    # Each digest case fits in one block; five blocks give the helpers work.
    def learn(path):
        argv = ["learn", "--channel", "reference", "--k", "2", "--shadows",
                str(4 * shadows.DEFAULT_BLOCK_SIZE + 1), "--seed", "3", "--out", str(path)]
        assert cli.main(argv) == 0
        return path.read_bytes()

    grouped = learn(tmp_path / "grouped.csv")
    monkeypatch.setattr(shadows, "_helper_count", lambda: 0)
    assert grouped == learn(tmp_path / "serial.csv")


# -- recover -------------------------------------------------------------------


def recover_args(extra=()):
    return [
        "recover", "--channel", "reference", "--observable", "heisenberg",
        "--n", "2", "--shadows", "30000", "--seed", "5", "--state-seed", "9",
    ] + list(extra)


def test_recover_exact_eigenvalues_hits_ideal(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(recover_args(["--exact-eigenvalues", "--out", str(out)]))
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("recovered: ")
    report = json.loads(out.read_text())
    assert report["absolute_error"] < 1e-10
    assert report["provenance"] == "diagonal"
    assert set(report["terms"])  # non-empty correction terms


def test_recover_baseline_shows_noisy_gap(capsys):
    rc = cli.main(recover_args(["--baseline"]))
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("baseline: ")
    baseline_err = float(out.splitlines()[2].split(": ")[1])
    cli.main(recover_args(["--exact-eigenvalues"]))
    recovered_err = float(capsys.readouterr().out.splitlines()[2].split(": ")[1])
    assert recovered_err < baseline_err  # correction beats doing nothing
    assert baseline_err > 1e-3


def test_recover_sampled_close_to_ideal(capsys):
    rc = cli.main(recover_args())
    assert rc == 0
    err = float(capsys.readouterr().out.splitlines()[2].split(": ")[1])
    assert err < 0.2


def test_recover_floor_exit_two(tmp_path, x_observable_path, capsys):
    # lambda_X = 0 for this channel, so the X direction is unrecoverable
    dead = tmp_path / "dead.json"
    save_channel(PauliChannel.from_qubit_probs([(0.5, 0.0, 0.0, 0.5)]), dead)
    rc = cli.main(
        [
            "recover", "--channel", str(dead), "--observable", x_observable_path,
            "--exact-eigenvalues",
        ]
    )
    assert rc == 2
    assert "unrecoverable" in capsys.readouterr().err


def test_recover_config_error_exit_one(capsys):
    rc = cli.main(
        ["recover", "--channel", "reference", "--observable", "heisenberg", "--n", "3"]
    )
    assert rc == 1  # 3-qubit observable against the 2-qubit channel
    assert capsys.readouterr().err != ""


def test_recover_general_damping_channel(damping_channel_path, capsys):
    rc = cli.main(
        [
            "recover-general", "--channel", damping_channel_path,
            "--observable", "heisenberg", "--n", "2",
            "--exact-eigenvalues", "--state-seed", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    err = float(out.splitlines()[2].split(": ")[1])
    assert err < 1e-10


def test_recover_general_sampled(damping_channel_path, capsys):
    rc = cli.main(
        [
            "recover-general", "--channel", damping_channel_path,
            "--observable", "heisenberg", "--n", "2",
            "--shadows", "200000", "--seed", "2", "--state-seed", "3",
        ]
    )
    assert rc == 0
    err = float(capsys.readouterr().out.splitlines()[2].split(": ")[1])
    assert err < 0.25


# -- mitigate ------------------------------------------------------------------


@pytest.fixture
def circuit_path(tmp_path):
    circuit = CliffordCircuit(
        2,
        (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("S", (1,))),
        noise={
            "H": PauliChannel.from_qubit_probs([(0.9, 0.04, 0.03, 0.03)]),
            "CNOT": PauliChannel.from_qubit_probs(
                [(0.92, 0.03, 0.03, 0.02), (0.94, 0.02, 0.02, 0.02)]
            ),
            "S": PauliChannel.from_qubit_probs([(0.95, 0.02, 0.02, 0.01)]),
        },
    )
    path = tmp_path / "circuit.json"
    circuit.save(path)
    return str(path)


def test_mitigate_exact_estimates(circuit_path, capsys):
    rc = cli.main(
        [
            "mitigate", "--circuit", circuit_path, "--observable", "heisenberg",
            "--n", "2", "--exact-eigenvalues", "--state-seed", "4",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("recovered: ")
    err = float(out.splitlines()[2].split(": ")[1])
    assert err < 1e-10


def test_mitigate_sampled_and_baseline(circuit_path, capsys):
    rc = cli.main(
        [
            "mitigate", "--circuit", circuit_path, "--observable", "heisenberg",
            "--n", "2", "--shadows", "40000", "--seed", "6", "--state-seed", "4",
        ]
    )
    assert rc == 0
    sampled_err = float(capsys.readouterr().out.splitlines()[2].split(": ")[1])
    assert sampled_err < 0.2
    rc = cli.main(
        [
            "mitigate", "--circuit", circuit_path, "--observable", "heisenberg",
            "--n", "2", "--baseline", "--state-seed", "4",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("baseline: ")
    baseline_err = float(out.splitlines()[2].split(": ")[1])
    assert sampled_err < baseline_err


def test_mitigate_is_byte_deterministic(circuit_path, tmp_path):
    def run(out, seed="6"):
        argv = ["mitigate", "--circuit", circuit_path, "--observable", "heisenberg",
                "--n", "2", "--shadows", "30000", "--seed", seed, "--state-seed", "4",
                "--out", str(out)]
        assert cli.main(argv) == 0
        return out.read_bytes()

    first = run(tmp_path / "a.json")
    assert run(tmp_path / "b.json") == first
    assert run(tmp_path / "c.json", seed="7") != first
    assert set(json.loads(first)) >= {"value", "ideal", "terms", "min_abs_eigenvalue"}


def test_mitigate_bad_circuit_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(
        ["mitigate", "--circuit", str(bad), "--observable", "heisenberg", "--n", "2"]
    )
    assert rc == 1


# -- fig2 ----------------------------------------------------------------------


def fig2_args(out_path, extra=()):
    return [
        "fig2", "--sweep", "2000,4000", "--states", "20", "--repeats", "3",
        "--seed", "11", "--out", str(out_path),
    ] + list(extra)


def parse_fig2(path):
    lines = path.read_text().splitlines()
    header = lines.index("N,trial,mae_raw,mae_recovered,r,std_r")
    per_trial, summary = {}, {}
    for row in lines[header + 1:]:
        count, trial, mae_raw, mae_rec, r, std_r = row.split(",")
        if trial == "summary":
            summary[int(count)] = (float(mae_raw), float(mae_rec), float(r), float(std_r))
        else:
            per_trial.setdefault(int(count), []).append(
                (int(trial), float(mae_raw), float(mae_rec), float(r), std_r)
            )
    return lines, per_trial, summary


def test_fig2_csv_structure(tmp_path):
    out = tmp_path / "fig2.csv"
    assert cli.main(fig2_args(out)) == 0
    lines, per_trial, summary = parse_fig2(out)
    assert any(l.startswith("# sweep: 2000,4000") for l in lines)
    assert set(per_trial) == {2000, 4000} and set(summary) == {2000, 4000}
    for count, trials in per_trial.items():
        assert [t[0] for t in trials] == [0, 1, 2]
        assert all(t[4] == "" for t in trials)  # std only on the summary row
        mean_r = sum(t[3] for t in trials) / 3
        assert summary[count][2] == pytest.approx(mean_r, rel=1e-9)
        assert summary[count][3] >= 0.0
        for _, mae_raw, mae_rec, r, _ in trials:
            assert r == pytest.approx(mae_rec / mae_raw, rel=1e-9)
            assert mae_raw > 0 and mae_rec > 0


def test_fig2_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(fig2_args(a))
    cli.main(fig2_args(b))
    assert a.read_bytes() == b.read_bytes()


def test_fig2_exact_eigenvalue_injection_is_lossless(tmp_path):
    # with oracle eigenvalues the recovery pipeline must be exact
    out = tmp_path / "exact.csv"
    assert cli.main(fig2_args(out, ["--exact-eigenvalues"])) == 0
    _, per_trial, summary = parse_fig2(out)
    for trials in per_trial.values():
        for _, _, _, r, _ in trials:
            assert r <= 1e-9
    for _, _, r, _ in summary.values():
        assert r <= 1e-9


def test_fig2_exact_eigenvalues_are_checked_against_an_independent_oracle(tmp_path, monkeypatch):
    # The noisy values come from the channel's probabilities, so eigenvalues
    # corrupted on the --exact-eigenvalues side no longer cancel them.
    true_eigenvalues = PauliChannel.qubit_eigenvalues
    monkeypatch.setattr(PauliChannel, "qubit_eigenvalues",
                        lambda self: true_eigenvalues(self) * [1.0, 0.99, 1.01, 0.98])
    out = tmp_path / "corrupt.csv"
    assert cli.main(fig2_args(out, ["--exact-eigenvalues"])) == 0
    _, per_trial, _ = parse_fig2(out)
    assert min(r for trials in per_trial.values() for _, _, _, r, _ in trials) > 1e-6


def test_fig2_estimated_expectations_smoke(tmp_path):
    out = tmp_path / "est.csv"
    rc = cli.main(
        [
            "fig2", "--sweep", "3000", "--states", "10", "--repeats", "2",
            "--seed", "3", "--estimated-expectations",
            "--expectation-shadows", "3000", "--out", str(out),
        ]
    )
    assert rc == 0
    _, per_trial, summary = parse_fig2(out)
    assert set(summary) == {3000}
    assert summary[3000][2] > 0


def test_fig2_rejects_non_increasing_sweep(tmp_path, capsys):
    rc = cli.main(fig2_args(tmp_path / "x.csv", ["--sweep", "4000,2000"]))
    assert rc == 1


def test_fig2_requires_pauli_channel(damping_channel_path, tmp_path):
    rc = cli.main(
        fig2_args(tmp_path / "x.csv", ["--channel", damping_channel_path])
    )
    assert rc == 1


def test_fig2_survives_a_floor_hit(tmp_path, capsys):
    # the first sweep point's ZZ estimate of one trial falls below the floor
    out = tmp_path / "fig2.csv"
    assert cli.main(["fig2", "--seed", "837327496", "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "1 of 200 trials hit the eigenvalue floor; their summaries leave them out"
    ]
    _, per_trial, summary = parse_fig2(out)
    lost = [t for t in per_trial[10_000] if math.isnan(t[2])]
    assert len(lost) == 1 and math.isnan(lost[0][3]) and lost[0][1] > 0
    kept = [t for t in per_trial[10_000] if not math.isnan(t[2])]
    assert summary[10_000][0] == pytest.approx(np.mean([t[1] for t in kept]), rel=1e-12)
    assert summary[10_000][2] == pytest.approx(np.mean([t[3] for t in kept]), rel=1e-12)
    assert all(not math.isnan(v) for row in summary.values() for v in row)


def test_fig2_summaries_without_floor_hits_are_the_all_trial_means(tmp_path, monkeypatch):
    results = []
    run = cli.run_fig2

    def keep(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_fig2", keep)
    out = tmp_path / "fig2.csv"
    assert cli.main(fig2_args(out)) == 0
    (result,) = results
    assert result.succeeded.all()
    # with no floor hit, every summary is the plain mean or std over all trials
    f = cli._fmt
    want = [
        f"{count},summary,{f(result.mae_raw[pi].mean())},{f(result.mae_recovered[pi].mean())},"
        f"{f(result.ratio.mean(axis=1)[pi])},{f(result.ratio.std(axis=1)[pi])}"
        for pi, count in enumerate(result.sweep)
    ]
    assert [line for line in out.read_text().splitlines() if ",summary," in line] == want


def test_run_fig2_partial_and_total_floor_hits():
    channel, observable = reference_product_channel(), heisenberg_observable(2)
    result = cli.run_fig2(channel, observable, 2, (500, 1000), 5, 4, 11, floor=0.3)
    hits = (~result.succeeded).sum(axis=1)
    assert hits.tolist() == [1, 2]
    assert np.isnan(result.ratio[~result.succeeded]).all()
    assert not np.isnan(result.ratio[result.succeeded]).any()
    np.testing.assert_allclose(result.mean_ratio(), np.nanmean(result.ratio, axis=1), rtol=1e-12)
    np.testing.assert_allclose(result.std_ratio(), np.nanstd(result.ratio, axis=1), rtol=1e-12)
    with pytest.raises(RecoveryError, match="every trial at 500 shadows hit the eigenvalue floor"):
        cli.run_fig2(channel, observable, 2, (500, 1000), 5, 4, 11, floor=1.5)


BAD_INPUTS = {
    "learn-no-shadows": "learn --channel reference --shadows 0",
    "learn-k-above-n": "learn --channel reference --k 3",
    "recover-no-shadows": "recover --channel reference --observable heisenberg --shadows 0",
    "recover-k-above-n": "recover --channel reference --observable heisenberg --k 3",
    "recover-k-below-locality": "recover --channel reference --observable heisenberg --k 1",
    "recover-exact-k-below-locality":
        "recover --channel reference --observable heisenberg --k 1 --exact-eigenvalues",
    "general-no-shadows":
        "recover-general --channel reference --observable heisenberg --shadows -1",
    "general-k-above-n": "recover-general --channel reference --observable heisenberg --k 3",
    "general-k-below-locality": "recover-general --channel reference --observable heisenberg --k 1",
    "mitigate-no-shadows": "mitigate --circuit CIRCUIT --observable heisenberg --shadows 0",
    "recover-non-pauli-channel": "recover --channel DAMPING --observable heisenberg",
    "recover-exact-non-pauli-channel":
        "recover --channel DAMPING --observable heisenberg --exact-eigenvalues",
    "recover-floor-zero": "recover --channel reference --observable heisenberg --floor 0",
    "recover-floor-negative": "recover --channel reference --observable heisenberg --floor -1",
    "recover-floor-nan": "recover --channel reference --observable heisenberg --floor nan",
    "recover-floor-above-one": "recover --channel reference --observable heisenberg --floor 1.5",
    "mitigate-floor-zero": "mitigate --circuit CIRCUIT --observable heisenberg --floor 0",
    "mitigate-floor-negative": "mitigate --circuit CIRCUIT --observable heisenberg --floor -1",
    "mitigate-floor-nan": "mitigate --circuit CIRCUIT --observable heisenberg --floor nan",
    "mitigate-floor-above-one": "mitigate --circuit CIRCUIT --observable heisenberg --floor 1.5",
    "fig2-k-above-n": "fig2 --k 3 --sweep 100",
    "fig2-k-below-locality": "fig2 --k 1 --sweep 100",
    "fig2-no-states": "fig2 --states 0 --sweep 100",
    "fig2-no-repeats": "fig2 --repeats 0 --sweep 100",
    "fig2-sweep-not-integer": "fig2 --sweep 100,2.5",
    "fig2-few-expectation-shadows":
        "fig2 --sweep 100 --estimated-expectations --expectation-shadows 9",
    # Past its oracle's qubit cap: the statevector cap for the report
    # commands, the dense cap for fig2 (its spectral norm is dense).
    "recover-over-statevector-cap": "recover --channel PAULI21 --observable heisenberg --n 21",
    "general-over-statevector-cap":
        "recover-general --channel PAULI21 --observable heisenberg --n 21 --exact-eigenvalues",
    "mitigate-over-statevector-cap": "mitigate --circuit WIDE21 --observable heisenberg --n 21",
    "fig2-over-dense-cap": "fig2 --channel PAULI13 --n 13 --sweep 100",
}


@pytest.fixture
def wide_paths(tmp_path):
    """Channels and a circuit on more qubits than an oracle takes; small on disk."""
    qubit = (0.97, 0.01, 0.01, 0.01)
    paths = {}
    for n in (13, 21):
        paths[f"PAULI{n}"] = str(tmp_path / f"pauli{n}.json")
        save_channel(PauliChannel.from_qubit_probs([qubit] * n), paths[f"PAULI{n}"])
    paths["WIDE21"] = str(tmp_path / "wide21.json")
    CliffordCircuit(21, (Gate("H", (20,)),), {}).save(paths["WIDE21"])
    return paths


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one_before_any_draw(case, circuit_path, damping_channel_path,
                                             wide_paths, monkeypatch, capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("records drawn or a state built before the input was checked")

    for name in ("iter_channel_shadow_blocks", "sample_gate_shadows",
                 "estimate_state_expectations"):
        monkeypatch.setattr(cli, name, no_draws)
    monkeypatch.setattr(exact, "haar_random_vector", no_draws)
    monkeypatch.setattr(Observable, "spectral_norm", no_draws)
    argv = BAD_INPUTS[case].replace("CIRCUIT", circuit_path).replace(
        "DAMPING", damping_channel_path)
    for name, path in wide_paths.items():
        argv = argv.replace(name, path)
    argv = argv.split()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("configuration error: ")


NAN_NOISE = {"pI": math.nan, "pX": 0.04, "pY": 0.03, "pZ": 0.03}
NAN_PTM = [1, 0, 0, 0, 0, math.nan, 0, 0, 0, 0, 0.9, 0, 0.1, 0, 0, 0.9]
DAMPING_PTM = [1, 0, 0, 0, 0, 0.9 ** 0.5, 0, 0, 0, 0, 0.9 ** 0.5, 0, 0.1, 0, 0, 0.9]
# Input files, by name, and the commands that read them.
UNREADABLE_INPUTS = {
    "files": {
        "nan-circuit.json": {"n": 2, "gates": [{"g": "H", "q": [0]}],
                             "noise": {"H": {"kind": "pauli-product", "qubits": [NAN_NOISE]}}},
        "ptm-circuit.json": {"n": 2, "gates": [{"g": "CNOT", "q": [0, 1]}],
                             "noise": {"CNOT": {"kind": "ptm-product", "qubits": [DAMPING_PTM] * 2}}},
        "nan-pauli.json": {"kind": "pauli-product", "qubits": [NAN_NOISE] * 2},
        "nan-sparse.json": {"kind": "pauli-sparse", "n": 2, "terms": [["II", math.nan]]},
        "nan-ptm.json": {"kind": "ptm-product", "qubits": [NAN_PTM] * 2},
        "nan.txt": "XX nan\n",
        "overflow.txt": "XX 1e400\n",
        "bad-letter.txt": "XQ 0.3\n",
        "two-widths.txt": "XX 0.3\nXXX 0.2\n",
        "comments.txt": "# no terms\n\n",
    },
    "commands": {
        "mitigate-nan-noise": "mitigate --circuit nan-circuit.json --observable heisenberg",
        "mitigate-exact-nan-noise":
            "mitigate --circuit nan-circuit.json --observable heisenberg --exact-eigenvalues",
        "mitigate-ptm-noise": "mitigate --circuit ptm-circuit.json --observable heisenberg",
        "learn-nan-pauli-product": "learn --channel nan-pauli.json",
        "learn-nan-pauli-sparse": "learn --channel nan-sparse.json",
        "learn-nan-ptm-product": "learn --channel nan-ptm.json",
        "recover-nan-coefficient": "recover --channel reference --observable nan.txt",
        "recover-overflow-coefficient": "recover --channel reference --observable overflow.txt",
        "recover-nan-heisenberg": "recover --channel reference --observable heisenberg --jx nan",
        "recover-bad-letter": "recover --channel reference --observable bad-letter.txt",
        "recover-two-widths": "recover --channel reference --observable two-widths.txt",
        "recover-comments-only": "recover --channel reference --observable comments.txt",
        "recover-directory": "recover --channel reference --observable .",
        "recover-heisenberg-one-qubit": "recover --channel reference --observable heisenberg --n 1",
    },
    # What the one stderr line must say, where a case pins it.
    "messages": {
        "mitigate-nan-noise": "noise for H: non-finite probability nan",
        "mitigate-exact-nan-noise": "noise for H: non-finite probability nan",
        "mitigate-ptm-noise": "noise for CNOT: must be a Pauli channel, got ptm-product",
    },
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS["commands"]))
def test_non_finite_or_malformed_input_is_a_configuration_error(case, tmp_path, monkeypatch,
                                                                capsys):
    for name, content in UNREADABLE_INPUTS["files"].items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(UNREADABLE_INPUTS["commands"][case].split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("configuration error: ")
    assert UNREADABLE_INPUTS["messages"].get(case, "") in captured.err


# Children's peak resident set allowed for a report command at 16 qubits.
PAPER_SCALE_RSS_MB = 200


def test_report_commands_run_at_sixteen_qubits_in_bounded_memory(tmp_path):
    """recover, recover-general and mitigate at n = 16, where a density matrix
    would take 64 GB, and learn at k = 3, where the transfer matrix its
    exact column was once read from would take 2.1 GB.  A wrapper process
    runs them, so that its RUSAGE_CHILDREN peak counts these four commands
    only."""
    n = 16
    qubit = (0.98, 0.01, 0.005, 0.005)
    save_channel(PauliChannel.from_qubit_probs([qubit] * n), tmp_path / "pauli.json")
    damping = ProductChannel([amplitude_damping_ptm(0.05)] * n)
    save_channel(damping, tmp_path / "damping.json")
    gates = [Gate("H", (q,)) for q in range(n)]
    gates += [Gate("CNOT", (q, q + 1)) for q in range(n - 1)]
    gates += [Gate("S", (q,)) for q in range(n)]
    noise = {"H": PauliChannel.from_qubit_probs([qubit]),
             "S": PauliChannel.from_qubit_probs([qubit]),
             "CNOT": PauliChannel.from_terms(2, {"XX": 0.01, "ZI": 0.01})}
    CliffordCircuit(n, tuple(gates), noise).save(tmp_path / "circuit.json")
    observable = ["--observable", "heisenberg", "--n", str(n)]
    commands = [
        ["recover", "--channel", "pauli.json", *observable, "--shadows", "20000"],
        ["recover-general", "--channel", "damping.json", *observable, "--exact-eigenvalues"],
        ["mitigate", "--circuit", "circuit.json", *observable, "--exact-eigenvalues"],
        ["learn", "--channel", "damping.json", "--k", "3", "--shadows", "100000",
         "--out", "learn.csv"],
    ]
    script = (
        "import json, resource, subprocess, sys\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    subprocess.run([sys.executable, '-m', 'paulishadow', *argv], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *reports, peak_kb = done.stdout.splitlines()
    errors = [float(line.split(": ")[1]) for line in reports if line.startswith("absolute_error")]
    assert len(errors) == 3
    assert max(errors[1:]) < 1e-12  # exact eigenvalues recover the ideal value
    assert int(peak_kb) / 1024 < PAPER_SCALE_RSS_MB
    rows = [line.split(",") for line in (tmp_path / "learn.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    basis = list(enumerate_low_weight(n, 3))
    assert [row[0] for row in rows] == [str(p) for p in basis]
    diagonal = np.diag(damping.ptm(0))
    assert [row[2] for row in rows] == [
        cli._fmt(math.prod(diagonal[p.letter_code(j)] for j in range(n))) for p in basis]


# -- shared plumbing -----------------------------------------------------------


def test_derive_seed_is_stable_and_sensitive():
    assert cli._derive_seed(1, 2, 3) == cli._derive_seed(1, 2, 3)
    assert cli._derive_seed(1, 2, 3) != cli._derive_seed(1, 3, 2)


def test_observable_required_where_no_default(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["recover", "--channel", "reference"])
    assert err.value.code == 2  # argparse usage error


def test_floor_is_an_option_of_recover_and_mitigate_only(circuit_path, capsys):
    floor = ["--floor", "0.2", "--exact-eigenvalues"]
    assert cli.main(["recover", "--channel", "reference", "--observable", "heisenberg",
                     *floor]) == 0
    assert cli.main(["mitigate", "--circuit", circuit_path, "--observable", "heisenberg",
                     *floor]) == 0
    # recover-general back-substitutes through the transfer blocks: no floor
    with pytest.raises(SystemExit) as err:
        cli.main(["recover-general", "--channel", "reference", "--observable", "heisenberg",
                  *floor])
    assert err.value.code == 2
    assert "unrecognized arguments: --floor 0.2" in capsys.readouterr().err


def test_custom_heisenberg_couplings(capsys):
    rc = cli.main(
        recover_args(["--exact-eigenvalues", "--jx", "0.3", "--jy", "0.2",
                      "--jz", "0.1", "--hz", "0.5"])
    )
    assert rc == 0
    err = float(capsys.readouterr().out.splitlines()[2].split(": ")[1])
    assert err < 1e-10


# -- module entry point --------------------------------------------------------


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["plan", "--epsilon", "0.1", "--delta", "0.05", "--n", "2", "--k", "2",
            "--degree", "2", "--min-eigenvalue", "0.5"]
    done = subprocess.run(
        [sys.executable, "-m", "paulishadow", *argv], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"records: {plan_sample_size(0.1, 0.05, 2, 2, 2, 0.5)}"
    bad = subprocess.run(
        [sys.executable, "-m", "paulishadow", "learn", "--channel", "no-such-file.json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert bad.returncode == 1


def test_readme_quick_start_runs():
    """The README's one Python block runs, and its recovered and ideal values
    agree."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", blocks[0].split("```")[0]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    recovered, ideal = map(float, done.stdout.split())
    assert abs(recovered - ideal) < 0.05
