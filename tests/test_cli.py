"""Command line surface: outputs, exit codes, and byte-level determinism."""

import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paulishadow
from paulishadow import cli, exact, shadows
from paulishadow.channels import (
    PauliChannel,
    ProductChannel,
    amplitude_damping_ptm,
    load_channel,
    reference_product_channel,
)
from paulishadow.clifford import CliffordCircuit, Gate
from paulishadow.observables import Observable, heisenberg_observable
from paulishadow.paulis import PauliString, enumerate_low_weight
from paulishadow.recovery import RecoveryError
from paulishadow.shadows import plan_sample_size

from reference import brute_force_transfer, pauli_product, ptm_product


def P(label):
    return PauliString.from_label(label)


@pytest.fixture
def damping_channel_path(tmp_path):
    path = tmp_path / "damping.json"
    path.write_text(json.dumps(ptm_product([amplitude_damping_ptm(0.2), np.eye(4)])))
    return str(path)


@pytest.fixture
def x_observable_path(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("X 1.0\n")
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
    # The exact column against the dense reference's diagonal, tr(P E(P)) / 2^n.
    dense = brute_force_transfer(reference_product_channel(), 2)
    by_label = {}
    for row in rows:
        label, est, truth, err = row.split(",")
        by_label[label] = (float(est), float(truth), float(err))
    assert set(by_label) == {str(p) for p in enumerate_low_weight(2, 2)}
    for p, lam in zip(dense.basis, np.diag(dense.matrix)):
        est, truth, err = by_label[str(p)]
        assert truth == pytest.approx(lam, abs=1e-10)
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


# A correlated Pauli channel in sparse form: the only kind whose sampler and
# oracles read a term map instead of per-qubit factors.
SPARSE4 = {"kind": "pauli-sparse", "n": 4,
           "terms": [["XIII", 0.02], ["ZZII", 0.03], ["IYYI", 0.02], ["IIXZ", 0.01]]}

# Channel files the digest cases load, written into the working directory so
# the CSV's "# channel:" line is the same on every machine.
LEARN_CHANNELS = {
    "sparse4.json": SPARSE4,
    "pauli4.json": pauli_product([(0.9, 0.05, 0.03, 0.02)] * 4),
    "ptm6.json": ptm_product([amplitude_damping_ptm(0.05 * (j + 1)) for j in range(6)]),
    "pauli10.json": pauli_product([(0.92 - 0.01 * j, 0.03, 0.03, 0.02 + 0.01 * j)
                                   for j in range(10)]),
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
    "sparse4-k2": ("sparse4.json", "2", "20000",
        "c45f6f2d3e609a16f529390ffe918433a37dce101329acdc8ed73a8dc3783231"),
}


@pytest.mark.parametrize("case", sorted(LEARN_DIGESTS))
def test_learn_csv_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    channel, k, shadows, digest = LEARN_DIGESTS[case]
    if channel in LEARN_CHANNELS:
        Path(channel).write_text(json.dumps(LEARN_CHANNELS[channel]))
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
    dead.write_text(json.dumps(pauli_product([(0.5, 0.0, 0.0, 0.5)])))
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


@pytest.fixture
def six_qubit_paths(tmp_path):
    """A six-qubit Pauli product channel and a six-qubit amplitude-damping
    channel (gamma 0.05, 0.10, ..., 0.30)."""
    pauli, damping = tmp_path / "pauli6.json", tmp_path / "damping6.json"
    pauli.write_text(json.dumps(pauli_product([(0.9, 0.04, 0.03, 0.03)] * 6)))
    damping.write_text(json.dumps(ptm_product([amplitude_damping_ptm(0.05 * (j + 1))
                                               for j in range(6)])))
    return {"recover": str(pauli), "recover-general": str(damping)}


def test_recover_commands_estimate_only_what_the_observable_reaches(six_qubit_paths,
                                                                     monkeypatch):
    """The Heisenberg observable is 2-local: whatever --k says, recover asks
    for its own 20 non-identity strings and recover-general for the weight
    <= 2 transfer matrix."""
    asked = {}
    estimate_eigenvalues = cli.estimate_eigenvalues
    estimate_transfer_matrix = cli.estimate_transfer_matrix

    def eigenvalues(source, strings):
        asked["strings"] = list(strings)
        return estimate_eigenvalues(source, strings)

    def transfer(source, k):
        asked["transfer"] = estimate_transfer_matrix(source, k)
        return asked["transfer"]

    monkeypatch.setattr(cli, "estimate_eigenvalues", eigenvalues)
    monkeypatch.setattr(cli, "estimate_transfer_matrix", transfer)
    common = ["--observable", "heisenberg", "--n", "6", "--shadows", "20000", "--seed", "1"]
    assert cli.main(["recover", "--channel", six_qubit_paths["recover"], "--k", "4",
                     *common]) == 0
    heisenberg = [p for p in heisenberg_observable(6).terms() if not p.is_identity]
    assert len(heisenberg) == 20 and asked["strings"] == heisenberg
    assert cli.main(["recover-general", "--channel", six_qubit_paths["recover-general"],
                     "--k", "3", *common]) == 0
    assert asked["transfer"].basis == tuple(enumerate_low_weight(6, 2))


def test_sampled_and_exact_tables_share_keys(circuit_path, monkeypatch, capsys):
    """recover and mitigate pass the sampled and the --exact-eigenvalues
    tables as one type, keyed alike: recover by the observable's
    non-identity strings in term order, mitigate by every local string."""
    tables = []

    def keep(inverse):
        def call(observable_or_circuit, estimates, *args):
            tables.append(estimates)
            return inverse(observable_or_circuit, estimates, *args)
        return call

    monkeypatch.setattr(cli, "backward_observable", keep(cli.backward_observable))
    monkeypatch.setattr(cli, "mitigation_coefficients", keep(cli.mitigation_coefficients))
    for argv in (["recover", "--channel", "reference"], ["mitigate", "--circuit", circuit_path]):
        argv += ["--observable", "heisenberg", "--shadows", "2000"]
        assert cli.main(argv) == 0 and cli.main([*argv, "--exact-eigenvalues"]) == 0
    capsys.readouterr()
    recover_sampled, recover_exact, mitigate_sampled, mitigate_exact = tables
    heisenberg = [p for p in heisenberg_observable(2).terms() if not p.is_identity]
    assert list(recover_sampled) == list(recover_exact) == heisenberg
    assert list(mitigate_sampled) == list(mitigate_exact) == ["CNOT", "H", "S"]
    for kind in mitigate_exact:
        assert list(mitigate_sampled[kind]) == list(mitigate_exact[kind])


@pytest.mark.parametrize("command", ["learn --channel reference",
                                     "recover --channel reference --observable heisenberg"])
def test_a_failed_write_is_one_configuration_error_line(command, tmp_path, capsys):
    # A name too long to open passes the checks made before the run.
    out = tmp_path / ("x" * 300)
    assert cli.main([*command.split(), "--shadows", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: cannot write {out}: File name too long\n")


def test_a_report_to_dash_goes_to_stdout_after_the_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["recover", "--channel", "reference", "--observable", "heisenberg",
            "--shadows", "2000"]
    assert cli.main([*argv, "--out", "report.json"]) == 0
    summary = capsys.readouterr().out
    assert cli.main([*argv, "--out", "-"]) == 0
    assert capsys.readouterr().out == summary + Path("report.json").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


@pytest.mark.parametrize("command, k_above", [("recover", 4), ("recover-general", 3)])
def test_k_above_the_locality_leaves_the_report_unchanged(command, k_above, six_qubit_paths,
                                                          tmp_path, capsys):
    runs = []
    for k in (2, k_above):
        out = tmp_path / f"k{k}.json"
        argv = [command, "--channel", six_qubit_paths[command], "--observable", "heisenberg",
                "--n", "6", "--k", str(k), "--shadows", "140000", "--seed", "8",
                "--state-seed", "9", "--out", str(out)]
        assert cli.main(argv) == 0
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]


# SHA-256 of recover's JSON report and recover-general's stdout and JSON
# report, on both sides of the joint cap (a four-qubit stream is counted, a
# six-qubit one drawn into records), by command, channel and output.  The
# channel is a product channel on "4" or "6" qubits, or SPARSE4.
# recover-general's report holds its block solve's floats, whose bits follow
# the BLAS thread count, so it is written in a subprocess with one OpenBLAS
# thread.
RECOVER_DIGESTS = {
    ("recover", "4", "report"): "b8581c532dca42ee2af695fb4c785685a45f2712b3a87357faf617777594ee8a",
    ("recover", "6", "report"): "8385f6054d79cd03ec9f0326594a050219411621f02750e551f184fb7cbf713d",
    ("recover", "sparse4", "report"):
        "65843f759c714b1917608c972bb51ad0b37a2e0e0425b3421710d28df0fa913c",
    ("recover-general", "4", "stdout"):
        "7372e6e6dd90f75a4f1b1981cbfc17460adf95584943225f66c7c8f61fe7befb",
    ("recover-general", "6", "stdout"):
        "22d82fe7235a8253eebf7ca62c3cef9848d6f09755f9b6a5ea9568ca3a329b11",
    ("recover-general", "4", "report"):
        "4a23b36646e88157f8632810df095926a0d846f4d637f7e47cb3b4c1ed004850",
    ("recover-general", "6", "report"):
        "a4b7f7fb73aad44160811525e65f37828f9391278feaa8b3c7d839fe5f609155",
}


@pytest.mark.parametrize("command, name, output", sorted(RECOVER_DIGESTS))
def test_recover_report_digests(command, name, output, tmp_path, capsys):
    if name == "sparse4":
        n, channel = 4, SPARSE4
    elif command == "recover":
        n = int(name)
        channel = pauli_product([(0.9, 0.04, 0.03, 0.03)] * n)
    else:
        n = int(name)
        channel = ptm_product([amplitude_damping_ptm(0.05 * (j + 1)) for j in range(n)])
    (tmp_path / "channel.json").write_text(json.dumps(channel))
    argv = [command, "--channel", str(tmp_path / "channel.json"), "--observable", "heisenberg",
            "--n", str(n), "--shadows", "20000", "--seed", "8", "--state-seed", "9"]
    report = tmp_path / "report.json"
    if command == "recover-general" and output == "report":
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "paulishadow", *argv, "--out", str(report)],
                       env=env, check=True, capture_output=True, timeout=120)
    else:
        assert cli.main([*argv, "--out", str(report)]) == 0
    got = capsys.readouterr().out.encode() if output == "stdout" else report.read_bytes()
    assert hashlib.sha256(got).hexdigest() == RECOVER_DIGESTS[command, name, output]


# -- mitigate ------------------------------------------------------------------


@pytest.fixture
def circuit_path(tmp_path):
    circuit = {
        "n": 2,
        "gates": [{"g": "H", "q": [0]}, {"g": "CNOT", "q": [0, 1]}, {"g": "S", "q": [1]}],
        "noise": {
            "H": pauli_product([(0.9, 0.04, 0.03, 0.03)]),
            "CNOT": pauli_product([(0.92, 0.03, 0.03, 0.02), (0.94, 0.02, 0.02, 0.02)]),
            "S": pauli_product([(0.95, 0.02, 0.02, 0.01)]),
        },
    }
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit))
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


# SHA-256 of what a sampled mitigate report derives from the gate records: the
# terms, min_abs_eigenvalue and warnings.  They are exact integer ratios and
# element-wise products, so they do not depend on the BLAS in use; value and
# ideal go through the statevector oracle and are left out.
MITIGATE_DIGEST = "c58d2b2f41e118991162081158116197070a49494b77d5c057aeac16bd224141"


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_mitigate_report_digest_does_not_depend_on_the_helper_count(helpers, tmp_path,
                                                                     monkeypatch):
    monkeypatch.setattr(shadows, "_helper_count", lambda: helpers)
    n, gates = 4, []
    for _ in range(2):  # brickwork layers: H, CNOT on even bonds, S, CNOT on odd bonds
        gates += [{"g": "H", "q": [q]} for q in range(n)]
        gates += [{"g": "CNOT", "q": [q, q + 1]} for q in range(0, n - 1, 2)]
        gates += [{"g": "S", "q": [q]} for q in range(n)]
        gates += [{"g": "CNOT", "q": [q, q + 1]} for q in range(1, n - 1, 2)]
    # Noise light enough that some estimates land past 1 and are clamped.
    noise = {"H": pauli_product([(0.995, 0.002, 0.002, 0.001)]),
             "S": pauli_product([(0.998, 0.001, 0.0005, 0.0005)]),
             "CNOT": pauli_product([(0.99, 0.004, 0.003, 0.003), (0.998, 0.001, 0.0005, 0.0005)])}
    (tmp_path / "brick.json").write_text(json.dumps({"n": n, "gates": gates, "noise": noise}))
    # Five blocks per gate kind give the helpers work.
    argv = ["mitigate", "--circuit", str(tmp_path / "brick.json"), "--observable", "heisenberg",
            "--n", str(n), "--shadows", str(4 * shadows.DEFAULT_BLOCK_SIZE + 1), "--seed", "3",
            "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    derived = [report[key] for key in ("terms", "min_abs_eigenvalue", "warnings")]
    assert len(report["warnings"]) == 34
    assert hashlib.sha256(json.dumps(derived).encode()).hexdigest() == MITIGATE_DIGEST


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


# SHA-256 of a sampled fig2 CSV.  Its eigenvalue cutoff is the observable's
# locality (the CSV's "# k: 2" line for the two-qubit Heisenberg chain).
FIG2_DIGEST = "4c84b78fcb9490c2a6acf6430ce2d6151b60590081d0ff33b2e64b095bfad353"


def test_fig2_csv_digest(tmp_path):
    out = tmp_path / "fig2.csv"
    argv = ["fig2", "--states", "20", "--repeats", "3", "--sweep", "5000,20000", "--seed", "5",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert "# k: 2" in out.read_text().splitlines()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG2_DIGEST


# SHA-256 of a fig2 CSV whose noisy-state expectations are shadow estimates,
# the only command that samples a state's Pauli-basis outcomes.
FIG2_ESTIMATED_DIGEST = "5f20f455a0cdd1a829805f9895a15e3dfc8896ae4b487a4385fe56f32f7ceace"


def test_fig2_estimated_expectations_csv_digest(tmp_path):
    out = tmp_path / "fig2.csv"
    argv = ["fig2", "--sweep", "3000,6000", "--states", "6", "--repeats", "2", "--seed", "3",
            "--expectation-shadows", "3000", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG2_ESTIMATED_DIGEST


# The same on SPARSE4 at n = 4, where each term's outcome flips are applied
# jointly rather than qubit by qubit.
FIG2_ESTIMATED_SPARSE_DIGEST = "e91d9d6afbba5d6fbccb0d06a99b31fb189b49ea651c13f38746f697441cb007"


def test_fig2_estimated_expectations_sparse_csv_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("sparse4.json").write_text(json.dumps(SPARSE4))
    argv = ["fig2", "--channel", "sparse4.json", "--observable", "heisenberg", "--n", "4",
            "--sweep", "3000,6000", "--states", "4", "--repeats", "2", "--seed", "3",
            "--expectation-shadows", "3000", "--out", "fig2.csv"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(Path("fig2.csv").read_bytes()).hexdigest()
    assert digest == FIG2_ESTIMATED_SPARSE_DIGEST


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
            "--seed", "3", "--expectation-shadows", "3000", "--out", str(out),
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
    result = cli.run_fig2(channel, observable, (500, 1000), 5, 4, 11, floor=0.3)
    hits = (~result.succeeded).sum(axis=1)
    assert hits.tolist() == [1, 2]
    assert np.isnan(result.ratio[~result.succeeded]).all()
    assert not np.isnan(result.ratio[result.succeeded]).any()
    np.testing.assert_allclose(result.point_means(result.ratio), np.nanmean(result.ratio, axis=1), rtol=1e-12)
    np.testing.assert_allclose(result.std_ratio(), np.nanstd(result.ratio, axis=1), rtol=1e-12)
    with pytest.raises(RecoveryError, match="every trial at 500 shadows hit the eigenvalue floor"):
        cli.run_fig2(channel, observable, (500, 1000), 5, 4, 11, floor=1.5)


PLAN = "plan --delta 0.1 --degree 4"
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
    "fig2-no-states": "fig2 --states 0 --sweep 100",
    "fig2-no-repeats": "fig2 --repeats 0 --sweep 100",
    "fig2-sweep-not-integer": "fig2 --sweep 100,2.5",
    "fig2-few-expectation-shadows": "fig2 --sweep 100 --expectation-shadows 9",
    # Past its oracle's qubit cap: the statevector cap for the report
    # commands, the dense cap for fig2 (its spectral norm is dense).
    "recover-over-statevector-cap": "recover --channel PAULI21 --observable heisenberg --n 21",
    "general-over-statevector-cap":
        "recover-general --channel PAULI21 --observable heisenberg --n 21 --exact-eigenvalues",
    "mitigate-over-statevector-cap": "mitigate --circuit WIDE21 --observable heisenberg --n 21",
    "fig2-over-dense-cap": "fig2 --channel PAULI13 --n 13 --sweep 100",
    # No non-identity term: nothing to learn and no error to take a ratio of.
    "fig2-identity-observable": "fig2 --observable IDENTITY --sweep 100",
    # Every coefficient 0: no norm to divide by.
    "fig2-zero-observable": "fig2 --observable ZERO --sweep 100",
    # An observable of another width than the circuit or channel.
    "mitigate-observable-width": "mitigate --circuit CIRCUIT --observable heisenberg --n 3",
    "fig2-observable-width": "fig2 --observable heisenberg --n 3 --sweep 100",
    # Seeds are non-negative in every command.
    "learn-negative-seed": "learn --channel reference --seed -1",
    "mitigate-negative-seed": "mitigate --circuit CIRCUIT --observable heisenberg --seed -1",
    "fig2-negative-seed": "fig2 --sweep 100 --seed -1",
    "recover-negative-state-seed": "recover --channel reference --observable heisenberg --state-seed -1",
    # Philox keys on the seed mod 2^128, so 2^128 + 1 would draw what 1 does.
    "learn-seed-past-128-bits": f"learn --channel reference --seed {2**128 + 1}",
    "recover-seed-past-128-bits":
        f"recover --channel reference --observable heisenberg --seed {2**128}",
    "general-seed-past-128-bits":
        f"recover-general --channel DAMPING --observable heisenberg --seed {2**128}",
    "recover-state-seed-past-128-bits":
        f"recover --channel reference --observable heisenberg --state-seed {2**128}",
    "mitigate-seed-past-128-bits":
        f"mitigate --circuit CIRCUIT --observable heisenberg --seed {2**128}",
    # Only an absent --sweep means the default sweep.
    "fig2-empty-sweep": "fig2 --sweep=",
    # An --out that no write can create: a directory, or a path under a file.
    "learn-out-directory": "learn --channel reference --out DIRECTORY",
    "recover-out-directory": "recover --channel reference --observable heisenberg --out DIRECTORY",
    "general-out-directory":
        "recover-general --channel DAMPING --observable heisenberg --out DIRECTORY",
    "mitigate-out-directory": "mitigate --circuit CIRCUIT --observable heisenberg --out DIRECTORY",
    "fig2-out-directory": "fig2 --sweep 100 --out DIRECTORY",
    "learn-out-under-file": "learn --channel reference --out IDENTITY/x.json",
    "recover-out-under-file":
        "recover --channel reference --observable heisenberg --out IDENTITY/x.json",
    "general-out-under-file":
        "recover-general --channel DAMPING --observable heisenberg --out IDENTITY/x.json",
    "mitigate-out-under-file":
        "mitigate --circuit CIRCUIT --observable heisenberg --out IDENTITY/x.json",
    "fig2-out-under-file": "fig2 --sweep 100 --out IDENTITY/x.json",
    # An empty --out names no file; - is standard output.
    "learn-out-empty": "learn --channel reference --out=",
    "recover-out-empty": "recover --channel reference --observable heisenberg --out=",
    "general-out-empty": "recover-general --channel DAMPING --observable heisenberg --out=",
    "mitigate-out-empty": "mitigate --circuit CIRCUIT --observable heisenberg --out=",
    "fig2-out-empty": "fig2 --sweep 100 --out=",
    # A record count past the float range: an infinite bound, a target that
    # squares to 0, and a norm constant whose k^(k + 2.5) or k! overflows.
    "plan-count-past-float-range": f"{PLAN} --n 2 --k 2 --epsilon 0.1 --min-eigenvalue 1e-150",
    "plan-target-squares-to-zero": f"{PLAN} --n 2 --k 2 --epsilon 0.1 --min-eigenvalue 1e-160",
    "plan-epsilon-squares-to-zero": f"{PLAN} --n 2 --k 2 --epsilon 1e-200 --min-eigenvalue 0.5",
    "plan-power-past-float-range": f"{PLAN} --n 150 --k 150 --epsilon 0.1 --min-eigenvalue 0.5",
    "plan-factorial-past-float-range":
        f"{PLAN} --n 200 --k 200 --epsilon 0.1 --min-eigenvalue 0.5",
}
PLAN_OVERFLOW = "configuration error: the record count is past the float range\n"


@pytest.fixture
def wide_paths(tmp_path):
    """Channels and a circuit on more qubits than an oracle takes, small on
    disk, a two-qubit identity-only and a zero observable, and a directory."""
    qubit = (0.97, 0.01, 0.01, 0.01)
    paths = {}
    for n in (13, 21):
        paths[f"PAULI{n}"] = str(tmp_path / f"pauli{n}.json")
        Path(paths[f"PAULI{n}"]).write_text(json.dumps(pauli_product([qubit] * n)))
    paths["WIDE21"] = str(tmp_path / "wide21.json")
    Path(paths["WIDE21"]).write_text(json.dumps({"n": 21, "gates": [{"g": "H", "q": [20]}]}))
    paths["IDENTITY"] = str(tmp_path / "identity.txt")
    Path(paths["IDENTITY"]).write_text("II 1.0\n")
    paths["ZERO"] = str(tmp_path / "zero.txt")
    Path(paths["ZERO"]).write_text("XX 0.0\n")
    paths["DIRECTORY"] = str(tmp_path)
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
    assert captured.err == PLAN_OVERFLOW or not case.startswith("plan-")


NAN_NOISE = {"pI": math.nan, "pX": 0.04, "pY": 0.03, "pZ": 0.03}
NULL_NOISE = {**NAN_NOISE, "pI": None}
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
        # JSON values of the wrong type
        "int-pauli-qubits.json": {"kind": "pauli-product", "qubits": 5},
        "int-terms.json": {"kind": "pauli-sparse", "n": 1, "terms": 5},
        "text-probability.json": {"kind": "pauli-sparse", "n": 2, "terms": [["XI", "abc"]]},
        "null-probability.json": {"kind": "pauli-sparse", "n": 2, "terms": [["XI", None]]},
        "bad-letter-term.json": {"kind": "pauli-sparse", "n": 2, "terms": [["XQ", 0.1]]},
        "int-ptm-qubits.json": {"kind": "ptm-product", "qubits": 5},
        "text-ptm-entry.json": {"kind": "ptm-product", "qubits": [DAMPING_PTM[:-1] + ["x"]]},
        "text-n-circuit.json": {"n": "2", "gates": [{"g": "H", "q": [0]}]},
        "int-gates-circuit.json": {"n": 2, "gates": 5},
        "fractional-qubit-circuit.json": {"n": 2, "gates": [{"g": "CNOT", "q": [0, 1.5]}]},
        "int-noise-circuit.json": {"n": 2, "gates": [{"g": "H", "q": [0]}], "noise": 5},
        "list-kind-circuit.json": {"n": 2, "gates": [{"g": ["H"], "q": [0]}]},
        # Only JSON numbers are probabilities and transfer matrix entries.
        "null-pauli.json": {"kind": "pauli-product", "qubits": [NULL_NOISE]},
        "text-pauli.json": {"kind": "pauli-product", "qubits": [{**NAN_NOISE, "pI": "0.9"}]},
        "bool-pauli.json": {"kind": "pauli-product", "qubits": [{**NAN_NOISE, "pI": True}]},
        "numeric-text-probability.json": {"kind": "pauli-sparse", "n": 2,
                                          "terms": [["XI", "0.1"]]},
        "bool-probability.json": {"kind": "pauli-sparse", "n": 2, "terms": [["XI", True]]},
        "bool-n-sparse.json": {"kind": "pauli-sparse", "n": True, "terms": [["X", 0.1]]},
        "bool-ptm-entry.json": {"kind": "ptm-product", "qubits": [[True, *DAMPING_PTM[1:]]]},
        "null-ptm-entry.json": {"kind": "ptm-product", "qubits": [[*DAMPING_PTM[:-1], None]]},
        "huge-ptm-entry.json": {"kind": "ptm-product", "qubits": [[10**400, *DAMPING_PTM[1:]]]},
        "bool-n-circuit.json": {"n": True, "gates": [{"g": "H", "q": [0]}]},
        "bool-qubit-circuit.json": {"n": 2, "gates": [{"g": "H", "q": [True]}]},
        "null-noise-circuit.json": {"n": 2, "gates": [{"g": "H", "q": [0]}],
                                    "noise": {"H": {"kind": "pauli-product", "qubits": [NULL_NOISE]}}},
        # Valid JSON in UTF-16, whose byte-order mark FF FE is not UTF-8.
        "utf16-channel.json":
            json.dumps({"kind": "pauli-product", "qubits": [NAN_NOISE]}).encode("utf-16"),
        "utf16-circuit.json":
            json.dumps({"n": 1, "gates": [{"g": "H", "q": [0]}]}).encode("utf-16"),
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
        "learn-int-pauli-qubits": "learn --channel int-pauli-qubits.json",
        "learn-int-terms": "learn --channel int-terms.json",
        "learn-text-probability": "learn --channel text-probability.json",
        "learn-null-probability": "learn --channel null-probability.json",
        "learn-bad-letter-term": "learn --channel bad-letter-term.json",
        "learn-int-ptm-qubits": "learn --channel int-ptm-qubits.json",
        "learn-text-ptm-entry": "learn --channel text-ptm-entry.json",
        "mitigate-text-n": "mitigate --circuit text-n-circuit.json --observable heisenberg",
        "mitigate-int-gates": "mitigate --circuit int-gates-circuit.json --observable heisenberg",
        "mitigate-fractional-qubit":
            "mitigate --circuit fractional-qubit-circuit.json --observable heisenberg",
        "mitigate-int-noise": "mitigate --circuit int-noise-circuit.json --observable heisenberg",
        "mitigate-list-kind": "mitigate --circuit list-kind-circuit.json --observable heisenberg",
        "learn-null-pauli-product": "learn --channel null-pauli.json",
        "learn-text-pauli-product": "learn --channel text-pauli.json",
        "learn-bool-pauli-product": "learn --channel bool-pauli.json",
        "learn-numeric-text-probability": "learn --channel numeric-text-probability.json",
        "learn-bool-probability": "learn --channel bool-probability.json",
        "learn-bool-n-sparse": "learn --channel bool-n-sparse.json",
        "learn-bool-ptm-entry": "learn --channel bool-ptm-entry.json",
        "learn-null-ptm-entry": "learn --channel null-ptm-entry.json",
        "learn-huge-ptm-entry": "learn --channel huge-ptm-entry.json",
        "mitigate-null-noise": "mitigate --circuit null-noise-circuit.json --observable heisenberg",
        "mitigate-bool-n": "mitigate --circuit bool-n-circuit.json --observable heisenberg",
        "mitigate-bool-qubit": "mitigate --circuit bool-qubit-circuit.json --observable heisenberg",
        "learn-utf16-channel": "learn --channel utf16-channel.json",
        "general-utf16-channel":
            "recover-general --channel utf16-channel.json --observable heisenberg",
        "mitigate-utf16-circuit": "mitigate --circuit utf16-circuit.json --observable heisenberg",
    },
    # What the one stderr line must say, where a case pins it.
    "messages": {
        "mitigate-nan-noise": "noise for H: non-finite probability nan",
        "mitigate-exact-nan-noise": "noise for H: non-finite probability nan",
        "mitigate-ptm-noise": "noise for CNOT: must be a Pauli channel, got ptm-product",
        "learn-text-probability": "terms[0]: probability must be a number, got 'abc'",
        "learn-null-probability": "terms[0]: probability must be a number, got None",
        "learn-text-ptm-entry": "qubits[0][15] must be a number, got 'x'",
        "learn-null-pauli-product": "qubit 0: pI must be a number, got None",
        "learn-text-pauli-product": "qubit 0: pI must be a number, got '0.9'",
        "learn-bool-pauli-product": "qubit 0: pI must be a number, got True",
        "learn-numeric-text-probability": "terms[0]: probability must be a number, got '0.1'",
        "learn-bool-probability": "terms[0]: probability must be a number, got True",
        "learn-bool-n-sparse": "pauli-sparse config needs an integer 'n' >= 1",
        "learn-bool-ptm-entry": "qubits[0][0] must be a number, got True",
        "learn-null-ptm-entry": "qubits[0][15] must be a number, got None",
        "learn-huge-ptm-entry": "qubits[0][0] is too large for a float",
        "mitigate-null-noise": "noise for H: qubit 0: pI must be a number, got None",
        "mitigate-bool-n": "qubit count must be an integer, got True",
        "mitigate-bool-qubit": "qubit True is not an integer in [0, 2)",
        "learn-utf16-channel": "invalid JSON in utf16-channel.json: 'utf-8' codec can't decode",
        "general-utf16-channel": "invalid JSON in utf16-channel.json: 'utf-8' codec can't decode",
        "mitigate-utf16-circuit": "invalid JSON in utf16-circuit.json: 'utf-8' codec can't decode",
    },
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS["commands"]))
def test_non_finite_or_malformed_input_is_a_configuration_error(case, tmp_path, monkeypatch,
                                                                capsys):
    for name, content in UNREADABLE_INPUTS["files"].items():
        if not isinstance(content, (str, bytes)):
            content = json.dumps(content)
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
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
    (tmp_path / "pauli.json").write_text(json.dumps(pauli_product([qubit] * n)))
    damping = amplitude_damping_ptm(0.05)
    (tmp_path / "damping.json").write_text(json.dumps(ptm_product([damping] * n)))
    gates = [{"g": "H", "q": [q]} for q in range(n)]
    gates += [{"g": "CNOT", "q": [q, q + 1]} for q in range(n - 1)]
    gates += [{"g": "S", "q": [q]} for q in range(n)]
    noise = {"H": pauli_product([qubit]), "S": pauli_product([qubit]),
             "CNOT": {"kind": "pauli-sparse", "n": 2, "terms": [["XX", 0.01], ["ZI", 0.01]]}}
    (tmp_path / "circuit.json").write_text(json.dumps({"n": n, "gates": gates, "noise": noise}))
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
    diagonal = np.diag(damping)
    assert [row[2] for row in rows] == [
        cli._fmt(math.prod(diagonal[p.letter_code(j)] for j in range(n))) for p in basis]


def test_no_report_command_builds_an_operator_wider_than_a_gate(tmp_path, monkeypatch):
    """learn, recover, recover-general and mitigate at n >= 4 run matrix-free:
    no Pauli string wider than a two-qubit gate and no observable is made a
    dense matrix.  fig2 is left out: its spectral norm is dense."""
    matrix = PauliString.matrix

    def gate_wide_only(p):
        if p.n > 2:
            raise AssertionError(f"dense matrix of the {p.n}-qubit string {p}")
        return matrix(p)

    def no_dense_observable(obs):
        raise AssertionError("dense observable matrix")

    monkeypatch.setattr(PauliString, "matrix", gate_wide_only)
    monkeypatch.setattr(Observable, "matrix", no_dense_observable)
    monkeypatch.chdir(tmp_path)
    Path("damping6.json").write_text(json.dumps(ptm_product(
        [amplitude_damping_ptm(0.05 * (j + 1)) for j in range(6)])))
    Path("sparse6.json").write_text(json.dumps({
        "kind": "pauli-sparse", "n": 6,
        "terms": [["XXIIII", 0.02], ["IZZIII", 0.01], ["IIIYIY", 0.01]]}))
    Path("local3.txt").write_text("XYZIII 0.5\nIIZXXI -0.3\nZIIIIY 0.2\n")
    gates = [{"g": "H", "q": [q]} for q in range(4)]
    gates += [{"g": "CNOT", "q": [q, q + 1]} for q in range(3)]
    gates += [{"g": "S", "q": [q]} for q in range(4)]
    noise = {"H": pauli_product([(0.97, 0.01, 0.01, 0.01)]),
             "S": pauli_product([(0.98, 0.01, 0.005, 0.005)]),
             "CNOT": {"kind": "pauli-sparse", "n": 2, "terms": [["XX", 0.01], ["ZI", 0.01]]}}
    Path("circuit4.json").write_text(json.dumps({"n": 4, "gates": gates, "noise": noise}))
    heisenberg = ["--observable", "heisenberg"]
    commands = [
        ["learn", "--channel", "damping6.json", "--k", "3", "--shadows", "20000",
         "--out", "learn.csv"],
        ["recover", "--channel", "sparse6.json", *heisenberg, "--n", "6", "--shadows", "20000"],
        ["recover", "--channel", "sparse6.json", *heisenberg, "--n", "6", "--baseline"],
        ["recover-general", "--channel", "damping6.json", "--observable", "local3.txt",
         "--shadows", "20000"],
        ["mitigate", "--circuit", "circuit4.json", *heisenberg, "--n", "4", "--shadows", "20000"],
        ["mitigate", "--circuit", "circuit4.json", *heisenberg, "--n", "4",
         "--exact-eigenvalues"],
        ["mitigate", "--circuit", "circuit4.json", *heisenberg, "--n", "4", "--baseline"],
    ]
    assert [cli.main(argv) for argv in commands] == [0] * len(commands)


# -- shared plumbing -----------------------------------------------------------


def test_every_exported_name_resolves():
    assert [name for name in paulishadow.__all__ if not hasattr(paulishadow, name)] == []


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never references; a name listed in its
    ``__all__`` counts as referenced."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name.partition(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    root = Path(__file__).resolve().parents[1]
    paths = sorted([*root.glob("src/paulishadow/*.py"), *root.glob("tests/*.py")])
    assert len(paths) > 20
    assert [line for path in paths for line in unused_imports(path)] == []


# Exported names that no module of the package references, each with why it
# stays: the ROADMAP item that claims it, or the README section that documents it.
UNCALLED_EXPORTS = {
    "amplitude_damping_ptm": "README (the channels module's single-qubit PTM builders)",
    "depolarizing_ptm": "README (the channels module's single-qubit PTM builders)",
    "walsh_eigenvalues": "ROADMAP item 11 (the contrast with error cancellation)",
    "walsh_probabilities": "ROADMAP item 11 (the contrast with error cancellation)",
}


# Public methods and properties of classes in src/ that no code in src/
# reaches as an attribute (``obj.name``), each with the ROADMAP item or README
# section that keeps it.
UNCALLED_MEMBERS = {
    "TransferMatrix.is_upper_block_triangular": "ROADMAP item 3 (the assumption checks)",
}

# A reason names what keeps a name in src/, so a test-only name cannot come back.
REASON_PREFIXES = ("ROADMAP item", "README")


def src_trees():
    root = Path(__file__).resolve().parents[1]
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in root.glob("src/paulishadow/*.py") if path.name != "__init__.py"]


def referenced_names(trees):
    referenced = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    return referenced


def test_every_exported_name_has_a_caller_or_a_reason():
    referenced = referenced_names(src_trees())
    uncalled = {name for name in paulishadow.__all__ if name not in referenced}
    assert uncalled == set(UNCALLED_EXPORTS)
    assert all(reason.startswith(REASON_PREFIXES) for reason in UNCALLED_EXPORTS.values())


def test_every_public_method_has_a_caller_or_a_reason():
    trees = src_trees()
    members = set()
    for cls in (node for tree in trees for node in ast.walk(tree)):
        for item in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif (isinstance(item, ast.Assign) and isinstance(item.value, ast.Call)
                  and getattr(item.value.func, "id", None) == "property"):
                names = [target.id for target in item.targets]
            else:
                names = []
            members |= {(cls.name, name) for name in names if not name.startswith("_")}
    assert len(members) > 40  # the walk reaches every class
    # A bare name is a local or a field of the same name, not a call of the member.
    called = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    uncalled = {f"{cls}.{name}" for cls, name in members if name not in called}
    assert uncalled == set(UNCALLED_MEMBERS)
    assert all(reason.startswith(REASON_PREFIXES) for reason in UNCALLED_MEMBERS.values())


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


def test_readme_file_formats_load(tmp_path):
    """The README's channel examples, observable and circuit, written to files
    as they stand, load through the readers the commands use."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = {}
    for language, body in re.findall(r"```(\w*)\n(.*?)```", readme, re.S):
        blocks.setdefault(language, []).append(body)
    (examples,), (observable,), (circuit,) = blocks["jsonc"], blocks[""], blocks["json"]
    channels = []
    for i, example in enumerate(examples.split("\n\n")):  # one object per chunk
        path = tmp_path / f"channel{i}.json"
        path.write_text("\n".join(line for line in example.splitlines()
                                  if not line.lstrip().startswith("//")))
        channels.append(load_channel(path))
    product, sparse, ptm = channels
    assert isinstance(product, PauliChannel) and product.is_product
    assert product.qubit_probs().tolist() == reference_product_channel().qubit_probs().tolist()
    assert isinstance(sparse, PauliChannel) and not sparse.is_product
    assert sparse.terms() == pytest.approx({P("XI"): 0.1, P("ZZ"): 0.05, P("II"): 0.85})
    assert isinstance(ptm, ProductChannel)  # loading checked complete positivity
    assert ptm.ptm(0).tolist() == [[1, 0, 0, 0], [0, 0.894, 0, 0], [0, 0, 0.894, 0],
                                   [0.2, 0, 0, 0.8]]
    (tmp_path / "observable.txt").write_text(observable)
    assert Observable.load(tmp_path / "observable.txt").terms() == heisenberg_observable(2).terms()
    (tmp_path / "circuit.json").write_text(circuit)
    loaded = CliffordCircuit.load(tmp_path / "circuit.json")
    assert loaded.n == 2 and loaded.gates == (Gate("H", (0,)), Gate("CNOT", (0, 1)))
    assert set(loaded.noise) == {"CNOT"}
    assert loaded.noise["CNOT"].qubit_probs().tolist() == [[0.92, 0.03, 0.03, 0.02],
                                                           [0.94, 0.02, 0.02, 0.02]]
