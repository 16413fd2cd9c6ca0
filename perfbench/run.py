"""Benchmark of the ``paulishadow`` CLI, driven in-process through ``cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload general-n4 --seed 1 --seconds 40 --trace 0

Each run is a closed loop with one client: it generates its inputs from
``--seed``, sets up, then starts one job (one ``cli.main`` call) after the
other for about ``--seconds`` (see ``timed_loop``). Every job's output is
checked. The last line of standard output is the JSON result; a fuller
report (per-job times, output digests, environment, and with ``--trace 1``
every span) goes to ``.perfbench_out/``. See ``perfbench/NOTES.md`` for the
workloads and metrics.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here, before any import

import os

# Fixed before numpy loads, so every run process uses the same BLAS threads.
# One thread keeps runs steady on a small shared machine and leaves the other
# cores visible to a change that parallelises the program itself.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

import tracing
from workloads import STREAM_TIMED, STREAM_WARMUP, WORKLOADS, job_rng

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# A run times at least this many jobs, so that one slow job cannot move the
# median. Past it, a job starts only if it is predicted to end in time. With
# four, the median is the mean of the middle two jobs, not one job: over ten
# three-job runs of mitigate-n8, the spread of the per-run means was half
# that of the per-run medians.
MIN_JOBS = 4
# Inputs are generated up front for this many timed jobs, the most a run
# times; it binds only once a job takes under 1/64 of ``--seconds``.
MAX_JOBS = 64
# Fresh processes that repeat the set-up, one after each of the first timed
# jobs. Spread over the run, they sample the machine's state (which drifts
# by tens of percent over minutes on a small shared machine) as the timed
# jobs do, rather than only at the start.
SETUP_PROBES = MIN_JOBS


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny job size throughout (the smoke test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time, and exit")
    return parser.parse_args(argv)


def import_cli():
    """Import ``paulishadow.cli`` from this checkout's ``src`` only."""
    if not (SRC / "paulishadow" / "__init__.py").is_file():
        raise SystemExit(f"no paulishadow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from paulishadow import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"paulishadow was imported from {cli.__file__}, not {SRC}")
    return cli


# -- environment record --------------------------------------------------------


def git_sha():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "paulishadow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads_in_effect():
    """The bundled OpenBLAS's own thread count, or None if it is not found."""
    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split()[-1] for line in maps if "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment():
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(),
    }


# -- jobs ----------------------------------------------------------------------


def run_job(cli, job):
    """One ``cli.main`` call; returns (exit code, captured stderr tail)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing job is a failed job, not a failed run
            traceback.print_exc()
            code = -1
    return code, err.getvalue()[-2000:]


def judge(workload, job, code, stderr, full_size):
    """(None if the job is correct, else why not; the values checked)."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()}", {}
    if not job.out.is_file():
        return f"no output at {job.out}", {}
    if not full_size:
        return None, {}
    try:
        return workload.check(job.out, workload.tolerance)
    except (KeyError, ValueError) as exc:
        return f"unreadable output: {exc!r}", {}


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def set_up(args, cli, work):
    """Generate every input and run the warm-up job; returns the timed jobs."""
    workload = WORKLOADS[args.workload]
    warm = workload.make(job_rng(args.seed, STREAM_WARMUP, 0), work, "warmup", True)
    jobs = [workload.make(job_rng(args.seed, STREAM_TIMED, i), work, f"job{i}", args.smoke)
            for i in range(MAX_JOBS)]
    code, stderr = run_job(cli, warm)
    failure, _ = judge(workload, warm, code, stderr, full_size=False)
    if failure is not None:
        raise SystemExit(f"warm-up job failed: {failure}")
    return jobs


def probe_setup(args):
    """Set-up time of a fresh process that imports and warms up anew."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def timed_loop(args, cli, jobs, tracer, setups):
    """Closed loop: each job starts when the previous one has finished.

    After ``MIN_JOBS``, the next job starts only if, at the median job time
    so far, the timed jobs would still total at most ``--seconds``. With a
    tracer, even-numbered jobs are traced and odd-numbered ones are not, so
    both job times come from the same run. Without one, set-up probes run
    between the first jobs, outside their timing, and append to ``setups``.
    """
    workload = WORKLOADS[args.workload]
    records, missing = [], set()
    for i, job in enumerate(jobs):
        if i >= MIN_JOBS:
            measured = [r["seconds"] for r in records]
            if sum(measured) + statistics.median(measured) > args.seconds:
                break
        traced = tracer is not None and i % 2 == 0
        scope = _traced_scope(tracer, missing, i) if traced else contextlib.nullcontext()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with scope:
            code, stderr = run_job(cli, job)
        seconds = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        failure, checked = judge(workload, job, code, stderr, full_size=not args.smoke)
        records.append({
            "job": i, "argv": job.argv, "seconds": seconds, "cpu_s": cpu, "traced": traced,
            "exit_code": code, "failure": failure, "checked": checked,
            "output_sha256": (hashlib.sha256(job.out.read_bytes()).hexdigest()
                              if job.out.is_file() else None),
        })
        if tracer is None and i < SETUP_PROBES:
            setups.append(probe_setup(args))
    return records, sorted(missing)


@contextlib.contextmanager
def _traced_scope(tracer, missing, job):
    with tracing.instrument(tracer, missing), tracer.job(job):
        yield


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        jobs = set_up(args, cli, work)
        own_setup = time.perf_counter() - STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup]
        from paulishadow.shadows import DEFAULT_BLOCK_SIZE

        tracer = tracing.Tracer(DEFAULT_BLOCK_SIZE) if args.trace else None
        records, missing = timed_loop(args, cli, jobs, tracer, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r["failure"] is not None for r in records)
    untraced = [r for r in records if not r["traced"]]
    job_s = statistics.median(r["seconds"] for r in untraced)
    if tracer is None:
        metrics = {
            "job_s": {"value": job_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    else:
        traced = [r for r in records if r["traced"]]
        metrics = tracing.layer_metrics(
            tracer,
            cpu_s=statistics.fmean(r["cpu_s"] for r in traced),
            traced_job_s=statistics.median(r["seconds"] for r in traced),
            untraced_job_s=job_s,
        )
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "jobs": len(records),
        "untraced_jobs": len(untraced), "failed_frac": failed / len(records),
        "tolerance": WORKLOADS[args.workload].tolerance, "setup_runs": setups,
        "env": environment(),
        "untraced_entry_points": missing,
    }
    report = {**summary, "metrics": metrics, "jobs_detail": records}
    if tracer is not None:
        report["spans"] = [[s.name, s.start, s.end, s.parent, s.job, s.counts]
                           for s in tracer.spans]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    report_path = OUT_DIR / f"{name}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for r in records:
        if r["failure"] is not None:
            print(f"job {r['job']} failed: {r['failure']}")
    print(json.dumps({**summary, "report": str(report_path.relative_to(ROOT))}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
