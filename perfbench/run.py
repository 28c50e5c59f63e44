"""cmi-lab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {suite,exact,channel} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it imports ``cmi_lab`` from the
checkout's ``src/`` and builds nothing.  Load model: one process, one caller,
closed loop.  Every workload runs in fresh child processes (``workloads.py``)
with ``CMI_LAB_JOBS`` removed and BLAS pinned to one thread, so the suite and
numpy both run serially.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh-process set-ups), ``pass_p50_norm_s`` and ``peak_rss_mb``.
Both timings are scaled to a reference host speed: each child times a fixed
calibration unit (``workloads.calibrate``) right after set-up and between
passes, and a time is divided by the calibration time beside it and
multiplied by ``CAL_REF_S``.  On a shared host whose speed swings by tens of
percent over minutes, this cancels the swing that a raw time would carry.
``--trace 1`` spends half the time untraced and half traced and reports the
per-layer metrics of ``spans.metric_names()`` plus ``trace_overhead_frac``.
The next-to-last stdout line is a JSON record with the seed, environment,
every raw pass, set-up and calibration time, the raw ``pass_p50_s`` and
``pass_tail_s`` with its percentile, the nominal problem sizes,
``failed_frac`` and the workload's own details; the last line is the result.
``--workload all`` runs the three workloads in turn, printing both lines for
each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "exact", "channel")

#: fresh processes that only set up, besides the timed one, for setup_s.
SETUP_PROBES = 9

#: a run stops its children and fails once this many seconds have passed.
RUN_LIMIT_S = 170.0

#: seconds the calibration unit (``workloads.calibrate``) takes at the
#: reference speed: its typical time on an idle 2-core x86-64 host with
#: Python 3.11 and numpy 2.4.  Timings are scaled to this speed.
CAL_REF_S = 0.018

#: the tail percentile keeps at least this many passes above it.
TAIL_PASSES_BEYOND = 10

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CMI_LAB_JOBS", None)
    env.pop("PYTHONPATH", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    # one dict/set layout in every child, so runs differ only by the machine
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--mode", mode,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} child exceeded the {RUN_LIMIT_S:.0f} s run limit")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(pass_seconds: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that still
    has TAIL_PASSES_BEYOND passes above it; the median when too few passes."""
    ordered = sorted(pass_seconds)
    rank = len(ordered) - TAIL_PASSES_BEYOND
    if rank < 1:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def normalized_passes(run: dict) -> list[float]:
    """Each pass time at the reference speed: divided by the mean of the
    calibration units timed just before and just after it, times CAL_REF_S."""
    cal = run["cal_seconds"]
    return [t * CAL_REF_S * 2.0 / (cal[i] + cal[i + 1]) for i, t in enumerate(run["pass_seconds"])]


def normalized_setup(run: dict) -> float:
    """The run's set-up time at the reference speed."""
    return run["setup_s"] * CAL_REF_S / statistics.median(run["setup_cal_s"])


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "cmi_lab")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(numpy_version: str) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "nproc_affinity": affinity,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "pythonhashseed": "0",
        "cmi_lab_jobs_cleared": True,
        "cmi_lab_jobs_outer": os.environ.get("CMI_LAB_JOBS"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(report record, result) of one workload run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    record: dict = {"workload": workload, "seed": seed, "trace": trace}
    if trace:
        plain = run_child(workload, seed, seconds / 2, "time", deadline)
        main_run = run_child(workload, seed, seconds / 2, "trace", deadline)
        runs = [plain, main_run]
        traced_p50 = statistics.median(normalized_passes(main_run))
        plain_p50 = statistics.median(normalized_passes(plain))
        metrics = {
            name: metric(main_run["layers"][name], "s" if name.endswith("_s") else "count")
            for name in spans.metric_names()
        }
        metrics["algkernel.fit_calls_per_selector"]["unit"] = "ratio"
        metrics["trace_overhead_frac"] = metric(traced_p50 / plain_p50 - 1.0, "ratio")
        record.update(
            untraced_pass_p50_norm_s=plain_p50,
            traced_pass_p50_norm_s=traced_p50,
            counts_repeat=main_run["counts_repeat"],
            spans=main_run["spans"],
        )
    else:
        probes = [run_child(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_PROBES)]
        main_run = run_child(workload, seed, seconds, "time", deadline)
        runs = [main_run]
        probes.append(main_run)
        tail_value, tail_pct = tail(main_run["pass_seconds"])
        metrics = {
            "setup_s": metric(statistics.median(normalized_setup(r) for r in probes), "s"),
            "pass_p50_norm_s": metric(statistics.median(normalized_passes(main_run)), "s"),
            "peak_rss_mb": metric(main_run["peak_rss_mb"], "MiB"),
        }
        record.update(
            setup_raw_s=[r["setup_s"] for r in probes],
            setup_cal_s=[statistics.median(r["setup_cal_s"]) for r in probes],
            pass_p50_s=metric(statistics.median(main_run["pass_seconds"]), "s"),
            pass_tail_s=metric(tail_value, "s"),
            tail_percentile=tail_pct,
            cal_p50_s=metric(statistics.median(main_run["cal_seconds"]), "s"),
        )

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record.update(
        passes=len(main_run["pass_seconds"]),
        pass_seconds=main_run["pass_seconds"],
        cal_seconds=main_run["cal_seconds"],
        calls_per_pass=main_run["calls_per_pass"],
        attempted=attempted,
        failed=failed,
        failed_frac=metric(failed / attempted, "ratio"),
        failures=[f for r in runs for f in r["failures"]],
        sizes=main_run["sizes"],
        detail=main_run["detail"],
        env=environment(main_run["numpy"]),
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "cmi_lab", "__init__.py")):
        sys.stderr.write(f"error: no cmi_lab sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            record, result = measure(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        print(json.dumps({"report": record}))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
