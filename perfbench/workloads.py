"""One benchmark workload in one fresh process (started by ``run.py``).

    python3 perfbench/workloads.py --workload exact --seed 0 --seconds 15 --mode time

``--mode setup`` only imports cmi_lab and builds the inputs, ``time``
repeats the workload's pass for ``--seconds`` seconds, and ``trace`` does the
same with every public function in ``spans.TARGETS`` wrapped.  The process
prints one JSON object on its last stdout line.

A pass is a fixed list of public calls.  Its inputs come from ``--seed``
alone; each call's result is checked after the pass clock stops.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import sys
import tempfile
import time
from typing import Any, Callable

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: seed at which ``suite`` runs the bundled per-experiment seeds and
#: ``exact`` is compared with the values the first benchmarked commit gave.
DEFAULT_SEED = 0

#: sha256 of the reference-suite CSV at the bundled seeds.
SUITE_CSV_SHA256 = "ec6664a107ddca299f7f055aadd1c715f69adc71034ed370494428212eb735bb"

#: cmi_exact_fixed(parity d=3, n=13) and cmi_distributional(parity d=2,
#: n=3, exact) at DEFAULT_SEED.  The distributional value enumerates the
#: whole point distribution, so it does not depend on the seed.
EXACT_PARITY13_AT_DEFAULT = 0.0
EXACT_DISTRIBUTIONAL = 0.5768316954068717

#: threshold / pathological supersamples: the noisy 64-point grid of the
#: bundled suite's ``threshold-noisy`` experiment.
GRID = dict(size=64, theta_index=32, noise=0.25, step=0.01)
PARITY3_W_STAR = (1, 0, 1)
PARITY2_W_STAR = (1, 1)
RR_FLIP = 0.2
TV_DELTA = 0.3

#: calibration units timed after set-up; their median is the set-up's speed.
SETUP_CALS = 3


@dataclasses.dataclass
class Call:
    """One public call of a pass and the check of its result.

    ``check`` returns None when the result is right, else a message."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclasses.dataclass
class Workload:
    """The calls of a pass.  ``references`` computes the values the checks
    compare against and returns the nominal problem sizes; it runs after
    ``setup_s`` is read, so set-up covers only the inputs the passes use."""

    calls: list[Call]
    references: Callable[[], dict[str, int]]
    detail: dict[str, Any] = dataclasses.field(default_factory=dict)


def _within(expected: float, tol: float) -> Callable[[Any], str | None]:
    def check(est) -> str | None:
        diff = abs(est.value - expected)
        return None if diff <= tol else f"value {est.value!r} differs from {expected!r} by {diff:.3g} > {tol:g}"

    return check


# ---------------------------------------------------------------------------
# suite: the user's end-to-end path, CLI over the bundled reference suite
# ---------------------------------------------------------------------------


def build_suite(seed: int, workdir: str, recorder) -> Workload:
    from cmi_lab import cli, harness

    config_path = harness.bundled_suite_path()
    out = os.path.join(workdir, "suite.csv")
    argv = ["suite", "--config", config_path, "--out", out]
    if seed != DEFAULT_SEED:
        argv += ["--seed-override", str(seed)]
    detail: dict[str, Any] = {}

    def run() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code: int) -> str | None:
        with open(out, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        first = detail.setdefault("csv_sha256", digest)
        unsatisfied = sum(1 for row in data.decode().splitlines()[1:] if row.split(",")[6] == "false")
        detail.update(exit_code=code, unsatisfied_rows=unsatisfied)
        if code != 0:
            return f"exit code {code} with {unsatisfied} unsatisfied CSV rows"
        if digest != first:
            return f"CSV sha256 {digest} differs from the first pass's {first}"
        if seed == DEFAULT_SEED and digest != SUITE_CSV_SHA256:
            return f"CSV sha256 {digest} != reference {SUITE_CSV_SHA256}"
        return None

    def references() -> dict[str, int]:
        _, configs = harness.load_config(config_path)
        sizes = dict(selectors=0, supersamples=0, channel_entries=0, mc_trials=0)
        for cfg in configs:
            bundle = harness.LEARNERS[cfg.learner_id](cfg.learner_params)
            dist = harness.DISTRIBUTIONS[cfg.distribution_id](cfg.distribution_params)
            support = sum(1 for _, mass in dist.atoms if mass > 0.0)
            if cfg.cmi_mode in ("exact", "both"):
                sizes["supersamples"] += support ** (2 * cfg.n)
                sizes["selectors"] += support ** (2 * cfg.n) * 2**cfg.n
            if cfg.cmi_mode in ("mc", "both"):
                sizes["supersamples"] += cfg.cmi_trials
                sizes["mc_trials"] += cfg.cmi_trials
                if bundle.inner_mi is None:
                    sizes["selectors"] += cfg.cmi_trials * 2**cfg.n
            for req in cfg.theorems:
                if req.theorem_id == "auroc":
                    sizes["mc_trials"] += int(req.params.get("trials", 200))
            if any(req.theorem_id != "auroc" for req in cfg.theorems):
                sizes["mc_trials"] += cfg.trials
            # every bundled learner is deterministic, so its exact engine
            # counts outputs and builds no channel matrix
            if not bundle.kernel.deterministic:
                raise RuntimeError(f"{cfg.experiment_id}: stochastic kernel in the bundled suite")
        return sizes

    return Workload([Call("cli.main suite", run, check)], references, detail)


# ---------------------------------------------------------------------------
# exact: the generic exact engine on a few large enumerations
# ---------------------------------------------------------------------------


def build_exact(seed: int, workdir: str, recorder) -> Workload:
    from cmi_lab import _seeding, algkernel as ak, harness, learners as lr

    grid = harness.grid_threshold_distribution(**GRID)
    parity3 = lr.parity_population(PARITY3_W_STAR)
    parity2_sampler = ak.SupersampleSampler.from_distribution(lr.parity_population(PARITY2_W_STAR), 3)
    ss_thr = ak.SupersampleSampler.from_distribution(grid, 14).draw(_seeding.derive_seed(seed, "exact", "threshold"))
    ss_par = ak.SupersampleSampler.from_distribution(parity3, 13).draw(_seeding.derive_seed(seed, "exact", "parity"))
    ss_path = ak.SupersampleSampler.from_distribution(grid, 11).draw(_seeding.derive_seed(seed, "exact", "pathological"))
    k_thr, k_par3, k_path, k_par2 = lr.threshold_kernel(), lr.parity_kernel(3), lr.pathological_kernel(2), lr.parity_kernel(2)
    expected: dict[str, float] = {}

    def check_parity13(est) -> str | None:
        if not -1e-10 <= est.value <= 3 * math.log(2) + 1e-10:
            return f"parity n=13 value {est.value!r} outside [0, 3 log 2]"
        if seed == DEFAULT_SEED:
            return _within(EXACT_PARITY13_AT_DEFAULT, 1e-10)(est)
        return None

    d, n = 2, 3
    pseudo_bound = 2.0 ** (d - n) * (n * math.log(2) + 1)

    def check_distributional(est) -> str | None:
        if est.value > pseudo_bound:
            return f"distributional value {est.value!r} above 2^(d-n)(n log 2 + 1) = {pseudo_bound!r}"
        return _within(EXACT_DISTRIBUTIONAL, 1e-10)(est)

    calls = [
        Call(
            "threshold n=14",
            lambda: ak.cmi_exact_fixed(ss_thr, k_thr),
            lambda est: _within(expected["threshold"], 1e-10)(est),
        ),
        Call("parity d=3 n=13", lambda: ak.cmi_exact_fixed(ss_par, k_par3), check_parity13),
        Call(
            "pathological n=11",
            lambda: ak.cmi_exact_fixed(ss_path, k_path),
            lambda est: _within(expected["pathological"], 1e-10)(est),
        ),
        Call(
            "distributional parity d=2 n=3",
            lambda: ak.cmi_distributional(k_par2, parity2_sampler, mode="exact"),
            check_distributional,
        ),
    ]

    def references() -> dict[str, int]:
        expected["threshold"] = lr.threshold_selection_entropy(ss_thr)
        expected["pathological"] = lr.pathological_selection_entropy(ss_path)
        supersamples = len(parity2_sampler.point_distribution.atoms) ** (2 * n)
        return dict(
            selectors=2**ss_thr.n + 2**ss_par.n + 2**ss_path.n + supersamples * 2**n,
            supersamples=supersamples,
            channel_entries=0,
            mc_trials=0,
        )

    return Workload(calls, references)


# ---------------------------------------------------------------------------
# channel: stochastic kernels, dense channel matrices and Blahut-Arimoto
# ---------------------------------------------------------------------------


def build_channel(seed: int, workdir: str, recorder) -> Workload:
    from cmi_lab import _seeding, algkernel as ak, bounds, learners as lr, stability_mech as sm

    def traced_kernel(kernel):
        if recorder is None:
            return kernel
        return dataclasses.replace(kernel, evaluate=recorder.wrap(spans.KERNEL_EVAL, kernel.evaluate))

    rr = traced_kernel(sm.randomized_response(RR_FLIP, 8))
    ss_rr = sm.rr_selector_supersample(8)
    tv_n = 11
    tv = traced_kernel(sm.tv_lottery(TV_DELTA, tv_n))
    ss_tv = ak.Supersample(tuple((i, -i) for i in range(1, tv_n + 1)))
    ss_par = ak.SupersampleSampler.from_distribution(lr.parity_population(PARITY3_W_STAR), 12).draw(
        _seeding.derive_seed(seed, "channel", "parity")
    )
    k_par3 = lr.parity_kernel(3)
    loss = bounds.zero_one_loss()
    expected: dict[str, float] = {}
    ecmi_seen: dict[str, float] = {}

    def near(key: str, tol: float) -> Callable[[Any], str | None]:
        return lambda est: _within(expected[key], tol)(est)

    def keep_ecmi(est) -> str | None:
        ecmi_seen["value"] = est.value
        return None if -1e-10 <= est.value else f"negative ECMI {est.value!r}"

    def check_cmi_vs_ecmi(est) -> str | None:
        if "value" not in ecmi_seen:
            return "no ECMI value to compare"
        ecmi = ecmi_seen.pop("value")
        return None if ecmi <= est.value + 1e-10 else f"ECMI {ecmi!r} exceeds CMI {est.value!r}"

    calls = [
        Call("cmi randomized response n=8", lambda: ak.cmi_exact_fixed(ss_rr, rr), near("rr", 1e-10)),
        Call("ucmi randomized response n=8", lambda: ak.ucmi_fixed(ss_rr, rr), near("rr", 1e-9)),
        Call("cmi tv lottery n=11", lambda: ak.cmi_exact_fixed(ss_tv, tv), near("tv", 1e-10)),
        Call("ucmi tv lottery n=11", lambda: ak.ucmi_fixed(ss_tv, tv), near("tv", 1e-9)),
        Call("ecmi parity d=3 n=12", lambda: ak.ecmi_fixed(ss_par, k_par3, loss), keep_ecmi),
        Call("cmi parity d=3 n=12", lambda: ak.cmi_exact_fixed(ss_par, k_par3), check_cmi_vs_ecmi),
    ]

    def references() -> dict[str, int]:
        expected["rr"] = sm.rr_exact_cmi(RR_FLIP, 8)
        expected["tv"] = TV_DELTA * tv_n * math.log(2)
        # nominal channel size: 2^n selectors times the output alphabet,
        # which is 2^n words for randomized response, bottom plus one
        # dataset per selector for the lottery, and the 2^d parities for ECMI
        return dict(
            selectors=2 * 2**ss_rr.n + 2 * 2**tv_n + 2 * 2**ss_par.n,
            supersamples=0,
            channel_entries=2 * 4**ss_rr.n + 2 * 2**tv_n * (2**tv_n + 1) + 2**ss_par.n * 2**3,
            mc_trials=0,
        )

    return Workload(calls, references)


BUILDERS = {"suite": build_suite, "exact": build_exact, "channel": build_channel}


# ---------------------------------------------------------------------------
# calibration: a fixed unit of work that never calls cmi_lab
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Seconds that one fixed unit of work takes now.

    The unit mixes what the passes spend their time on: interpreted loops
    over dicts, tuples and floats, and numpy calls on small arrays.  It runs
    between passes, so each pass can be divided by the host's speed at the
    time it ran (see ``run.py``).  It builds its data afresh each time and
    uses only the standard library and numpy, so a change to cmi_lab cannot
    change its cost.
    """
    import numpy as np

    t0 = time.perf_counter()
    counts: dict[tuple[int, int], float] = {}
    total = 0.0
    for i in range(40000):
        key = (i & 63, (i >> 6) & 15)
        total += math.log1p(i) * 0.5
        counts[key] = counts.get(key, 0.0) + total
    rows = np.arange(1, 1025, dtype=float).reshape(32, 32) / 1024.0
    for _ in range(300):
        probs = rows / rows.sum(axis=1, keepdims=True)
        total += float(np.sum(probs * np.log(probs)) + (probs @ probs.T).trace())
    elapsed = time.perf_counter() - t0
    if not math.isfinite(total) or len(counts) != 1024:
        raise RuntimeError("calibration computed a wrong result")
    return elapsed


# ---------------------------------------------------------------------------
# process entry
# ---------------------------------------------------------------------------


def run_passes(workload: Workload, seconds: float, recorder) -> dict[str, Any]:
    """Repeat the pass for ``seconds``, with one calibration before the
    first pass and one after each, so ``cal_seconds`` has one more entry
    than ``pass_seconds``."""
    pass_seconds: list[float] = []
    cal_seconds = [calibrate()]
    attempted = failed = 0
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        results = []
        if recorder is not None:
            recorder.pass_id = len(pass_seconds)
        t0 = time.perf_counter()
        for call in workload.calls:
            try:
                results.append((call, call.run(), None))
            except Exception as exc:  # a failed call is counted, not fatal
                results.append((call, None, f"{type(exc).__name__}: {exc}"))
        pass_seconds.append(time.perf_counter() - t0)
        if recorder is not None:
            recorder.pass_id = -1
        cal_seconds.append(calibrate())
        for call, value, error in results:
            attempted += 1
            if error is None:
                try:
                    error = call.check(value)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{call.name}: {error}")
        if time.perf_counter() >= deadline:
            return dict(
                pass_seconds=pass_seconds,
                cal_seconds=cal_seconds,
                attempted=attempted,
                failed=failed,
                failures=failures,
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "time", "trace"))
    args = parser.parse_args()

    t_setup = time.perf_counter()
    sys.path.insert(0, SRC)
    # the package and its cli: every module spans.install wraps
    import cmi_lab.cli

    if not os.path.abspath(cmi_lab.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: imported cmi_lab from {cmi_lab.__file__}, not from {SRC}\n")
        return 2
    recorder = None
    if args.mode == "trace":
        recorder = spans.Recorder()
        spans.install(recorder)
    # The benchmark writes nothing outside its checkout, so the suite's CSV
    # goes to a temporary directory beside this file, not to the system's.
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        workload = BUILDERS[args.workload](args.seed, workdir, recorder)
        setup_s = time.perf_counter() - t_setup
        # the host's speed just after set-up: one warm-up unit, then SETUP_CALS
        calibrate()
        out: dict[str, Any] = {"setup_s": setup_s, "setup_cal_s": [calibrate() for _ in range(SETUP_CALS)]}
        if args.mode != "setup":
            out["sizes"] = workload.references()
            out.update(run_passes(workload, args.seconds, recorder))
            out.update(detail=workload.detail, calls_per_pass=len(workload.calls))
            if recorder is not None:
                layers, repeat = spans.layer_metrics(recorder, out["pass_seconds"])
                out.update(layers=layers, counts_repeat=repeat, spans=len(recorder.start))
    import numpy

    out["numpy"] = numpy.__version__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
