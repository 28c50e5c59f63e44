"""Span recording for the traced benchmark run, applied from outside cmi_lab.

``install`` replaces the public functions listed in ``TARGETS`` with timing
wrappers, at every module attribute of the imported ``cmi_lab`` package that
refers to them (``harness`` and ``cli`` import by name, so patching only the
defining module would miss their calls).  It must run before any kernel is
built, because kernels capture their learner function when they are made.

Each wrapped call records one span: name, start, end, parent span and pass
id.  Spans are kept in flat in-memory arrays and reduced to per-layer
metrics by ``layer_metrics`` when the run ends.  Only the standard library
is used, so importing this module does not shift import cost out of the
measured set-up.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from typing import Any, Callable, Iterable

# Learner fits counted by ``algkernel.fit_calls_per_selector`` when they run
# inside one of ENGINES.
LEARNER_FITS = ("learners.parity_learn", "learners.threshold_learn", "learners.pathological_erm")
ENGINES = ("algkernel.cmi_exact_fixed", "algkernel.ucmi_fixed", "algkernel.ecmi_fixed")


def _supersample_arg(args, kwargs):
    return kwargs["supersample"] if "supersample" in kwargs else args[0]


def _count_selectors(args, kwargs, result):
    yield "algkernel.selectors", 2 ** _supersample_arg(args, kwargs).n


def _count_supersamples(args, kwargs, result):
    signature = inspect.signature(sys.modules["cmi_lab.algkernel"].cmi_distributional)
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    call = bound.arguments
    if call["mode"] == "exact":
        support = [m for _, m in call["sampler"].point_distribution.atoms if m > 0.0]
        yield "algkernel.supersamples", len(support) ** (2 * call["sampler"].n)
    else:
        yield "algkernel.supersamples", call["trials"]


def _count_channel_entries(args, kwargs, result):
    rows, cols = result[0].shape
    yield "algkernel.channel_entries", rows * cols


def _count_ba_iterations(args, kwargs, result):
    yield "algkernel.blahut_arimoto.iterations", result.iterations


def _count_gap_trials(args, kwargs, result):
    est = result[0] if isinstance(result, tuple) else result
    yield "bounds.estimate_gap.trials", est.trials


def _count_auroc_trials(args, kwargs, result):
    yield "bounds.check_auroc.trials", result.lhs_estimate.trials


# (module, attribute path, span name or None for "<module>.<path>", counter)
TARGETS: tuple[tuple[str, str, str | None, Callable | None], ...] = (
    # metric names must start with a letter or digit
    ("_seeding", "derive_seed", "seeding.derive_seed", None),
    ("info_core", "FiniteDistribution.__init__", "info_core.FiniteDistribution", None),
    ("algkernel", "cmi_exact_fixed", None, _count_selectors),
    ("algkernel", "cmi_distributional", None, _count_supersamples),
    ("algkernel", "monte_carlo_mean", None, None),
    ("algkernel", "SupersampleSampler.draw", None, None),
    ("algkernel", "channel_matrix", None, _count_channel_entries),
    ("algkernel", "blahut_arimoto", None, _count_ba_iterations),
    ("algkernel", "ucmi_fixed", None, _count_selectors),
    ("algkernel", "ecmi_fixed", None, _count_selectors),
    ("learners", "parity_learn", None, None),
    ("learners", "threshold_learn", None, None),
    ("learners", "pathological_erm", None, None),
    ("learners", "threshold_selection_entropy", None, None),
    ("bounds", "estimate_gap", None, _count_gap_trials),
    ("bounds", "check_auroc", None, _count_auroc_trials),
    ("bounds", "check_theorem", None, None),
    ("bounds", "Population.expected_loss", None, None),
    ("bounds", "Population.draw", None, None),
    ("harness", "load_config", None, None),
    ("harness", "run_experiment", None, None),
    ("harness", "emit", None, None),
    ("cli", "main", None, None),
)

#: span wrapped by the benchmark around the evaluate of kernels it builds.
KERNEL_EVAL = "stability_mech.kernel_eval"

#: counters reported beside the per-span call counts and self times.
COUNTERS = (
    "algkernel.selectors",
    "algkernel.supersamples",
    "algkernel.channel_entries",
    "algkernel.blahut_arimoto.iterations",
    "bounds.estimate_gap.trials",
    "bounds.check_auroc.trials",
)


def span_names() -> list[str]:
    names = [name or f"{module}.{path}" for module, path, name, _ in TARGETS]
    return names + [KERNEL_EVAL]


def metric_names() -> list[str]:
    """Every per-layer metric ``layer_metrics`` reports, in report order."""
    out = []
    for name in span_names():
        out.append(f"{name}.built" if name == "info_core.FiniteDistribution" else f"{name}.calls")
        out.append(f"{name}.self_s")
    out += list(COUNTERS)
    out += ["algkernel.fit_calls_per_selector", "algkernel.errors", "unattributed_s"]
    return out


class Recorder:
    """In-memory span store.  ``pass_id`` is set by the caller around each
    timed pass; spans recorded outside a pass carry -1 and are ignored."""

    def __init__(self) -> None:
        self.pass_id = -1
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.pass_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: list[int] = []
        self.counters: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, pass_of = self.name_of, self.parent, self.pass_of
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            pass_of.append(self.pass_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised.append(idx)
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                for key, value in count(args, kwargs, result):
                    slot = (self.pass_id, key)
                    self.counters[slot] = self.counters.get(slot, 0) + value
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every target at each ``cmi_lab`` module attribute bound to it."""
    modules = [
        mod for name, mod in sys.modules.items()
        if mod is not None and (name == "cmi_lab" or name.startswith("cmi_lab."))
    ]
    for module_name, path, span_name, count in TARGETS:
        owner: Any = sys.modules[f"cmi_lab.{module_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = recorder.wrap(span_name or f"{module_name}.{path}", original, count)
        if outer:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _per_pass(values: dict[int, float], passes: Iterable[int]) -> list[float]:
    return [values.get(p, 0) for p in passes]


def layer_metrics(recorder: Recorder, pass_seconds: list[float]) -> tuple[dict[str, float], bool]:
    """Reduce the recorded spans to per-pass layer metrics.

    Counts are per pass; times are the median over passes.  The second
    value says whether every count was identical in every pass.
    """
    passes = range(len(pass_seconds))
    n_spans = len(recorder.start)
    dur = [recorder.end[i] - recorder.start[i] for i in range(n_spans)]
    child = [0.0] * n_spans
    in_engine = [False] * n_spans
    engine_ids = {recorder.names.index(n) for n in ENGINES if n in recorder.names}
    fit_ids = {recorder.names.index(n) for n in LEARNER_FITS if n in recorder.names}
    calls: dict[tuple[int, int], int] = {}
    self_s: dict[tuple[int, int], float] = {}
    top: dict[int, float] = {}
    fits: dict[int, int] = {}
    errors: dict[int, int] = {}
    # parents precede children in the arrays, so one forward sweep settles
    # engine ancestry and a backward sweep settles child time
    for i in range(n_spans):
        par = recorder.parent[i]
        if par >= 0:
            in_engine[i] = in_engine[par] or recorder.name_of[par] in engine_ids
    for i in range(n_spans - 1, -1, -1):
        par = recorder.parent[i]
        if par >= 0:
            child[par] += dur[i]
    for i in range(n_spans):
        p = recorder.pass_of[i]
        if p < 0:
            continue
        key = (p, recorder.name_of[i])
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + dur[i] - child[i]
        if recorder.parent[i] < 0:
            top[p] = top.get(p, 0.0) + dur[i]
        if in_engine[i] and recorder.name_of[i] in fit_ids:
            fits[p] = fits.get(p, 0) + 1
    for i in recorder.raised:
        p = recorder.pass_of[i]
        if p >= 0 and recorder.names[recorder.name_of[i]].startswith("algkernel."):
            errors[p] = errors.get(p, 0) + 1

    metrics: dict[str, float] = {}
    repeat = True

    def count_metric(name: str, per_pass: list[float]) -> None:
        nonlocal repeat
        repeat = repeat and len(set(per_pass)) <= 1
        metrics[name] = per_pass[0] if per_pass else 0

    for name in span_names():
        nid = recorder.names.index(name) if name in recorder.names else -1
        suffix = "built" if name == "info_core.FiniteDistribution" else "calls"
        count_metric(f"{name}.{suffix}", [calls.get((p, nid), 0) for p in passes])
        metrics[f"{name}.self_s"] = statistics.median([self_s.get((p, nid), 0.0) for p in passes])
    for counter in COUNTERS:
        count_metric(counter, [recorder.counters.get((p, counter), 0) for p in passes])
    selectors = metrics["algkernel.selectors"]
    fits_first = _per_pass(fits, passes)
    count_metric("algkernel.fit_calls_per_selector", [f / selectors if selectors else 0.0 for f in fits_first])
    count_metric("algkernel.errors", _per_pass(errors, passes))
    metrics["unattributed_s"] = statistics.median(
        [pass_seconds[p] - top.get(p, 0.0) for p in passes]
    )
    return metrics, repeat
