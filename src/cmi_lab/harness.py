"""Experiment configuration, suite execution, and report emission.

A suite is a single JSON document listing experiments; each experiment
names a registered learner, data distribution, and loss, fixes ``n``,
``trials`` and a mandatory ``seed``, picks a CMI computation mode
(``exact`` | ``mc`` | ``both``), and lists the bound checks to run.

Determinism contract: rerunning an identical (config, seed) pair yields a
byte-identical CSV report, and a JSON report that differs only in
``wall_times``; Monte-Carlo numbers repeat through the seed-derivation rule
hash(seed, experiment-id, trial).  A JSON report parses back
(:meth:`SuiteReport.from_json_obj`) to an equal object.  Experiments run
one after another in config order; each is a pure computation of its own
config and seed, so no experiment's numbers depend on another's.  Exact
mode is never silently downgraded to Monte Carlo -- an infeasible exact
request is an error.  Each experiment's learner, population, loss and
theorem requests (checked against their ``bounds.THEOREMS`` rows) are
resolved once, at parse time (:meth:`ExperimentConfig.from_obj`), so a bad
config fails with a :class:`ConfigError` before any experiment runs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__
from ._seeding import derive_seed
from .algkernel import (
    MIN_MC_TRIALS,
    AlgorithmKernel,
    CmiEstimate,
    Supersample,
    cmi_distributional,
    cmi_exact_fixed,
    ecmi_fixed,
    ucmi_fixed,
)
from .bounds import (
    MIN_GAP_TRIALS,
    BoundReport,
    GapEstimate,
    LossSpec,
    Population,
    THEOREMS,
    check_auroc,
    check_theorem,
    estimate_gap,
    positive_rate,
    zero_one_loss,
)
from .info_core import FiniteDistribution
from .learners import (
    _MAX_POINTS as MAX_ENCODED_POINTS,
    ConstantHypothesis,
    on_grid,
    parity_kernel,
    parity_population,
    pathological_kernel,
    threshold_kernel,
    threshold_selection_entropy,
)

class ConfigError(ValueError):
    """Malformed configuration document."""


class UnknownComponentError(ConfigError):
    """A learner / distribution / loss / theorem id is not registered."""


# ---------------------------------------------------------------------------
# component registries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearnerBundle:
    """A registered learner.  Every bundled learner is deterministic, so
    ``kernel.raw_map`` is its fit; ``score_of`` ranks points for AUROC (all
    equal by default); ``accepts`` tests the feature x of a point (x, y);
    ``max_n`` is the largest dataset it can fit, if it has one."""

    kernel: AlgorithmKernel
    inner_mi: Callable[[Supersample], float] | None = None
    score_of: Callable[[Any, Any], float] = lambda w, z: 0.0
    accepts: Callable[[Any], bool] = lambda x: True
    max_n: int | None = None


def _threshold_score(w, z) -> float:
    x = z[0]
    t = w.t
    return float(x) if t == math.inf else float(x) - float(t)


def _threshold_bundle(kernel: AlgorithmKernel, inner_mi: Callable[[Supersample], float] | None = None) -> LearnerBundle:
    """Threshold learners take real, non-NaN features and score by distance
    to the cut."""
    return LearnerBundle(
        kernel=kernel,
        inner_mi=inner_mi,
        score_of=_threshold_score,
        accepts=lambda x: isinstance(x, (int, float)) and x == x,
    )


def _make_pathological(params: Mapping[str, Any]) -> LearnerBundle:
    """The threshold bundle, restricted to features on the encoder's grid.
    The engine's injective path gives its exact CMI in O(n)."""
    g = int(params.get("grid_decimals", 2))
    bundle = _threshold_bundle(pathological_kernel(g))
    return dataclasses.replace(
        bundle, accepts=lambda x: bundle.accepts(x) and on_grid(x, g), max_n=MAX_ENCODED_POINTS
    )


def _make_parity(params: Mapping[str, Any]) -> LearnerBundle:
    d = int(params["d"])
    return LearnerBundle(
        kernel=parity_kernel(d),
        accepts=lambda x: isinstance(x, tuple) and len(x) == d,
    )


def _make_constant(params: Mapping[str, Any]) -> LearnerBundle:
    hyp = ConstantHypothesis(int(params.get("bit", 0)))
    return LearnerBundle(
        kernel=AlgorithmKernel.constant(hyp),
        inner_mi=lambda ss: 0.0,
    )


LEARNERS: dict[str, Callable[[Mapping[str, Any]], LearnerBundle]] = {
    "threshold": lambda params: _threshold_bundle(threshold_kernel(), threshold_selection_entropy),
    "pathological_threshold": _make_pathological,
    "parity": _make_parity,
    "constant": _make_constant,
}


def grid_threshold_distribution(
    size: int = 64,
    theta_index: int | None = None,
    noise: float = 0.0,
    step: float = 0.01,
) -> FiniteDistribution:
    """Uniform distribution over a 1-D grid of labeled points.

    Point i sits at x = i * step with true label 1[i >= theta_index]; each
    label is flipped with probability ``noise``.
    """
    if theta_index is None:
        theta_index = size // 2
    if not 0.0 <= noise <= 0.5:
        raise ConfigError(f"noise must lie in [0, 0.5], got {noise!r}")
    atoms = []
    for i in range(size):
        x = i * step
        true_y = 1 if i >= theta_index else 0
        atoms.append(((x, true_y), (1.0 - noise) / size))
        if noise > 0.0:
            atoms.append(((x, 1 - true_y), noise / size))
    return FiniteDistribution(tuple(atoms))


def _make_grid_threshold(params: Mapping[str, Any]) -> FiniteDistribution:
    return grid_threshold_distribution(
        size=int(params.get("size", 64)),
        theta_index=params.get("theta_index"),
        noise=float(params.get("noise", 0.0)),
        step=float(params.get("step", 0.01)),
    )


def _tuples(value: Any) -> Any:
    """JSON lists as (nested) tuples, so points and vector features hash."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _make_finite(params: Mapping[str, Any]) -> FiniteDistribution:
    return FiniteDistribution(tuple((_tuples(point), float(mass)) for point, mass in params["atoms"]))


DISTRIBUTIONS: dict[str, Callable[[Mapping[str, Any]], FiniteDistribution]] = {
    "grid_threshold": _make_grid_threshold,
    "finite": _make_finite,
    "parity_uniform": lambda params: parity_population(tuple(int(b) for b in params["w_star"])),
}

LOSSES: dict[str, Callable[[Mapping[str, Any]], LossSpec]] = {
    "zero_one": lambda params: zero_one_loss(),
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremRequest:
    """A theorem check resolved against its ``THEOREMS`` row: ``params`` has every
    parameter the row reads, defaults filled in, and the overrides given."""

    theorem_id: str
    params: dict = field(default_factory=dict)


def _resolve(registry: Mapping[str, Callable[[Mapping[str, Any]], Any]], kind: str, spec: Mapping[str, Any]) -> Any:
    """The component that ``spec``, the config's ``kind`` entry, names."""
    if not isinstance(spec, Mapping):
        raise TypeError(f"{kind!r} must be a JSON object with an 'id', got {spec!r}")
    if spec["id"] not in registry:
        raise UnknownComponentError(f"unknown {kind} id {spec['id']!r}")
    return registry[spec["id"]](dict(spec.get("params", {})))


def _is_positive(z) -> bool:
    return z[1] == 1


def _theorem_request(exp_id: str, item: Any, n: int, points: FiniteDistribution) -> TheoremRequest:
    """Check one theorem request of an experiment against its ``THEOREMS`` row."""
    theorem_id, params = (item, {}) if isinstance(item, str) else (item["id"], item.get("params", {}))
    if theorem_id not in THEOREMS:
        raise UnknownComponentError(f"unknown theorem id {theorem_id!r}")
    spec = THEOREMS[theorem_id]
    try:  # a gap theorem's domain includes zero empirical loss; auroc reads the positive rate
        x = 0.0 if spec.lhs is not None else positive_rate(points, _is_positive)
        return TheoremRequest(theorem_id, spec.resolve(dict(params), n, x))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{exp_id!r}: theorem {theorem_id!r}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; ``bundle``, ``population`` and ``loss`` are resolved by ``from_obj``."""

    experiment_id: str
    learner_id: str
    learner_params: dict
    distribution_id: str
    distribution_params: dict
    n: int
    trials: int
    seed: int
    theorems: tuple[TheoremRequest, ...]
    bundle: LearnerBundle = field(repr=False, compare=False)
    population: Population = field(repr=False, compare=False)
    loss: LossSpec = field(repr=False, compare=False)
    cmi_mode: str = "mc"
    cmi_trials: int = 500

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> "ExperimentConfig":
        """Parse one experiment and resolve its components; any failure,
        including a bad component parameter, is a :class:`ConfigError`."""
        try:
            return cls._parse(obj)
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"{obj.get('id')!r}: missing required key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{obj.get('id')!r}: {exc}") from exc

    @classmethod
    def _parse(cls, obj: Mapping[str, Any]) -> "ExperimentConfig":
        learner = obj["learner"]
        dist = obj["distribution"]
        loss = obj.get("loss", {"id": "zero_one"})
        seed = int(obj["seed"])
        exp_id = str(obj["id"])
        n = int(obj["n"])
        if n < 1:
            raise ConfigError(f"{exp_id!r}: n must be >= 1, got {n}")
        cmi = obj.get("cmi", {})
        mode = cmi.get("mode", "mc")
        if mode not in ("exact", "mc", "both"):
            raise ConfigError(f"unknown cmi mode {mode!r}")
        bundle = _resolve(LEARNERS, "learner", learner)
        if bundle.max_n is not None and n > bundle.max_n:
            raise ConfigError(
                f"{exp_id!r}: learner {learner['id']!r} takes at most {bundle.max_n} points, got n={n}"
            )
        points = _resolve(DISTRIBUTIONS, "distribution", dist)
        for z in points.support():
            # every bundled learner and the zero-one loss take bit labels
            if not (isinstance(z, tuple) and len(z) == 2 and z[1] in (0, 1) and bundle.accepts(z[0])):
                raise ConfigError(
                    f"{exp_id!r}: learner {learner['id']!r} cannot take point {z!r} "
                    f"of distribution {dist['id']!r}"
                )
        theorems = tuple(_theorem_request(exp_id, item, n, points) for item in obj.get("theorems", ()))
        config = cls(
            experiment_id=exp_id,
            learner_id=learner["id"],
            learner_params=dict(learner.get("params", {})),
            distribution_id=dist["id"],
            distribution_params=dict(dist.get("params", {})),
            n=n,
            trials=int(obj.get("trials", 1000)),
            seed=seed,
            theorems=theorems,
            bundle=bundle,
            population=Population.from_finite(points),
            loss=_resolve(LOSSES, "loss", loss),
            cmi_mode=mode,
            cmi_trials=int(cmi.get("trials", 500)),
        )
        config.validate_trials()
        return config

    def fit(self, dataset: tuple, rng: np.random.Generator) -> Any:
        """The learner in the form ``estimate_gap`` and ``check_auroc`` call."""
        return self.bundle.kernel.raw_map(dataset)

    def validate_trials(self) -> None:
        """Reject trial counts below the estimators' floors before any compute."""
        if any(THEOREMS[req.theorem_id].lhs is not None for req in self.theorems):
            self.check_gap_trials()
        if self.cmi_mode != "exact" and self.cmi_trials < MIN_MC_TRIALS:
            raise ConfigError(f"{self.experiment_id!r}: cmi trials {self.cmi_trials} < {MIN_MC_TRIALS}")

    def check_gap_trials(self) -> None:
        if self.trials < MIN_GAP_TRIALS:
            raise ConfigError(f"{self.experiment_id!r}: gap trials {self.trials} < {MIN_GAP_TRIALS}")


def config_hash(obj: Any) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    detail: str = ""

    def to_json_obj(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class ExperimentResult:
    experiment_id: str
    cmi: dict[str, CmiEstimate]
    reports: tuple[BoundReport, ...]

    def to_json_obj(self) -> dict:
        return {
            "id": self.experiment_id,
            "cmi": {mode: est.to_json_obj() for mode, est in self.cmi.items()},
            "reports": [r.to_json_obj() for r in self.reports],
        }


@dataclass(frozen=True)
class SuiteReport:
    version: str
    config_hash: str
    experiments: tuple[ExperimentResult, ...]
    properties: tuple[PropertyResult, ...]
    wall_times: dict[str, float]

    @property
    def all_satisfied(self) -> bool:
        ok_reports = all(r.satisfied for e in self.experiments for r in e.reports)
        ok_props = all(p.ok for p in self.properties)
        return ok_reports and ok_props

    def to_json_obj(self) -> dict:
        return {
            "version": self.version,
            "config_hash": self.config_hash,
            "experiments": [e.to_json_obj() for e in self.experiments],
            "properties": [p.to_json_obj() for p in self.properties],
            "wall_times": self.wall_times,
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "SuiteReport":
        experiments = tuple(
            ExperimentResult(
                experiment_id=e["id"],
                cmi={m: CmiEstimate.from_json_obj(c) for m, c in e["cmi"].items()},
                reports=tuple(BoundReport.from_json_obj(r) for r in e["reports"]),
            )
            for e in obj["experiments"]
        )
        properties = tuple(
            PropertyResult(p["name"], p["ok"], p.get("detail", "")) for p in obj["properties"]
        )
        return cls(
            version=obj["version"],
            config_hash=obj["config_hash"],
            experiments=experiments,
            properties=properties,
            wall_times=dict(obj["wall_times"]),
        )

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(BoundReport.CSV_COLUMNS)
        for exp in self.experiments:
            for report in exp.reports:
                writer.writerow(report.csv_row())
        return buf.getvalue()


def _compute_cmi(config: ExperimentConfig, seed: int) -> dict[str, CmiEstimate]:
    sampler = config.population.supersample_sampler(config.n)
    out: dict[str, CmiEstimate] = {}
    modes = ("exact", "mc") if config.cmi_mode == "both" else (config.cmi_mode,)
    for mode in modes:
        if mode == "exact":
            out[mode] = cmi_distributional(config.bundle.kernel, sampler, mode="exact")
        else:
            out[mode] = cmi_distributional(
                config.bundle.kernel,
                sampler,
                mode="mc",
                trials=config.cmi_trials,
                seed=derive_seed(seed, config.experiment_id, "cmi"),
                evaluator=config.bundle.inner_mi,
            )
    return out


def _estimate_gap(config: ExperimentConfig, seed: int) -> GapEstimate:
    return estimate_gap(
        config.fit,
        config.population,
        config.loss,
        config.n,
        config.trials,
        derive_seed(seed, config.experiment_id),
    )


def run_experiment(config: ExperimentConfig, seed_override: int | None = None) -> tuple[ExperimentResult, list[PropertyResult]]:
    seed = config.seed if seed_override is None else seed_override
    cmi_estimates = _compute_cmi(config, seed)
    primary = cmi_estimates.get("exact") or cmi_estimates["mc"]

    gap: GapEstimate | None = None
    reports: list[BoundReport] = []
    for req in config.theorems:
        params = dict(req.params)
        cmi = primary
        if "cmi_override" in params:
            cmi = CmiEstimate(value=params.pop("cmi_override"), method="exact")
        try:
            if THEOREMS[req.theorem_id].lhs is None:
                reports.append(
                    check_auroc(
                        learner=config.fit,
                        population=config.population,
                        score_of=config.bundle.score_of,
                        is_positive=_is_positive,
                        n=config.n,
                        seed=derive_seed(seed, config.experiment_id),
                        cmi=cmi,
                        **params,
                    )
                )
                continue
            if gap is None:
                gap = _estimate_gap(config, seed)
            reports.append(check_theorem(req.theorem_id, cmi, gap, config.n, **params))
        except ValueError as exc:
            # a theorem that does not apply to this experiment's data
            raise ConfigError(f"{config.experiment_id!r}: theorem {req.theorem_id!r}: {exc}") from exc

    properties = []
    if len(cmi_estimates) == 2:
        exact, mc = cmi_estimates["exact"], cmi_estimates["mc"]
        gap_val = abs(exact.value - mc.value)
        tol = 3.0 * mc.ci_halfwidth + 1e-9
        properties.append(
            PropertyResult(
                name=f"{config.experiment_id}:exact-mc-agreement",
                ok=gap_val <= tol,
                detail=f"|exact - mc| = {gap_val:.6g} <= {tol:.6g}",
            )
        )
    return ExperimentResult(config.experiment_id, cmi_estimates, tuple(reports)), properties


def load_config(source: str | Mapping[str, Any]) -> tuple[dict, list[ExperimentConfig]]:
    if isinstance(source, Mapping):
        obj = dict(source)
    else:
        with open(source) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict) or not isinstance(obj.get("experiments"), list):
        raise ConfigError("config must be a JSON object with an 'experiments' list")
    configs = []
    for i, entry in enumerate(obj["experiments"]):
        if not isinstance(entry, Mapping):
            raise ConfigError(f"experiment #{i} must be a JSON object, got {entry!r}")
        configs.append(ExperimentConfig.from_obj(entry))
    seen: set[str] = set()
    for cfg in configs:
        if cfg.experiment_id in seen:
            raise ConfigError(f"duplicate experiment id {cfg.experiment_id!r}")
        seen.add(cfg.experiment_id)
    return obj, configs


def run_suite(
    source: str | Mapping[str, Any],
    *,
    seed_override: int | None = None,
) -> SuiteReport:
    """Execute every experiment in the config and assemble a SuiteReport.

    Experiments run serially in config order; ``wall_times`` records each
    one's elapsed seconds under its (unique) id.
    """
    obj, configs = load_config(source)
    results: list[tuple[ExperimentResult, list[PropertyResult]]] = []
    wall: dict[str, float] = {}
    for cfg in configs:
        start = time.perf_counter()
        results.append(run_experiment(cfg, seed_override=seed_override))
        wall[cfg.experiment_id] = time.perf_counter() - start

    experiments = tuple(res for res, _ in results)
    properties = tuple(p for _, props in results for p in props)
    return SuiteReport(
        version=__version__,
        config_hash=config_hash(obj),
        experiments=experiments,
        properties=properties,
        wall_times=wall,
    )


def emit(report: SuiteReport, fmt: str, path: str | None) -> str:
    """Serialize a report to CSV (one row per experiment-theorem pair) or
    JSON (lossless round trip) and optionally write it to ``path``."""
    if fmt == "csv":
        text = report.csv_text()
    elif fmt == "json":
        text = json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if path is not None:
        write_text(text, path)
    return text


def write_text(text: str, path: str) -> None:
    """Write ``text`` to the file ``path``; the one file writer behind
    :func:`emit` and the CLI's single commands.  An unwritable path raises
    ``OSError``."""
    with open(path, "w") as fh:
        fh.write(text)


def bundled_suite_path() -> str:
    """Path of the reference suite configuration shipped with the package."""
    return str(resources.files("cmi_lab").joinpath("data/suite_reference.json"))


# ---------------------------------------------------------------------------
# single-computation entry points used by the CLI subcommands
# ---------------------------------------------------------------------------


def single_cmi(config: ExperimentConfig, seed_override: int | None = None) -> dict:
    seed = config.seed if seed_override is None else seed_override
    estimates = _compute_cmi(config, seed)
    return {
        "id": config.experiment_id,
        "cmi": {mode: est.to_json_obj() for mode, est in estimates.items()},
    }


def _draw_candidates(config: ExperimentConfig, seed: int, count: int) -> list[Supersample]:
    sampler = config.population.supersample_sampler(config.n)
    return [sampler.draw(derive_seed(seed, config.experiment_id, "cand", i)) for i in range(count)]


def single_ucmi(
    config: ExperimentConfig, seed_override: int | None = None, candidates: int = 8
) -> dict:
    seed = config.seed if seed_override is None else seed_override
    values = [
        ucmi_fixed(ss, config.bundle.kernel).value
        for ss in _draw_candidates(config, seed, candidates)
    ]
    return {"id": config.experiment_id, "ucmi_per_candidate_nats": values, "max_nats": max(values)}


def single_ecmi(
    config: ExperimentConfig, seed_override: int | None = None, candidates: int = 8
) -> dict:
    seed = config.seed if seed_override is None else seed_override
    rows = []
    for ss in _draw_candidates(config, seed, candidates):
        e = ecmi_fixed(ss, config.bundle.kernel, config.loss)
        c = cmi_exact_fixed(ss, config.bundle.kernel)
        rows.append({"ecmi_nats": e.value, "cmi_nats": c.value})
    return {"id": config.experiment_id, "candidates": rows}


def single_gap(config: ExperimentConfig, seed_override: int | None = None) -> dict:
    config.check_gap_trials()
    seed = config.seed if seed_override is None else seed_override
    return {"id": config.experiment_id, "gap": _estimate_gap(config, seed).to_json_obj()}


def single_auroc(config: ExperimentConfig, seed_override: int | None = None) -> dict:
    requested = tuple(req for req in config.theorems if req.theorem_id == "auroc") or (
        _theorem_request(config.experiment_id, "auroc", config.n, config.population.points),
    )
    result, _ = run_experiment(dataclasses.replace(config, theorems=requested), seed_override=seed_override)
    return result.to_json_obj()
