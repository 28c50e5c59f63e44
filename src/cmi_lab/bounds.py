"""Generalization-bound evaluators and Monte-Carlo gap estimation.

One side of every check is a closed-form right-hand side driven by a CMI
value (``bound_*`` functions); the other side is a seeded Monte-Carlo
estimate of the actual generalization gap (``estimate_gap``) whose only
noise source is the draw of the dataset -- population losses are always
computed exactly, either by summing a finite support or via a closed form.

``THEOREMS`` is the one place where a checked theorem is defined: its row
gives the right-hand side, the :class:`GapEstimate` statistic it bounds and
the request parameters it reads with their defaults.  ``check_theorem``
looks a gap theorem up there; ``check_auroc`` runs the AUROC pipeline; both
build their :class:`BoundReport` by one pass rule.

The squared-error bound is an infimum over a free parameter u in (0,1); it
is minimized numerically by golden-section search.  Substituting u = 2/3
gives the closed form (3*cmi + 1.5*log 3) * scale / n, which the infimum
never exceeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ._seeding import derive_seed
from .algkernel import Z_95, CmiEstimate, SupersampleSampler, mean_ci, sampling_table
from .info_core import LOG2, FiniteDistribution, Nats

LOG3 = math.log(3.0)


class UnknownTheoremError(ValueError):
    """Requested theorem id is not registered."""


# ---------------------------------------------------------------------------
# loss specifications and sensitivity presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossSpec:
    """A loss function ``eval(w, z)`` with its family.

    ``kind`` is one of ``bounded01`` (values in [0,1]), ``delta-bounded``
    (|l(w,z1)-l(w,z2)| <= delta(z1,z2)), ``nonlinear`` (dataset-level loss
    with per-coordinate sensitivities), or ``normalized``
    (|l(w,z1)-l(w,z2)| <= delta(z1,z2)*psi(w)).  ``uniform_stability`` is
    the stability constant ``ecmi_gaussian_bound`` reads.
    """

    eval: Callable[[Any, Any], float]
    kind: str
    uniform_stability: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("bounded01", "delta-bounded", "nonlinear", "normalized"):
            raise ValueError(f"unknown loss kind {self.kind!r}")


def zero_one_loss() -> LossSpec:
    """0-1 loss for hypotheses with a .predict method on (x, y) points."""
    return LossSpec(
        eval=lambda w, z: 0.0 if w.predict(z[0]) == z[1] else 1.0,
        kind="bounded01",
    )


def _lp_norm(vec: Sequence[float], p: float) -> float:
    if p == math.inf:
        return max(abs(v) for v in vec)
    return sum(abs(v) ** p for v in vec) ** (1.0 / p)


@dataclass(frozen=True)
class DeltaPreset:
    """A pairwise sensitivity bound Delta(z1, z2) for a named loss family.

    Points are ``(x, y)`` with ``x`` a vector (any scalar is promoted).
    ``squared``: loss (f_w(x)-y)^2 with f_w c-Lipschitz in the p-norm and
    f_w(0)=0; Delta^2 = 16 c^4 (|x1|_p^4 + |x2|_p^4) + 16 (y1^4 + y2^4).
    ``hinge``: loss max(0, 1 - y<w,x>) with |w|_q <= c for the dual norm q;
    Delta = c |y1 x1 - y2 x2|_p.
    """

    name: str
    c: float
    p: float
    q: float

    def delta_sq(self, z1, z2) -> float:
        x1, y1 = _as_vector(z1[0]), float(z1[1])
        x2, y2 = _as_vector(z2[0]), float(z2[1])
        if self.name == "squared":
            return 16.0 * self.c**4 * (
                _lp_norm(x1, self.p) ** 4 + _lp_norm(x2, self.p) ** 4
            ) + 16.0 * (y1**4 + y2**4)
        return self.delta(z1, z2) ** 2

    def delta(self, z1, z2) -> float:
        if self.name == "squared":
            return math.sqrt(self.delta_sq(z1, z2))
        x1, y1 = _as_vector(z1[0]), float(z1[1])
        x2, y2 = _as_vector(z2[0]), float(z2[1])
        diff = [y1 * a - y2 * b for a, b in zip(x1, x2)]
        return self.c * _lp_norm(diff, self.p)

    def loss(self, w: Sequence[float], z) -> float:
        """The family member for a parameter vector w (used in validation)."""
        x, y = _as_vector(z[0]), float(z[1])
        inner = sum(a * b for a, b in zip(w, x))
        if self.name == "squared":
            return (inner - y) ** 2
        return max(0.0, 1.0 - y * inner)


def _as_vector(x) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in x)
    except TypeError:
        return (float(x),)


def delta_preset(name: str, c: float = 1.0, p: float = 2.0, q: float | None = None) -> DeltaPreset:
    """Sensitivity preset for the squared or hinge loss family.

    ``p`` and ``q`` must be dual exponents (1/p + 1/q = 1); ``q`` defaults
    to the dual of ``p``.
    """
    if name not in ("squared", "hinge"):
        raise ValueError(f"unknown preset {name!r}")
    if not p >= 1.0:
        raise ValueError(f"exponent p must be >= 1, got {p!r}")
    dual = math.inf if p == 1.0 else p / (p - 1.0)
    if q is None:
        q = dual
    else:
        inv = (0.0 if p == math.inf else 1.0 / p) + (0.0 if q == math.inf else 1.0 / q)
        if abs(inv - 1.0) > 1e-12:
            raise ValueError(f"(p, q) = ({p!r}, {q!r}) is not a dual pair")
    if c <= 0.0:
        raise ValueError("constant c must be positive")
    return DeltaPreset(name=name, c=float(c), p=float(p), q=float(q))


# ---------------------------------------------------------------------------
# closed-form bound evaluators
# ---------------------------------------------------------------------------


def golden_section_min(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Minimize a unimodal function on [lo, hi]; returns (argmin, min)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
    xm = (a + b) / 2.0
    return xm, fn(xm)


def _check_bound_inputs(cmi: float, n: int, scale: float) -> float:
    value = float(Nats(cmi, slop=1e-9))
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if scale < 0.0:
        raise ValueError(f"scale must be nonnegative, got {scale!r}")
    return value


def bound_agnostic(kind: str, cmi: float, n: int, scale: float = 1.0) -> float:
    """Right-hand sides of the agnostic linear-loss generalization bounds.

    ``scale`` is E[Delta^2] for the delta-bounded kinds (1 for [0,1]
    losses) and E[sup_w l^2] for the unbounded kind.

    * ``expected``:  sqrt(2 * cmi * scale / n) bounds |E[emp - pop]|.
    * ``absolute``:  sqrt(2 * (cmi + log 2) * scale / n) bounds E|emp - pop|.
    * ``squared``:   inf_u (2*cmi - log(1-u)) * scale / (u*n) bounds
      E[(emp - pop)^2]; solved by golden section to 1e-10.
    * ``unbounded``: sqrt(8 * cmi * scale / n) bounds |E[emp - pop]|.
    """
    c = _check_bound_inputs(cmi, n, scale)
    if kind == "expected":
        return math.sqrt(2.0 * c * scale / n)
    if kind == "absolute":
        return math.sqrt(2.0 * (c + LOG2) * scale / n)
    if kind == "squared":
        _, val = golden_section_min(
            lambda u: (2.0 * c - math.log1p(-u)) * scale / (u * n), 1e-12, 1.0 - 1e-12
        )
        return val
    if kind == "unbounded":
        return math.sqrt(8.0 * c * scale / n)
    raise ValueError(f"unknown agnostic bound kind {kind!r}")


def bound_squared_closed_form(cmi: float, n: int, scale: float = 1.0) -> float:
    """The u = 2/3 substitution of the squared bound: (3*cmi + 1.5*log 3)
    * scale / n.  The numeric infimum never exceeds this."""
    c = _check_bound_inputs(cmi, n, scale)
    return (3.0 * c + 1.5 * LOG3) * scale / n


def bound_realizable(empirical_mean: float, cmi: float, n: int) -> float:
    """Population-loss bound for (near-)interpolating learners.

    With zero expected empirical loss the bound is cmi / (n log 2); in
    general it is 2 * empirical + 3 * cmi / n.
    """
    c = _check_bound_inputs(cmi, n, 1.0)
    if empirical_mean < 0.0:
        raise ValueError(f"empirical mean must be nonnegative, got {empirical_mean!r}")
    if empirical_mean == 0.0:
        return c / (n * LOG2)
    return 2.0 * empirical_mean + 3.0 * c / n


def bound_nonlinear(lam: float, u: float, cmi: float, tail_prob: float = 0.0) -> float:
    """Probability bound for nonlinear dataset-level losses:
    P(|l(A(Z),Z) - ghost| >= lam) <= (2u / lam^2)(cmi + 2) + P(Delta^2 > u).

    ``u`` caps the squared selector sensitivity Delta^2 and ``tail_prob`` is
    the probability of exceeding it; with a uniform cap the tail term is 0.
    """
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if u < 0.0:
        raise ValueError("u must be nonnegative")
    if not 0.0 <= tail_prob <= 1.0:
        raise ValueError("tail probability must lie in [0, 1]")
    c = _check_bound_inputs(cmi, 1, 1.0)
    return (2.0 * u / (lam * lam)) * (c + 2.0) + tail_prob


def bound_nonlinear_expectation(cmi: float, e_delta_sq: float) -> float:
    """Expectation form of the nonlinear squared-gap bound, uniform branch:
    E[(l(A(Z),Z) - ghost)^2] <= (8/3) * (cmi + log 2) * E[Delta^2], where
    Delta(z)^2 = sup_w sum_i Delta_i(w, z)^2 is the dataset-level selector
    sensitivity.  The refinement that trades a sensitivity tail against a
    higher moment via a dual-exponent inequality is out of scope; only this
    uniform branch is provided.
    """
    c = _check_bound_inputs(cmi, 1, e_delta_sq)
    return (8.0 / 3.0) * (c + LOG2) * e_delta_sq


def bound_auroc(
    epsilon: float, p: float, n: int, cmi: float, form: str = "absorbed"
) -> float:
    """Failure-probability bound for ranking-quality (AUROC) generalization.

    ``absorbed``: (48*cmi + 149) / (eps^2 p (1-p) n), valid once
    eps^2 p (1-p) n >= 25 and vacuous below that anyway.
    ``raw``: (48*cmi + 148) / (eps^2 p (1-p) n) + exp(-n min(p,1-p) / 7),
    the pre-absorption form.
    ``intro``: the constant-free rate cmi / (eps^2 p (1-p) n).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"positive rate p must lie strictly in (0,1), got {p!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    c = _check_bound_inputs(cmi, n, 1.0)
    denom = epsilon * epsilon * p * (1.0 - p) * n
    if form == "absorbed":
        return (48.0 * c + 149.0) / denom
    if form == "raw":
        return (48.0 * c + 148.0) / denom + math.exp(-n * min(p, 1.0 - p) / 7.0)
    if form == "intro":
        return c / denom
    raise ValueError(f"unknown form {form!r}")


def bound_normalized(epsilon: float, cmi: float, n: int, e_delta_sq: float) -> float:
    """Probability that the gap exceeds eps * psi(output) for losses with a
    parameter-magnitude normalizer: (3*cmi + log 3) / (eps^2 n) * E[Delta^2]."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    c = _check_bound_inputs(cmi, n, e_delta_sq)
    return (3.0 * c + LOG3) / (epsilon * epsilon * n) * e_delta_sq


# ---------------------------------------------------------------------------
# empirical and population AUROC
# ---------------------------------------------------------------------------


def empirical_auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Pairwise ranking statistic: mean of 1[s+ > s-] + 0.5 * 1[s+ = s-]
    over (positive, negative) pairs, via tie-averaged ranks.  Defined as
    0.5 when only one class is present."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.shape != y.shape:
        raise ValueError("scores and labels differ in length")
    n_pos = int((y == 1).sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return 0.5
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    avg_rank = starts + (counts + 1) / 2.0
    ranks = avg_rank[inverse]
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def population_auroc(
    dist: FiniteDistribution,
    score: Callable[[Any], float],
    is_positive: Callable[[Any], bool],
) -> float:
    """Exact AUROC of a scorer under a finite population distribution."""
    pos = [(z, m) for z, m in dist.atoms if m > 0.0 and is_positive(z)]
    neg = [(z, m) for z, m in dist.atoms if m > 0.0 and not is_positive(z)]
    wp = sum(m for _, m in pos)
    wn = sum(m for _, m in neg)
    if wp <= 0.0 or wn <= 0.0:
        raise ValueError("population must contain both classes")
    acc = 0.0
    for zp, mp in pos:
        sp = score(zp)
        for zn, mn in neg:
            sn = score(zn)
            if sp > sn:
                acc += mp * mn
            elif sp == sn:
                acc += 0.5 * mp * mn
    return acc / (wp * wn)


def positive_rate(dist: FiniteDistribution, is_positive: Callable[[Any], bool]) -> float:
    return sum(m for z, m in dist.atoms if m > 0.0 and is_positive(z))


# ---------------------------------------------------------------------------
# populations and gap estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Population:
    """A finite data distribution with seeded sampling and an *exact*
    population-loss evaluator (summation over its support)."""

    points: FiniteDistribution

    def __post_init__(self) -> None:
        object.__setattr__(self, "_table", sampling_table(self.points))

    def draw(self, rng: np.random.Generator, n: int) -> tuple:
        labels, masses = self._table  # type: ignore[attr-defined]
        idx = rng.choice(len(labels), size=n, p=masses)
        return tuple(labels[i] for i in idx)

    def expected_loss(self, hypothesis: Any, loss_eval: Callable[[Any, Any], float]) -> float:
        return sum(m * loss_eval(hypothesis, z) for z, m in self.points.atoms if m > 0.0)

    def supersample_sampler(self, n: int) -> SupersampleSampler:
        return SupersampleSampler.from_distribution(self.points, n)

    @classmethod
    def from_finite(cls, dist: FiniteDistribution) -> "Population":
        return cls(points=dist)


@dataclass(frozen=True)
class GapEstimate:
    """Monte-Carlo estimate of the generalization gap of a learner."""

    empirical_mean: float
    population_mean: float
    gap: float
    gap_squared: float
    ci_halfwidth: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.ci_halfwidth < 0.0:
            raise ValueError("negative ci_halfwidth")
        if abs(self.gap - (self.empirical_mean - self.population_mean)) > 1e-9:
            raise ValueError("gap must equal empirical_mean - population_mean")

    #: serialized fields, in wire order; each field's wire key is its name
    JSON_FIELDS = ("empirical_mean", "population_mean", "gap", "gap_squared", "ci_halfwidth", "trials", "seed")

    def to_json_obj(self) -> dict:
        return {k: getattr(self, k) for k in self.JSON_FIELDS}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "GapEstimate":
        return cls(**{k: obj[k] for k in cls.JSON_FIELDS})

    @classmethod
    def from_samples(cls, emp: np.ndarray, pop: np.ndarray, seed: int) -> "GapEstimate":
        """Summarize per-trial empirical and population values."""
        gaps = emp - pop
        gap, halfwidth = mean_ci(gaps)
        return cls(
            empirical_mean=float(emp.mean()),
            population_mean=float(pop.mean()),
            gap=gap,
            gap_squared=float((gaps**2).mean()),
            ci_halfwidth=halfwidth,
            trials=gaps.size,
            seed=seed,
        )


MIN_GAP_TRIALS = 100


def _fitted_trials(
    learner: Callable, population: Population, n: int, trials: int, seed: int, stream: str
) -> Iterator[tuple[tuple, Any]]:
    """Yield (dataset, hypothesis) per trial: trial t seeds its generator with
    ``derive_seed(seed, stream, t)``, draws Z ~ D^n and runs the learner."""
    for t in range(trials):
        rng = np.random.default_rng(derive_seed(seed, stream, t))
        dataset = population.draw(rng, n)
        yield dataset, learner(dataset, rng)


def estimate_gap(
    learner: Callable[[tuple, np.random.Generator], Any],
    population: Population,
    loss: LossSpec | Callable[[Any, Any], float],
    n: int,
    trials: int,
    seed: int,
    *,
    return_samples: bool = False,
):
    """Per-trial: draw Z ~ D^n, run the (seeded) learner, record empirical
    and exact population loss.  Returns a :class:`GapEstimate`; with
    ``return_samples`` also the per-trial (empirical, population) array.

    The trials floor keeps the normal-approximation 95% CI honest.
    """
    if trials < MIN_GAP_TRIALS:
        raise ValueError(f"need at least {MIN_GAP_TRIALS} trials, got {trials}")
    loss_eval = getattr(loss, "eval", loss)
    emp = np.empty(trials)
    pop = np.empty(trials)
    for t, (dataset, hypothesis) in enumerate(_fitted_trials(learner, population, n, trials, seed, "gap")):
        emp[t] = sum(loss_eval(hypothesis, z) for z in dataset) / n
        pop[t] = population.expected_loss(hypothesis, loss_eval)
    est = GapEstimate.from_samples(emp, pop, seed)
    if return_samples:
        return est, np.stack([emp, pop], axis=1)
    return est


# ---------------------------------------------------------------------------
# theorem registry and reports
# ---------------------------------------------------------------------------


#: a Monte-Carlo CMI estimate enters every right-hand side raised by this
#: many CI halfwidths; an exact estimate has halfwidth 0
CMI_CI_MULTIPLIER = 3.0

#: request parameters every theorem reads: a known CMI cap to use instead of
#: the run's estimate, and a testing knob that replaces the right-hand side
OVERRIDES = ("cmi_override", "rhs_override")


@dataclass(frozen=True)
class TheoremSpec:
    """One registered bound.

    ``rhs(cmi, n, x, **params)`` is the right-hand side at a CMI value, where
    ``x`` is the mean empirical loss for a gap theorem and the population's
    positive rate for ``auroc``.  ``lhs`` is the :class:`GapEstimate`
    statistic a gap theorem bounds; ``auroc`` has none, because its own
    pipeline (:func:`check_auroc`) measures a violation frequency.
    ``params`` maps each request parameter the theorem reads, besides
    ``OVERRIDES``, to its default; an integer default is a trial count.
    """

    theorem_id: str
    description: str
    rhs: Callable[..., float]
    lhs: Callable[[GapEstimate], float] | None = None
    params: Mapping[str, float] = field(default_factory=dict)

    def resolve(self, params: Mapping[str, Any], n: int, x: float) -> dict[str, float]:
        """A request's parameters with the defaults filled in, each coerced
        to its default's type.  Raises ``ValueError`` for a parameter the
        theorem does not read, a trial count below 1, or a value outside the
        formula's domain (the right-hand side is evaluated once at n, x)."""
        unread = sorted(set(params) - set(self.params) - set(OVERRIDES))
        if unread:
            raise ValueError(f"parameter {unread[0]!r} is not read; it reads {[*self.params, *OVERRIDES]}")
        out = {k: type(d)(params.get(k, d)) for k, d in self.params.items()}
        if any(isinstance(d, int) and out[k] < 1 for k, d in self.params.items()):
            raise ValueError(f"trial counts must be >= 1, got {out!r}")
        self.rhs(float(params.get("cmi_override", 0.0)), n, x, **out)
        return out | {k: float(params[k]) for k in OVERRIDES if k in params}


def _agnostic(kind: str, description: str, lhs: Callable[[GapEstimate], float]) -> TheoremSpec:
    return TheoremSpec(
        f"agnostic-{kind}", description, lambda c, n, emp, scale: bound_agnostic(kind, c, n, scale), lhs, {"scale": 1.0}
    )


def _realizable_zero(cmi: float, n: int, empirical_mean: float) -> float:
    if abs(empirical_mean) > 1e-12:
        raise ValueError("realizable-zero requires zero empirical loss; use realizable-general")
    return bound_realizable(0.0, cmi, n)


def _abs_gap(gap: GapEstimate) -> float:
    return abs(gap.gap)


THEOREMS: dict[str, TheoremSpec] = {
    spec.theorem_id: spec
    for spec in (
        _agnostic("expected", "|E[emp - pop]| <= sqrt(2 * cmi * scale / n)", _abs_gap),
        _agnostic("absolute", "E|emp - pop| <= sqrt(2 * (cmi + log 2) * scale / n)", _abs_gap),
        _agnostic(
            "squared",
            "E[(emp - pop)^2] <= inf_u (2*cmi - log(1-u)) * scale / (u*n)",
            attrgetter("gap_squared"),
        ),
        _agnostic("unbounded", "|E[emp - pop]| <= sqrt(8 * cmi * scale / n), scale = E[sup_w l^2]", _abs_gap),
        TheoremSpec(
            "realizable-zero",
            "E[pop] <= cmi / (n log 2) when E[emp] = 0",
            _realizable_zero,
            attrgetter("population_mean"),
        ),
        TheoremSpec(
            "realizable-general",
            "E[pop] <= 2 E[emp] + 3 cmi / n",
            lambda c, n, emp: bound_realizable(emp, c, n),
            attrgetter("population_mean"),
        ),
        TheoremSpec(
            "auroc",
            "P(|emp AUROC - pop AUROC| > eps) <= min(1, (48*cmi+149)/(eps^2 p(1-p) n))",
            # ``trials`` sizes the pipeline, not the bound
            lambda c, n, p, epsilon, trials: min(1.0, bound_auroc(epsilon, p, n, c)),
            params={"epsilon": 0.3, "trials": 200},
        ),
    )
}


@dataclass(frozen=True)
class BoundReport:
    """RHS of one registered bound against a Monte-Carlo LHS estimate."""

    theorem_id: str
    n: int
    cmi_nats: float
    rhs: float
    lhs_value: float
    lhs_ci: float
    satisfied: bool
    seed: int
    lhs_estimate: GapEstimate | None = None

    #: (wire key, field) pairs, in wire order; the CSV has the same columns,
    #: and the wire adds ``lhs_estimate`` as a nested object
    JSON_FIELDS = (
        ("theorem_id", "theorem_id"), ("n", "n"), ("cmi_nats", "cmi_nats"), ("rhs", "rhs"),
        ("lhs", "lhs_value"), ("lhs_ci", "lhs_ci"), ("satisfied", "satisfied"), ("seed", "seed"),
    )
    CSV_COLUMNS = tuple(key for key, _ in JSON_FIELDS)

    def to_json_obj(self) -> dict:
        est = self.lhs_estimate
        obj = {key: getattr(self, name) for key, name in self.JSON_FIELDS}
        return obj | {"lhs_estimate": None if est is None else est.to_json_obj()}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "BoundReport":
        est = obj.get("lhs_estimate")
        return cls(
            **{name: obj[key] for key, name in cls.JSON_FIELDS},
            lhs_estimate=None if est is None else GapEstimate.from_json_obj(est),
        )

    def csv_row(self) -> list[str]:
        return [
            self.theorem_id,
            str(self.n),
            repr(self.cmi_nats),
            repr(self.rhs),
            repr(self.lhs_value),
            repr(self.lhs_ci),
            "true" if self.satisfied else "false",
            str(self.seed),
        ]


def _report(
    theorem_id: str, cmi: CmiEstimate, n: int, rhs_at: Callable[[float], float],
    lhs: float, lhs_ci: float, estimate: GapEstimate, rhs_override: float | None,
) -> BoundReport:
    """The one pass rule behind every check: with rhs the right-hand side at
    the CMI value raised by ``CMI_CI_MULTIPLIER`` halfwidths, or
    ``rhs_override`` when given, the check holds iff rhs >= lhs - lhs_ci."""
    rhs = rhs_at(cmi.value + CMI_CI_MULTIPLIER * cmi.ci_halfwidth)
    if rhs_override is not None:
        rhs = float(rhs_override)
    return BoundReport(
        theorem_id=theorem_id,
        n=n,
        cmi_nats=cmi.value,
        rhs=rhs,
        lhs_value=lhs,
        lhs_ci=lhs_ci,
        satisfied=bool(rhs >= lhs - lhs_ci),
        seed=estimate.seed,
        lhs_estimate=estimate,
    )


def check_theorem(
    theorem_id: str,
    cmi: CmiEstimate,
    gap: GapEstimate,
    n: int,
    *,
    scale: float = 1.0,
    rhs_override: float | None = None,
) -> BoundReport:
    """Fill a :class:`BoundReport` for a gap-based theorem of ``THEOREMS``.

    ``scale`` is read only by the theorems whose row lists it.
    """
    spec = THEOREMS.get(theorem_id)
    if spec is None or spec.lhs is None:
        raise UnknownTheoremError(f"{theorem_id!r} is not a gap theorem of THEOREMS (auroc: see check_auroc)")
    params = {"scale": scale} if "scale" in spec.params else {}
    rhs_at = lambda c: spec.rhs(c, n, gap.empirical_mean, **params)
    return _report(theorem_id, cmi, n, rhs_at, spec.lhs(gap), gap.ci_halfwidth, gap, rhs_override)


def check_auroc(
    learner: Callable[[tuple, np.random.Generator], Any],
    population: Population,
    score_of: Callable[[Any, Any], float],
    is_positive: Callable[[Any], bool],
    epsilon: float,
    n: int,
    trials: int,
    seed: int,
    cmi: CmiEstimate,
    *,
    rhs_override: float | None = None,
) -> BoundReport:
    """Monte-Carlo check of the AUROC generalization bound.

    Per trial: draw Z, learn, compare empirical AUROC on Z with the exact
    population AUROC of the learned scorer; the LHS is the frequency of
    deviations above ``epsilon`` and the RHS is the ``auroc`` row of
    ``THEOREMS``.
    """
    pop_cache: dict[Any, float] = {}
    emps = np.empty(trials)
    pops = np.empty(trials)
    for t, (dataset, w) in enumerate(_fitted_trials(learner, population, n, trials, seed, "auroc")):
        scores = [score_of(w, z) for z in dataset]
        labels = [1 if is_positive(z) else 0 for z in dataset]
        if w not in pop_cache:
            pop_cache[w] = population_auroc(
                population.points, lambda z: score_of(w, z), is_positive
            )
        emps[t], pops[t] = empirical_auroc(scores, labels), pop_cache[w]
    freq = float((np.abs(emps - pops) > epsilon).mean())
    freq_ci = Z_95 * math.sqrt(max(freq * (1.0 - freq), 1e-12) / trials)
    p = positive_rate(population.points, is_positive)
    rhs_at = lambda c: THEOREMS["auroc"].rhs(c, n, p, epsilon=epsilon, trials=trials)
    return _report("auroc", cmi, n, rhs_at, freq, freq_ci, GapEstimate.from_samples(emps, pops, seed), rhs_override)
