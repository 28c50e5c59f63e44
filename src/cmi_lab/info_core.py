"""Exact information-theoretic primitives over finite distributions.

Every quantity in this package is measured in nats (natural logarithm);
``LOG2`` nats equal one bit.  The conventions ``0 * log 0 = 0`` and
``p * log(p / 0) = +inf`` are applied throughout, so a Kullback-Leibler
divergence is infinite exactly when the first argument puts mass where the
second does not.

Numerical tolerance tiers, used consistently across the package:

* ``1e-12`` for closed-form identities,
* ``1e-10`` for sums of up to ~1e4 terms,
* ``1e-9`` for iterative results.

All types here are immutable values and all operations are pure functions,
so everything is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

Label = Hashable

LOG2 = math.log(2.0)

#: |sum of masses - 1| up to this is silently renormalized; more is an error.
MASS_TOL = 1e-9

#: slop below zero tolerated for closed-form identities before raising.
IDENTITY_TOL = 1e-12


class Nats(float):
    """A nonnegative information quantity in nats (``+inf`` allowed).

    Values in ``[-slop, 0)`` are clamped to ``0.0`` to absorb accumulation
    error; anything more negative raises, since no quantity built here may
    be negative.
    """

    __slots__ = ()

    units = "nats"

    def __new__(cls, value: float, slop: float = IDENTITY_TOL) -> "Nats":
        v = float(value)
        if math.isnan(v):
            raise ValueError("information quantity is NaN")
        if v < 0.0:
            if v < -slop:
                raise ValueError(f"negative information quantity: {v!r}")
            v = 0.0
        return super().__new__(cls, v)


def _clean_masses(pairs: Iterable[tuple[Label, float]]) -> tuple[tuple[Label, float], ...]:
    atoms = []
    seen = set()
    total = 0.0
    for label, mass in pairs:
        m = float(mass)
        if math.isnan(m) or math.isinf(m):
            raise ValueError(f"mass for {label!r} is not finite: {m!r}")
        if m < 0.0:
            if m < -IDENTITY_TOL:
                raise ValueError(f"negative mass for {label!r}: {m!r}")
            m = 0.0
        if label in seen:
            raise ValueError(f"duplicate label: {label!r}")
        seen.add(label)
        atoms.append((label, m))
        total += m
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"masses sum to {total!r}, not 1 within {MASS_TOL}")
    if total != 1.0 and total > 0.0:
        atoms = [(label, m / total) for label, m in atoms]
    return tuple(atoms)


@dataclass(frozen=True)
class FiniteDistribution:
    """An explicit probability table over a finite label set.

    ``atoms`` is a sequence of ``(label, mass)`` pairs with distinct,
    hashable labels.  Masses must be nonnegative and sum to 1 within
    ``MASS_TOL`` (they are renormalized exactly to 1 on construction).
    Zero-mass atoms are kept so that a distribution can carry its full
    label universe.
    """

    atoms: tuple[tuple[Label, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _clean_masses(self.atoms))
        object.__setattr__(self, "_index", dict(self.atoms))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_dict(cls, table: Mapping[Label, float]) -> "FiniteDistribution":
        return cls(tuple(table.items()))

    @classmethod
    def point_mass(cls, label: Label) -> "FiniteDistribution":
        return cls(((label, 1.0),))

    @classmethod
    def uniform(cls, labels: Sequence[Label]) -> "FiniteDistribution":
        n = len(labels)
        return cls(tuple((lab, 1.0 / n) for lab in labels))

    @classmethod
    def bernoulli(cls, p: float) -> "FiniteDistribution":
        """Distribution over labels ``{0, 1}`` with ``P(1) = p``."""
        return cls(((0, 1.0 - p), (1, float(p))))

    @classmethod
    def mixture(
        cls, components: Sequence["FiniteDistribution"], weights: Sequence[float]
    ) -> "FiniteDistribution":
        if len(components) != len(weights):
            raise ValueError("components and weights differ in length")
        acc: dict[Label, float] = {}
        for comp, w in zip(components, weights):
            for label, mass in comp.atoms:
                acc[label] = acc.get(label, 0.0) + w * mass
        return cls.from_dict(acc)

    # -- queries -----------------------------------------------------------

    def mass(self, label: Label) -> float:
        return self._index.get(label, 0.0)  # type: ignore[attr-defined]

    def support(self) -> tuple[Label, ...]:
        return tuple(label for label, m in self.atoms if m > 0.0)

    def labels(self) -> tuple[Label, ...]:
        return tuple(label for label, _ in self.atoms)

    def point_label(self) -> Label:
        """The unique support label; raises unless this is a point mass."""
        support = self.support()
        if len(support) != 1:
            raise ValueError("not a point mass")
        return support[0]

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        for label, _ in self.atoms:
            if not isinstance(label, (str, int)):
                raise TypeError(f"only str/int labels serialize; got {type(label)!r}")
        return {"atoms": [[label, mass] for label, mass in self.atoms]}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "FiniteDistribution":
        return cls(tuple((label, mass) for label, mass in obj["atoms"]))


@dataclass(frozen=True)
class JointPmf:
    """A joint probability table over 2 axes, or 3 with a conditioning axis.

    Keys are ``(x, y)`` or ``(x, y, z)`` tuples; ``z`` is the conditioning
    variable.  Total mass must be 1 within ``MASS_TOL``.
    """

    table: tuple[tuple[tuple, float], ...]

    def __post_init__(self) -> None:
        cleaned = _clean_masses(self.table)
        arities = {len(key) for key, _ in cleaned}
        if not arities <= {2, 3} or len(arities) != 1:
            raise ValueError(f"keys must all be pairs or all triples, got arities {arities}")
        object.__setattr__(self, "table", cleaned)

    @classmethod
    def from_dict(cls, table: Mapping[tuple, float]) -> "JointPmf":
        return cls(tuple(table.items()))

    @property
    def ndim(self) -> int:
        return len(self.table[0][0])

    def marginal(self, axis: int) -> FiniteDistribution:
        acc: dict[Label, float] = {}
        for key, mass in self.table:
            acc[key[axis]] = acc.get(key[axis], 0.0) + mass
        return FiniteDistribution.from_dict(acc)

    def slices_over_conditioning(self) -> list[tuple[Label, float, "JointPmf"]]:
        """Split a 3-axis table into per-z (z, P(z), conditional 2-axis joint)."""
        if self.ndim != 3:
            raise ValueError("conditioning axis requires a 3-axis table")
        groups: dict[Label, dict[tuple, float]] = {}
        weights: dict[Label, float] = {}
        for (x, y, z), mass in self.table:
            groups.setdefault(z, {})
            groups[z][(x, y)] = groups[z].get((x, y), 0.0) + mass
            weights[z] = weights.get(z, 0.0) + mass
        out = []
        for z, sub in groups.items():
            pz = weights[z]
            if pz <= 0.0:
                continue
            out.append((z, pz, JointPmf(tuple((k, m / pz) for k, m in sub.items()))))
        return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def entropy(dist: FiniteDistribution) -> Nats:
    """Shannon entropy -sum p log p in nats; 0 <= H <= log(support size)."""
    acc = 0.0
    for _, p in dist.atoms:
        if p > 0.0:
            acc -= p * math.log(p)
    return Nats(acc)


def kl(p_dist: FiniteDistribution, q_dist: FiniteDistribution) -> Nats:
    """KL divergence sum_x P(x) log(P(x)/Q(x)); +inf off Q's support."""
    acc = 0.0
    for label, p in p_dist.atoms:
        if p <= 0.0:
            continue
        q = q_dist.mass(label)
        if q <= 0.0:
            return Nats(math.inf)
        acc += p * math.log(p / q)
    return Nats(acc)


def kl_gaussian(mu: Sequence[float] | float, nu: Sequence[float] | float, sigma: float) -> Nats:
    """KL between two isotropic Gaussians with equal scale: ||mu-nu||^2 / (2 sigma^2)."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")

    def as_vector(v) -> list[float]:
        try:
            return [float(x) for x in v]
        except TypeError:
            return [float(v)]

    mu_v = as_vector(mu)
    nu_v = as_vector(nu)
    if len(mu_v) != len(nu_v):
        raise ValueError("mean vectors differ in dimension")
    sq = sum((a - b) ** 2 for a, b in zip(mu_v, nu_v))
    return Nats(sq / (2.0 * sigma * sigma))


def _mi_pairs(joint: JointPmf) -> float:
    px = joint.marginal(0)
    py = joint.marginal(1)
    acc = 0.0
    for (x, y), p in joint.table:
        if p > 0.0:
            acc += p * math.log(p / (px.mass(x) * py.mass(y)))
    return acc


def mutual_information(joint: JointPmf) -> Nats:
    """I(X;Y) = KL(joint || product of marginals), over a 2-axis table."""
    if joint.ndim != 2:
        raise ValueError("mutual_information expects a 2-axis joint")
    return Nats(_mi_pairs(joint), slop=1e-10)


def conditional_mutual_information(joint: JointPmf) -> Nats:
    """I(X;Y|Z): expectation over the conditioning axis of per-slice MI."""
    acc = 0.0
    for _, pz, sub in joint.slices_over_conditioning():
        acc += pz * _mi_pairs(sub)
    return Nats(acc, slop=1e-10)


def tv_distance(d1: FiniteDistribution, d2: FiniteDistribution) -> float:
    """Total-variation distance: half the L1 distance of the mass tables."""
    labels = set(d1.labels()) | set(d2.labels())
    return 0.5 * sum(abs(d1.mass(lab) - d2.mass(lab)) for lab in labels)


def jsd_tv(p0: FiniteDistribution, p1: FiniteDistribution) -> tuple[Nats, float]:
    """Jensen-Shannon divergence and total-variation distance of two tables.

    JSD = (KL(P0||M) + KL(P1||M)) / 2 with M the equal mixture; TV is half
    the L1 distance.  JSD <= TV holds for every pair and is asserted here.
    """
    mid = FiniteDistribution.mixture([p0, p1], [0.5, 0.5])
    jsd = 0.5 * float(kl(p0, mid)) + 0.5 * float(kl(p1, mid))
    tv = tv_distance(p0, p1)
    if jsd > tv + 1e-12:
        raise RuntimeError(f"JSD {jsd!r} exceeded TV {tv!r}: numerical fault")
    return Nats(jsd), tv


def dv_gap(
    f: Callable[[Label], float] | Mapping[Label, float],
    p_dist: FiniteDistribution,
    q_dist: FiniteDistribution,
) -> Nats:
    """Slack of the variational lower bound on KL at witness ``f``.

    Returns ``KL(P||Q) - (E_P[f] - log E_Q[e^f])``, which is nonnegative for
    every witness and zero exactly at ``f = log(P/Q)``.  ``f`` must be finite
    on the support of ``P``; ``-inf`` is allowed elsewhere (it contributes
    ``e^f = 0``).  An infinite KL propagates to an infinite gap.
    """
    lookup = f if callable(f) else f.__getitem__
    divergence = kl(p_dist, q_dist)
    if math.isinf(divergence):
        return Nats(math.inf)

    mean_p = 0.0
    for label, p in p_dist.atoms:
        if p <= 0.0:
            continue
        val = float(lookup(label))
        if math.isnan(val) or val == math.inf:
            raise ValueError(f"witness must be finite on supp(P); f({label!r})={val!r}")
        if val == -math.inf:
            raise ValueError(f"witness is -inf on a P-support label: {label!r}")
        mean_p += p * val

    vals = []
    for label, q in q_dist.atoms:
        if q <= 0.0:
            continue
        val = float(lookup(label))
        if math.isnan(val) or val == math.inf:
            raise ValueError(f"witness must be < +inf on supp(Q); f({label!r})={val!r}")
        vals.append((q, val))
    peak = max(val for _, val in vals)
    if peak == -math.inf:
        raise ValueError("witness is -inf on all of supp(Q)")
    log_mgf = peak + math.log(sum(q * math.exp(val - peak) for q, val in vals))

    return Nats(float(divergence) - (mean_p - log_mgf), slop=1e-10)


def optimal_dv_witness(
    p_dist: FiniteDistribution, q_dist: FiniteDistribution
) -> dict[Label, float]:
    """The witness ``log(P/Q)`` achieving equality in the variational bound."""
    out: dict[Label, float] = {}
    for label in set(p_dist.labels()) | set(q_dist.labels()):
        p, q = p_dist.mass(label), q_dist.mass(label)
        if p == 0.0:
            out[label] = -math.inf
        elif q == 0.0:
            raise ValueError("P is not absolutely continuous w.r.t. Q")
        else:
            out[label] = math.log(p / q)
    return out


def event_probability_bound(
    p_dist: FiniteDistribution,
    q_dist: FiniteDistribution,
    event: Callable[[Label], bool],
) -> float:
    """Upper bound on P(E) in terms of KL(P||Q) and Q(E).

    Returns ``(KL(P||Q) + log 2) / (-log Q(E))``, valid for any event with
    ``0 < Q(E) < 1``; the degenerate cases are rejected because the bound is
    undefined or vacuous there.
    """
    q_event = sum(m for label, m in q_dist.atoms if m > 0.0 and event(label))
    if q_event <= 0.0:
        raise ValueError("Q(E) = 0: bound undefined")
    if q_event >= 1.0 - IDENTITY_TOL:
        raise ValueError("Q(E) = 1: bound vacuous (-log Q(E) = 0)")
    bound = (float(kl(p_dist, q_dist)) + LOG2) / (-math.log(q_event))
    p_event = sum(m for label, m in p_dist.atoms if m > 0.0 and event(label))
    if bound < p_event - 1e-12:
        raise RuntimeError(f"bound {bound!r} fell below P(E)={p_event!r}: numerical fault")
    return bound
