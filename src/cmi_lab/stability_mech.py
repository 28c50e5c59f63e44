"""Stability-based mechanisms and their information bounds.

Two concrete mechanisms are provided as kernels:

* per-coordinate randomized response with flip probability p, which is
  log((1-p)/p)-differentially private.  On the canonical supersample whose
  row i holds the bits (0, 1) the selected dataset *is* the selector, so
  the kernel's selection information factorizes into n identical binary
  symmetric channels and has the closed form n * (log 2 - H(p));
* a delta-TV lottery that outputs a fixed symbol with probability 1-delta
  and its entire input dataset otherwise.  Neighboring datasets' output
  laws are exactly delta apart in total variation, and its selection
  information admits the bound delta * n.

Certificates record a stability notion (DP / KL / ALKL / MI / TV) with its
parameter and the selection-information bound it implies for a given n.
ALKL and MI stability appear only as certificate notions: no standalone
mechanism instantiates them beyond the KL-stable reading of randomized
response, and concentrated-style privacy relaxations enter only through the
same eps*n certificate route.  Approximate-DP mechanisms with a nonzero
multiplicative part are out of scope.
The module also hosts the finite surrogate for the uniform-stability to
evaluated-CMI construction: adding Gaussian noise of scale sigma to every
loss evaluation bounds the evaluated selection information by the sum of
per-point selector variances over 2 sigma^2, which is itself capped by
gamma^2 n^2 / (2 sigma^2) through the replace-one-coordinate variance
bound (computed explicitly here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .algkernel import (
    AlgorithmKernel,
    Supersample,
    _check_selector_cap,
    selected_datasets,
    ucmi_fixed,
)
from .info_core import LOG2, FiniteDistribution, Nats, tv_distance

#: output symbol of the TV lottery when it reveals nothing.
BOTTOM = "BOT"


@dataclass(frozen=True)
class DpParams:
    """Pure differential-privacy level of a bit-flip mechanism.

    The flip probability and epsilon are locked together by
    epsilon = log((1-p)/p).
    """

    epsilon: float
    flip_prob: float

    def __post_init__(self) -> None:
        if not 0.0 < self.flip_prob <= 0.5:
            raise ValueError(f"flip probability must lie in (0, 0.5], got {self.flip_prob!r}")
        implied = math.log((1.0 - self.flip_prob) / self.flip_prob)
        if abs(self.epsilon - implied) > 1e-12:
            raise ValueError(
                f"epsilon {self.epsilon!r} inconsistent with flip prob {self.flip_prob!r}"
            )

    @classmethod
    def from_flip_prob(cls, p: float) -> "DpParams":
        if not 0.0 < p <= 0.5:
            raise ValueError(f"flip probability must lie in (0, 0.5], got {p!r}")
        return cls(epsilon=math.log((1.0 - p) / p), flip_prob=p)


@dataclass(frozen=True)
class TvParams:
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta!r}")


_NOTIONS = ("DP", "KL", "ALKL", "MI", "TV")


@dataclass(frozen=True)
class StabilityCertificate:
    """A stability notion with its parameter and implied CMI bound at size n.

    KL / ALKL / MI stability at level eps imply eps * n; TV stability at
    delta implies delta * n; eps-DP implies eps^2 n / 2 (it is
    sqrt(2 * eps^2/2)-DP in the normalization the KL route uses).
    """

    notion: str
    parameter: float
    n: int

    def __post_init__(self) -> None:
        if self.notion not in _NOTIONS:
            raise ValueError(f"unknown stability notion {self.notion!r}")
        if self.parameter < 0.0:
            raise ValueError("stability parameter must be nonnegative")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def implied_cmi_bound(self) -> Nats:
        if self.notion == "DP":
            return Nats(self.parameter**2 * self.n / 2.0)
        return Nats(self.parameter * self.n)

    def ucmi_bound(self) -> Nats:
        """Worst-selector-law bound; only pure DP yields one (eps * n)."""
        if self.notion != "DP":
            raise ValueError(f"no universal bound from {self.notion!r} stability")
        return Nats(self.parameter * self.n)

    def to_json_obj(self) -> dict:
        return {
            "notion": self.notion,
            "parameter": self.parameter,
            "implied_cmi_bound_nats": float(self.implied_cmi_bound),
        }


# ---------------------------------------------------------------------------
# randomized response
# ---------------------------------------------------------------------------


def randomized_response(p: float, n: int) -> AlgorithmKernel:
    """Kernel releasing each input bit independently flipped with prob p.

    Inputs are bit-valued data points; outputs are length-n bit tuples.  It
    is declared as the product of one bit flip per position, whose outputs
    are checked against {0, 1}, so the engines never list the 2^n words.
    Carries a DP certificate at epsilon = log((1-p)/p).
    """
    params = DpParams.from_flip_prob(p)

    def flip(ds: tuple[Any, ...]) -> FiniteDistribution:
        (point,) = ds
        bit = int(point)
        if bit not in (0, 1):
            raise ValueError("randomized response expects bit-valued data points")
        return FiniteDistribution(((0, p if bit else 1.0 - p), (1, 1.0 - p if bit else p)))

    return AlgorithmKernel.product(
        AlgorithmKernel(evaluate=flip, output_universe=(0, 1), name=f"bit-flip(p={p})"),
        n,
        name=f"randomized-response(p={p})",
        certificate=StabilityCertificate(notion="DP", parameter=params.epsilon, n=n),
    )


def rr_selector_supersample(n: int) -> Supersample:
    """The selector-revealing instance: row i holds the bits (0, 1), so the
    selected dataset equals the selector itself."""
    return Supersample(tuple((0, 1) for _ in range(n)))


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def rr_exact_cmi(p: float, n: int) -> float:
    """Closed-form selection information of randomized response on the
    selector-revealing supersample: n independent binary symmetric channels
    with uniform input, n * (log 2 - H(p))."""
    return n * (LOG2 - binary_entropy(p))


def rr_channel_matrix(p: float, n: int) -> np.ndarray:
    """The 2^n x 2^n channel selector -> output on the selector-revealing
    supersample, built directly from the Hamming-distance law."""
    _check_selector_cap(n)
    idx = np.arange(2**n, dtype=np.uint64)
    ham = np.bitwise_count(idx[:, None] ^ idx[None, :]).astype(float)
    return p**ham * (1.0 - p) ** (n - ham)


# ---------------------------------------------------------------------------
# TV lottery
# ---------------------------------------------------------------------------


def tv_lottery(delta: float, n: int) -> AlgorithmKernel:
    """With probability 1-delta output BOTTOM, else reveal the input dataset.

    Output laws of neighboring datasets differ by exactly delta in total
    variation, making this a sharp witness for the TV-stability bound
    delta * n on selection information.
    """
    params = TvParams(delta)

    def evaluate(ds: tuple[Any, ...]) -> FiniteDistribution:
        if len(ds) != n:
            raise ValueError(f"dataset size {len(ds)} != n={n}")
        if params.delta == 0.0:
            return FiniteDistribution.point_mass(BOTTOM)
        if params.delta == 1.0:
            return FiniteDistribution.point_mass(tuple(ds))
        return FiniteDistribution(
            ((BOTTOM, 1.0 - params.delta), (tuple(ds), params.delta))
        )

    return AlgorithmKernel(
        evaluate=evaluate,
        name=f"tv-lottery(delta={delta})",
        certificate=StabilityCertificate(notion="TV", parameter=delta, n=n),
    )


def max_neighbor_tv(
    kernel: AlgorithmKernel,
    dataset: Sequence[Any],
    replacements: Sequence[Any],
) -> float:
    """Constructive stability check: the largest TV distance between output
    laws across single-point replacements of the dataset."""
    base = tuple(dataset)
    base_law = kernel(base)
    worst = 0.0
    for i in range(len(base)):
        for repl in replacements:
            if repl == base[i]:
                continue
            neighbor = base[:i] + (repl,) + base[i + 1 :]
            worst = max(worst, tv_distance(base_law, kernel(neighbor)))
    return worst


# ---------------------------------------------------------------------------
# universal-CMI check for DP kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UcmiDpRow:
    ucmi_nats: float
    bound_nats: float
    ok: bool


@dataclass(frozen=True)
class UcmiDpReport:
    epsilon: float
    n: int
    rows: tuple[UcmiDpRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def ucmi_dp_check(
    kernel: AlgorithmKernel,
    candidates: Sequence[Supersample],
    tol: float = 1e-6,
) -> UcmiDpReport:
    """Verify ucmi(z) <= eps * n on each candidate supersample for a kernel
    carrying a pure-DP certificate."""
    cert = kernel.certificate
    if not isinstance(cert, StabilityCertificate) or cert.notion != "DP":
        raise ValueError("kernel carries no DP certificate")
    bound = float(cert.ucmi_bound())
    rows = []
    for ss in candidates:
        est = ucmi_fixed(ss, kernel)
        rows.append(UcmiDpRow(est.value, bound, est.value <= bound + tol))
    return UcmiDpReport(epsilon=cert.parameter, n=cert.n, rows=tuple(rows))


# ---------------------------------------------------------------------------
# uniform stability -> evaluated-CMI Gaussian surrogate
# ---------------------------------------------------------------------------


def ecmi_gaussian_bound(
    kernel: AlgorithmKernel,
    loss: Any,
    supersample: Supersample,
    sigma: float,
) -> tuple[Nats, Nats]:
    """Finite surrogate for the Gaussian-noised evaluated selection
    information of a uniformly stable deterministic algorithm.

    Computes exactly, over the uniform selector,

        (1 / 2 sigma^2) * sum_{i in [n], j in [2]} Var_S[ loss(A(z_S), z_ij) ]

    and returns it with the cap gamma^2 n^2 / (2 sigma^2), where gamma is
    the loss's certified uniform stability.  The replace-one-coordinate
    variance bound is evaluated explicitly as the middle link:
    Var <= (1/4) sum_k E[(f(S) - f(S xor e_k))^2] <= n gamma^2 / 2 per
    evaluation point, and the chain is asserted before returning.

    Kernels without a ``raw_map`` are rejected as stochastic; the
    construction derandomizes through the deterministic map s -> A(z_s).
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    gamma = getattr(loss, "uniform_stability", None)
    if gamma is None:
        raise ValueError("loss carries no certified uniform stability gamma")
    if not kernel.deterministic:
        raise ValueError("uniform stability applies to deterministic algorithms only")
    loss_eval = getattr(loss, "eval", loss)
    n = supersample.n
    outputs = [kernel.raw_map(ds) for ds in selected_datasets(supersample)]
    kernel.check_outputs(outputs)

    points = supersample.points()
    table = np.array(
        [[float(loss_eval(w, pt)) for pt in points] for w in outputs], dtype=float
    )  # [2^n, 2n]

    variances = table.var(axis=0)
    computed = float(variances.sum()) / (2.0 * sigma * sigma)

    size = 2**n
    steele = np.zeros(table.shape[1])
    for k in range(n):
        partner = np.arange(size) ^ (1 << k)
        steele += 0.25 * ((table - table[partner, :]) ** 2).mean(axis=0)
    steele_total = float(steele.sum()) / (2.0 * sigma * sigma)

    cap = gamma * gamma * n * n / (2.0 * sigma * sigma)
    if computed > steele_total + 1e-9:
        raise RuntimeError(
            f"variance {computed!r} exceeded its replace-one bound {steele_total!r}"
        )
    if steele_total > cap + 1e-9:
        raise RuntimeError(
            f"replace-one bound {steele_total!r} exceeded the stability cap {cap!r}; "
            "the certified gamma is too small for this loss"
        )
    return Nats(computed), Nats(cap)
