"""Concrete learning algorithms exposed as kernels.

* minimal-positive threshold learner on the real line (constant selection
  information, with an exact closed-form evaluator for its output entropy);
* noiseless parity learner over GF(2), returning the lexicographically
  smallest consistent parity;
* globally-consistent empirical risk minimizer over a finite hypothesis
  class with a canonical total order;
* a compression-scheme wrapper (choose k points, encode);
* a deliberately pathological ERM that hides its entire input dataset in
  the low-order decimal digits of an otherwise innocuous threshold -- the
  standard counterexample showing that low VC dimension alone does not
  keep selection information small.

Datasets are tuples of ``(x, y)`` pairs with bit labels.  All learners are
pure functions; the kernels built from them are deterministic.  The
threshold and parity kernels also declare their learner as a fold over the
points (``AlgorithmKernel.fold``), so the exact engines count their outputs
row by row instead of fitting once per selector, and declare themselves
exchangeable, so exact distributional CMI enumerates row multisets.  The
pathological kernel declares itself injective, so its CMI takes two fits.

Open problems deliberately not attempted here: whether every class of VC
dimension d admits an *approximate* empirical risk minimizer whose
selection information is O(d) with no log n factor (in the agnostic or the
realizable setting); only the exact globally-consistent ERM with its
d log n + 2 guarantee is implemented.  Noisy parity learning and infinite
hypothesis classes for the consistent ERM are likewise out of scope.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from .algkernel import AlgorithmKernel, Supersample
from .info_core import FiniteDistribution

LabeledPoint = tuple[Any, int]
Dataset = tuple[LabeledPoint, ...]


class NotRealizableError(ValueError):
    """The dataset is inconsistent with every hypothesis in the class."""


@dataclass(frozen=True, order=True)
class ConstantHypothesis:
    """Predicts the same bit everywhere."""

    bit: int

    def predict(self, x) -> int:
        return self.bit


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class ThresholdHypothesis:
    """Predicts 1 iff x >= t; ``t = inf`` is the constant-0 function.

    ``t`` may be a float or an exact ``Fraction`` (the pathological learner
    needs more digits than a double can hold).
    """

    t: Any

    def predict(self, x) -> int:
        return 1 if x >= self.t else 0

    def to_string(self) -> str:
        return threshold_to_string(self)


def threshold_learn(dataset: Sequence[LabeledPoint]) -> ThresholdHypothesis:
    """Threshold at the smallest positive example; all-zero if none exists.

    Consistent with the dataset whenever any threshold is.  Repeated x
    values are fine; the minimum stays well defined.  A positive at a NaN
    feature raises ValueError: it has no place in the order, and ``min``
    would return it or not depending on where it stands.
    """
    positives = [x for x, y in dataset if y == 1]
    if any(x != x for x in positives):
        raise ValueError("a positive example has a NaN feature")
    return ThresholdHypothesis(min(positives) if positives else math.inf)


def _threshold_step(t: Any, point: LabeledPoint) -> Any:
    # compares like ``min``: the first of equal positives is kept
    x, y = point
    if y == 1:
        if x != x:
            raise ValueError("a positive example has a NaN feature")
        if t is None or x < t:
            return x
    return t


def threshold_kernel() -> AlgorithmKernel:
    """The min-positive learner; its fold state is the smallest positive x
    so far, ``None`` before the first.  The minimum does not depend on the
    order of the points, so the kernel is exchangeable."""
    return AlgorithmKernel.deterministic_map(
        threshold_learn,
        name="threshold",
        fold=(None, _threshold_step, lambda t: ThresholdHypothesis(math.inf if t is None else t)),
        exchangeable=True,
    )


def threshold_selection_entropy(supersample: Supersample) -> float:
    """Exact output entropy of the min-positive threshold learner under a
    uniform selector, without enumerating the 2^n selectors.

    The output distribution is a truncated geometric over the sorted
    positive values: sweeping candidate values upward, the probability that
    no smaller positive has been selected is a product over rows of
    1, 1/2, or 0 factors (by how many of the row's two slots hold a smaller
    positive), so every output probability is an exact dyadic number.
    Matches ``cmi_exact_fixed`` on this kernel since it is deterministic.
    """
    n = supersample.n
    by_value: dict[Any, list[int]] = {}
    for i, row in enumerate(supersample.grid):
        for point in row:
            x, y = point
            if y == 1:
                by_value.setdefault(x, []).append(i)
    counts = [0] * n
    half = 0  # rows with exactly one smaller positive
    dead = 0  # rows with both slots already positive and smaller

    def survival() -> float:
        return 0.0 if dead else 2.0 ** (-half)

    probs: list[float] = []
    for value in sorted(by_value):
        no_smaller = survival()
        for i in by_value[value]:
            c = counts[i]
            if c == 0:
                half += 1
            elif c == 1:
                half -= 1
                dead += 1
            counts[i] = c + 1
        no_smaller_or_equal = survival()
        p = no_smaller - no_smaller_or_equal
        if p > 0.0:
            probs.append(p)
    tail = survival()  # no positive selected at all -> constant-0 output
    if tail > 0.0:
        probs.append(tail)
    return -sum(p * math.log(p) for p in probs)


# ---------------------------------------------------------------------------
# parities over GF(2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class ParityHypothesis:
    """Predicts <w, x> mod 2 for bit vectors x of length d."""

    w: tuple[int, ...]

    def predict(self, x: Sequence[int]) -> int:
        return sum(a & b for a, b in zip(self.w, x)) & 1

    def to_string(self) -> str:
        return "".join(str(b) for b in self.w)


def _bits_to_mask(bits: Sequence[int]) -> int:
    mask = 0
    for i, b in enumerate(bits):
        if b:
            mask |= 1 << i
    return mask


class _Gf2System:
    """Incremental GF(2) triangular system with rows kept as bit masks."""

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[int, int]] = {}

    def reduce(self, mask: int, rhs: int) -> tuple[int, int]:
        while mask:
            col = (mask & -mask).bit_length() - 1
            if col not in self.pivots:
                break
            pm, pr = self.pivots[col]
            mask ^= pm
            rhs ^= pr
        return mask, rhs

    def insert(self, mask: int, rhs: int) -> bool:
        """Add an equation; returns False on contradiction."""
        mask, rhs = self.reduce(mask, rhs)
        if mask == 0:
            return rhs == 0
        self.pivots[(mask & -mask).bit_length() - 1] = (mask, rhs)
        return True


def parity_learn(dataset: Sequence[LabeledPoint], d: int) -> ParityHypothesis:
    """The lexicographically smallest parity consistent with the dataset.

    Solves the GF(2) system x_i . w = y_i by Gaussian elimination on bit
    masks, then fixes coordinates greedily from w_1 onward, preferring 0
    whenever the remaining system stays consistent.  Raises
    :class:`NotRealizableError` if no parity fits.
    """
    system = _Gf2System()
    for x, y in dataset:
        if len(x) != d:
            raise ValueError(f"feature length {len(x)} != d={d}")
        if not system.insert(_bits_to_mask(x), int(y) & 1):
            raise NotRealizableError("dataset is not realizable by any parity")
    w: list[int] = []
    for j in range(d):
        mask, rhs = system.reduce(1 << j, 0)
        if mask == 0:
            w.append(rhs)  # coordinate already forced to rhs
        else:
            system.pivots[(mask & -mask).bit_length() - 1] = (mask, rhs)
            w.append(0)
    return ParityHypothesis(tuple(w))


def _odd_parities(x_mask: int, d: int) -> int:
    """Bit k set iff the k-th parity in lexicographic order is odd on x.

    Rank k holds w with w_j = bit d-1-j of k, so <w, x> is the parity of
    k & r, where r is x with its d bits reversed; each doubling step adds
    rank bit b, which flips the parity of every rank exactly when r has it.
    """
    odd = 0
    for b in range(d):
        width = 1 << b
        high = odd ^ ((1 << width) - 1) if x_mask >> (d - 1 - b) & 1 else odd
        odd |= high << width
    return odd


def parity_fold(d: int) -> tuple[int, Callable[[int, LabeledPoint], int], Callable[[int], ParityHypothesis]]:
    """``parity_learn`` as a fold: the state is the bit mask, over the 2^d
    parities in lexicographic order, of those consistent so far."""
    odd_on = functools.lru_cache(maxsize=None)(lambda x_mask: _odd_parities(x_mask, d))

    def step(consistent: int, point: LabeledPoint) -> int:
        if not consistent:  # parity_learn has already failed on an earlier point
            return 0
        x, y = point
        if len(x) != d:
            raise ValueError(f"feature length {len(x)} != d={d}")
        odd = odd_on(_bits_to_mask(x))
        return consistent & odd if int(y) & 1 else consistent & ~odd

    def finish(consistent: int) -> ParityHypothesis:
        if not consistent:
            raise NotRealizableError("dataset is not realizable by any parity")
        k = (consistent & -consistent).bit_length() - 1
        return ParityHypothesis(tuple(k >> (d - 1 - j) & 1 for j in range(d)))

    return (1 << 2**d) - 1, step, finish


#: parity kernels fold only up to this d: the fold state is a 2^d-bit mask.
PARITY_FOLD_MAX_D = 12


def parity_kernel(d: int) -> AlgorithmKernel:
    """The least consistent parity.  It depends only on the set of points,
    and whether a fit raises does not depend on their order, so the kernel
    is exchangeable; which exception a malformed dataset raises
    (``NotRealizableError`` or ``ValueError``) may."""
    return AlgorithmKernel.deterministic_map(
        lambda ds: parity_learn(ds, d),
        name=f"parity-d{d}",
        fold=parity_fold(d) if d <= PARITY_FOLD_MAX_D else None,
        exchangeable=True,
    )


def parity_population(w_star: Sequence[int]) -> FiniteDistribution:
    """Uniform distribution on labeled points (x, <w*, x> mod 2), x in {0,1}^d."""
    hyp = ParityHypothesis(tuple(int(b) for b in w_star))
    d = len(hyp.w)
    points = []
    for v in range(2**d):
        x = tuple((v >> i) & 1 for i in range(d))
        points.append((x, hyp.predict(x)))
    return FiniteDistribution.uniform(points)


def parity_collision_probability(d: int, n: int) -> float:
    """Exact probability that n uniform feature rows do not pin the parity
    down uniquely, i.e. that the n x d GF(2) feature matrix has rank < d."""
    prod = 1.0
    for i in range(d):
        prod *= 1.0 - 2.0 ** (i - n)
    return 1.0 - prod


# ---------------------------------------------------------------------------
# finite hypothesis classes and consistent ERM
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableHypothesis:
    """A 0/1 function on a finite domain, stored as its prediction row."""

    domain: tuple[Any, ...]
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.domain) != len(self.bits):
            raise ValueError("domain and prediction row differ in length")
        object.__setattr__(self, "_where", {x: i for i, x in enumerate(self.domain)})

    def predict(self, x) -> int:
        return self.bits[self._where[x]]  # type: ignore[attr-defined]

    def serialization(self) -> str:
        return "".join(str(b) for b in self.bits)


def _hypothesis_key(h: Any) -> str:
    ser = getattr(h, "serialization", None)
    return ser() if callable(ser) else repr(h)


@dataclass(frozen=True)
class HypothesisClass:
    """A finite class with a canonical total order (serialization order).

    Members are sorted on construction, so "the least hypothesis" is always
    well defined and reproducible.  When all members are
    :class:`TableHypothesis` over one shared domain, ERM runs on a cached
    prediction matrix.
    """

    members: tuple[Any, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.members, key=_hypothesis_key))
        if len({_hypothesis_key(h) for h in ordered}) != len(ordered):
            raise ValueError("hypothesis serializations are not distinct")
        object.__setattr__(self, "members", ordered)
        domain = None
        if ordered and all(isinstance(h, TableHypothesis) for h in ordered):
            domains = {h.domain for h in ordered}
            if len(domains) == 1:
                domain = next(iter(domains))
        object.__setattr__(self, "_domain", domain)
        if domain is not None:
            matrix = np.array([h.bits for h in ordered], dtype=np.int8)
            index = {x: i for i, x in enumerate(domain)}
            object.__setattr__(self, "_matrix", matrix)
            object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.members)

    def prediction_rows(self, points: Sequence[Any]) -> np.ndarray:
        """|class| x len(points) matrix of predictions."""
        if getattr(self, "_domain", None) is not None:
            cols = [self._index[x] for x in points]  # type: ignore[attr-defined]
            return self._matrix[:, cols]  # type: ignore[attr-defined]
        return np.array([[h.predict(x) for x in points] for h in self.members], dtype=np.int8)


def consistent_erm(cls: HypothesisClass, dataset: Sequence[LabeledPoint]) -> Any:
    """The order-least empirical 0-1 loss minimizer.

    Breaking ties toward the least member gives the global consistency
    property: relabeling any superset of the inputs by the returned
    hypothesis and rerunning returns that same hypothesis.
    """
    if not cls.members:
        raise ValueError("empty hypothesis class")
    xs = [x for x, _ in dataset]
    ys = np.array([y for _, y in dataset], dtype=np.int8)
    if len(xs) == 0:
        return cls.members[0]
    preds = cls.prediction_rows(xs)
    errors = (preds != ys[None, :]).sum(axis=1)
    return cls.members[int(np.argmin(errors))]


def erm_kernel(cls: HypothesisClass) -> AlgorithmKernel:
    return AlgorithmKernel.deterministic_map(
        lambda ds: consistent_erm(cls, ds), name="consistent-erm"
    )


def threshold_class(domain: Sequence[Any]) -> HypothesisClass:
    """All threshold labelings of a finite 1-D domain (VC dimension 1)."""
    pts = tuple(sorted(domain))
    cuts = list(pts) + [math.inf]
    rows = {tuple(1 if x >= t else 0 for x in pts) for t in cuts}
    return HypothesisClass(tuple(TableHypothesis(pts, row) for row in rows))


def interval_class(domain: Sequence[Any]) -> HypothesisClass:
    """All interval labelings 1[a <= x <= b] of a finite 1-D domain (VC 2)."""
    pts = tuple(sorted(domain))
    rows = {tuple(0 for _ in pts)}
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            rows.add(tuple(1 if i <= k <= j else 0 for k in range(len(pts))))
    return HypothesisClass(tuple(TableHypothesis(pts, row) for row in rows))


def labellings(cls: HypothesisClass, points: Sequence[Any]) -> set[tuple[int, ...]]:
    """The set of labelings of ``points`` realized by the class."""
    rows = cls.prediction_rows(points)
    return {tuple(int(v) for v in row) for row in rows}


def sauer_shelah_cap(m: int, d: int) -> int:
    """sum_{k<=d} C(m, k): the maximal number of labelings of m points by a
    class of VC dimension d."""
    return sum(math.comb(m, k) for k in range(min(d, m) + 1))


def vc_dimension(cls: HypothesisClass, points: Sequence[Any]) -> int:
    """Largest d such that some d-subset of ``points`` is shattered."""
    import itertools as _it

    best = 0
    for d in range(1, len(points) + 1):
        shattered = False
        for subset in _it.combinations(points, d):
            if len(labellings(cls, subset)) == 2**d:
                shattered = True
                break
        if not shattered:
            break
        best = d
    return best


# ---------------------------------------------------------------------------
# compression schemes
# ---------------------------------------------------------------------------


def compression_wrap(
    k: int,
    chooser: Callable[[Dataset], Sequence[int]],
    encoder: Callable[[tuple[Any, ...]], Any],
    name: str = "compression",
) -> AlgorithmKernel:
    """Kernel for a size-k compression scheme: keep the k chosen points,
    then encode them with an arbitrary function of those points alone."""

    def run(ds: Dataset) -> Any:
        idx = tuple(chooser(ds))
        if len(idx) != k:
            raise ValueError(f"chooser returned {len(idx)} indices, expected {k}")
        for i in idx:
            if not 0 <= i < len(ds):
                raise ValueError(f"chooser index {i} out of range for n={len(ds)}")
        return encoder(tuple(ds[i] for i in idx))

    return AlgorithmKernel.deterministic_map(run, name=name)


# ---------------------------------------------------------------------------
# pathological dataset-encoding ERM
# ---------------------------------------------------------------------------

GUARD_DIGITS = 6
_MAX_COORD_DIGITS = 6
_MAX_POINTS = 99
#: digits of the longest payload: marker, count and _MAX_POINTS points
_MAX_PAYLOAD_DIGITS = 3 + _MAX_POINTS * (_MAX_COORD_DIGITS + 1)


def _grid_int(x: Any, grid_decimals: int) -> int:
    scaled = float(x) * 10**grid_decimals
    xi = round(scaled)
    if abs(scaled - xi) > 1e-6:
        raise ValueError(f"{x!r} is not on the 10^-{grid_decimals} grid")
    if not 0 <= xi < 10**_MAX_COORD_DIGITS:
        raise ValueError(f"{x!r} outside the encodable coordinate range")
    return xi


def on_grid(x: Any, grid_decimals: int) -> bool:
    """Whether ``pathological_erm`` can encode the feature ``x``."""
    try:
        _grid_int(x, grid_decimals)
    except ValueError:
        return False
    return True


def _encode_payload(dataset: Dataset, grid_ints: Sequence[int]) -> tuple[int, int]:
    if len(dataset) > _MAX_POINTS:
        raise ValueError(f"can encode at most {_MAX_POINTS} points")
    digits = ["1", f"{len(dataset):02d}"]
    for (_, y), xi in zip(dataset, grid_ints):
        if y not in (0, 1):
            raise ValueError(f"labels must be bits, got {y!r}")
        digits.append(f"{xi:0{_MAX_COORD_DIGITS}d}{y:d}")
    payload = "".join(digits)
    return int(payload), len(payload)


def encode_dataset_below(
    base_int: int, dataset: Dataset, grid_decimals: int, grid_ints: Sequence[int] | None = None
) -> Fraction:
    """An exact threshold just below ``base_int * 10^-g`` whose decimal tail,
    after ``GUARD_DIGITS`` guard digits under the grid resolution, spells
    out the entire dataset.  ``grid_ints`` are the features already on the
    integer grid, when the caller has them."""
    if grid_ints is None:
        grid_ints = [_grid_int(x, grid_decimals) for x, _ in dataset]
    payload, length = _encode_payload(dataset, grid_ints)
    # base * 10^-g - payload * 10^-(g + guard + length), reduced once
    shift = 10 ** (GUARD_DIGITS + length)
    return Fraction(base_int * shift - payload, 10**grid_decimals * shift)


def decode_dataset(t: Fraction, grid_decimals: int) -> Dataset:
    """Invert :func:`encode_dataset_below`, recovering the encoded dataset."""
    if not isinstance(t, Fraction):
        raise TypeError("decoding needs the exact Fraction threshold")
    base = math.ceil(t * 10**grid_decimals)
    delta = Fraction(base, 10**grid_decimals) - t
    frac = delta * 10 ** (grid_decimals + GUARD_DIGITS)
    if not 0 < frac < 1:
        raise ValueError("threshold carries no payload")
    digits: list[str] = []
    while frac:
        if len(digits) == _MAX_PAYLOAD_DIGITS:
            raise ValueError(f"threshold payload runs past {_MAX_PAYLOAD_DIGITS} digits")
        frac *= 10
        d = int(frac)
        digits.append(str(d))
        frac -= d
    # the exact expansion ends at the payload's last nonzero digit; a
    # trailing label 0 (or point (0, 0)) leaves zeros to restore
    text = "".join(digits).ljust(3, "0")
    if text[0] != "1":
        raise ValueError("payload marker missing")
    count = int(text[1:3])
    width = _MAX_COORD_DIGITS + 1
    text = text.ljust(3 + count * width, "0")
    out: list[LabeledPoint] = []
    pos = 3
    for _ in range(count):
        chunk = text[pos : pos + width]
        xi = int(chunk[:_MAX_COORD_DIGITS])
        y = int(chunk[_MAX_COORD_DIGITS])
        out.append((xi / 10**grid_decimals, y))
        pos += width
    return tuple(out)


def pathological_erm(
    dataset: Sequence[LabeledPoint], *, grid_decimals: int = 2
) -> ThresholdHypothesis:
    """An empirical-risk-minimizing threshold that leaks its whole input.

    Among all cut points achieving minimal empirical 0-1 loss it takes the
    smallest, then moves it down by less than one grid step so that the
    low-order decimal digits encode the dataset.  Predictions on grid
    points are untouched, so it is still an ERM and still returns a
    zero-loss threshold whenever one exists; but distinct datasets now map
    to distinct outputs, which drives the selection information to its
    ceiling despite the class having VC dimension 1.
    """
    ds = tuple((x, int(y)) for x, y in dataset)
    if not ds:
        raise ValueError("pathological_erm needs at least one point")
    ints = [_grid_int(x, grid_decimals) for x, _ in ds]
    # moving the cut from one grid value past the next turns that value's
    # points from predicted 1 to predicted 0: +1 error per label 1, -1 per 0
    shift: dict[int, int] = {}
    for xi, (_, y) in zip(ints, ds):
        shift[xi] = shift.get(xi, 0) + (1 if y == 1 else -1)
    cuts = sorted(shift)
    errors = best_errors = sum(1 for _, y in ds if y != 1)  # cut at the least value
    best = cuts[0]
    for c, nxt in zip(cuts, cuts[1:] + [cuts[-1] + 1]):
        errors += shift[c]
        if errors < best_errors:
            best, best_errors = nxt, errors
    t = encode_dataset_below(best, ds, grid_decimals, ints)
    return ThresholdHypothesis(t)


def pathological_kernel(grid_decimals: int = 2) -> AlgorithmKernel:
    """The dataset-encoding ERM, declared injective up to a point's grid
    integer and bit label: its payload spells out exactly those, in order,
    so near-equal features on one grid cell give equal outputs.  Every fit
    raises on a bad point or size, which one of a supersample's two corner
    datasets always holds."""
    return AlgorithmKernel.deterministic_map(
        lambda ds: pathological_erm(ds, grid_decimals=grid_decimals),
        name="pathological-threshold",
        injective=lambda point: (_grid_int(point[0], grid_decimals), int(point[1])),
    )


def pathological_selection_entropy(supersample: Supersample) -> float:
    """Exact output entropy of the dataset-encoding ERM under a uniform
    selector, without enumerating selectors.

    The encoded payload determines the ordered input dataset, so outputs
    collide exactly when the selected datasets coincide; two selectors give
    the same dataset iff they agree on every row whose two entries differ.
    Hence H = (#rows with distinct entries) * log 2.  Entries are compared
    as points, so two features on one grid cell with one label count as
    distinct here, though the learner encodes them alike; the engine's
    injective path compares (grid int, label) keys and is exact there.
    """
    distinct_rows = sum(1 for a, b in supersample.grid if a != b)
    return distinct_rows * math.log(2.0)


# ---------------------------------------------------------------------------
# dataset I/O and hypothesis serialization
# ---------------------------------------------------------------------------


def dataset_from_csv(path: str) -> Dataset:
    """Rows are feature columns followed by a final bit label; a single
    feature column stays scalar, several become a tuple."""
    out: list[LabeledPoint] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            *xs, y = row
            feats = tuple(float(v) for v in xs)
            out.append((feats[0] if len(feats) == 1 else feats, int(y)))
    return tuple(out)


def dataset_from_json(source: str | list) -> Dataset:
    obj = json.loads(source) if isinstance(source, str) else source
    out: list[LabeledPoint] = []
    for x, y in obj:
        out.append((tuple(x) if isinstance(x, list) else x, int(y)))
    return tuple(out)


def threshold_to_string(h: ThresholdHypothesis) -> str:
    """Thresholds serialize as exact decimal strings."""
    t = h.t
    if t == math.inf:
        return "inf"
    if isinstance(t, Fraction):
        den = t.denominator
        k = 0
        while den % 2 == 0:
            den //= 2
            k += 1
        fives = 0
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den != 1:
            raise ValueError("threshold has no terminating decimal expansion")
        k = max(k, fives)
        scaled = t * 10**k
        whole, rem = divmod(scaled.numerator, scaled.denominator)
        if rem:
            raise RuntimeError("scaling failed to clear the denominator")
        text = str(whole).rjust(k + 1, "0")
        return text[:-k] + "." + text[-k:] if k else text
    return repr(float(t))


def threshold_from_string(s: str) -> ThresholdHypothesis:
    if s == "inf":
        return ThresholdHypothesis(math.inf)
    if "." in s and len(s.split(".")[1]) > 17:
        whole, frac = s.split(".")
        return ThresholdHypothesis(Fraction(int(whole + frac), 10 ** len(frac)))
    return ThresholdHypothesis(float(s))


def parity_to_string(h: ParityHypothesis) -> str:
    return h.to_string()


def parity_from_string(s: str) -> ParityHypothesis:
    return ParityHypothesis(tuple(int(c) for c in s))
