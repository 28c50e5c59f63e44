"""Supersample model and the exact / Monte-Carlo engines for CMI variants.

The central object is a ghost-sample array ("supersample") of shape n x 2
together with a selector bitstring s in {0,1}^n that picks one point per
row; ``select`` returns the chosen half, and the complement selector yields
the other half.  An algorithm enters as an :class:`AlgorithmKernel`: an
explicit, deterministic map from an n-point dataset to a finite output
distribution.  That representation makes the conditional law of the output
given the selector available in full, so the selection information

    I(A(z_s); S),   S uniform on {0,1}^n

can be computed exactly by enumerating the 2^n selectors -- or, for a
deterministic kernel that declares a fold over its input points, by
counting its outputs row by row over the distinct fold states, with the
same integer counts; or, for a kernel that declares itself a product over
positions (``rows``), as the sum of one-row values; or, for a kernel that
declares itself injective (``injective``), as log 2 per row whose two
entries differ.  On top of that single primitive the module builds:

* ``cmi_exact_fixed``        -- exact value for one fixed supersample;
* ``cmi_distributional``     -- expectation over supersamples, exact by
  enumerating a finite point distribution's supersamples up to row swaps
  (and, for an ``exchangeable`` kernel, row permutations) or by Monte Carlo
  with a 95% normal-approximation confidence interval;
* ``cmi_distribution_free``  -- a max over caller-supplied candidate
  supersamples, flagged as a lower bound on the true supremum;
* ``ucmi_fixed``             -- the worst case over *all* selector laws,
  which equals the capacity of the channel s -> A(z_s): log of the reachable
  output count for a deterministic kernel, a sum of one-row capacities for
  a product kernel, else solved by Blahut-Arimoto on the channel's sparse
  rows with a monotone lower-bound bracket;
* ``ecmi_fixed``             -- the evaluated variant, where outputs are
  first pushed through a loss table over all 2n supersample points;
* ``compose_pair`` / ``compose_adaptive`` / ``postprocess`` -- kernel
  combinators matching the composition and data-processing behavior of the
  quantities above.

Kernels are immutable and the engines hold no shared mutable state.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._seeding import derive_seed
from .info_core import LOG2, FiniteDistribution, Nats

#: exact selector enumeration refuses beyond this many selectors.
SELECTOR_CAP = 2**20

#: exact supersample enumeration refuses beyond this many supersamples.
ENUMERATION_CAP = 10**7

#: Monte-Carlo CMI refuses fewer trials than this.
MIN_MC_TRIALS = 10

#: 95% two-sided normal quantile used for every confidence interval.
Z_95 = 1.959963984540054


class ExactEnumerationError(ValueError):
    """Raised when an exact computation would exceed its enumeration cap.

    Callers should fall back to Monte Carlo explicitly; the engines never
    downgrade on their own.
    """


class ConvergenceError(RuntimeError):
    """Blahut-Arimoto failed to close its capacity bracket in time."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


# ---------------------------------------------------------------------------
# supersamples and selectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Supersample:
    """An n x 2 array of data points; column 0/1 of row i are the two
    candidates for training position i."""

    grid: tuple[tuple[Any, Any], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.grid)
        if len(rows) < 1:
            raise ValueError("supersample needs at least one row")
        if any(len(row) != 2 for row in rows):
            raise ValueError("every supersample row must have exactly 2 entries")
        object.__setattr__(self, "grid", rows)

    @property
    def n(self) -> int:
        return len(self.grid)

    def points(self) -> tuple[Any, ...]:
        """All 2n points, row-major."""
        return tuple(p for row in self.grid for p in row)

    def to_json_obj(self) -> list:
        return [list(row) for row in self.grid]

    @classmethod
    def from_json_obj(cls, obj: Sequence[Sequence[Any]]) -> "Supersample":
        return cls(tuple((row[0], row[1]) for row in obj))


@dataclass(frozen=True)
class Selector:
    """A bitstring s in {0,1}^n choosing one point per supersample row."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"selector bits must be 0/1, got {bits!r}")
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    def complement(self) -> "Selector":
        return Selector(tuple(1 - b for b in self.bits))

    @classmethod
    def from_int(cls, value: int, n: int) -> "Selector":
        return cls(tuple((value >> i) & 1 for i in range(n)))


def all_selectors(n: int) -> Iterator[Selector]:
    for v in range(2**n):
        yield Selector.from_int(v, n)


def select(supersample: Supersample, selector: Selector) -> tuple[Any, ...]:
    """The dataset indexed by the selector: entry i is grid[i][bits[i]]."""
    if selector.n != supersample.n:
        raise ValueError(
            f"selector length {selector.n} != supersample rows {supersample.n}"
        )
    return tuple(row[b] for row, b in zip(supersample.grid, selector.bits))


# ---------------------------------------------------------------------------
# algorithm kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgorithmKernel:
    """An algorithm as an explicit map dataset -> finite output distribution.

    ``evaluate`` must be deterministic *as a map to distributions*: the same
    dataset always yields the identical table.  ``output_universe`` is the
    label set W when it is finite and known; ``None`` means the reachable
    output set is discovered per supersample (necessary e.g. for learners
    whose outputs are data-dependent real thresholds).  ``raw_map`` is the
    same algorithm as a dataset -> label function, set only when there is no
    randomness; the engines then count labels instead of building a table
    per dataset.  ``deterministic`` is derived: it is ``raw_map is not None``.

    ``fold = (init, step, finish)`` optionally gives ``raw_map`` as a fold
    over the dataset's points: for every dataset z_1..z_n,
    ``finish(step(...step(init, z_1)..., z_n)) == raw_map(z)``, raising the
    same exception type where ``raw_map`` raises.  States must be hashable.
    The exact engines then count labels by a row-by-row pass over the
    distinct states instead of 2^n fits.

    ``rows = (row_kernel, n)`` optionally declares the kernel a product
    over positions: ``evaluate`` accepts only datasets of size n, and for
    each such z ``evaluate(z)`` is the product law of ``row_kernel((z_i,))``
    over i, with labels the tuples (w_1, ..., w_n).  The selector bits and
    the output positions then pair up into independent channels, so CMI and
    UCMI are sums of one-row values, each computed on ``Supersample((row,))``
    with ``row_kernel`` (whose universe checks the outputs), after checking
    that the supersample has n rows.  The engines read ``rows`` instead of
    ``evaluate``, so a copy that replaces ``evaluate`` must replace ``rows``
    too, or set it to None.  Build such kernels with :meth:`product`.

    ``injective = key`` optionally declares ``raw_map`` injective on ordered
    datasets up to ``key(point)``: for datasets z, z' of one size on which
    it returns, ``raw_map(z) == raw_map(z')`` exactly when
    ``key(z_i)`` and ``key(z'_i)`` are equal as dict keys at every position
    i.  ``raw_map`` must also raise on some dataset selected from a
    supersample only if it raises on one of the two corner datasets (all
    column 0, all column 1).  The 2^k outputs, k the number of rows whose
    entries have different keys, are then equally likely, so CMI and UCMI
    are k log 2 in O(n): the engines fit the two corners and take the keys,
    and if any of that raises they take the ordered path, which raises what
    brute force raises.  ECMI still counts.  The declaration needs a
    ``raw_map`` and no ``output_universe``, since no output but the
    corners' is built to check.

    ``exchangeable = True`` declares that the output does not depend on the
    order of the dataset's points: for every permutation of z, ``raw_map``
    (or ``evaluate``, for a stochastic kernel) returns the same output (the
    same law) as on z, or both raise.  The exception types may differ.
    Exact distributional CMI then enumerates multisets of rows, and still
    raises what ordered enumeration raises (see :func:`cmi_distributional`).

    ``dataclasses.replace`` keeps ``fold``, ``rows``, ``injective`` and
    ``exchangeable``, so a copy that replaces ``raw_map`` or ``evaluate``
    must replace them too, or reset them.  The combinators build fresh
    kernels and so drop every declaration.
    """

    evaluate: Callable[[tuple[Any, ...]], FiniteDistribution]
    output_universe: tuple[Any, ...] | None = None
    name: str = ""
    certificate: Any = None
    raw_map: Callable[[tuple[Any, ...]], Any] | None = None
    fold: tuple[Any, Callable[[Any, Any], Any], Callable[[Any], Any]] | None = None
    rows: tuple[AlgorithmKernel, int] | None = None
    injective: Callable[[Any], Any] | None = None
    exchangeable: bool = False

    def __post_init__(self) -> None:
        if self.fold is not None and self.raw_map is None:
            raise ValueError("a fold needs the raw_map it folds")
        if self.injective is not None and (self.raw_map is None or self.output_universe is not None):
            raise ValueError("an injective declaration needs a raw_map and no output_universe")
        universe = None if self.output_universe is None else frozenset(self.output_universe)
        object.__setattr__(self, "_universe", universe)

    @property
    def deterministic(self) -> bool:
        return self.raw_map is not None

    def check_outputs(self, labels: Iterable[Any]) -> None:
        """Raise ValueError if any label lies outside ``output_universe``."""
        universe = self._universe  # type: ignore[attr-defined]
        stray = [] if universe is None else [lab for lab in labels if lab not in universe]
        if stray:
            raise ValueError(f"kernel output outside universe: {stray[:3]!r}")

    def __call__(self, dataset: tuple[Any, ...]) -> FiniteDistribution:
        dist = self.evaluate(tuple(dataset))
        self.check_outputs(dist.support())
        return dist

    @classmethod
    def deterministic_map(
        cls,
        fn: Callable[[tuple[Any, ...]], Any],
        output_universe: tuple[Any, ...] | None = None,
        name: str = "",
        certificate: Any = None,
        fold: tuple[Any, Callable[[Any, Any], Any], Callable[[Any], Any]] | None = None,
        injective: Callable[[Any], Any] | None = None,
        exchangeable: bool = False,
    ) -> "AlgorithmKernel":
        """Wrap a deterministic dataset -> label function, optionally with its
        fold, injective key and exchangeability (see the class docstring),
        as a kernel."""
        return cls(
            evaluate=lambda ds: FiniteDistribution.point_mass(fn(ds)),
            output_universe=output_universe,
            name=name,
            certificate=certificate,
            raw_map=fn,
            fold=fold,
            injective=injective,
            exchangeable=exchangeable,
        )

    @classmethod
    def product(
        cls,
        rows: "AlgorithmKernel",
        n: int,
        name: str = "",
        certificate: Any = None,
    ) -> "AlgorithmKernel":
        """The kernel releasing ``rows((z_i,))`` independently at every
        position i of a size-n dataset, declared through ``rows``.
        ``evaluate`` lists the product atoms with position 0 varying
        fastest."""

        def evaluate(ds: tuple[Any, ...]) -> FiniteDistribution:
            if len(ds) != n:
                raise ValueError(f"dataset size {len(ds)} != n={n}")
            laws = [[(w, m) for w, m in rows((z,)).atoms if m > 0.0] for z in reversed(ds)]
            atoms = []
            for combo in itertools.product(*laws):
                mass = 1.0
                for _, m in combo:
                    mass *= m
                atoms.append((tuple(w for w, _ in reversed(combo)), mass))
            return FiniteDistribution(tuple(atoms))

        return cls(evaluate=evaluate, name=name, certificate=certificate, rows=(rows, n))

    @classmethod
    def constant(cls, label: Any = "w0") -> "AlgorithmKernel":
        return cls.deterministic_map(
            lambda ds: label, output_universe=(label,), name="constant", exchangeable=True
        )

    @classmethod
    def reveal_all(cls) -> "AlgorithmKernel":
        """Outputs its entire input dataset; the canonical maximal-CMI kernel."""
        return cls.deterministic_map(lambda ds: ds, name="reveal-all", injective=lambda point: point)


@dataclass(frozen=True)
class CmiEstimate:
    """A CMI-family value in nats with its estimation metadata.

    ``method`` is ``"exact"`` (ci_halfwidth must be 0) or ``"monte-carlo"``.
    ``lower_bound`` marks candidate-maximum results that only bound a
    supremum from below; it is advisory and not serialized.
    """

    value: float
    method: str
    ci_halfwidth: float = 0.0
    trials: int = 0
    seed: int | None = None
    lower_bound: bool = False

    #: (wire key, field) pairs, in wire order
    JSON_FIELDS = (("value_nats", "value"), ("method", "method"), ("ci", "ci_halfwidth"), ("trials", "trials"), ("seed", "seed"))

    def __post_init__(self) -> None:
        if self.method not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "exact" and self.ci_halfwidth != 0.0:
            raise ValueError("exact estimates carry no confidence interval")
        if self.ci_halfwidth < 0.0:
            raise ValueError("negative ci_halfwidth")
        object.__setattr__(self, "value", float(Nats(self.value, slop=1e-9)))

    def to_json_obj(self) -> dict:
        return {key: getattr(self, name) for key, name in self.JSON_FIELDS}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "CmiEstimate":
        return cls(**{name: obj[key] for key, name in cls.JSON_FIELDS})


def sampling_table(dist: FiniteDistribution) -> tuple[tuple[Any, ...], np.ndarray]:
    """The labels of ``dist`` with their masses renormalized for ``rng.choice``."""
    labels = dist.labels()
    masses = np.array([dist.mass(lab) for lab in labels], dtype=float)
    return labels, masses / masses.sum()


@dataclass(frozen=True)
class SupersampleSampler:
    """Draws supersamples distributed as D^{n x 2} from a derived seed.

    D is a finite point distribution, so exact full enumeration over
    supp(D)^{2n} is also available to the engines.
    """

    n: int
    point_distribution: FiniteDistribution

    def __post_init__(self) -> None:
        object.__setattr__(self, "_table", sampling_table(self.point_distribution))

    def draw(self, seed: int) -> Supersample:
        labels, masses = self._table  # type: ignore[attr-defined]
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(labels), size=(self.n, 2), p=masses)
        return Supersample(tuple((labels[i], labels[j]) for i, j in idx))

    @classmethod
    def from_distribution(cls, dist: FiniteDistribution, n: int) -> "SupersampleSampler":
        return cls(n=n, point_distribution=dist)


# ---------------------------------------------------------------------------
# exact engine
# ---------------------------------------------------------------------------


def _check_selector_cap(n: int, cap: int = SELECTOR_CAP) -> None:
    if 2**n > cap:
        raise ExactEnumerationError(
            f"2^{n} selector states exceed the cap of {cap}; "
            "too large for exact computation, use Monte Carlo over selectors "
            "or a structure-specific evaluator"
        )


def selected_datasets(supersample: Supersample, cap: int = SELECTOR_CAP) -> Iterator[tuple]:
    """The 2^n selected datasets z_s, selectors s in integer order (bit i of
    s picks the column of row i), after checking the cap.  Every exact
    engine enumerates selectors through this generator."""
    _check_selector_cap(supersample.n, cap)
    # product varies its last factor fastest; feeding the rows reversed makes
    # row 0, the lowest selector bit, the fastest-varying entry
    return (ds[::-1] for ds in itertools.product(*reversed(supersample.grid)))


@dataclass(frozen=True, eq=False)
class ChannelRows:
    """A row-stochastic matrix by its nonzero entries, in CSR form: row x
    holds ``masses[indptr[x]:indptr[x + 1]]`` at columns
    ``indices[indptr[x]:indptr[x + 1]]``, out of ``columns`` columns."""

    indptr: np.ndarray
    indices: np.ndarray
    masses: np.ndarray
    columns: int

    def dense(self) -> np.ndarray:
        mat = np.zeros((len(self.indptr) - 1, self.columns))
        mat[self.row_of(), self.indices] = self.masses
        return mat

    def row_of(self) -> np.ndarray:
        """The row index of every stored entry."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))


def channel_rows(
    supersample: Supersample, kernel: AlgorithmKernel
) -> tuple[ChannelRows, list[Any]]:
    """Conditional law P(w | s) as sparse rows over the reachable outputs.

    Rows are selectors in integer order, streamed from
    :func:`selected_datasets`; columns are output labels in first
    encountered order (deterministic because selectors are enumerated in a
    fixed order).  Only the positive masses are stored.
    """
    columns: dict[Any, int] = {}
    indptr = [0]
    indices: list[int] = []
    masses: list[float] = []
    for ds in selected_datasets(supersample):
        for label, mass in kernel.evaluate(ds).atoms:
            if mass > 0.0:
                indices.append(columns.setdefault(label, len(columns)))
                masses.append(mass)
        indptr.append(len(indices))
    kernel.check_outputs(columns)
    rows = ChannelRows(
        np.array(indptr), np.array(indices, dtype=np.intp), np.array(masses, dtype=float), len(columns)
    )
    return rows, list(columns)


def channel_matrix(
    supersample: Supersample, kernel: AlgorithmKernel
) -> tuple[np.ndarray, list[Any]]:
    """:func:`channel_rows` as a dense 2^n x |W_reachable| matrix."""
    rows, outputs = channel_rows(supersample, kernel)
    return rows.dense(), outputs


def _merged(pairs: Iterable[tuple[Any, float]], key: Callable[[Any], Any]) -> dict[Any, float]:
    acc: dict[Any, float] = {}
    for label, mass in pairs:
        k = key(label)
        acc[k] = acc.get(k, 0) + mass
    return acc


def _fold_label_counts(
    supersample: Supersample, kernel: AlgorithmKernel, cap: int
) -> dict[Any, int]:
    """Label counts by folding the kernel's state over the rows.

    After row i, ``states`` maps each reachable state to the number of
    partial selectors (bits 0..i) reaching it; every state branches once per
    column and equal states merge.  Branching column 0 of every state before
    column 1 visits the partial selectors in increasing order, so each dict
    stays ordered by the least selector reaching its key: the labels come
    back in the order in which enumerating selectors in integer order first
    meets them.
    """
    init, step, finish = kernel.fold  # type: ignore[misc]
    states: dict[Any, int] = {init: 1}
    for i, row in enumerate(supersample.grid):
        merged: dict[Any, int] = {}
        for point in row:
            for state, count in states.items():
                nxt = step(state, point)
                merged[nxt] = merged.get(nxt, 0) + count
        if len(merged) > cap:
            raise ExactEnumerationError(
                f"{len(merged)} fold states after row {i} exceed the cap of {cap}; "
                "too large for exact computation, use Monte Carlo over supersamples"
            )
        states = merged
    labels: dict[Any, int] = {}
    for state, count in states.items():
        label = finish(state)
        labels[label] = labels.get(label, 0) + count
    return labels


def _label_counts(
    supersample: Supersample, kernel: AlgorithmKernel, cap: int = SELECTOR_CAP
) -> dict[Any, int]:
    """{label: number of selectors s with raw_map(z_s) == label} for a
    deterministic kernel, labels in the order selectors in integer order
    first reach them.  Uses the kernel's fold when it declares one (``cap``
    then bounds the states held after any row), else one fit per selector
    (``cap`` bounds 2^n)."""
    if kernel.fold is not None:
        counts = _fold_label_counts(supersample, kernel, cap)
    else:
        counts = {}
        fetch = kernel.raw_map
        for ds in selected_datasets(supersample, cap):
            label = fetch(ds)  # type: ignore[misc]
            counts[label] = counts.get(label, 0) + 1
    kernel.check_outputs(counts)
    return counts


def _row_kernel(supersample: Supersample, kernel: AlgorithmKernel) -> AlgorithmKernel:
    """The one-row kernel of a product kernel, after checking that the
    supersample has the n rows its ``evaluate`` accepts."""
    row_kernel, n = kernel.rows  # type: ignore[misc]
    if supersample.n != n:
        raise ValueError(f"dataset size {supersample.n} != n={n}")
    return row_kernel


def _row_sum(
    supersample: Supersample, one_row: Callable[[Supersample], tuple[float, int]]
) -> tuple[float, int]:
    """(sum of values, product of reachable counts) of ``one_row`` over the
    one-row supersamples of ``supersample``, each distinct row computed once.
    For a product kernel these are its value and reachable output count."""
    per_row: dict[tuple[Any, Any], tuple[float, int]] = {}
    value, reachable = 0.0, 1
    for row in supersample.grid:
        if row not in per_row:
            per_row[row] = one_row(Supersample((row,)))
        row_value, row_reachable = per_row[row]
        value += row_value
        reachable *= row_reachable
    return value, reachable


def _injective_value(supersample: Supersample, kernel: AlgorithmKernel) -> tuple[float, int] | None:
    """(k log 2, 2^k) for an injective kernel, k the number of rows whose two
    entries have different keys: its uniform-selector information and its
    capacity, with the reachable output count.  None when a corner fit or a
    key raises, so that the caller's ordered path raises what brute force
    raises."""
    key, fit = kernel.injective, kernel.raw_map
    try:
        for column in (0, 1):
            fit(tuple(row[column] for row in supersample.grid))  # type: ignore[misc]
        # a set compares keys as the label counts' dict compares outputs
        k = sum(1 for a, b in supersample.grid if len({key(a), key(b)}) == 2)  # type: ignore[misc]
    except Exception:  # noqa: BLE001 - the ordered path raises it again
        return None
    return k * LOG2, 2**k


def _selection_information(
    supersample: Supersample,
    kernel: AlgorithmKernel,
    relabel: Callable[[Any], Any] | None = None,
    *,
    selector_cap: int = SELECTOR_CAP,
) -> tuple[float, int]:
    """I(relabel(A(z_S)); S) for a uniform selector, with the number of
    reachable (relabeled) outputs.

    Computed as H(marginal) - mean_s H(P(. | s)), holding only the marginal:
    O(|W|) memory.  A kernel with a ``raw_map`` takes its marginal from
    :func:`_label_counts` as exact integer counts (its rows have zero
    entropy); any other kernel adds its probability row per selector.
    ``relabel`` merges outputs by a deterministic key before the entropies
    are taken.  Without ``relabel``, a product kernel's value is the sum of
    its one-row values (independent selector bits feed independent rows),
    and an injective kernel's is log 2 per row with two distinct keys.
    """
    if relabel is None and kernel.rows is not None:
        rows = _row_kernel(supersample, kernel)
        return _row_sum(supersample, lambda ss: _selection_information(ss, rows))
    if relabel is None and kernel.injective is not None:
        reduced = _injective_value(supersample, kernel)
        if reduced is not None:
            return reduced
    total = 2**supersample.n
    marginal: dict[Any, float]
    row_entropy = 0.0
    if kernel.raw_map is not None:
        marginal = _label_counts(supersample, kernel, selector_cap)  # type: ignore[assignment]
    else:
        marginal = {}
        for ds in selected_datasets(supersample, selector_cap):
            row = [(label, mass) for label, mass in kernel.evaluate(ds).atoms if mass > 0.0]
            for label, mass in row:
                marginal[label] = marginal.get(label, 0.0) + mass
            masses = row if relabel is None else _merged(row, relabel).items()
            row_entropy -= sum(mass * math.log(mass) for _, mass in masses)
        kernel.check_outputs(marginal)
    if relabel is not None:
        marginal = _merged(marginal.items(), relabel)
    value = 0.0
    for mass in marginal.values():
        p = mass / total
        value -= p * math.log(p)
    return value - row_entropy / total, len(marginal)


def cmi_exact_fixed(
    supersample: Supersample,
    kernel: AlgorithmKernel,
    *,
    selector_cap: int = SELECTOR_CAP,
) -> CmiEstimate:
    """Exact selection information I(A(z_s); S) for one fixed supersample.

    Enumerates all 2^n selectors, or for a kernel with a fold its states row
    by row (``selector_cap`` then caps the states held), or for a product
    kernel the two selectors of each distinct row, or for an injective
    kernel only its two corner datasets (no cap applies).  For deterministic
    kernels this reduces to the entropy of the output under a uniform
    selector; in general it is H(output) - H(output | S) accumulated from
    the kernel's distribution tables.
    """
    value, reachable = _selection_information(supersample, kernel, selector_cap=selector_cap)
    _validate_cmi_value(value, supersample.n, reachable)
    return CmiEstimate(value=value, method="exact")


def _validate_cmi_value(value: float, n: int, reachable: int) -> None:
    """The one range check on every CMI-family value an engine returns:
    0 <= value <= min(n log 2, log reachable); ``reachable`` 0 means the
    output count is unknown."""
    if value < -1e-9:
        raise RuntimeError(f"negative selection information {value!r}")
    if value > n * LOG2 + 1e-9:
        raise RuntimeError(f"selection information {value!r} exceeds n log 2")
    if reachable >= 1 and value > math.log(max(reachable, 1)) + 1e-10:
        raise RuntimeError(
            f"selection information {value!r} exceeds log of {reachable} reachable outputs"
        )


def monte_carlo_mean(
    evaluator: Callable[[Supersample], float],
    sampler: SupersampleSampler,
    trials: int,
    seed: int,
) -> tuple[float, float, np.ndarray]:
    """Average an exact per-supersample evaluator over sampled supersamples.

    Returns (mean, 95% CI halfwidth, per-trial values).  Trial t draws with
    seed ``derive_seed(seed, t)`` so the result is independent of scheduling.
    """
    values = np.empty(trials)
    for t in range(trials):
        values[t] = evaluator(sampler.draw(derive_seed(seed, t)))
    return (*mean_ci(values), values)


def mean_ci(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its normal-approximation 95% CI halfwidth."""
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return float(values.mean()), Z_95 * sd / math.sqrt(values.size)


def weighted_supersamples(
    support: Sequence[tuple[Any, float]], n: int, exchangeable: bool = False
) -> Iterator[tuple[Supersample, float]]:
    """The n-row supersamples over the s (point, mass) pairs of ``support``
    up to symmetry, one per class with the class's probability under
    D^{n x 2}, in lexicographic order of support indices.

    Rows are unordered pairs, s(s+1)/2 row types: the row (a, b), a before
    b in ``support``, stands for both of its orders, weight 2 m_a m_b, and
    a row (a, a) weighs m_a^2.  ``exchangeable`` further yields one sorted
    supersample per multiset of row types, weighted by its integer count of
    orderings (multinomial times 2 per row of two distinct points) times
    its masses.  Each yielded supersample is the lexicographically least
    member of its class.  Selection information is constant on a class
    (row swaps relabel the selector; row permutations too, for an
    exchangeable kernel), so the weighted sum is the expectation over
    D^{n x 2}.
    """
    row_types = [
        ((a, b), ma * mb, 1 if i == j else 2)
        for i, (a, ma) in enumerate(support)
        for j, (b, mb) in enumerate(support)
        if i <= j
    ]
    picks = range(len(row_types))
    classes = itertools.combinations_with_replacement(picks, n) if exchangeable else itertools.product(picks, repeat=n)
    for combo in classes:
        count = 1
        if exchangeable:
            count = math.factorial(n)
            for _, same in itertools.groupby(combo):
                count //= math.factorial(len(list(same)))
        mass = 1.0
        for t in combo:
            mass *= row_types[t][1]
            count *= row_types[t][2]
        yield Supersample(tuple(row_types[t][0] for t in combo)), count * mass


def cmi_distributional(
    kernel: AlgorithmKernel,
    sampler: SupersampleSampler,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
    *,
    evaluator: Callable[[Supersample], float] | None = None,
) -> CmiEstimate:
    """CMI with respect to a distribution: E over supersamples of the exact
    per-supersample selection information.

    ``mode="exact"`` sums over the supersamples of supp(D)^{2n}, available
    only when their count fits the cap.  Swapping a row's two entries only
    relabels the selector, so it leaves the inner value unchanged for every
    kernel; permuting the rows leaves it unchanged for an ``exchangeable``
    one.  The sum therefore runs over :func:`weighted_supersamples`, one
    representative per class with the class's probability.  Errors are
    those of ordered enumeration: a class's representative is its
    lexicographically least member, and it raises exactly when the other
    members do, so the first supersample that raises in ordered enumeration
    is a representative, met first here too.  The cap counts the nominal
    supp(D)^{2n} ordered supersamples, not the classes visited, so whether
    a problem is accepted does not depend on what its kernel declares.
    ``mode="mc"`` averages exact inner values over sampled supersamples and
    reports a 95% confidence interval.

    ``evaluator`` optionally replaces the generic exact inner engine with a
    structure-specific exact evaluator (it must return the same number); the
    generic engine is the default.  Each value it returns passes the same
    range check as the generic engine's.
    """
    n = sampler.n

    def inner(ss: Supersample) -> float:
        if evaluator is None:
            return cmi_exact_fixed(ss, kernel).value
        value = evaluator(ss)
        _validate_cmi_value(value, n, 0)
        return value

    if mode == "exact":
        support = [(lab, m) for lab, m in sampler.point_distribution.atoms if m > 0.0]
        terms = len(support) ** (2 * n)
        if terms > ENUMERATION_CAP:
            raise ExactEnumerationError(
                f"{len(support)}^{2 * n} supersamples exceed the cap of "
                f"{ENUMERATION_CAP}; exact mode infeasible"
            )
        total = sum(w * inner(ss) for ss, w in weighted_supersamples(support, n, kernel.exchangeable))
        return CmiEstimate(value=total, method="exact")
    if mode == "mc":
        if trials < MIN_MC_TRIALS:
            raise ValueError(f"Monte Carlo needs at least {MIN_MC_TRIALS} trials, got {trials}")
        mean, ci, _ = monte_carlo_mean(inner, sampler, trials, seed)
        return CmiEstimate(
            value=mean, method="monte-carlo", ci_halfwidth=ci, trials=trials, seed=seed
        )
    raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'mc'")


def cmi_distribution_free(
    kernel: AlgorithmKernel, candidates: Sequence[Supersample]
) -> CmiEstimate:
    """Max of the exact selection information over candidate supersamples.

    This is a *lower* bound on the distribution-free supremum (the true sup
    ranges over all supersamples); the result is flagged accordingly and is
    monotone in the candidate set.
    """
    if not candidates:
        raise ValueError("candidate set is empty")
    best = max(float(cmi_exact_fixed(ss, kernel).value) for ss in candidates)
    return CmiEstimate(value=best, method="exact", lower_bound=True)


# ---------------------------------------------------------------------------
# Blahut-Arimoto and universal CMI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlahutArimotoResult:
    capacity: float
    input_distribution: np.ndarray
    iterations: int
    bracket: tuple[float, float]
    lower_bounds: tuple[float, ...] = field(repr=False, default=())


def _checked_channel(channel: np.ndarray | ChannelRows) -> np.ndarray | ChannelRows:
    """The channel after checking that it is a nonempty row-stochastic
    matrix, with every row renormalized to sum to 1; :class:`ChannelRows`
    keep only their positive entries."""
    dense = not isinstance(channel, ChannelRows)
    masses = np.asarray(channel if dense else channel.masses, dtype=float)
    shape = masses.shape if dense else (len(channel.indptr) - 1, channel.columns)
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise ValueError(f"channel must be a nonempty 2-D matrix, got {shape}")
    if not np.all(np.isfinite(masses)):
        raise ValueError("channel has non-finite entries")
    if np.any(masses < -1e-12):
        raise ValueError("channel has negative entries")
    if dense:
        row_sums = masses.sum(axis=1)
    else:
        row_of = channel.row_of()
        row_sums = np.bincount(row_of, weights=masses, minlength=shape[0])
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        raise ValueError("channel rows must each sum to 1")
    if dense:
        return np.clip(masses, 0.0, None) / row_sums[:, None]
    keep = masses > 0.0
    return ChannelRows(
        np.concatenate(([0], np.cumsum(np.bincount(row_of[keep], minlength=shape[0])))),
        channel.indices[keep],
        masses[keep] / row_sums[row_of[keep]],
        channel.columns,
    )


def blahut_arimoto(
    channel: np.ndarray | ChannelRows, tol: float = 1e-9, max_iters: int = 200_000
) -> BlahutArimotoResult:
    """Capacity of a discrete memoryless channel (rows = inputs, stochastic),
    given as a dense matrix or as :class:`ChannelRows`.

    Alternating maximization from the uniform input with the multiplicative
    update r(x) <- r(x) e^{D_x} / Z, where D_x = KL(p(.|x) || q_r) is taken
    in matvec form,
    D_x = sum_y p(y|x) log p(y|x) - sum_y p(y|x) log q_r(y), so an iteration
    on :class:`ChannelRows` costs O(nnz).  At every iterate sum_x r(x) D_x <= C <= max_x D_x;
    iteration stops once the bracket is within ``tol``.  The per-iteration
    lower bounds are monotone nondecreasing and the returned capacity is the
    final lower bound.
    """
    chan = _checked_channel(channel)
    if isinstance(chan, ChannelRows):
        m, starts, cols, p = len(chan.indptr) - 1, chan.indptr[:-1], chan.indices, chan.masses
        row_of = chan.row_of()
        # every row keeps at least one entry, so reduceat sums each row exactly
        neg_entropy = np.add.reduceat(p * np.log(p), starts)

        def forward(r: np.ndarray) -> np.ndarray:  # r @ P
            return np.bincount(cols, weights=p * r[row_of], minlength=chan.columns)

        def backward(v: np.ndarray) -> np.ndarray:  # P @ v
            return np.add.reduceat(p * v[cols], starts)

    else:
        m = chan.shape[0]
        # p = 0 terms vanish: log p is taken as 0 there
        neg_entropy = np.sum(chan * np.log(chan, out=np.zeros_like(chan), where=chan > 0.0), axis=1)
        forward, backward = chan.__rmatmul__, chan.__matmul__
    if m == 1:
        return BlahutArimotoResult(0.0, np.ones(1), 0, (0.0, 0.0), (0.0,))

    r = np.full(m, 1.0 / m)
    lower_bounds: list[float] = []
    bracket = (0.0, math.inf)
    for iteration in range(1, max_iters + 1):
        q = forward(r)
        # columns with q = 0 carry log q = 0, as their p = 0 terms vanish
        log_q = np.log(q, out=np.zeros_like(q), where=q > 0.0)
        d = neg_entropy - backward(log_q)
        lower = float(r @ d)
        upper = float(d.max())
        lower_bounds.append(lower)
        bracket = (lower, upper)
        if upper - lower <= tol:
            return BlahutArimotoResult(
                capacity=max(lower, 0.0),
                input_distribution=r,
                iterations=iteration,
                bracket=bracket,
                lower_bounds=tuple(lower_bounds),
            )
        r = r * np.exp(d - upper)
        r = r / r.sum()
    raise ConvergenceError(
        f"capacity bracket {bracket} still wider than {tol} after {max_iters} iterations",
        bracket,
    )


def _capacity(
    supersample: Supersample, kernel: AlgorithmKernel, tol: float, max_iters: int
) -> tuple[float, int]:
    """The capacity of s -> A(z_s) with the number of reachable outputs; a
    product kernel's is the sum of its one-row capacities, each solved to
    ``tol / n`` so that the sum stays within ``tol``; an injective kernel's
    is log 2 per row with two distinct keys."""
    if kernel.rows is not None:
        rows, row_tol = _row_kernel(supersample, kernel), tol / supersample.n
        return _row_sum(supersample, lambda ss: _capacity(ss, rows, row_tol, max_iters))
    if kernel.injective is not None:
        reduced = _injective_value(supersample, kernel)
        if reduced is not None:
            return reduced
    if kernel.raw_map is not None:
        reachable = len(_label_counts(supersample, kernel))
        return math.log(reachable), reachable
    channel, outputs = channel_rows(supersample, kernel)
    return blahut_arimoto(channel, tol=tol, max_iters=max_iters).capacity, len(outputs)


def ucmi_fixed(
    supersample: Supersample,
    kernel: AlgorithmKernel,
    tol: float = 1e-9,
    max_iters: int = 200_000,
) -> CmiEstimate:
    """Universal CMI for one fixed supersample: the supremum of I(A(z_S); S)
    over arbitrary selector laws, i.e. the capacity of the channel
    s -> A(z_s), computed by Blahut-Arimoto on its sparse rows.

    The first Blahut-Arimoto lower bound is exactly the uniform-selector
    value, so the result always dominates ``cmi_exact_fixed`` up to ``tol``.
    A deterministic kernel's channel is noiseless, so its capacity is
    log(#reachable outputs), taken from the label counts with no channel.
    A product kernel's channel is a product of independent one-row
    channels, whose capacities add.  An injective kernel's 2^k outputs are
    all reachable, so its capacity is k log 2.
    """
    value, reachable = _capacity(supersample, kernel, tol, max_iters)
    _validate_cmi_value(value, supersample.n, reachable)
    return CmiEstimate(value=value, method="exact")


# ---------------------------------------------------------------------------
# evaluated CMI
# ---------------------------------------------------------------------------


def ecmi_fixed(
    supersample: Supersample,
    kernel: AlgorithmKernel,
    loss: Any,
) -> CmiEstimate:
    """Evaluated CMI: selection information of the loss profile of the output.

    Each output w is replaced by its evaluation vector
    ``(loss(w, z[i][j]))`` over all 2n supersample points, outputs with
    identical vectors are merged, and the exact mutual information against a
    uniform selector is returned.  By data processing this never exceeds
    ``cmi_exact_fixed`` (the merge is a deterministic coarsening).  Losses
    must produce exactly representable values, since merging uses exact
    equality of vectors.

    ``loss`` is either a callable ``(w, point) -> value`` or an object with
    an ``eval`` attribute of that shape.
    """
    loss_eval = getattr(loss, "eval", loss)
    if not callable(loss_eval):
        raise TypeError("loss must be callable or carry a callable .eval")
    points = supersample.points()
    loss_vector = functools.cache(lambda w: tuple(loss_eval(w, pt) for pt in points))
    value, reachable = _selection_information(supersample, kernel, loss_vector)
    _validate_cmi_value(value, supersample.n, reachable)
    return CmiEstimate(value=value, method="exact")


# ---------------------------------------------------------------------------
# kernel combinators
# ---------------------------------------------------------------------------


def compose_pair(a1: AlgorithmKernel, a2: AlgorithmKernel) -> AlgorithmKernel:
    """Non-adaptive composition: run both kernels on the same dataset with
    independent randomness; outputs are (w1, w2) pairs under the product
    law.  Selection information is subadditive under this composition."""

    def evaluate(ds: tuple[Any, ...]) -> FiniteDistribution:
        d1, d2 = a1(ds), a2(ds)
        atoms = []
        for l1, m1 in d1.atoms:
            if m1 <= 0.0:
                continue
            for l2, m2 in d2.atoms:
                if m2 <= 0.0:
                    continue
                atoms.append(((l1, l2), m1 * m2))
        return FiniteDistribution(tuple(atoms))

    def raw_map(ds: tuple[Any, ...]) -> tuple[Any, Any]:
        # each part checks its own universe, which the pair's may not cover
        w1, w2 = a1.raw_map(ds), a2.raw_map(ds)
        a1.check_outputs((w1,))
        a2.check_outputs((w2,))
        return w1, w2

    universe = None
    if a1.output_universe is not None and a2.output_universe is not None:
        universe = tuple(itertools.product(a1.output_universe, a2.output_universe))
    return AlgorithmKernel(
        evaluate=evaluate,
        output_universe=universe,
        name=f"({a1.name}x{a2.name})",
        raw_map=raw_map if a1.deterministic and a2.deterministic else None,
    )


def compose_adaptive(
    a1: AlgorithmKernel, family: Callable[[Any], AlgorithmKernel] | Mapping[Any, AlgorithmKernel]
) -> AlgorithmKernel:
    """Adaptive composition: feed A1's output w1 into the kernel family and
    release only the second stage's output, A2(z, A1(z))."""
    pick = family if callable(family) else family.__getitem__

    def evaluate(ds: tuple[Any, ...]) -> FiniteDistribution:
        first = a1(ds)
        acc: dict[Any, float] = {}
        for w1, m1 in first.atoms:
            if m1 <= 0.0:
                continue
            second = pick(w1)(ds)
            for w2, m2 in second.atoms:
                if m2 <= 0.0:
                    continue
                acc[w2] = acc.get(w2, 0.0) + m1 * m2
        return FiniteDistribution.from_dict(acc)

    return AlgorithmKernel(evaluate=evaluate, name=f"adaptive({a1.name})")


def postprocess(
    kernel: AlgorithmKernel,
    mapping: Mapping[Any, FiniteDistribution | Mapping[Any, float]],
) -> AlgorithmKernel:
    """Push kernel outputs through a row-stochastic map W -> W'.

    Every row of ``mapping`` must itself be a distribution (rows that do not
    sum to 1 are rejected by construction).  Selection information never
    increases under postprocessing.
    """
    rows: dict[Any, FiniteDistribution] = {}
    for w, row in mapping.items():
        rows[w] = row if isinstance(row, FiniteDistribution) else FiniteDistribution.from_dict(row)

    def evaluate(ds: tuple[Any, ...]) -> FiniteDistribution:
        dist = kernel(ds)
        acc: dict[Any, float] = {}
        for w, m in dist.atoms:
            if m <= 0.0:
                continue
            if w not in rows:
                raise KeyError(f"postprocessing map does not cover output {w!r}")
            for w2, m2 in rows[w].atoms:
                if m2 > 0.0:
                    acc[w2] = acc.get(w2, 0.0) + m * m2
        return FiniteDistribution.from_dict(acc)

    universe = tuple(
        dict.fromkeys(lab for row in rows.values() for lab in row.labels())
    )
    return AlgorithmKernel(evaluate=evaluate, output_universe=universe, name=f"post({kernel.name})")
