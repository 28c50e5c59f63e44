"""Symmetry-reduced exact engines against brute-force enumeration.

A kernel that declares ``injective`` has CMI = UCMI = k log 2, k the rows
whose two entries have different keys; ``dataclasses.replace(kernel,
injective=None)`` is the same kernel on the counting path.  Exact
distributional CMI sums over supersamples up to row swaps (every kernel) and
row permutations (``exchangeable`` kernels); it is compared with the ordered
enumeration it replaced, kept below as the reference.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmi_lab.algkernel import (
    AlgorithmKernel,
    Supersample,
    SupersampleSampler,
    cmi_distributional,
    cmi_exact_fixed,
    compose_pair,
    postprocess,
    ucmi_fixed,
    weighted_supersamples,
)
from cmi_lab.harness import grid_threshold_distribution
from cmi_lab.info_core import LOG2, FiniteDistribution
from cmi_lab.learners import (
    parity_kernel,
    parity_population,
    pathological_kernel,
    pathological_selection_entropy,
    threshold_kernel,
)
from cmi_lab.stability_mech import randomized_response


def _outcome(fn):
    """fn()'s value, or the type and message of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


def _agree(fast, brute, tol):
    if isinstance(fast, tuple) or isinstance(brute, tuple):
        return fast == brute
    return abs(fast - brute) <= tol


# ---------------------------------------------------------------------------
# injective kernels
# ---------------------------------------------------------------------------

#: on-grid points, two near-duplicates on the 0.31 grid cell (equal keys,
#: unequal points) and a label 1.5 that the learner truncates to 1
GOOD_POINTS = ((0.31, 1), (0.3100000001, 1), (0.31, 0), (0.5, 0), (0.72, 1), (0.0, 1), (0.31, 1.5))
#: off the 10^-2 grid, outside the coordinate range, non-bit labels
BAD_POINTS = ((0.315, 1), (-1.0, 0), (0.4, 2), (0.4, None), (0.4, "a"))


@st.composite
def injective_cases(draw):
    """An injective kernel and a supersample with n <= 10 rows drawn from a
    small pool, so rows repeat and some rows hold one point twice; now and
    then the pool holds points the pathological learner rejects, or an
    unhashable point for ``reveal_all``."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        kernel = pathological_kernel(2)
        pool = list(GOOD_POINTS)
        if draw(st.integers(0, 2)) == 0:
            pool += draw(st.lists(st.sampled_from(BAD_POINTS), min_size=1, max_size=2, unique=True))
    else:
        kernel = AlgorithmKernel.reveal_all()
        pool = [0, 1, 1.0, "a", (0, 1), math.nan]
        if draw(st.integers(0, 5)) == 0:
            pool.append([0])
    pick = st.sampled_from(pool)
    rows = []
    for _ in range(n):
        a = draw(pick)
        rows.append((a, a if draw(st.integers(0, 3)) == 0 else draw(pick)))
    return Supersample(tuple(rows)), kernel


@settings(derandomize=True, max_examples=150, deadline=None)
@given(injective_cases())
def test_injective_equals_brute_force(case):
    ss, kernel = case
    assert kernel.injective is not None
    brute = dataclasses.replace(kernel, injective=None)
    for engine in (cmi_exact_fixed, ucmi_fixed):
        fast, slow = _outcome(lambda: engine(ss, kernel).value), _outcome(lambda: engine(ss, brute).value)
        assert _agree(fast, slow, 1e-12), (engine.__name__, fast, slow)


def test_near_duplicates_share_an_output():
    # unequal as points, equal as (grid int, label): row 0 gives one output,
    # not the two that comparing the points would count
    ss = Supersample((((0.31, 1), (0.3100000001, 1)), ((0.2, 0), (0.4, 1))))
    kernel = pathological_kernel(2)
    assert pathological_selection_entropy(ss) == 2 * LOG2
    assert cmi_exact_fixed(ss, kernel).value == LOG2
    assert cmi_exact_fixed(ss, dataclasses.replace(kernel, injective=None)).value == pytest.approx(LOG2, abs=1e-15)


def test_pathological_at_n_99():
    grid = grid_threshold_distribution(size=64, theta_index=32, noise=0.25, step=0.01)
    ss = SupersampleSampler.from_distribution(grid, 99).draw(5)
    kernel = pathological_kernel(2)
    expected = pathological_selection_entropy(ss)
    for engine in (cmi_exact_fixed, ucmi_fixed):
        seconds = []
        for _ in range(5):
            start = time.perf_counter()
            value = engine(ss, kernel).value
            seconds.append(time.perf_counter() - start)
            assert value == expected
        assert min(seconds) <= 0.010, (engine.__name__, seconds)


def test_injective_declaration_needs_an_open_raw_map():
    with pytest.raises(ValueError, match="injective"):
        AlgorithmKernel(evaluate=lambda ds: FiniteDistribution.point_mass(0), injective=lambda z: z)
    with pytest.raises(ValueError, match="injective"):
        AlgorithmKernel.deterministic_map(lambda ds: ds, output_universe=((0,),), injective=lambda z: z)


def test_combinators_drop_and_replace_keeps_declarations():
    path, par = pathological_kernel(2), parity_kernel(2)
    assert dataclasses.replace(path, name="copy").injective is path.injective
    assert dataclasses.replace(par, name="copy").exchangeable
    pair = compose_pair(par, AlgorithmKernel.constant())
    assert pair.injective is None and not pair.exchangeable
    post = postprocess(AlgorithmKernel.constant(), {"w0": {"a": 1.0}})
    assert not post.exchangeable


# ---------------------------------------------------------------------------
# distributional enumeration over row types and row multisets
# ---------------------------------------------------------------------------


def _ordered_expectation(kernel, sampler):
    """The ordered enumeration that the reduced one replaced: every
    supersample of supp(D)^{2n} with its own probability."""
    n = sampler.n
    support = [(lab, m) for lab, m in sampler.point_distribution.atoms if m > 0.0]
    total = 0.0
    for combo in itertools.product(support, repeat=2 * n):
        weight = 1.0
        for _, m in combo:
            weight *= m
        rows = tuple((combo[2 * i][0], combo[2 * i + 1][0]) for i in range(n))
        total += weight * cmi_exact_fixed(Supersample(rows), kernel).value
    return total


def _law(draw, points):
    """A distribution over ``points`` from small integer weights, so that
    some masses are exactly zero."""
    weights = [draw(st.integers(0, 3)) for _ in points]
    if not any(weights):
        weights[draw(st.integers(0, len(points) - 1))] = 1
    total = sum(weights)
    return FiniteDistribution(tuple((z, k / total) for z, k in zip(points, weights)))


def _table_kernel(draw, points, n):
    """A random deterministic or stochastic kernel tabulated over every
    ordered dataset of n points from ``points``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 3))
    table = {ds: rng.integers(0, 3, size=width) + (np.arange(width) == 0) for ds in itertools.product(points, repeat=n)}
    if draw(st.booleans()):
        return AlgorithmKernel.deterministic_map(lambda ds: int(np.argmax(table[ds])), output_universe=tuple(range(width)))
    return AlgorithmKernel(
        evaluate=lambda ds: FiniteDistribution(tuple((w, m / table[ds].sum()) for w, m in enumerate(table[ds]) if m)),
        output_universe=tuple(range(width)),
    )


def _sum_mod_3(ds):
    """An exchangeable map whose error names the whole dataset, so an
    enumeration that met another ordering first would raise another
    message."""
    if 2 in ds:
        raise ValueError(f"point 2 in {ds!r}")
    return sum(ds) % 3


@st.composite
def distributional_cases(draw):
    """A kernel and a sampler whose point distribution has at most 1,024
    ordered supersamples, and some zero-mass atoms.  Exchangeable kernels:
    parity with d <= 3, threshold on a noisy grid, constant, a sum mod 3
    that rejects the point 2.  Others:
    pathological, random table kernels and randomized response.  Now and
    then up to two points are added that make some fits raise, with
    different exceptions: for parity a flipped point (unrealizable datasets)
    or a feature of the wrong length, for threshold a positive at NaN, for
    the pathological learner points it rejects, for randomized response a
    point 2 (which the sum also rejects)."""
    kind = draw(st.sampled_from(("parity", "threshold", "constant", "sum", "pathological", "table", "rr")))
    bad: list = []
    if kind == "parity":
        d = draw(st.integers(1, 3))
        points = list(parity_population(tuple(draw(st.integers(0, 1)) for _ in range(d))).support())
        x, y = draw(st.sampled_from(points))
        bad = [(x, 1 - y), (x + (0,), y), (x[1:], y)]
        kernel = parity_kernel(d)
    elif kind in ("threshold", "pathological"):
        points = list(grid_threshold_distribution(size=6, noise=0.25).support())
        bad = [(math.nan, 1), (math.nan, 0)] if kind == "threshold" else list(BAD_POINTS)
        kernel = threshold_kernel() if kind == "threshold" else pathological_kernel(2)
    elif kind == "constant":
        points, kernel = [0, 1, 2], AlgorithmKernel.constant()
    elif kind == "sum":
        points, bad = [0, 1], [2]
        kernel = AlgorithmKernel.deterministic_map(_sum_mod_3, exchangeable=True)
    elif kind == "rr":
        points, bad = [0, 1], [2]
    else:
        points = [0, 1, 2]
    points = draw(st.lists(st.sampled_from(points), min_size=1, max_size=4, unique=True))
    if bad and draw(st.integers(0, 2)) == 0:
        points += draw(st.lists(st.sampled_from(bad), min_size=1, max_size=2, unique=True))
    law = _law(draw, points)
    support = sum(1 for _, m in law.atoms if m > 0.0)
    n = draw(st.integers(1, max([1] + [k for k in range(1, 6) if support ** (2 * k) <= 1024])))
    if kind == "rr":
        kernel = randomized_response(draw(st.floats(0.05, 0.5)), n)
    elif kind == "table":
        kernel = _table_kernel(draw, [z for z, m in law.atoms if m > 0.0], n)
    return kernel, SupersampleSampler.from_distribution(law, n)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(distributional_cases())
def test_reduced_enumeration_equals_ordered(case):
    kernel, sampler = case
    reduced = _outcome(lambda: cmi_distributional(kernel, sampler, mode="exact").value)
    ordered = _outcome(lambda: _ordered_expectation(kernel, sampler))
    assert _agree(reduced, ordered, 1e-12), (reduced, ordered)


@pytest.mark.parametrize("s, n", [(1, 3), (3, 2), (4, 3), (4, 4), (5, 2)])
def test_classes_cover_every_ordered_supersample(s, n):
    support = [(z, 1.0 / s) for z in range(s)]
    ordered = s ** (2 * n)
    row_types = s * (s + 1) // 2
    for exchangeable, classes in ((False, row_types**n), (True, math.comb(row_types + n - 1, n))):
        terms = list(weighted_supersamples(support, n, exchangeable))
        assert len(terms) == classes
        # each weight is an integer count of ordered supersamples over s^{2n}
        counts = [round(w * ordered) for _, w in terms]
        assert all(abs(c - w * ordered) < 1e-6 for c, (_, w) in zip(counts, terms))
        assert sum(counts) == ordered


def test_parity_term_counts():
    for d, n, terms in ((2, 3, 220), (2, 4, 715), (3, 3, 8436)):
        support = list(parity_population((1,) * d).atoms)
        assert sum(1 for _ in weighted_supersamples(support, n, exchangeable=True)) == terms


def test_distributional_parity_d2_n4_in_50_ms():
    sampler = SupersampleSampler.from_distribution(parity_population((1, 1)), 4)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        cmi_distributional(parity_kernel(2), sampler, mode="exact")
        seconds.append(time.perf_counter() - start)
    assert min(seconds) <= 0.050, seconds


# ---------------------------------------------------------------------------
# the exchangeable declarations
# ---------------------------------------------------------------------------


@st.composite
def exchangeable_datasets(draw):
    """An exchangeable kernel, a dataset and a permutation of it: parity
    points with arbitrary labels (often unrealizable) and now and then a
    feature of the wrong length; thresholds on repeated values, with 1 and
    1.0, infinities and NaN (a NaN positive raises); the constant kernel on
    the same points."""
    size = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("parity", "threshold", "constant")))
    if kind == "parity":
        d = draw(st.integers(0, 4))
        length = st.sampled_from((d,) * 8 + (d + 1, max(d - 1, 0)))
        point = length.flatmap(lambda k: st.tuples(st.tuples(*[st.integers(0, 1)] * k), st.integers(0, 1)))
        kernel = parity_kernel(d)
    else:
        values = (0, 0.25, 0.5, 1, 1.0, 2.5, -math.inf, math.inf, math.nan)
        point = st.tuples(st.sampled_from(values), st.integers(0, 1))
        kernel = threshold_kernel() if kind == "threshold" else AlgorithmKernel.constant()
    dataset = tuple(draw(point) for _ in range(size))
    return kernel, dataset, tuple(draw(st.permutations(dataset)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(exchangeable_datasets())
def test_exchangeable_kernels_ignore_point_order(case):
    kernel, dataset, permuted = case
    assert kernel.exchangeable

    fit, refit = _outcome(lambda: kernel.raw_map(dataset)), _outcome(lambda: kernel.raw_map(permuted))
    if kernel.name.startswith("parity") and isinstance(fit, tuple):
        # which exception a malformed dataset raises depends on the order
        # of its points; that it raises does not
        assert isinstance(refit, tuple) and issubclass(refit[0], ValueError)
    else:
        assert _agree_exactly(fit, refit)


def _agree_exactly(fit, refit):
    """Equal outputs (as dict keys), or exceptions of one type."""
    if isinstance(fit, tuple) or isinstance(refit, tuple):
        return isinstance(fit, tuple) and isinstance(refit, tuple) and fit[0] is refit[0]
    return fit == refit and hash(fit) == hash(refit)


def test_parity_exception_depends_on_point_order_but_not_the_engine_error():
    # an unrealizable pair and a feature of the wrong length: the learner
    # raises at whichever it meets first
    bad = (((1, 0), 0), ((1, 0), 1), ((1, 0, 0), 0))
    kernel = parity_kernel(2)
    assert _outcome(lambda: kernel.raw_map(bad))[0].__name__ == "NotRealizableError"
    assert _outcome(lambda: kernel.raw_map(bad[::-1]))[0] is ValueError
    # the reduced and the ordered enumeration raise on one supersample
    for points in (bad, bad[::-1]):
        sampler = SupersampleSampler.from_distribution(FiniteDistribution.uniform(list(points)), 2)
        reduced = _outcome(lambda: cmi_distributional(kernel, sampler, mode="exact"))
        assert reduced == _outcome(lambda: _ordered_expectation(kernel, sampler))
        assert isinstance(reduced, tuple)


def test_injective_errors_follow_brute_force():
    # corner 1 raises TypeError on the label None before it reaches the
    # off-grid 0.315; the first selector that fails holds only 0.315
    ss = Supersample((((0.2, 0), (0.315, 1)), ((0.3, 1), (0.4, None))))
    kernel = pathological_kernel(2)
    brute = _outcome(lambda: cmi_exact_fixed(ss, dataclasses.replace(kernel, injective=None)))
    assert brute[0] is ValueError
    for engine in (cmi_exact_fixed, ucmi_fixed):
        assert _outcome(lambda: engine(ss, kernel)) == _outcome(
            lambda: engine(ss, dataclasses.replace(kernel, injective=None))
        )
