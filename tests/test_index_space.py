"""Index-space Monte-Carlo trials against the ``rng.choice`` per-point loops.

Every draw goes through one sampling table: ``sampling_table`` builds the
CDF once and ``draw_indices`` searches it.  Its stream must equal
``rng.choice`` over the same masses: the same indices and the same
generator state afterwards, so a learner that reads the generator after
the draw sees what it saw before.  The gap and AUROC loops then read each
distinct hypothesis's losses and scores from a memo.  The references here
are copies of the loops that drew with ``rng.choice`` and evaluated every
point of every trial; the fast paths must return the same floats (``==``).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from cmi_lab import bounds
from cmi_lab._seeding import derive_seed
from cmi_lab.algkernel import CmiEstimate, SupersampleSampler, draw_indices, sampling_table
from cmi_lab.bounds import (
    GapEstimate,
    Population,
    check_auroc,
    empirical_auroc,
    estimate_gap,
    population_auroc,
)
from cmi_lab.info_core import FiniteDistribution


def _choice_indices(dist, rng, shape):
    """Label indices as the choice-based samplers drew them."""
    masses = np.array([dist.mass(lab) for lab in dist.labels()], dtype=float)
    return rng.choice(len(masses), size=shape, p=masses / masses.sum())


@st.composite
def tables(draw):
    """A distribution over 1-12 labels, some at zero mass, with masses
    spread over several orders of magnitude."""
    k = draw(st.integers(1, 12))
    mass = st.one_of(st.just(0.0), st.floats(1e-9, 1.0), st.sampled_from((0.1, 0.2, 0.3, 0.5)))
    masses = draw(st.lists(mass, min_size=k, max_size=k))
    if not any(masses):
        masses[draw(st.integers(0, k - 1))] = 1.0
    total = sum(masses)
    return FiniteDistribution(tuple((("a", i), m / total) for i, m in enumerate(masses)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(tables(), st.integers(0, 40), st.booleans(), st.integers(0, 2**63 - 1))
def test_draw_indices_equals_choice(dist, n, pairs, seed):
    shape = (n, 2) if pairs else n
    masses = np.array([dist.mass(lab) for lab in dist.labels()], dtype=float)
    cdf = (masses / masses.sum()).cumsum()
    cdf /= cdf[-1]
    assert np.array_equal(sampling_table(dist)[1], cdf)  # rng.choice's CDF
    ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _choice_indices(dist, ref, shape)
    got = draw_indices(cdf, fast, shape)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert fast.bit_generator.state == ref.bit_generator.state


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tables(), st.integers(1, 30), st.integers(0, 2**63 - 1))
def test_samplers_draw_as_choice_did(dist, n, seed):
    labels = dist.labels()
    ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
    want = tuple(labels[i] for i in _choice_indices(dist, ref, n))
    assert Population.from_finite(dist).draw(fast, n) == want
    assert fast.bit_generator.state == ref.bit_generator.state
    rows = _choice_indices(dist, np.random.default_rng(seed), (n, 2))
    grid = SupersampleSampler.from_distribution(dist, n).draw(seed).grid
    assert grid == tuple((labels[i], labels[j]) for i, j in rows)


# ---------------------------------------------------------------------------
# the gap and AUROC loops against their per-point references
# ---------------------------------------------------------------------------

GRID = tuple(i / 8 for i in range(9))


@st.composite
def populations(draw):
    """(x, y) points on a coarse grid in a drawn order, some at zero mass,
    both labels at positive mass."""
    xs = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=5, unique=True))
    points = draw(st.permutations([(x, y) for x in xs for y in (0, 1)]))
    masses = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=len(points), max_size=len(points)))
    for y in (0, 1):
        first = next(i for i, z in enumerate(points) if z[1] == y)
        masses[first] = masses[first] or 0.5
    total = sum(masses)
    return FiniteDistribution(tuple((z, m / total) for z, m in zip(points, masses)))


def learner(dataset, rng):
    """A hashable (cut, k): the mean positive x on the grid, and a k read
    from the generator after the draw."""
    pos = [x for x, y in dataset if y == 1]
    cut = round(8 * sum(pos) / len(pos)) / 8 if pos else 1.0
    return cut, int(rng.integers(3))


def loss_on(dist):
    """A non-0/1 float loss, so that summation order shows, which fails if
    it is ever read at a zero-mass atom (the per-point loops never did)."""

    def loss(w, z):
        assert dist.mass(z) > 0.0, f"loss read at zero-mass atom {z!r}"
        return abs(z[0] - w[0]) * (w[1] + 1) / 3.0 + 0.1 * z[1]

    return loss


def score_of(w, z):
    """Ranks points by their distance to the cut, so the AUROC depends on w."""
    return -abs(z[0] - w[0]) * (w[1] + 1)


def is_positive(z):
    return z[1] == 1


def _per_point_trials(population, n, trials, seed, stream):
    """(dataset, hypothesis) per trial, drawn with ``rng.choice``."""
    labels = population.points.labels()
    for t in range(trials):
        rng = np.random.default_rng(derive_seed(seed, stream, t))
        dataset = tuple(labels[i] for i in _choice_indices(population.points, rng, n))
        yield dataset, learner(dataset, rng)


def reference_gap_samples(population, loss_eval, n, trials, seed):
    emp = np.empty(trials)
    pop = np.empty(trials)
    for t, (dataset, h) in enumerate(_per_point_trials(population, n, trials, seed, "gap")):
        emp[t] = sum(loss_eval(h, z) for z in dataset) / n
        pop[t] = sum(m * loss_eval(h, z) for z, m in population.points.atoms if m > 0.0)
    return np.stack([emp, pop], axis=1)


def reference_auroc_samples(population, n, trials, seed):
    pop_cache = {}
    emps = np.empty(trials)
    pops = np.empty(trials)
    for t, (dataset, w) in enumerate(_per_point_trials(population, n, trials, seed, "auroc")):
        scores = [score_of(w, z) for z in dataset]
        labels = [1 if is_positive(z) else 0 for z in dataset]
        if w not in pop_cache:
            pop_cache[w] = population_auroc(population.points, lambda z: score_of(w, z), is_positive)
        emps[t], pops[t] = empirical_auroc(scores, labels), pop_cache[w]
    return emps, pops


#: the default budget, one that empties the memo after a hypothesis or two,
#: and one that empties it at every new hypothesis
BUDGETS = st.sampled_from((bounds.MEMO_ATOMS, 20, 0))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(populations(), st.integers(1, 30), st.integers(0, 2**32), BUDGETS)
def test_estimate_gap_equals_per_point_loop(dist, n, seed, budget):
    population = Population.from_finite(dist)
    loss = loss_on(dist)
    with mock.patch.object(bounds, "MEMO_ATOMS", budget):
        est, samples = estimate_gap(learner, population, loss, n, 100, seed, return_samples=True)
    want = reference_gap_samples(population, loss, n, 100, seed)
    assert np.array_equal(samples, want)
    assert est == GapEstimate.from_samples(want[:, 0], want[:, 1], seed)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(populations(), st.integers(1, 30), st.integers(0, 2**32), st.sampled_from((0.05, 0.3)), BUDGETS)
def test_check_auroc_equals_per_point_loop(dist, n, seed, epsilon, budget):
    with mock.patch.object(bounds, "MEMO_ATOMS", budget):
        report = check_auroc(
            learner, Population.from_finite(dist), score_of, is_positive, epsilon, n, 60, seed,
            CmiEstimate(value=1.0, method="exact"),
        )
    emps, pops = reference_auroc_samples(Population.from_finite(dist), n, 60, seed)
    assert report.lhs_estimate == GapEstimate.from_samples(emps, pops, seed)
    assert report.lhs_value == float((np.abs(emps - pops) > epsilon).mean())


@settings(derandomize=True, max_examples=30, deadline=None)
@given(populations(), st.integers(1, 30), st.integers(0, 2**32))
def test_new_hypotheses_cost_no_more_loss_calls(dist, n, seed):
    """With every learner output distinct, the memo evaluates the loss no
    more often than the per-point loop: each trial's drawn points plus one
    pass over the positive-mass atoms."""
    population = Population.from_finite(dist)
    loss = loss_on(dist)
    calls = []

    def counted(w, z):
        calls.append(z)
        return loss(w, z)

    distinct = lambda dataset, rng: (learner(dataset, rng), rng.random())
    estimate_gap(distinct, population, lambda w, z: counted(w[0], z), n, 100, seed)
    support = sum(1 for _, m in population.points.atoms if m > 0.0)
    assert len(calls) <= 100 * (n + support)
