"""The row-fold exact engine against brute-force enumeration.

Kernels that declare a fold count their outputs row by row over distinct
fold states; ``dataclasses.replace(kernel, fold=None)`` is the same kernel
on the one-fit-per-selector path.  The two must agree exactly: the same
label counts in the same order, hence bit-identical CMI and ECMI.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmi_lab.algkernel import (
    AlgorithmKernel,
    ExactEnumerationError,
    Supersample,
    SupersampleSampler,
    _label_counts,
    blahut_arimoto,
    channel_matrix,
    cmi_exact_fixed,
    ecmi_fixed,
    ucmi_fixed,
)
from cmi_lab.bounds import zero_one_loss
from cmi_lab.harness import grid_threshold_distribution
from cmi_lab.info_core import LOG2
from cmi_lab.learners import (
    parity_kernel,
    parity_population,
    pathological_kernel,
    threshold_kernel,
    threshold_selection_entropy,
)


def _outcome(fn):
    """fn()'s value, or the type of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


@st.composite
def fold_cases(draw):
    """A folding kernel and a supersample with n <= 10 rows: threshold grids
    with and without label noise, or parity populations with d <= 4, where a
    drawn flipped point can make some selected datasets unrealizable."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        size = draw(st.integers(2, 8))
        noise = draw(st.sampled_from((0.0, 0.25)))
        points = grid_threshold_distribution(size=size, noise=noise).support()
        kernel = threshold_kernel()
    else:
        d = draw(st.integers(1, 4))
        w_star = tuple(draw(st.integers(0, 1)) for _ in range(d))
        points = list(parity_population(w_star).support())
        if draw(st.booleans()):
            x, y = draw(st.sampled_from(points))
            points.append((x, 1 - y))
        kernel = parity_kernel(d)
    pick = st.sampled_from(tuple(points))
    ss = Supersample(tuple((draw(pick), draw(pick)) for _ in range(n)))
    return ss, kernel


@settings(derandomize=True, max_examples=200, deadline=None)
@given(fold_cases())
def test_fold_equals_brute_force(case):
    ss, kernel = case
    assert kernel.fold is not None
    brute = dataclasses.replace(kernel, fold=None)
    loss = zero_one_loss()
    for engine in (
        lambda k: list(_label_counts(ss, k).items()),
        lambda k: cmi_exact_fixed(ss, k).value,
        lambda k: ecmi_fixed(ss, k, loss).value,
    ):
        assert _outcome(lambda: engine(kernel)) == _outcome(lambda: engine(brute))


def _fold(kernel, dataset):
    init, step, finish = kernel.fold
    return finish(functools.reduce(step, dataset, init))


@st.composite
def fold_datasets(draw):
    """A folding kernel and a dataset for it: thresholds on repeated small
    x values, or parity points with arbitrary labels (often unrealizable)
    and now and then a feature of the wrong length."""
    size = draw(st.integers(0, 8))
    if draw(st.booleans()):
        values = (0, 0.25, 0.5, 1, 1.0, 2.5, math.inf, math.nan)
        point = st.tuples(st.sampled_from(values), st.integers(0, 1))
        return threshold_kernel(), tuple(draw(point) for _ in range(size))
    d = draw(st.integers(0, 4))
    length = st.sampled_from((d,) * 8 + (d + 1, max(d - 1, 0)))
    point = length.flatmap(lambda k: st.tuples(st.tuples(*[st.integers(0, 1)] * k), st.integers(0, 1)))
    return parity_kernel(d), tuple(draw(point) for _ in range(size))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fold_datasets())
def test_fold_finishes_to_raw_map(case):
    kernel, dataset = case
    assert _outcome(lambda: _fold(kernel, dataset)) == _outcome(lambda: kernel.raw_map(dataset))


def test_deterministic_ucmi_is_the_blahut_arimoto_capacity():
    rng = np.random.default_rng(21)
    grid = SupersampleSampler.from_distribution(grid_threshold_distribution(size=16, noise=0.25), 6)
    parity = SupersampleSampler.from_distribution(parity_population((1, 0, 1)), 5)
    kernels = (
        (grid, threshold_kernel()),
        (grid, pathological_kernel(2)),
        (parity, parity_kernel(3)),
        (parity, AlgorithmKernel.reveal_all()),
        (parity, AlgorithmKernel.constant()),
    )
    for sampler, kernel in kernels:
        for _ in range(3):
            ss = sampler.draw(int(rng.integers(2**32)))
            capacity = blahut_arimoto(channel_matrix(ss, kernel)[0]).capacity
            assert ucmi_fixed(ss, kernel).value == pytest.approx(capacity, abs=1e-9)


def test_fold_reaches_past_the_selector_cap():
    thr = SupersampleSampler.from_distribution(grid_threshold_distribution(noise=0.25), 40).draw(1)
    kernel = threshold_kernel()
    assert sum(_label_counts(thr, kernel).values()) == 2**40
    assert cmi_exact_fixed(thr, kernel).value == pytest.approx(threshold_selection_entropy(thr), abs=1e-12)
    # 2^40 selectors are over the cap for one fit each
    with pytest.raises(ExactEnumerationError):
        cmi_exact_fixed(thr, dataclasses.replace(kernel, fold=None))
    par = SupersampleSampler.from_distribution(parity_population((1, 0, 1)), 200).draw(2)
    counts = _label_counts(par, parity_kernel(3))
    assert sum(counts.values()) == 2**200
    assert 0.0 <= cmi_exact_fixed(par, parity_kernel(3)).value <= 3 * LOG2


def test_fold_cap_counts_states():
    # row i holds a positive and a negative at x = i: after row i the
    # smallest positive so far is one of 0..i or none, i + 2 states
    ss = Supersample(tuple(((float(i), 1), (float(i), 0)) for i in range(12)))
    assert len(_label_counts(ss, threshold_kernel(), cap=13)) == 13
    with pytest.raises(ExactEnumerationError, match="9 fold states after row 7 "):
        cmi_exact_fixed(ss, threshold_kernel(), selector_cap=8)
