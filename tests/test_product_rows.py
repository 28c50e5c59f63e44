"""Product-row kernels and the sparse Blahut-Arimoto rows against brute force.

A kernel that declares ``rows`` is a product of one-point kernels, and the
engines sum one-row values over the supersample's rows;
``dataclasses.replace(kernel, rows=None)`` is the same kernel on the
2^n-selector path.  Every other stochastic kernel's universal CMI runs
Blahut-Arimoto on sparse channel rows; it is compared with the dense
iteration the sparse one replaced, kept below as the reference.
"""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmi_lab.algkernel import (
    AlgorithmKernel,
    ChannelRows,
    Supersample,
    blahut_arimoto,
    channel_matrix,
    channel_rows,
    cmi_exact_fixed,
    selected_datasets,
    ucmi_fixed,
)
from cmi_lab.info_core import LOG2, FiniteDistribution
from cmi_lab.stability_mech import randomized_response, rr_exact_cmi, rr_selector_supersample, tv_lottery

TOL = 1e-9


def _outcome(fn):
    """fn()'s value, or the type of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


def _agree(fast, brute, tol):
    if isinstance(fast, type) or isinstance(brute, type):
        return fast == brute
    return abs(fast - brute) <= tol


def _law(draw, labels):
    """A distribution over ``labels`` from small integer weights, so that
    some masses are exactly zero."""
    weights = [draw(st.integers(0, 4)) for _ in labels]
    if not any(weights):
        weights[draw(st.integers(0, len(labels) - 1))] = 1
    total = sum(weights)
    return FiniteDistribution(tuple((w, k / total) for w, k in zip(labels, weights)))


@st.composite
def product_cases(draw):
    """A product kernel and a supersample with n <= 6 rows drawn from a small
    pool of points, so rows repeat and some rows hold one point twice.
    Either randomized response with p in (0, 0.5] (a point 2 now and then,
    which it rejects), or a random one-point table kernel with 2-4 outputs
    whose declared universe now and then misses one of them.  Now and then
    the kernel is built for one row more or fewer than the supersample has."""
    n = draw(st.integers(1, 6))
    size = draw(st.sampled_from((n,) * 6 + (n + 1, max(n - 1, 1))))
    if draw(st.booleans()):
        p = draw(st.one_of(st.just(0.5), st.floats(1e-3, 0.5)))
        kernel = randomized_response(p, size)
        pool = (0, 1, 2) if draw(st.integers(0, 3)) == 0 else (0, 1)
    else:
        outputs = tuple(f"w{i}" for i in range(draw(st.integers(2, 4))))
        pool = tuple(range(draw(st.integers(1, 4))))
        table = {z: _law(draw, outputs) for z in pool}
        universe = outputs[:-1] if draw(st.integers(0, 3)) == 0 else outputs
        rows = AlgorithmKernel(evaluate=lambda ds, t=table: t[ds[0]], output_universe=universe)
        kernel = AlgorithmKernel.product(rows, size)
    pick = st.sampled_from(pool)
    return Supersample(tuple((draw(pick), draw(pick)) for _ in range(n))), kernel


@settings(derandomize=True, max_examples=200, deadline=None)
@given(product_cases())
def test_rows_equal_brute_force(case):
    ss, kernel = case
    assert kernel.rows is not None
    # the CMI and UCMI runs share one product law per selected dataset
    brute = dataclasses.replace(kernel, rows=None, evaluate=functools.cache(kernel.evaluate))
    for engine, tol in (
        (lambda k: cmi_exact_fixed(ss, k).value, 1e-12),
        (lambda k: ucmi_fixed(ss, k, tol=TOL).value, TOL),
    ):
        fast, slow = _outcome(lambda: engine(kernel)), _outcome(lambda: engine(brute))
        assert _agree(fast, slow, tol), (fast, slow)
        if kernel.rows[1] != ss.n:
            assert fast is slow is ValueError


def test_product_lists_atoms_little_endian():
    rows = AlgorithmKernel(
        evaluate=lambda ds: FiniteDistribution.bernoulli(0.25 if ds[0] else 0.5),
        output_universe=(0, 1),
    )
    law = AlgorithmKernel.product(rows, 2)((1, 0))
    assert law.labels() == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert [m for _, m in law.atoms] == [0.75 * 0.5, 0.25 * 0.5, 0.75 * 0.5, 0.25 * 0.5]
    with pytest.raises(ValueError, match="dataset size"):
        AlgorithmKernel.product(rows, 2)((1,))


def test_randomized_response_at_n_1000():
    ss = rr_selector_supersample(1000)
    kernel = randomized_response(0.2, 1000)
    assert cmi_exact_fixed(ss, kernel).value == pytest.approx(rr_exact_cmi(0.2, 1000), abs=1e-10)
    assert ucmi_fixed(ss, kernel).value == pytest.approx(rr_exact_cmi(0.2, 1000), abs=1e-9)


def test_tv_lottery_ucmi_runs_on_sparse_rows():
    # the dense 2^14 x (2^14 + 1) channel would take 2 GiB; its rows hold
    # two nonzeros each
    n = 14
    ss = Supersample(tuple((i, -i) for i in range(1, n + 1)))
    tracemalloc.start()
    try:
        value = ucmi_fixed(ss, tv_lottery(0.3, n)).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.3 * n * LOG2, abs=1e-9)
    assert peak < 50 * 2**20


# ---------------------------------------------------------------------------
# the dense channel and iteration that the sparse rows replaced
# ---------------------------------------------------------------------------


def dense_channel(supersample, kernel):
    """P(w | s) as a dense 2^n x |W_reachable| matrix, columns in first
    encountered order."""
    columns = {}
    rows = [
        [(columns.setdefault(label, len(columns)), mass)
         for label, mass in kernel.evaluate(ds).atoms if mass > 0.0]
        for ds in selected_datasets(supersample)
    ]
    mat = np.zeros((len(rows), len(columns)))
    for i, entries in enumerate(rows):
        for j, mass in entries:
            mat[i, j] = mass
    return mat, list(columns)


def dense_blahut_arimoto(channel, tol=1e-9, max_iters=200_000):
    """Blahut-Arimoto over the whole dense matrix; returns (capacity,
    iterations)."""
    mat = np.asarray(channel, dtype=float)
    mat = np.clip(mat, 0.0, None) / mat.sum(axis=1)[:, None]
    m = mat.shape[0]
    if m == 1:
        return 0.0, 0
    log_mat = np.where(mat > 0.0, np.log(np.where(mat > 0.0, mat, 1.0)), 0.0)
    r = np.full(m, 1.0 / m)
    for iteration in range(1, max_iters + 1):
        q = r @ mat
        with np.errstate(divide="ignore"):
            log_q = np.where(q > 0.0, np.log(np.where(q > 0.0, q, 1.0)), 0.0)
        d = np.einsum("xy,xy->x", mat, np.where(mat > 0.0, log_mat - log_q[None, :], 0.0))
        lower = float(r @ d)
        upper = float(d.max())
        if upper - lower <= tol:
            return max(lower, 0.0), iteration
        r = r * np.exp(d - d.max())
        r = r / r.sum()
    raise AssertionError("the dense reference did not converge")


@st.composite
def stochastic_table_cases(draw):
    """A stochastic kernel given by a table dataset -> law over 2-5 outputs
    (often with zero masses) on a supersample of n <= 4 rows whose points
    may repeat, so distinct selectors can share a dataset."""
    n = draw(st.integers(1, 4))
    pool = tuple(range(draw(st.integers(1, 5))))
    ss = Supersample(tuple((draw(st.sampled_from(pool)), draw(st.sampled_from(pool))) for _ in range(n)))
    outputs = tuple(range(draw(st.integers(2, 5))))
    table = {ds: _law(draw, outputs) for ds in dict.fromkeys(selected_datasets(ss))}
    return ss, AlgorithmKernel(evaluate=lambda ds, t=table: t[ds])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(stochastic_table_cases(), st.sampled_from((1e-6, 1e-9)))
def test_sparse_ucmi_equals_dense_iteration(case, tol):
    ss, kernel = case
    mat, outputs = dense_channel(ss, kernel)
    assert channel_matrix(ss, kernel) == (pytest.approx(mat, abs=0.0), outputs)
    expected, _ = dense_blahut_arimoto(mat, tol=tol)
    assert abs(ucmi_fixed(ss, kernel, tol=tol).value - expected) <= tol
    sparse = blahut_arimoto(channel_rows(ss, kernel)[0], tol=tol)
    assert abs(sparse.capacity - expected) <= tol
    assert sparse.bracket[1] - sparse.bracket[0] <= tol


def test_dense_input_with_zero_entries():
    mat = np.array([[0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [0.6, 0.0, 0.4]])
    rows = ChannelRows(np.array([0, 2, 4, 6]), np.array([0, 1, 1, 2, 0, 2]), mat[mat > 0.0], 3)
    assert np.array_equal(rows.dense(), mat)
    dense, sparse = blahut_arimoto(mat), blahut_arimoto(rows)
    assert sparse.capacity == pytest.approx(dense.capacity, abs=1e-15)
    assert sparse.iterations == dense.iterations
    assert dense.capacity == pytest.approx(dense_blahut_arimoto(mat)[0], abs=1e-9)
    with pytest.raises(ValueError, match="non-finite"):
        blahut_arimoto(np.array([[math.nan, 1.0], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="sum to 1"):
        blahut_arimoto(ChannelRows(np.array([0, 1, 2]), np.array([0, 1]), np.array([1.0, 0.5]), 2))
