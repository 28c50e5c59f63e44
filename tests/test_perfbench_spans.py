"""The traced benchmark run's hooks still fit the package.

``perfbench/spans.py`` wraps the functions named in its ``TARGETS`` by
module and attribute path, and its counters read their arguments and
results by name.  A renamed function or a changed result shape would break
only the traced run, so the hooks are checked here against the package,
with the spans module loaded from its file and left unchanged.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from cmi_lab.algkernel import (
    AlgorithmKernel,
    Supersample,
    SupersampleSampler,
    blahut_arimoto,
    channel_matrix,
    cmi_distributional,
    cmi_exact_fixed,
    ecmi_fixed,
    ucmi_fixed,
)
from cmi_lab.info_core import FiniteDistribution
from cmi_lab.stability_mech import tv_lottery

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for module_name, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"cmi_lab.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, path)


def test_counters_read_results_by_name(spans):
    ss = Supersample(tuple((i, -i) for i in range(1, 4)))
    kernel = tv_lottery(0.3, 3)
    result = channel_matrix(ss, kernel)
    mat, outputs = result
    assert isinstance(mat, np.ndarray) and isinstance(outputs, list)
    assert list(spans._count_channel_entries((ss, kernel), {}, result)) == [
        ("algkernel.channel_entries", 8 * 9)
    ]

    ba = blahut_arimoto(mat)
    assert list(spans._count_ba_iterations((mat,), {}, ba)) == [
        ("algkernel.blahut_arimoto.iterations", ba.iterations)
    ]

    for engine, extra in ((cmi_exact_fixed, ()), (ucmi_fixed, ()), (ecmi_fixed, (lambda w, pt: 0.0,))):
        args = (ss, kernel, *extra)
        engine(*args)
        assert list(spans._count_selectors(args, {}, None)) == [("algkernel.selectors", 8)]
        assert list(spans._count_selectors((), {"supersample": ss, "kernel": kernel}, None)) == [
            ("algkernel.selectors", 8)
        ]

    sampler = SupersampleSampler.from_distribution(FiniteDistribution.bernoulli(0.5), 2)
    constant = AlgorithmKernel.constant()
    cmi_distributional(constant, sampler, mode="exact")
    assert list(spans._count_supersamples((constant, sampler), {"mode": "exact"}, None)) == [
        ("algkernel.supersamples", 2**4)
    ]
    assert list(spans._count_supersamples((constant, sampler, "mc", 30), {}, None)) == [
        ("algkernel.supersamples", 30)
    ]
