import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmi_lab.algkernel import (
    AlgorithmKernel,
    CmiEstimate,
    ConvergenceError,
    ExactEnumerationError,
    Selector,
    Supersample,
    SupersampleSampler,
    all_selectors,
    blahut_arimoto,
    channel_matrix,
    cmi_distribution_free,
    cmi_distributional,
    cmi_exact_fixed,
    compose_adaptive,
    compose_pair,
    ecmi_fixed,
    postprocess,
    select,
    selected_datasets,
    ucmi_fixed,
)
from cmi_lab.info_core import (
    LOG2,
    FiniteDistribution,
    JointPmf,
    mutual_information,
)
from cmi_lab.stability_mech import randomized_response, rr_selector_supersample, tv_lottery


def mi_uniform_input(conditional):
    """I(input; output) for a row-stochastic matrix with uniform input; the
    dense reference the streamed engine is tested against."""
    rows = conditional.shape[0]
    marginal = conditional.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(conditional) - np.log(marginal)[None, :]
        terms = np.where(conditional > 0.0, conditional * ratio, 0.0)
    return float(terms.sum() / rows)


def distinct_supersample(n):
    return Supersample(tuple((f"a{i}", f"b{i}") for i in range(n)))


def random_table_kernel(ss, n_out, rng, tag=""):
    """Deterministic-as-a-map kernel: a fixed random table dataset -> law."""
    outs = tuple(f"{tag}w{i}" for i in range(n_out))
    table = {}
    for sel in all_selectors(ss.n):
        ds = select(ss, sel)
        if ds not in table:
            table[ds] = FiniteDistribution(tuple(zip(outs, rng.dirichlet(np.ones(n_out)))))
    return AlgorithmKernel(evaluate=lambda ds, t=table: t[ds], output_universe=outs, name=tag)


class TestSupersampleSelector:
    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            Supersample(())
        with pytest.raises(ValueError):
            Supersample(((1, 2, 3),))

    def test_selector_bits_validated(self):
        with pytest.raises(ValueError):
            Selector((0, 2))

    def test_complement_is_involution(self):
        s = Selector((0, 1, 1, 0))
        assert s.complement().complement() == s

    def test_select_columns(self):
        ss = Supersample((("a", "b"), ("c", "d")))
        assert select(ss, Selector((0, 0))) == ("a", "c")
        assert select(ss, Selector((1, 1))) == ("b", "d")
        assert select(ss, Selector((0, 1))) == ("a", "d")
        assert select(ss, Selector((0, 1)).complement()) == ("b", "c")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            select(Supersample((("a", "b"),)), Selector((0, 1)))

    def test_json_round_trip(self):
        ss = Supersample(((1, 2), (3, 4)))
        assert Supersample.from_json_obj(ss.to_json_obj()) == ss


class TestCmiExactFixed:
    def test_constant_kernel(self):
        assert cmi_exact_fixed(distinct_supersample(4), AlgorithmKernel.constant()).value == 0.0

    def test_reveal_all_hits_ceiling(self):
        ss = distinct_supersample(5)
        assert cmi_exact_fixed(ss, AlgorithmKernel.reveal_all()).value == pytest.approx(
            5 * LOG2, abs=1e-12
        )

    def test_randomized_response_single_bit(self):
        est = cmi_exact_fixed(rr_selector_supersample(1), randomized_response(0.25, 1))
        assert est.value == pytest.approx(0.130812, abs=1e-6)
        assert est.method == "exact" and est.ci_halfwidth == 0.0

    def test_deterministic_fast_path_matches_matrix_path(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            ss = distinct_supersample(n)
            labels = rng.integers(0, 3, size=2**n)
            fn = lambda ds, ss=ss, labels=labels: int(
                labels[_selector_index(ss, ds)]
            )
            kernel = AlgorithmKernel.deterministic_map(fn)
            fast = cmi_exact_fixed(ss, kernel).value
            mat, _ = channel_matrix(ss, kernel)
            assert fast == pytest.approx(mi_uniform_input(mat), abs=1e-12)

    def test_matrix_mi_agrees_with_joint_pmf_mi(self):
        # the numpy engine against the dict-based reference implementation
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            ss = distinct_supersample(n)
            kernel = random_table_kernel(ss, int(rng.integers(2, 5)), rng)
            mat, outs = channel_matrix(ss, kernel)
            table = {}
            for i in range(2**n):
                for j, w in enumerate(outs):
                    if mat[i, j] > 0:
                        table[(i, w)] = mat[i, j] / 2**n
            ref = float(mutual_information(JointPmf.from_dict(table)))
            assert cmi_exact_fixed(ss, kernel).value == pytest.approx(ref, abs=1e-12)
            # ECMI: the same joint after merging outputs by loss vector
            points = ss.points()
            bits = {(w, pt): int(rng.integers(0, 2)) for w in outs for pt in points}
            loss = lambda w, pt: bits[(w, pt)]  # noqa: E731
            merged = {}
            for (i, w), mass in table.items():
                key = (i, tuple(loss(w, pt) for pt in points))
                merged[key] = merged.get(key, 0.0) + mass
            ref = float(mutual_information(JointPmf.from_dict(merged)))
            assert ecmi_fixed(ss, kernel, loss).value == pytest.approx(ref, abs=1e-12)

    def test_selected_datasets_in_selector_order(self):
        ss = distinct_supersample(4)
        expected = [select(ss, sel) for sel in all_selectors(ss.n)]
        assert list(selected_datasets(ss)) == expected
        with pytest.raises(ExactEnumerationError):
            selected_datasets(ss, cap=2**3)

    def test_stochastic_engine_streams(self):
        # the uniform-selector engine keeps only the output marginal, not
        # the 2^n x |W| channel (which is 2048 x 2049 here)
        ss = Supersample(tuple((i, -i) for i in range(1, 12)))
        tracemalloc.start()
        try:
            value = cmi_exact_fixed(ss, tv_lottery(0.3, 11)).value
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(0.3 * 11 * LOG2, abs=1e-10)
        assert peak < 16 * 2**20

    def test_outputs_outside_universe_rejected(self):
        ss = distinct_supersample(3)
        det = AlgorithmKernel.deterministic_map(lambda ds: ds[0], output_universe=("a0",))
        stoch = AlgorithmKernel(
            evaluate=lambda ds: FiniteDistribution(((ds[0], 0.5), ("x", 0.5))),
            output_universe=("a0", "x"),
        )
        loss = lambda w, pt: 0.0  # noqa: E731
        for kernel in (det, stoch):
            with pytest.raises(ValueError, match="outside universe"):
                cmi_exact_fixed(ss, kernel)
            with pytest.raises(ValueError, match="outside universe"):
                ecmi_fixed(ss, kernel, loss)
            with pytest.raises(ValueError, match="outside universe"):
                ucmi_fixed(ss, kernel)

    def test_entropy_cap_on_reachable_outputs(self):
        ss = distinct_supersample(6)
        # only the first row's two points are reachable outputs
        kernel = AlgorithmKernel.deterministic_map(lambda ds: ds[0])
        assert cmi_exact_fixed(ss, kernel).value <= math.log(2) + 1e-12

    def test_selector_cap_errors(self):
        ss = distinct_supersample(8)
        with pytest.raises(ExactEnumerationError):
            cmi_exact_fixed(ss, AlgorithmKernel.constant(), selector_cap=2**7)

    def test_invariant_under_row_permutation_and_swaps(self):
        # permuting rows and swapping within rows re-indexes the selector
        # hypercube by a bijection; the selection information is unchanged
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            ss = distinct_supersample(n)
            kernel = random_table_kernel(ss, 3, rng)
            base = cmi_exact_fixed(ss, kernel).value
            perm = rng.permutation(n)
            flips = rng.integers(0, 2, size=n)
            rows = []
            for i in range(n):
                row = ss.grid[perm[i]]
                rows.append(row[::-1] if flips[i] else row)
            ss2 = Supersample(tuple(rows))
            law = {}
            for sel in all_selectors(n):
                original_bits = [0] * n
                for i, bit in enumerate(sel.bits):
                    original_bits[perm[i]] = bit ^ int(flips[i])
                law[select(ss2, sel)] = kernel(select(ss, Selector(tuple(original_bits))))
            k2 = AlgorithmKernel(evaluate=lambda ds, t=law: t[ds])
            assert cmi_exact_fixed(ss2, k2).value == pytest.approx(base, abs=1e-10)


def _selector_index(ss, ds):
    idx = 0
    for i, (point, row) in enumerate(zip(ds, ss.grid)):
        if point == row[1]:
            idx |= 1 << i
        elif point != row[0]:
            raise AssertionError("dataset not from this supersample")
    return idx


class TestCmiDistributional:
    def test_constant_kernel_exact_zero(self):
        sampler = SupersampleSampler.from_distribution(FiniteDistribution.bernoulli(0.5), 2)
        est = cmi_distributional(AlgorithmKernel.constant(), sampler, mode="exact")
        assert est.value == 0.0 and est.method == "exact"

    def test_exact_matches_brute_force_enumeration(self):
        # independent oracle: enumerate supp(D)^{2n} by hand and average
        dist = FiniteDistribution((("u", 0.25), ("v", 0.75)))
        sampler = SupersampleSampler.from_distribution(dist, 2)
        kernel = AlgorithmKernel.deterministic_map(lambda ds: ds.count("u"))
        est = cmi_distributional(kernel, sampler, mode="exact")

        import itertools

        total = 0.0
        for combo in itertools.product(dist.atoms, repeat=4):
            weight = math.prod(m for _, m in combo)
            ss = Supersample(((combo[0][0], combo[1][0]), (combo[2][0], combo[3][0])))
            counts = {}
            for sel in all_selectors(2):
                w = kernel(select(ss, sel)).point_label()
                counts[w] = counts.get(w, 0) + 1
            h = -sum(c / 4 * math.log(c / 4) for c in counts.values())
            total += weight * h
        assert est.value == pytest.approx(total, abs=1e-12)

    def test_exact_cap_enforced(self):
        dist = FiniteDistribution.uniform(list(range(10)))
        sampler = SupersampleSampler.from_distribution(dist, 5)
        with pytest.raises(ExactEnumerationError):
            cmi_distributional(AlgorithmKernel.constant(), sampler, mode="exact")

    def test_mc_trials_floor(self):
        sampler = SupersampleSampler.from_distribution(FiniteDistribution.bernoulli(0.5), 2)
        with pytest.raises(ValueError):
            cmi_distributional(AlgorithmKernel.constant(), sampler, mode="mc", trials=5)

    def test_evaluator_values_are_range_checked(self):
        n = 2
        sampler = SupersampleSampler.from_distribution(FiniteDistribution.bernoulli(0.5), n)
        too_large = lambda ss: n * LOG2 + 1e-6
        for mode in ("exact", "mc"):
            with pytest.raises(RuntimeError, match="exceeds n log 2"):
                cmi_distributional(AlgorithmKernel.constant(), sampler, mode=mode, evaluator=too_large)

    def test_mc_ci_covers_exact_value(self):
        # 95% CI should cover the enumerated truth in >= 90 of 100 seeded reps
        kernel = randomized_response(0.3, 2)
        sampler = SupersampleSampler.from_distribution(FiniteDistribution.bernoulli(0.5), 2)
        exact = cmi_distributional(kernel, sampler, mode="exact").value
        covered = 0
        for rep in range(100):
            est = cmi_distributional(kernel, sampler, mode="mc", trials=200, seed=rep)
            if abs(est.value - exact) <= est.ci_halfwidth:
                covered += 1
        assert covered >= 90


class TestCmiDistributionFree:
    def test_constant_zero_and_reveal_full(self):
        candidates = [distinct_supersample(3), distinct_supersample(3)]
        assert cmi_distribution_free(AlgorithmKernel.constant(), candidates).value == 0.0
        est = cmi_distribution_free(AlgorithmKernel.reveal_all(), candidates)
        assert est.value == pytest.approx(3 * LOG2, abs=1e-12)
        assert est.lower_bound

    def test_monotone_in_candidates(self):
        rng = np.random.default_rng(3)
        ss1 = distinct_supersample(3)
        kernel = AlgorithmKernel.deterministic_map(lambda ds: ds[0])
        small = cmi_distribution_free(kernel, [ss1]).value
        bigger = cmi_distribution_free(kernel, [ss1, distinct_supersample(3)]).value
        assert bigger >= small - 1e-15

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            cmi_distribution_free(AlgorithmKernel.constant(), [])


class TestBlahutArimoto:
    def test_noiseless_channel_capacity(self):
        res = blahut_arimoto(np.eye(8))
        assert res.capacity == pytest.approx(math.log(8), abs=1e-9)

    def test_binary_symmetric_channel(self):
        p = 0.25
        mat = np.array([[1 - p, p], [p, 1 - p]])
        h = -p * math.log(p) - (1 - p) * math.log(1 - p)
        assert blahut_arimoto(mat).capacity == pytest.approx(LOG2 - h, abs=1e-9)

    def test_lower_bounds_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            mat = rng.dirichlet(np.ones(4), size=6)
            res = blahut_arimoto(mat, tol=1e-7)
            lbs = res.lower_bounds
            assert all(lbs[i] <= lbs[i + 1] + 1e-12 for i in range(len(lbs) - 1))
            assert res.bracket[1] - res.bracket[0] <= 1e-7

    def test_convergence_error_carries_bracket(self):
        rng = np.random.default_rng(5)
        mat = rng.dirichlet(np.ones(3), size=5)
        with pytest.raises(ConvergenceError) as err:
            blahut_arimoto(mat, tol=1e-12, max_iters=2)
        lo, hi = err.value.bracket
        assert hi >= lo

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            blahut_arimoto(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            blahut_arimoto(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_single_input_capacity_zero(self):
        assert blahut_arimoto(np.array([[0.3, 0.7]])).capacity == 0.0


class TestUcmiFixed:
    def test_constant_and_reveal(self):
        ss = distinct_supersample(3)
        assert ucmi_fixed(ss, AlgorithmKernel.constant()).value == 0.0
        assert ucmi_fixed(ss, AlgorithmKernel.reveal_all()).value == pytest.approx(
            3 * LOG2, abs=1e-9
        )

    def test_randomized_response_matches_bsc_capacity(self):
        p = 0.25
        est = ucmi_fixed(rr_selector_supersample(1), randomized_response(p, 1))
        h = -p * math.log(p) - (1 - p) * math.log(1 - p)
        assert est.value == pytest.approx(LOG2 - h, abs=1e-9)
        assert est.value == pytest.approx(0.130812, abs=1e-6)

    def test_dominates_uniform_selector_value(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            ss = distinct_supersample(n)
            kernel = random_table_kernel(ss, int(rng.integers(2, 5)), rng)
            tol = 1e-7
            u = ucmi_fixed(ss, kernel, tol=tol).value
            c = cmi_exact_fixed(ss, kernel).value
            assert u >= c - tol


class TestEcmiFixed:
    def test_constant_loss_collapses_to_zero(self):
        ss = distinct_supersample(4)
        kernel = AlgorithmKernel.reveal_all()
        assert ecmi_fixed(ss, kernel, lambda w, z: 0.0).value == 0.0

    def test_injective_evaluation_preserves_value(self):
        rng = np.random.default_rng(7)
        ss = distinct_supersample(3)
        kernel = random_table_kernel(ss, 4, rng)
        # a loss whose profile identifies the output exactly
        outs = {w: float(i) for i, w in enumerate(kernel.output_universe)}
        loss = lambda w, z: outs[w]
        assert ecmi_fixed(ss, kernel, loss).value == pytest.approx(
            cmi_exact_fixed(ss, kernel).value, abs=1e-10
        )

    def test_never_exceeds_cmi(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            ss = distinct_supersample(n)
            kernel = random_table_kernel(ss, int(rng.integers(2, 6)), rng)
            values = {
                (w, pt): float(rng.integers(0, 3)) / 2.0
                for w in kernel.output_universe
                for pt in ss.points()
            }
            loss = lambda w, z, v=values: v[(w, z)]
            assert (
                ecmi_fixed(ss, kernel, loss).value
                <= cmi_exact_fixed(ss, kernel).value + 1e-10
            )

    def test_strict_collision_drops_information(self):
        # dataset-encoding thresholds with the same decision boundary merge
        from cmi_lab.bounds import zero_one_loss
        from cmi_lab.learners import pathological_kernel

        grid = ((0.10, 0), (0.90, 1)), ((0.20, 0), (0.30, 0)), ((0.40, 0), (0.50, 0))
        ss = Supersample(grid)
        kernel = pathological_kernel(2)
        cmi = cmi_exact_fixed(ss, kernel).value
        ecmi = ecmi_fixed(ss, kernel, zero_one_loss()).value
        assert ecmi < cmi - 0.1
        assert cmi == pytest.approx(3 * LOG2, abs=1e-12)


class TestCombinators:
    def test_compose_constants(self):
        ss = distinct_supersample(3)
        pair = compose_pair(AlgorithmKernel.constant("a"), AlgorithmKernel.constant("b"))
        assert cmi_exact_fixed(ss, pair).value == 0.0

    def test_compose_constant_with_reveal_is_equality_case(self):
        ss = distinct_supersample(4)
        pair = compose_pair(AlgorithmKernel.constant(), AlgorithmKernel.reveal_all())
        assert cmi_exact_fixed(ss, pair).value == pytest.approx(4 * LOG2, abs=1e-12)

    def test_randomized_response_pair_subadditive(self):
        n = 3
        ss = rr_selector_supersample(n)
        a1 = randomized_response(0.25, n)
        a2 = randomized_response(0.4, n)
        both = cmi_exact_fixed(ss, compose_pair(a1, a2)).value
        parts = cmi_exact_fixed(ss, a1).value + cmi_exact_fixed(ss, a2).value
        assert both <= parts + 1e-9
        assert both > cmi_exact_fixed(ss, a1).value  # slack is real but not total

    def test_postprocess_merge_all(self):
        ss = distinct_supersample(3)
        kernel = AlgorithmKernel.reveal_all()
        mat, outs = channel_matrix(ss, kernel)
        merged = postprocess(kernel, {w: FiniteDistribution.point_mass("only") for w in outs})
        assert cmi_exact_fixed(ss, merged).value == 0.0

    def test_postprocess_permutation_preserves_value(self):
        rng = np.random.default_rng(9)
        ss = distinct_supersample(3)
        kernel = random_table_kernel(ss, 4, rng)
        outs = list(kernel.output_universe)
        perm = list(rng.permutation(len(outs)))
        mapping = {w: FiniteDistribution.point_mass(outs[perm[i]]) for i, w in enumerate(outs)}
        assert cmi_exact_fixed(ss, postprocess(kernel, mapping)).value == pytest.approx(
            cmi_exact_fixed(ss, kernel).value, abs=1e-10
        )

    def test_postprocess_lossy_merge_strictly_decreases(self):
        from cmi_lab.learners import threshold_kernel

        ss = Supersample((((0.1, 1), (0.5, 0)), ((0.3, 1), (0.7, 0))))
        kernel = threshold_kernel()
        mat, outs = channel_matrix(ss, kernel)
        assert len(outs) >= 3
        sink, rest = outs[0], outs[1:]
        mapping = {w: FiniteDistribution.point_mass(sink) for w in (sink, rest[0])}
        for w in rest[1:]:
            mapping[w] = FiniteDistribution.point_mass(w)
        merged_value = cmi_exact_fixed(ss, postprocess(kernel, mapping)).value
        assert merged_value < cmi_exact_fixed(ss, kernel).value - 1e-6

    def test_postprocess_rejects_non_stochastic_rows(self):
        kernel = AlgorithmKernel.constant("w")
        with pytest.raises(ValueError):
            postprocess(kernel, {"w": {"a": 0.7, "b": 0.7}})

    def test_never_increases_on_random_maps(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            ss = distinct_supersample(n)
            kernel = random_table_kernel(ss, 4, rng)
            targets = ["t0", "t1", "t2"]
            mapping = {
                w: FiniteDistribution(tuple(zip(targets, rng.dirichlet(np.ones(3)))))
                for w in kernel.output_universe
            }
            assert (
                cmi_exact_fixed(ss, postprocess(kernel, mapping)).value
                <= cmi_exact_fixed(ss, kernel).value + 1e-9
            )

    def test_adaptive_composition_ucmi_subadditive(self):
        rng = np.random.default_rng(11)
        tol = 1e-7
        for _ in range(15):
            n = int(rng.integers(2, 4))
            ss = distinct_supersample(n)
            a1 = random_table_kernel(ss, int(rng.integers(2, 4)), rng, "x")
            family = {
                w1: random_table_kernel(ss, int(rng.integers(2, 4)), rng, f"y{w1}")
                for w1 in a1.output_universe
            }
            comp = compose_adaptive(a1, family)
            u = ucmi_fixed(ss, comp, tol=tol).value
            u1 = ucmi_fixed(ss, a1, tol=tol).value
            u2 = max(ucmi_fixed(ss, family[w], tol=tol).value for w in a1.output_universe)
            assert u <= u1 + u2 + 2 * tol + 1e-6


class TestCmiEstimate:
    def test_serialization_round_trip(self):
        est = CmiEstimate(value=0.5, method="monte-carlo", ci_halfwidth=0.01, trials=100, seed=3)
        assert CmiEstimate.from_json_obj(est.to_json_obj()) == est
        assert set(est.to_json_obj()) == {"value_nats", "method", "ci", "trials", "seed"}

    def test_exact_forbids_ci(self):
        with pytest.raises(ValueError):
            CmiEstimate(value=0.1, method="exact", ci_halfwidth=0.1)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            CmiEstimate(value=-0.5, method="exact")


class TestSampler:
    def test_draw_is_seed_deterministic(self):
        sampler = SupersampleSampler.from_distribution(FiniteDistribution.bernoulli(0.4), 3)
        assert sampler.draw(7).grid == sampler.draw(7).grid
        assert sampler.draw(7).grid != sampler.draw(8).grid


class TestOrderingInvariant:
    def test_distributional_below_distribution_free_below_ucmi(self):
        # on a finite domain where all three are exactly computable, the
        # expectation over supersamples never exceeds the candidate maximum,
        # which never exceeds the worst-selector-law maximum
        import itertools

        dist = FiniteDistribution((("u", 0.3), ("v", 0.7)))
        n = 2
        sampler = SupersampleSampler.from_distribution(dist, n)
        rng = np.random.default_rng(12)
        law = {}
        for ds in itertools.product(("u", "v"), repeat=n):
            law[ds] = FiniteDistribution(tuple(zip("abc", rng.dirichlet(np.ones(3)))))
        kernel = AlgorithmKernel(evaluate=lambda ds, t=law: t[ds], output_universe=tuple("abc"))

        candidates = [
            Supersample(tuple((row[2 * i], row[2 * i + 1]) for i in range(n)))
            for row in itertools.product(("u", "v"), repeat=2 * n)
        ]
        distributional = cmi_distributional(kernel, sampler, mode="exact").value
        free = cmi_distribution_free(kernel, candidates).value
        ucmi_max = max(ucmi_fixed(ss, kernel).value for ss in candidates)
        assert distributional <= free + 1e-9
        assert free <= ucmi_max + 1e-9


class TestThresholdSixteenPointDomain:
    def test_distributional_value_below_two(self):
        # supp(D)^(2n) = 16^10 exceeds the exact-enumeration cap, so the
        # expectation is estimated by Monte Carlo with exact inner values;
        # every inner value obeys the distribution-free cap of 2 nats, hence
        # so does the mean, with no CI slack needed
        from cmi_lab.learners import threshold_kernel

        dist = FiniteDistribution(
            tuple(((i / 16.0, 1 if i >= 8 else 0), 1.0 / 16.0) for i in range(16))
        )
        sampler = SupersampleSampler.from_distribution(dist, 5)
        with pytest.raises(ExactEnumerationError):
            cmi_distributional(threshold_kernel(), sampler, mode="exact")
        est = cmi_distributional(
            threshold_kernel(), sampler, mode="mc", trials=400, seed=16
        )
        assert est.value <= 2.0


@st.composite
def table_kernels(draw, ss=None):
    """A supersample with n <= 4 rows over a few (possibly repeated) points
    (or the given one), a kernel that maps each selected dataset to a drawn
    row of output weights (one-hot rows for a deterministic kernel), and a
    loss table."""
    if ss is None:
        n = draw(st.integers(1, 4))
        points = st.integers(0, 3)
        ss = Supersample(tuple((draw(points), draw(points)) for _ in range(n)))
    n = ss.n
    width = draw(st.integers(1, 4))
    weights = st.lists(st.integers(0, 3), min_size=width, max_size=width).filter(any)
    rows = draw(st.lists(weights, min_size=2**n, max_size=2**n))
    table = {}
    for ds in selected_datasets(ss):
        table.setdefault(ds, rows[len(table)])
    universe = tuple(range(width))
    if draw(st.booleans()):
        kernel = AlgorithmKernel.deterministic_map(
            lambda ds: int(np.argmax(table[ds])), output_universe=universe
        )
    else:
        kernel = AlgorithmKernel(
            evaluate=lambda ds: FiniteDistribution(
                tuple((w, m / sum(table[ds])) for w, m in enumerate(table[ds]) if m)
            ),
            output_universe=universe,
        )
    losses = {(w, z): draw(st.integers(0, 4)) / 4.0 for w in universe for z in range(4)}
    return ss, kernel, width, lambda w, z: losses[(w, z)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(table_kernels())
def test_cmi_variants_are_ordered(case):
    ss, kernel, width, loss = case
    ecmi = ecmi_fixed(ss, kernel, loss).value
    cmi = cmi_exact_fixed(ss, kernel).value
    ucmi = ucmi_fixed(ss, kernel).value
    cap = min(ss.n * LOG2, math.log(width))
    assert -1e-9 <= ecmi <= cmi + 1e-9
    assert cmi <= ucmi + 1e-9
    assert ucmi <= cap + 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(table_kernels(), st.data())
def test_postprocess_never_raises_cmi(case, data):
    ss, kernel, width, _ = case
    targets = data.draw(st.integers(1, 3))
    weights = st.lists(st.integers(0, 3), min_size=targets, max_size=targets).filter(any)
    mapping = {}
    for w in range(width):
        row = data.draw(weights)
        mapping[w] = {t: m / sum(row) for t, m in enumerate(row) if m}
    processed = cmi_exact_fixed(ss, postprocess(kernel, mapping)).value
    assert processed <= cmi_exact_fixed(ss, kernel).value + 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_compose_pair_is_subadditive(data):
    ss, a1, _, _ = data.draw(table_kernels())
    _, a2, _, _ = data.draw(table_kernels(ss))
    both = cmi_exact_fixed(ss, compose_pair(a1, a2)).value
    assert both <= cmi_exact_fixed(ss, a1).value + cmi_exact_fixed(ss, a2).value + 1e-9
