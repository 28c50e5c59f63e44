import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cmi_lab.algkernel import (
    AlgorithmKernel,
    Supersample,
    cmi_distribution_free,
    cmi_distributional,
    cmi_exact_fixed,
    SupersampleSampler,
)
from cmi_lab.info_core import LOG2
from cmi_lab.learners import (
    ConstantHypothesis,
    HypothesisClass,
    NotRealizableError,
    ParityHypothesis,
    TableHypothesis,
    ThresholdHypothesis,
    compression_wrap,
    consistent_erm,
    dataset_from_csv,
    dataset_from_json,
    decode_dataset,
    encode_dataset_below,
    interval_class,
    labellings,
    parity_collision_probability,
    parity_kernel,
    parity_learn,
    parity_population,
    parity_from_string,
    parity_to_string,
    pathological_erm,
    pathological_kernel,
    pathological_selection_entropy,
    sauer_shelah_cap,
    threshold_class,
    threshold_from_string,
    threshold_kernel,
    threshold_learn,
    threshold_selection_entropy,
    threshold_to_string,
    vc_dimension,
)


def random_labeled_supersample(rng, n):
    xs = rng.random(2 * n)
    ys = rng.integers(0, 2, size=2 * n)
    return Supersample(
        tuple(
            ((float(xs[2 * i]), int(ys[2 * i])), (float(xs[2 * i + 1]), int(ys[2 * i + 1])))
            for i in range(n)
        )
    )


class TestThresholdLearn:
    def test_min_positive(self):
        assert threshold_learn(((1, 0), (3, 1), (2, 1))).t == 2

    def test_all_negative_gives_constant_zero(self):
        h = threshold_learn(((1, 0), (5, 0)))
        assert h.t == math.inf
        assert h.predict(10.0) == 0

    def test_consistent_on_realizable_data(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            xs = rng.random(n)
            ys = (xs >= 0.5).astype(int)
            ds = tuple((float(x), int(y)) for x, y in zip(xs, ys))
            h = threshold_learn(ds)
            assert all(h.predict(x) == y for x, y in ds)

    def test_duplicates_allowed(self):
        assert threshold_learn(((2.0, 1), (2.0, 1), (1.0, 0))).t == 2.0


class TestThresholdSelectionEntropy:
    def test_matches_exact_engine(self):
        rng = np.random.default_rng(1)
        kernel = threshold_kernel()
        for _ in range(200):
            n = int(rng.integers(1, 7))
            ss = random_labeled_supersample(rng, n)
            assert threshold_selection_entropy(ss) == pytest.approx(
                cmi_exact_fixed(ss, kernel).value, abs=1e-12
            )

    def test_matches_engine_with_repeated_values(self):
        kernel = threshold_kernel()
        ss = Supersample(
            (((0.5, 1), (0.5, 1)), ((0.5, 1), (0.2, 0)), ((0.1, 0), (0.9, 1)))
        )
        assert threshold_selection_entropy(ss) == pytest.approx(
            cmi_exact_fixed(ss, kernel).value, abs=1e-12
        )

    def test_uncoupled_truncated_geometric(self):
        # m positives in distinct rows: H = (2 - 2^(2-k)) log 2 with k = m + 1
        for m in range(1, 6):
            rows = [((10.0 + i, 1), (100.0 + i, 0)) for i in range(m)]
            rows += [((200.0 + i, 0), (300.0 + i, 0)) for i in range(6 - m)]
            ss = Supersample(tuple(rows))
            expected = (2 - 2 ** (2 - (m + 1))) * LOG2
            assert threshold_selection_entropy(ss) == pytest.approx(expected, abs=1e-9)

    def test_constant_bound_two_nats(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            ss = random_labeled_supersample(rng, n)
            assert threshold_selection_entropy(ss) <= 2.0


class TestParityLearn:
    @staticmethod
    def brute_force(ds, d):
        best = None
        for v in range(2**d):
            w = tuple((v >> i) & 1 for i in range(d))
            h = ParityHypothesis(w)
            if all(h.predict(x) == y for x, y in ds):
                if best is None or w < best:
                    best = w
        return best

    def test_forced_system(self):
        assert parity_learn((((1, 0), 1), ((0, 1), 0)), 2).w == (1, 0)

    def test_underdetermined_lexicographic(self):
        assert parity_learn((((0, 0), 0),), 2).w == (0, 0)
        # x1 + x2 = 1: solutions {(1,0),(0,1)}; lexicographic least is (0,1)
        assert parity_learn((((1, 1), 1),), 2).w == (0, 1)

    def test_full_rank_recovers_truth(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            w_star = ParityHypothesis(tuple(int(b) for b in rng.integers(0, 2, size=d)))
            xs = [[0] * d]
            while _gf2_rank(np.array(xs)) < d:
                xs = [tuple(int(b) for b in rng.integers(0, 2, size=d)) for _ in range(2 * d)]
            ds = tuple((tuple(x), w_star.predict(x)) for x in xs)
            assert parity_learn(ds, d).w == w_star.w

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            w_star = ParityHypothesis(tuple(int(b) for b in rng.integers(0, 2, size=d)))
            ds = tuple(
                ((x := tuple(int(b) for b in rng.integers(0, 2, size=d))), w_star.predict(x))
                for _ in range(n)
            )
            assert parity_learn(ds, d).w == self.brute_force(ds, d)

    def test_not_realizable(self):
        with pytest.raises(NotRealizableError):
            parity_learn((((1, 0), 1), ((1, 0), 0)), 2)

    def test_collision_probability_matches_enumeration(self):
        for d, n in ((1, 3), (2, 3), (2, 4), (3, 4)):
            bad = 0
            for cells in itertools.product((0, 1), repeat=n * d):
                mat = np.array(cells).reshape(n, d)
                r = _gf2_rank(mat)
                if r < d:
                    bad += 1
            expected = bad / 2 ** (n * d)
            assert parity_collision_probability(d, n) == pytest.approx(expected, abs=1e-12)

    def test_pseudodeterministic_bound_small_exact(self):
        # d=2, n=4, uniform realizable population: exact expectation over all
        # supersamples stays below 2^(d-n) (n log 2 + 1)
        d, n = 2, 4
        pop = parity_population((1, 1))
        sampler = SupersampleSampler.from_distribution(pop, n)
        est = cmi_distributional(parity_kernel(d), sampler, mode="exact")
        bound = 2 ** (d - n) * (n * LOG2 + 1)
        assert est.value <= bound
        assert bound == pytest.approx(0.943, abs=1e-3)

    def test_string_round_trip(self):
        h = ParityHypothesis((1, 0, 1))
        assert parity_from_string(parity_to_string(h)) == h


def _gf2_rank(mat):
    work = [int("".join(str(b) for b in row), 2) if row.any() else 0 for row in mat]
    rank = 0
    for col in range(mat.shape[1]):
        bit = 1 << (mat.shape[1] - 1 - col)
        pivot = next((i for i in range(rank, len(work)) if work[i] & bit), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        rank += 1
    return rank


class TestConsistentErm:
    def test_zero_loss_on_realizable_data(self):
        cls = interval_class(range(8))
        z = ((1, 0), (3, 1), (4, 1), (6, 0))
        h = consistent_erm(cls, z)
        assert all(h.predict(x) == y for x, y in z)

    def test_rerun_on_own_labels_returns_same(self):
        cls = interval_class(range(8))
        z = ((0, 1), (3, 1), (5, 0))
        h = consistent_erm(cls, z)
        assert consistent_erm(cls, tuple((x, h.predict(x)) for x, _ in z)) == h

    def test_global_consistency_on_supersets(self):
        rng = np.random.default_rng(5)
        domain = tuple(range(10))
        cls = interval_class(domain)
        for _ in range(300):
            m = int(rng.integers(1, 6))
            xs = rng.choice(domain, size=m, replace=False)
            ys = rng.integers(0, 2, size=m)
            h = consistent_erm(cls, tuple((int(x), int(y)) for x, y in zip(xs, ys)))
            extra = rng.choice(domain, size=int(rng.integers(0, 5)), replace=True)
            sup = tuple(int(x) for x in xs) + tuple(int(x) for x in extra)
            relabeled = tuple((x, h.predict(x)) for x in sup)
            assert consistent_erm(cls, relabeled) == h

    def test_tie_broken_toward_least(self):
        lo = TableHypothesis((0, 1), (0, 0))
        hi = TableHypothesis((0, 1), (0, 1))
        cls = HypothesisClass((hi, lo))  # construction sorts canonically
        assert consistent_erm(cls, ((0, 0),)) == lo

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            consistent_erm(HypothesisClass(()), ((0, 0),))

    def test_distribution_free_cmi_within_vc_bound(self):
        rng = np.random.default_rng(6)
        domain = tuple(range(10))
        for cls, d in ((threshold_class(domain), 1), (interval_class(domain), 2)):
            kernel = AlgorithmKernel.deterministic_map(lambda ds, c=cls: consistent_erm(c, ds))
            for n in (2, 3, 4):
                candidates = []
                for _ in range(40):
                    xs = rng.choice(domain, size=(n, 2))
                    ys = rng.integers(0, 2, size=(n, 2))
                    candidates.append(
                        Supersample(
                            tuple(
                                ((int(xs[i, 0]), int(ys[i, 0])), (int(xs[i, 1]), int(ys[i, 1])))
                                for i in range(n)
                            )
                        )
                    )
                est = cmi_distribution_free(kernel, candidates)
                assert est.value <= d * math.log(n) + 2 + 1e-9


class TestSauerShelah:
    def test_structured_classes(self):
        domain = tuple(range(12))
        for cls, d in ((threshold_class(domain), 1), (interval_class(domain), 2)):
            assert vc_dimension(cls, domain) == d
            for m in range(1, 13):
                pts = domain[:m]
                assert len(labellings(cls, pts)) <= sauer_shelah_cap(m, d)

    def test_random_subclasses(self):
        rng = np.random.default_rng(7)
        domain = tuple(range(8))
        for _ in range(20):
            size = int(rng.integers(2, 20))
            members = {
                tuple(int(b) for b in rng.integers(0, 2, size=len(domain)))
                for _ in range(size)
            }
            cls = HypothesisClass(tuple(TableHypothesis(domain, bits) for bits in members))
            d = vc_dimension(cls, domain)
            for m in (3, 5, 8):
                assert len(labellings(cls, domain[:m])) <= sauer_shelah_cap(m, d)


class TestCompression:
    def test_size_zero_constant(self):
        kernel = compression_wrap(0, lambda ds: (), lambda pts: "fixed")
        ss = Supersample(tuple((i, -i) for i in range(1, 5)))
        assert cmi_exact_fixed(ss, kernel).value == 0.0

    def test_threshold_as_size_one_scheme(self):
        def choose_min_positive(ds):
            pos = [i for i, (x, y) in enumerate(ds) if y == 1]
            return (min(pos, key=lambda i: ds[i][0]),) if pos else (0,)

        kernel = compression_wrap(1, choose_min_positive, lambda pts: pts[0])
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            ss = random_labeled_supersample(rng, n)
            assert cmi_exact_fixed(ss, kernel).value <= math.log(2 * n) + 1e-9

    def test_size_two_bound(self):
        kernel = compression_wrap(
            2,
            lambda ds: (
                min(range(len(ds)), key=lambda i: ds[i]),
                max(range(len(ds)), key=lambda i: ds[i]),
            ),
            lambda pts: pts,
        )
        rng = np.random.default_rng(9)
        n = 5
        for _ in range(100):
            ss = Supersample(
                tuple((float(rng.random()), float(rng.random())) for _ in range(n))
            )
            assert cmi_exact_fixed(ss, kernel).value <= 2 * math.log(2 * n) + 1e-9
        assert 2 * math.log(2 * n) == pytest.approx(4.605, abs=1e-3)

    def test_chooser_validation(self):
        bad_size = compression_wrap(2, lambda ds: (0,), lambda pts: pts)
        with pytest.raises(ValueError):
            bad_size(("a", "b", "c"))
        out_of_range = compression_wrap(1, lambda ds: (7,), lambda pts: pts)
        with pytest.raises(ValueError):
            out_of_range(("a", "b", "c"))


class TestPathologicalErm:
    def test_round_trip_decoding(self):
        for ds in (
            ((0.31, 0), (0.47, 1), (0.12, 0), (0.55, 1)),
            ((0.31, 0), (0.47, 1), (0.12, 0)),
            ((0.31, 1), (0.0, 0)),
            ((0.0, 0),) * 10,
        ):
            h = pathological_erm(ds, grid_decimals=2)
            assert decode_dataset(h.t, 2) == ds
        # a float threshold, one with no payload, and one whose decimal
        # expansion never ends
        for t, error in (
            (0.305, TypeError),
            (Fraction(1, 2), ValueError),
            (Fraction(1, 100) - Fraction(1, 3 * 10**9), ValueError),
        ):
            with pytest.raises(error):
                decode_dataset(t, 2)

    def test_deterministic(self):
        ds = ((0.2, 1), (0.9, 0))
        assert pathological_erm(ds) == pathological_erm(ds)

    def test_zero_loss_when_separable(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            xs = rng.integers(0, 100, size=n) / 100.0
            ys = (xs >= 0.5).astype(int)
            ds = tuple((float(x), int(y)) for x, y in zip(xs, ys))
            h = pathological_erm(ds, grid_decimals=2)
            assert all(h.predict(x) == y for x, y in ds)

    def test_is_an_empirical_risk_minimizer(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            xs = rng.integers(0, 50, size=n) / 100.0
            ys = rng.integers(0, 2, size=n)
            ds = tuple((float(x), int(y)) for x, y in zip(xs, ys))
            h = pathological_erm(ds, grid_decimals=2)
            mine = sum(1 for x, y in ds if h.predict(x) != y)
            for cut in list({x for x, _ in ds}) + [math.inf]:
                other = sum(1 for x, y in ds if (1 if x >= cut else 0) != y)
                assert mine <= other

    def test_nearly_maximal_selection_information(self):
        rng = np.random.default_rng(12)
        n = 6
        xs = rng.choice(np.arange(100), size=2 * n, replace=False) / 100.0
        ys = rng.integers(0, 2, size=2 * n)
        ss = Supersample(
            tuple(
                ((float(xs[2 * i]), int(ys[2 * i])), (float(xs[2 * i + 1]), int(ys[2 * i + 1])))
                for i in range(n)
            )
        )
        value = cmi_exact_fixed(ss, pathological_kernel(2)).value
        assert value >= 0.9 * n * LOG2
        # the plain min-positive learner stays below 2 bits on the same data
        assert cmi_exact_fixed(ss, threshold_kernel()).value <= 1.386

    def test_analytic_entropy_matches_engine(self):
        rng = np.random.default_rng(13)
        kernel = pathological_kernel(2)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            xs = rng.integers(0, 100, size=2 * n) / 100.0  # duplicates possible
            ys = rng.integers(0, 2, size=2 * n)
            ss = Supersample(
                tuple(
                    (
                        (float(xs[2 * i]), int(ys[2 * i])),
                        (float(xs[2 * i + 1]), int(ys[2 * i + 1])),
                    )
                    for i in range(n)
                )
            )
            assert pathological_selection_entropy(ss) == pytest.approx(
                cmi_exact_fixed(ss, kernel).value, abs=1e-12
            )

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError):
            pathological_erm(((0.123456, 1),), grid_decimals=2)

    @staticmethod
    def reference_cut(ds, grid_decimals):
        """The least grid cut of minimal empirical 0-1 loss, rescanning the
        whole dataset for every candidate cut."""
        ints = [round(x * 10**grid_decimals) for x, _ in ds]
        best = best_errors = None
        for c in sorted(set(ints)) + [max(ints) + 1]:
            errors = sum(1 for xi, (_, y) in zip(ints, ds) if (1 if xi >= c else 0) != y)
            if best_errors is None or errors < best_errors:
                best, best_errors = c, errors
        return best

    def test_sweep_matches_rescanning_cut_search(self):
        rng = np.random.default_rng(14)
        cases = [
            ((0.1, 0), (0.2, 1), (0.3, 0), (0.4, 1)),  # ties between cuts
            ((0.2, 1), (0.2, 0), (0.2, 1), (0.1, 0)),  # repeated x, mixed labels
            ((0.3, 0), (0.1, 0), (0.3, 0)),  # all 0: cut above the largest x
            ((0.3, 1), (0.1, 1), (0.1, 1)),  # all 1: cut at the least x
        ]
        for _ in range(300):
            n = int(rng.integers(1, 15))
            xs = rng.integers(0, 8, size=n) / 100.0  # few values: many repeats
            ys = rng.integers(0, 2, size=n) if rng.random() < 0.8 else np.full(n, rng.integers(0, 2))
            cases.append(tuple((float(x), int(y)) for x, y in zip(xs, ys)))
        for ds in cases:
            h = pathological_erm(ds, grid_decimals=2)
            assert math.ceil(h.t * 100) == self.reference_cut(ds, 2), ds
            assert h == ThresholdHypothesis(encode_dataset_below(self.reference_cut(ds, 2), ds, 2))


class TestSerializationAndIo:
    def test_threshold_strings(self):
        assert threshold_to_string(ThresholdHypothesis(math.inf)) == "inf"
        assert threshold_from_string("inf").t == math.inf
        h = ThresholdHypothesis(0.25)
        assert threshold_from_string(threshold_to_string(h)).t == h.t
        exact = ThresholdHypothesis(Fraction(314159, 10**25))
        assert threshold_from_string(threshold_to_string(exact)).t == exact.t

    def test_dataset_from_json(self):
        ds = dataset_from_json([[0.5, 1], [[0, 1], 0]])
        assert ds == ((0.5, 1), ((0, 1), 0))

    def test_dataset_from_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5,1\n0.25,0\n")
        assert dataset_from_csv(str(path)) == ((0.5, 1), (0.25, 0))
        multi = tmp_path / "multi.csv"
        multi.write_text("1,0,1\n0,1,0\n")
        assert dataset_from_csv(str(multi)) == (((1.0, 0.0), 1), ((0.0, 1.0), 0))

    def test_constant_hypothesis(self):
        assert ConstantHypothesis(1).predict("anything") == 1
