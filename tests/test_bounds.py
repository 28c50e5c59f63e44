import math

import numpy as np
import pytest

from cmi_lab.algkernel import CmiEstimate
from cmi_lab.bounds import (
    BoundReport,
    GapEstimate,
    Population,
    THEOREMS,
    UnknownTheoremError,
    bound_agnostic,
    bound_auroc,
    bound_nonlinear,
    bound_normalized,
    bound_realizable,
    bound_squared_closed_form,
    check_auroc,
    check_theorem,
    delta_preset,
    empirical_auroc,
    estimate_gap,
    golden_section_min,
    population_auroc,
    positive_rate,
    zero_one_loss,
)
from cmi_lab.harness import grid_threshold_distribution
from cmi_lab.info_core import LOG2, FiniteDistribution
from cmi_lab.learners import pathological_erm, threshold_learn

LOG3 = math.log(3.0)


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, v = golden_section_min(lambda u: (u - 0.37) ** 2 + 1.0, 0.0, 1.0)
        # the argmin is limited by the double-precision plateau of f near the
        # minimum; the minimum value itself is exact
        assert x == pytest.approx(0.37, abs=1e-6)
        assert v == pytest.approx(1.0, abs=1e-15)

    def test_monotone_converges_to_boundary(self):
        x, _ = golden_section_min(lambda u: u, 0.0, 1.0)
        assert x == pytest.approx(0.0, abs=1e-9)


class TestBoundAgnostic:
    def test_expected_zero_cmi(self):
        assert bound_agnostic("expected", 0.0, 10) == 0.0

    def test_expected_at_full_cmi(self):
        n = 50
        assert bound_agnostic("expected", n * LOG2, n) == pytest.approx(
            math.sqrt(2 * LOG2), abs=1e-12
        )
        assert math.sqrt(2 * LOG2) == pytest.approx(1.177410, abs=1e-6)

    def test_absolute_adds_log2(self):
        assert bound_agnostic("absolute", 1.0, 10) == pytest.approx(
            math.sqrt(2 * (1.0 + LOG2) / 10), abs=1e-12
        )

    def test_unbounded_scale(self):
        assert bound_agnostic("unbounded", 1.0, 10, scale=4.0) == pytest.approx(
            math.sqrt(8 * 1.0 * 4.0 / 10), abs=1e-12
        )

    def test_squared_is_true_infimum(self):
        # numeric minimum never exceeds any grid value and is bounded by the
        # u = 2/3 closed form
        for cmi in (0.0, 0.3, 1.0, 2.0, 5.0):
            for n in (1, 10, 100):
                val = bound_agnostic("squared", cmi, n)
                grid = [
                    (2 * cmi - math.log1p(-u)) / (u * n) for u in np.arange(0.01, 1.0, 0.01)
                ]
                assert val <= min(grid) + 1e-12
                assert val <= bound_squared_closed_form(cmi, n) + 1e-12

    def test_squared_closed_form_value(self):
        # substituting u = 2/3 gives (3 cmi + 1.5 log 3) / n exactly
        cmi, n = 2.0, 50
        by_hand = (2 * cmi - math.log(1.0 / 3.0)) / ((2.0 / 3.0) * n)
        assert bound_squared_closed_form(cmi, n) == pytest.approx(by_hand, abs=1e-15)

    def test_monotone_in_cmi_and_n(self):
        for kind in ("expected", "absolute", "squared", "unbounded"):
            values = [bound_agnostic(kind, c, 20) for c in (0.1, 0.5, 1.0, 2.0, 4.0)]
            assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
            by_n = [bound_agnostic(kind, 1.0, n) for n in (5, 10, 50, 200)]
            assert all(by_n[i] >= by_n[i + 1] - 1e-12 for i in range(len(by_n) - 1))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bound_agnostic("expected", -1.0, 10)
        with pytest.raises(ValueError):
            bound_agnostic("expected", 1.0, 0)
        with pytest.raises(ValueError):
            bound_agnostic("nope", 1.0, 10)


class TestBoundRealizable:
    def test_full_cmi_saturates_at_one(self):
        n = 50
        assert bound_realizable(0.0, n * LOG2, n) == pytest.approx(1.0, abs=1e-12)

    def test_zero_cases(self):
        assert bound_realizable(0.0, 0.0, 10) == 0.0
        assert bound_realizable(0.05, 2.0, 100) == pytest.approx(0.16, abs=1e-12)

    def test_rejects_negative_empirical(self):
        with pytest.raises(ValueError):
            bound_realizable(-0.1, 1.0, 10)


class TestBoundNonlinear:
    def test_trivial_and_example(self):
        assert bound_nonlinear(1.0, 0.0, 0.0, 0.25) == 0.25
        assert bound_nonlinear(0.5, 1.0, 1.0, 0.0) == pytest.approx(24.0, abs=1e-12)

    def test_uniform_cap_kills_tail(self):
        assert bound_nonlinear(1.0, 2.0, 1.0, 0.0) == pytest.approx(12.0, abs=1e-12)


class TestBoundAuroc:
    def test_zero_cmi_form(self):
        eps, p, n = 0.2, 0.3, 500
        assert bound_auroc(eps, p, n, 0.0) == pytest.approx(
            149.0 / (eps**2 * p * (1 - p) * n), abs=1e-12
        )

    def test_reference_value(self):
        assert bound_auroc(0.3, 0.5, 10**5, 2.0) == pytest.approx(0.108889, abs=1e-6)

    def test_raw_and_intro_forms(self):
        raw = bound_auroc(0.3, 0.5, 100, 2.0, form="raw")
        absorbed = bound_auroc(0.3, 0.5, 100, 2.0, form="absorbed")
        assert raw == pytest.approx(
            (48 * 2 + 148) / (0.09 * 0.25 * 100) + math.exp(-100 * 0.5 / 7), abs=1e-12
        )
        assert bound_auroc(0.3, 0.5, 100, 2.0, form="intro") == pytest.approx(
            2.0 / (0.09 * 0.25 * 100), abs=1e-12
        )
        assert absorbed > 1.0  # vacuous at this size, still well defined

    def test_rejects_degenerate_class_ratio(self):
        with pytest.raises(ValueError):
            bound_auroc(0.3, 0.0, 100, 1.0)
        with pytest.raises(ValueError):
            bound_auroc(0.3, 1.0, 100, 1.0)
        with pytest.raises(ValueError):
            bound_auroc(1.5, 0.5, 100, 1.0)


class TestBoundNormalized:
    def test_zero(self):
        assert bound_normalized(0.5, 0.0, 100, 0.0) == 0.0

    def test_reference_value(self):
        # (3 * 1 + log 3) / (0.25 * 100) * 4
        expected = (3.0 + LOG3) / 25.0 * 4.0
        assert bound_normalized(0.5, 1.0, 100, 4.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.655778, abs=1e-6)

    def test_inverse_square_epsilon_scaling(self):
        a = bound_normalized(0.25, 1.0, 100, 4.0)
        b = bound_normalized(0.5, 1.0, 100, 4.0)
        assert a == pytest.approx(4 * b, rel=1e-12)


class TestEmpiricalAuroc:
    def test_perfectly_separated(self):
        assert empirical_auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_equal_scores(self):
        assert empirical_auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class(self):
        assert empirical_auroc([0.1, 0.9], [1, 1]) == 0.5
        assert empirical_auroc([0.1, 0.9], [0, 0]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(1, 40))
            scores = rng.integers(0, 7, size=m).astype(float)
            labels = rng.integers(0, 2, size=m)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            if len(pos) == 0 or len(neg) == 0:
                expected = 0.5
            else:
                wins = (pos[:, None] > neg[None, :]).sum()
                ties = (pos[:, None] == neg[None, :]).sum()
                expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert empirical_auroc(scores, labels) == pytest.approx(expected, abs=1e-12)


class TestPopulationAuroc:
    def test_hand_computed(self):
        dist = FiniteDistribution(
            (((0.0, 0), 0.25), ((1.0, 0), 0.25), ((2.0, 1), 0.25), ((0.5, 1), 0.25))
        )
        is_pos = lambda z: z[1] == 1
        score = lambda z: z[0]
        # pairs (pos, neg): (2,0)+ (2,1)+ (0.5,0)+ (0.5,1)-  -> 3/4
        assert population_auroc(dist, score, is_pos) == pytest.approx(0.75, abs=1e-12)
        assert positive_rate(dist, is_pos) == pytest.approx(0.5, abs=1e-15)

    def test_needs_both_classes(self):
        dist = FiniteDistribution((((0.0, 1), 1.0),))
        with pytest.raises(ValueError):
            population_auroc(dist, lambda z: z[0], lambda z: z[1] == 1)


class TestDeltaPresets:
    def test_squared_reference_point(self):
        preset = delta_preset("squared", c=1.0, p=2.0)
        assert preset.delta_sq(((1.0,), 0.0), ((0.0,), 1.0)) == pytest.approx(32.0, abs=1e-12)

    def test_hinge_zero_on_equal_points(self):
        preset = delta_preset("hinge", c=1.0, p=2.0)
        z = ((0.3, -0.7), 1.0)
        assert preset.delta(z, z) == 0.0

    def test_defining_inequality_squared(self):
        # |l(w,z1) - l(w,z2)| <= Delta(z1,z2) over sampled (w, z1, z2)
        rng = np.random.default_rng(1)
        preset = delta_preset("squared", c=1.0, p=2.0)
        for _ in range(10_000):
            w = rng.normal(size=2)
            w = w / max(1.0, np.linalg.norm(w, ord=2))  # |w|_2 <= c = 1
            z1 = (tuple(rng.normal(size=2)), float(rng.normal()))
            z2 = (tuple(rng.normal(size=2)), float(rng.normal()))
            diff = abs(preset.loss(w, z1) - preset.loss(w, z2))
            assert diff <= preset.delta(z1, z2) + 1e-9

    def test_defining_inequality_hinge(self):
        rng = np.random.default_rng(2)
        preset = delta_preset("hinge", c=1.5, p=2.0)
        for _ in range(10_000):
            w = rng.normal(size=3)
            w = w / np.linalg.norm(w, ord=2) * 1.5 * rng.random()  # |w|_2 <= c
            z1 = (tuple(rng.normal(size=3)), float(rng.choice([-1.0, 1.0])))
            z2 = (tuple(rng.normal(size=3)), float(rng.choice([-1.0, 1.0])))
            diff = abs(preset.loss(w, z1) - preset.loss(w, z2))
            assert diff <= preset.delta(z1, z2) + 1e-9

    def test_hinge_expected_delta_sq_matches_variance_form(self):
        # E[Delta^2] = 2 c^2 sum_i Var(Y X_i) for iid pairs
        rng = np.random.default_rng(3)
        c, d, trials = 1.0, 3, 40_000
        preset = delta_preset("hinge", c=c, p=2.0)
        xs = rng.normal(size=(trials, 2, d))
        ys = rng.choice([-1.0, 1.0], size=(trials, 2))
        deltas = np.array(
            [
                preset.delta((tuple(xs[t, 0]), ys[t, 0]), (tuple(xs[t, 1]), ys[t, 1])) ** 2
                for t in range(trials)
            ]
        )
        analytic = 2 * c * c * d  # Var(Y X_i) = 1 for standard normal X, sign Y
        assert deltas.mean() == pytest.approx(analytic, rel=0.05)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            delta_preset("hinge", p=2.0, q=3.0)
        with pytest.raises(ValueError):
            delta_preset("hinge", p=0.5)
        with pytest.raises(ValueError):
            delta_preset("cubic")


def constant_learner(ds, rng):
    return _AlwaysZero()


class _AlwaysZero:
    def predict(self, x):
        return 0

    def __hash__(self):
        return 0

    def __eq__(self, other):
        return isinstance(other, _AlwaysZero)


class TestEstimateGap:
    def test_constant_learner_ci_covers_zero(self):
        dist = grid_threshold_distribution(size=16, theta_index=8)
        pop = Population.from_finite(dist)
        est = estimate_gap(constant_learner, pop, zero_one_loss(), 20, 500, 0)
        assert abs(est.gap) <= est.ci_halfwidth
        assert est.gap == pytest.approx(est.empirical_mean - est.population_mean, abs=1e-12)

    def test_trials_floor(self):
        dist = grid_threshold_distribution(size=16)
        with pytest.raises(ValueError):
            estimate_gap(constant_learner, Population.from_finite(dist), zero_one_loss(), 5, 50, 0)

    def test_threshold_gap_within_cmi_cap(self):
        dist = grid_threshold_distribution(size=64, theta_index=32)
        pop = Population.from_finite(dist)
        learner = lambda ds, rng: threshold_learn(ds)
        est = estimate_gap(learner, pop, zero_one_loss(), 50, 1000, 1)
        assert abs(est.gap) <= math.sqrt(2 * 2.0 / 50)

    def test_pathological_overfits_at_least_twofold(self):
        dist = grid_threshold_distribution(size=64, theta_index=32, noise=0.4)
        pop = Population.from_finite(dist)
        loss = zero_one_loss()
        plain = estimate_gap(lambda ds, rng: threshold_learn(ds), pop, loss, 50, 600, 2)
        warped = estimate_gap(
            lambda ds, rng: pathological_erm(ds, grid_decimals=2), pop, loss, 50, 600, 2
        )
        assert abs(warped.gap) >= 2 * abs(plain.gap)

    def test_markov_conversion(self):
        # frequency of |gap| >= eps never beats the squared bound / eps^2
        dist = grid_threshold_distribution(size=64, theta_index=32, noise=0.25)
        pop = Population.from_finite(dist)
        learner = lambda ds, rng: threshold_learn(ds)
        est, samples = estimate_gap(
            learner, pop, zero_one_loss(), 50, 1000, 3, return_samples=True
        )
        gaps = samples[:, 0] - samples[:, 1]
        eps = 0.4
        freq = float((np.abs(gaps) >= eps).mean())
        rhs = bound_agnostic("squared", 2.0, 50) / eps**2
        assert freq <= rhs + 3 * est.ci_halfwidth

    def test_realizable_beats_agnostic_when_cmi_small(self):
        for n in (10, 50, 200):
            for cmi in np.linspace(0.01, n / 8, 12):
                assert bound_realizable(0.0, cmi, n) <= bound_agnostic("expected", cmi, n) + 1e-12


class TestCheckTheorem:
    @staticmethod
    def fake_gap(**kw):
        base = dict(
            empirical_mean=0.1,
            population_mean=0.15,
            gap=-0.05,
            gap_squared=0.004,
            ci_halfwidth=0.01,
            trials=200,
            seed=0,
        )
        base.update(kw)
        return GapEstimate(**base)

    def test_zero_cmi_learner_satisfied(self):
        cmi = CmiEstimate(value=0.0, method="exact")
        gap = self.fake_gap(empirical_mean=0.2, population_mean=0.2, gap=0.0, gap_squared=0.0001)
        report = check_theorem("agnostic-expected", cmi, gap, 100)
        assert report.satisfied and report.rhs == 0.0

    def test_comparator_rejects_fake_rhs(self):
        cmi = CmiEstimate(value=1.0, method="exact")
        report = check_theorem(
            "agnostic-expected", cmi, self.fake_gap(), 100, rhs_override=0.001
        )
        assert not report.satisfied

    def test_realizable_zero_requires_zero_empirical(self):
        cmi = CmiEstimate(value=1.0, method="exact")
        with pytest.raises(ValueError):
            check_theorem("realizable-zero", cmi, self.fake_gap(), 100)

    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheoremError):
            check_theorem(
                "no-such-theorem", CmiEstimate(value=0.0, method="exact"), self.fake_gap(), 10
            )

    def test_mc_cmi_inflated_by_ci(self):
        gap = self.fake_gap()
        tight = check_theorem(
            "agnostic-expected",
            CmiEstimate(value=1.0, method="monte-carlo", ci_halfwidth=0.2, trials=50, seed=0),
            gap,
            100,
        )
        exact = check_theorem(
            "agnostic-expected", CmiEstimate(value=1.0, method="exact"), gap, 100
        )
        assert tight.rhs > exact.rhs

    def test_registry_descriptions_unique(self):
        descs = [spec.description for spec in THEOREMS.values()]
        assert len(set(descs)) == len(descs)


# each gap theorem's RHS formula at (cmi, n, empirical mean, scale) and its LHS
GAP_THEOREMS = {
    "agnostic-expected": (lambda c, n, e, s: bound_agnostic("expected", c, n, s), lambda g: abs(g.gap)),
    "agnostic-absolute": (lambda c, n, e, s: bound_agnostic("absolute", c, n, s), lambda g: abs(g.gap)),
    "agnostic-squared": (lambda c, n, e, s: bound_agnostic("squared", c, n, s), lambda g: g.gap_squared),
    "agnostic-unbounded": (lambda c, n, e, s: bound_agnostic("unbounded", c, n, s), lambda g: abs(g.gap)),
    "realizable-zero": (lambda c, n, e, s: bound_realizable(0.0, c, n), lambda g: g.population_mean),
    "realizable-general": (lambda c, n, e, s: bound_realizable(e, c, n), lambda g: g.population_mean),
}


def test_gap_theorems_are_the_table_rows():
    assert {tid for tid, spec in THEOREMS.items() if spec.lhs is not None} == set(GAP_THEOREMS)


@pytest.mark.parametrize("theorem_id", sorted(GAP_THEOREMS))
def test_gap_theorem_matches_its_formula(theorem_id):
    formula, lhs = GAP_THEOREMS[theorem_id]
    emp = 0.0 if theorem_id == "realizable-zero" else 0.1
    gap = GapEstimate(
        empirical_mean=emp,
        population_mean=emp + 0.05,
        gap=-0.05,
        gap_squared=0.004,
        ci_halfwidth=0.01,
        trials=200,
        seed=3,
    )
    cmi = CmiEstimate(value=1.5, method="monte-carlo", ci_halfwidth=0.1, trials=50, seed=0)
    report = check_theorem(theorem_id, cmi, gap, 100, scale=2.5)
    # the Monte-Carlo CMI enters the formula raised by 3 halfwidths
    assert report.rhs == formula(1.5 + 3.0 * 0.1, 100, emp, 2.5)
    assert report.lhs_value == lhs(gap)
    assert report.lhs_ci == gap.ci_halfwidth and report.seed == gap.seed
    assert report.satisfied == (report.rhs >= report.lhs_value - gap.ci_halfwidth)


class TestCheckAuroc:
    def test_small_pipeline_run(self):
        dist = grid_threshold_distribution(size=32, theta_index=16)
        pop = Population.from_finite(dist)
        report = check_auroc(
            learner=lambda ds, rng: threshold_learn(ds),
            population=pop,
            score_of=lambda w, z: z[0],
            is_positive=lambda z: z[1] == 1,
            epsilon=0.3,
            n=100,
            trials=60,
            seed=5,
            cmi=CmiEstimate(value=2.0, method="exact"),
        )
        assert report.theorem_id == "auroc"
        assert report.rhs <= 1.0
        assert report.satisfied

    def test_serialization_round_trip(self):
        est = GapEstimate(
            empirical_mean=0.2,
            population_mean=0.1,
            gap=0.1,
            gap_squared=0.02,
            ci_halfwidth=0.01,
            trials=100,
            seed=4,
        )
        report = BoundReport(
            theorem_id="agnostic-expected",
            n=10,
            cmi_nats=0.5,
            rhs=0.3,
            lhs_value=0.1,
            lhs_ci=0.01,
            satisfied=True,
            seed=4,
            lhs_estimate=est,
        )
        assert BoundReport.from_json_obj(report.to_json_obj()) == report
        row = report.csv_row()
        assert len(row) == len(BoundReport.CSV_COLUMNS)

    def test_gap_estimate_consistency_enforced(self):
        with pytest.raises(ValueError):
            GapEstimate(
                empirical_mean=0.5,
                population_mean=0.1,
                gap=0.0,
                gap_squared=0.0,
                ci_halfwidth=0.0,
                trials=100,
                seed=0,
            )


class TestBoundMonotonicity:
    def test_all_bounds_monotone_in_cmi_and_n(self):
        cmis = (0.1, 0.5, 1.0, 2.0, 4.0)
        ns = (5, 10, 50, 200)
        families = [
            lambda c, n: bound_realizable(0.0, c, n),
            lambda c, n: bound_realizable(0.05, c, n),
            lambda c, n: bound_nonlinear(0.5, 1.0, c, 0.1),
            lambda c, n: bound_auroc(0.3, 0.5, n, c),
            lambda c, n: bound_normalized(0.5, c, n, 2.0),
        ]
        for rhs in families:
            for n in ns:
                vals = [rhs(c, n) for c in cmis]
                assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
            for c in cmis:
                vals = [rhs(c, n) for n in ns]
                assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


class TestBoundNonlinearExpectation:
    def test_formula_and_monotonicity(self):
        from cmi_lab.bounds import bound_nonlinear_expectation

        assert bound_nonlinear_expectation(0.0, 0.0) == 0.0
        assert bound_nonlinear_expectation(1.0, 3.0) == pytest.approx(
            (8.0 / 3.0) * (1.0 + math.log(2.0)) * 3.0, abs=1e-12
        )
        vals = [bound_nonlinear_expectation(c, 1.0) for c in (0.0, 0.5, 1.0, 2.0)]
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    def test_holds_exactly_on_enumerable_instance(self):
        # data domain restricted to two labeled points, so the enumerated
        # maximum IS the distribution-free selection information and every
        # expectation is an exact finite sum
        import itertools

        from cmi_lab.bounds import bound_nonlinear_expectation
        from cmi_lab.algkernel import Supersample, all_selectors, cmi_exact_fixed, select
        from cmi_lab.learners import threshold_kernel

        points = ((0.25, 0), (0.75, 1))
        masses = (0.4, 0.6)
        n = 2
        kernel = threshold_kernel()
        loss = zero_one_loss()
        # threshold behaviors on the two x-values: all-ones, cut between, all-zeros
        behaviors = [(1, 1), (0, 1), (0, 0)]

        def pop_loss(w):
            return sum(m * loss.eval(w, z) for z, m in zip(points, masses))

        lhs = 0.0
        e_delta_sq = 0.0
        cmi_free = 0.0
        for combo in itertools.product(range(2), repeat=2 * n):
            weight = math.prod(masses[c] for c in combo)
            ss = Supersample(
                tuple((points[combo[2 * i]], points[combo[2 * i + 1]]) for i in range(n))
            )
            cmi_free = max(cmi_free, cmi_exact_fixed(ss, kernel).value)
            for sel in all_selectors(n):
                ds = select(ss, sel)
                w = kernel(ds).point_label()
                emp = sum(loss.eval(w, z) for z in ds) / n
                lhs += weight * (emp - pop_loss(w)) ** 2 / 2**n
            worst = 0.0
            for bits in behaviors:
                err = lambda z: 0.0 if bits[0 if z[0] == 0.25 else 1] == z[1] else 1.0
                total = sum(
                    ((err(row[0]) - err(row[1])) / n) ** 2 for row in ss.grid
                )
                worst = max(worst, total)
            e_delta_sq += weight * worst
        assert lhs <= bound_nonlinear_expectation(cmi_free, e_delta_sq) + 1e-12
