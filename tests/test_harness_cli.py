import hashlib
import json
import math
import os

import pytest

from cmi_lab import cli, harness
from cmi_lab.algkernel import ConvergenceError
from cmi_lab._seeding import derive_seed
from cmi_lab.harness import (
    ConfigError,
    ExperimentConfig,
    SuiteReport,
    UnknownComponentError,
    bundled_suite_path,
    config_hash,
    emit,
    grid_threshold_distribution,
    load_config,
    run_suite,
)


def small_config(**overrides):
    exp = {
        "id": "tiny",
        "learner": {"id": "constant", "params": {"bit": 0}},
        "distribution": {
            "id": "finite",
            "params": {"atoms": [[[0.0, 0], 0.5], [[1.0, 1], 0.5]]},
        },
        "loss": {"id": "zero_one"},
        "n": 3,
        "trials": 150,
        "seed": 5,
        "cmi": {"mode": "exact"},
        "theorems": ["agnostic-expected"],
    }
    exp.update(overrides)
    return {"experiments": [exp]}


class TestSeeding:
    def test_derived_seeds_stable_and_distinct(self):
        a = derive_seed(3, "exp", 0)
        assert a == derive_seed(3, "exp", 0)
        assert a != derive_seed(3, "exp", 1)
        assert a != derive_seed(4, "exp", 0)

    def test_config_hash_canonical(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


class TestConfigParsing:
    def test_seed_mandatory(self):
        cfg = small_config()
        del cfg["experiments"][0]["seed"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_obj(cfg["experiments"][0])

    def test_unknown_ids_rejected(self):
        for key, value in (
            ("learner", {"id": "nope"}),
            ("distribution", {"id": "nope"}),
            ("loss", {"id": "nope"}),
            ("theorems", ["not-a-theorem"]),
        ):
            cfg = small_config(**{key: value})
            with pytest.raises(UnknownComponentError):
                ExperimentConfig.from_obj(cfg["experiments"][0])

    def test_unknown_cmi_mode_rejected(self):
        cfg = small_config(cmi={"mode": "guess"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_obj(cfg["experiments"][0])

    def test_config_document_shape(self):
        with pytest.raises(ConfigError):
            load_config({"not_experiments": []})

    def test_grid_distribution_validation(self):
        with pytest.raises(ConfigError):
            grid_threshold_distribution(noise=0.9)


class TestRunSuite:
    def test_empty_suite(self):
        report = run_suite({"experiments": []})
        assert report.all_satisfied
        assert report.experiments == ()
        assert emit(report, "csv", None).splitlines() == [
            "theorem_id,n,cmi_nats,rhs,lhs,lhs_ci,satisfied,seed"
        ]

    def test_deterministic_rerun(self):
        cfg = small_config(cmi={"mode": "both", "trials": 100})
        a = run_suite(cfg)
        b = run_suite(cfg)
        assert emit(a, "csv", None) == emit(b, "csv", None)
        assert a.to_json_obj()["experiments"] == b.to_json_obj()["experiments"]

    def test_seed_override_changes_mc_results(self):
        cfg = small_config(cmi={"mode": "mc", "trials": 50})
        base = run_suite(cfg)
        other = run_suite(cfg, seed_override=123)
        assert (
            base.experiments[0].cmi["mc"].seed != other.experiments[0].cmi["mc"].seed
        )

    def test_pathological_near_duplicates_carry_no_information(self):
        # (0.31, 1) and (0.3100000001, 1) share a grid cell and a label, so
        # the learner's output cannot tell them apart: CMI is 0 in both modes
        atoms = [[[0.31, 1], 0.5], [[0.3100000001, 1], 0.5]]
        cfg = small_config(
            learner={"id": "pathological_threshold"},
            distribution={"id": "finite", "params": {"atoms": atoms}},
            cmi={"mode": "both", "trials": 20},
        )
        cmi = run_suite(cfg).experiments[0].cmi
        assert cmi["exact"].value == cmi["mc"].value == 0.0

    def test_exact_mode_never_downgrades(self):
        cfg = small_config(n=30, cmi={"mode": "exact"})
        from cmi_lab.algkernel import ExactEnumerationError

        with pytest.raises(ExactEnumerationError):
            run_suite(cfg)

    def test_json_round_trip(self):
        # emit -> parse -> emit is lossless on the declared wire schema
        report = run_suite(small_config())
        text = emit(report, "json", None)
        parsed = SuiteReport.from_json_obj(json.loads(text))
        assert emit(parsed, "json", None) == text
        assert emit(parsed, "csv", None) == emit(report, "csv", None)
        assert parsed.config_hash == report.config_hash
        assert parsed.version == report.version

    def test_bundled_suite_json_parses_to_an_equal_report(self):
        report = run_suite(bundled_suite_path())
        assert SuiteReport.from_json_obj(json.loads(emit(report, "json", None))) == report

    def test_csv_one_row_per_experiment_theorem_pair(self):
        cfg = small_config(theorems=["agnostic-expected", "agnostic-absolute"])
        report = run_suite(cfg)
        lines = emit(report, "csv", None).splitlines()
        assert len(lines) == 1 + 2


class TestCli:
    def test_suite_exit_codes(self, tmp_path):
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(small_config()))
        out = tmp_path / "r.csv"
        assert cli.main(["suite", "--config", str(ok), "--out", str(out)]) == 0
        assert out.read_text().startswith("theorem_id,")

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(small_config(learner={"id": "nope"})))
        assert cli.main(["suite", "--config", str(bad)]) == 2

        infeasible = tmp_path / "inf.json"
        infeasible.write_text(json.dumps(small_config(n=40, cmi={"mode": "exact"})))
        assert cli.main(["suite", "--config", str(infeasible)]) == 3

        falsified = small_config(
            theorems=[{"id": "agnostic-expected", "params": {"rhs_override": -1.0}}]
        )
        fal = tmp_path / "fal.json"
        fal.write_text(json.dumps(falsified))
        assert cli.main(["suite", "--config", str(fal), "--out", str(out)]) == 4

    def test_config_errors_exit_2_before_compute(self, tmp_path, monkeypatch, capsys):
        exp = small_config()["experiments"][0]
        grid = {"id": "grid_threshold", "params": {"noise": 0.25}}
        mc = {"mode": "mc", "trials": 20}
        cases = {
            "duplicate-ids": {"experiments": [exp, {**exp, "seed": 9}]},
            "gap-trials": small_config(trials=99),
            "mc-trials": small_config(cmi={"mode": "mc", "trials": 9}),
            "both-trials": small_config(cmi={"mode": "both", "trials": 9}),
            "noise-not-a-number": small_config(
                learner={"id": "threshold"},
                distribution={"id": "grid_threshold", "params": {"noise": "x"}},
            ),
            "masses-sum-1.4": small_config(
                distribution={"id": "finite", "params": {"atoms": [[[0.0, 0], 0.7], [[1.0, 1], 0.7]]}}
            ),
            "n-zero": small_config(n=0),
            "n-negative": small_config(n=-3),
            "non-object-experiment": {"experiments": [3]},
            "experiments-not-a-list": {"experiments": 3},
            "distribution-not-an-object": small_config(distribution="x"),
            "parity-feature-length": small_config(
                learner={"id": "parity", "params": {"d": 2}},
                distribution={"id": "parity_uniform", "params": {"w_star": [1, 0, 1]}},
                cmi=mc,
            ),
            "threshold-nan-feature": small_config(
                learner={"id": "threshold"},
                distribution={"id": "finite", "params": {"atoms": [[[float("nan"), 1], 0.5], [[1.0, 0], 0.5]]}},
                cmi=mc,
            ),
            "auroc-epsilon": small_config(
                learner={"id": "threshold"},
                distribution={"id": "grid_threshold"},
                cmi=mc,
                theorems=[{"id": "auroc", "params": {"epsilon": 2.0}}],
            ),
            "realizable-zero-noisy": small_config(
                learner={"id": "threshold"}, distribution=grid, n=20, cmi=mc,
                theorems=["realizable-zero"],
            ),
        }
        # (theorem, params): each row reads its own parameters, in its domain
        theorem_cases = {
            "cmi-overide-misspelled": ("agnostic-expected", {"cmi_overide": 50.0}),
            "scale-negative": ("agnostic-expected", {"scale": -1}),
            "scale-not-a-number": ("agnostic-expected", {"scale": "x"}),
            "cmi-override-negative": ("agnostic-expected", {"cmi_override": -1}),
            "rhs-override-not-a-number": ("agnostic-expected", {"rhs_override": "x"}),
            "scale-unread": ("realizable-general", {"scale": 2.0}),
            "epsilon-unread": ("agnostic-expected", {"epsilon": 0.3}),
        }
        for name, (theorem, params) in theorem_cases.items():
            cases[name] = small_config(theorems=[{"id": theorem, "params": params}])
        theorem_cases["auroc-trials-not-a-number"] = ("auroc", {"trials": "x"})
        cases["auroc-trials-not-a-number"] = small_config(
            learner={"id": "threshold"},
            distribution={"id": "grid_threshold"},
            cmi=mc,
            theorems=[{"id": "auroc", "params": {"trials": "x"}}],
        )
        # grid_threshold's step 0.01 is off pathological_erm's 10^-1 grid
        for mode in ({"mode": "exact"}, mc):
            cases[f"off-grid-{mode['mode']}"] = small_config(
                learner={"id": "pathological_threshold", "params": {"grid_decimals": 1}},
                distribution={"id": "grid_threshold", "params": {"size": 4}},
                cmi=mode,
            )
        # every bundled learner fits bit labels; the encoder holds 99 points
        cases["label-not-a-bit"] = small_config(
            learner={"id": "pathological_threshold"},
            distribution={"id": "finite", "params": {"atoms": [[[0.01, 2], 0.5], [[0.02, 1], 0.5]]}},
        )
        cases["pathological-n-above-99"] = small_config(
            learner={"id": "pathological_threshold"}, distribution=grid, n=120, cmi=mc
        )
        # applicability shows only once the gap is estimated
        needs_data = {"realizable-zero-noisy"}

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the config was rejected")

        for name, cfg in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            with monkeypatch.context() as patch:
                if name not in needs_data:
                    patch.setattr(harness, "cmi_distributional", no_compute)
                    patch.setattr(harness, "estimate_gap", no_compute)
                assert cli.main(["suite", "--config", str(path)]) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
            if name in theorem_cases or name in needs_data:
                theorem = theorem_cases[name][0] if name in theorem_cases else "realizable-zero"
                assert f"'tiny': theorem '{theorem}'" in err, (name, err)
            if name == "distribution-not-an-object":
                assert "'distribution' must be a JSON object" in err, err
        path = tmp_path / "bound-not-an-object.json"
        path.write_text(json.dumps([1, 2]))
        assert cli.main(["bound", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        # the gap command estimates a gap whatever theorems are listed
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(small_config(trials=99, theorems=["auroc"])))
        assert cli.main(["gap", "--config", str(path)]) == 2

    def test_non_convergence_exits_5(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ConvergenceError("bracket did not close", (0.0, 1.0))

        monkeypatch.setattr(harness, "ucmi_fixed", fail)
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps(small_config()))
        assert cli.main(["ucmi", "--config", str(cfg)]) == 5
        assert capsys.readouterr().err == "error: bracket did not close\n"

    def test_parity_on_finite_vector_features(self, tmp_path, capsys):
        points = [[[[0, 1], 1], 0.25], [[[1, 1], 0], 0.25], [[[1, 0], 1], 0.5]]
        cfg = tmp_path / "parity.json"
        cfg.write_text(json.dumps(small_config(
            learner={"id": "parity", "params": {"d": 2}},
            distribution={"id": "finite", "params": {"atoms": points}},
        )))
        assert cli.main(["cmi", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["cmi"]["exact"]["value_nats"] >= 0.0

    def test_missing_config_is_config_error(self):
        assert cli.main(["suite", "--config", "/no/such/file.json"]) == 2

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps(small_config()))
        for out in (tmp_path / "no-such-dir" / "r.csv", tmp_path):
            for command in ("suite", "cmi"):
                assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2, (command, out)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, (command, err)

    def test_single_computation_commands(self, tmp_path, capsys):
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps(small_config()))
        for command in ("cmi", "ucmi", "ecmi", "gap", "auroc"):
            assert cli.main([command, "--config", str(cfg)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["id"] == "tiny"

    def test_bound_command(self, tmp_path, capsys):
        spec = tmp_path / "b.json"
        spec.write_text(
            json.dumps({"family": "realizable", "params": {"cmi": 2.0, "n": 100}})
        )
        assert cli.main(["bound", "--config", str(spec)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(2.0 / (100 * math.log(2)))

    def test_bundled_suite_exists(self):
        path = bundled_suite_path()
        assert os.path.exists(path)
        _, configs = load_config(path)
        assert len(configs) >= 3


class TestBundledSuiteCli:
    @staticmethod
    def _suite_digest(tmp_path, *extra):
        out = tmp_path / "bundle.csv"
        code = cli.main(
            ["suite", "--config", bundled_suite_path(), "--out", str(out), "--format", "csv", *extra]
        )
        assert code == 0
        assert out.read_text().count("\n") >= 2
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_bundled_suite_exits_zero(self, tmp_path):
        assert self._suite_digest(tmp_path) == (
            "ec6664a107ddca299f7f055aadd1c715f69adc71034ed370494428212eb735bb"
        )

    def test_bundled_suite_seed_override_digest(self, tmp_path):
        # a second seed pins the trial loops' draws and sums byte for byte
        assert self._suite_digest(tmp_path, "--seed-override", "1") == (
            "a45cd480c7e2d98b6232b86613e7bd04a3f6609d25f802250e10ab4d89d4ad68"
        )


class TestBoundFamilies:
    def test_all_families_evaluate(self, tmp_path, capsys):
        specs = [
            {"family": "agnostic", "params": {"kind": "squared", "cmi": 2.0, "n": 50}},
            {"family": "realizable", "params": {"cmi": 2.0, "n": 100, "empirical_mean": 0.05}},
            {"family": "nonlinear", "params": {"lam": 0.5, "u": 1.0, "cmi": 1.0}},
            {"family": "nonlinear-expectation", "params": {"cmi": 1.0, "e_delta_sq": 2.0}},
            {"family": "auroc", "params": {"epsilon": 0.3, "p": 0.5, "n": 1000, "cmi": 2.0}},
            {"family": "normalized", "params": {"epsilon": 0.5, "cmi": 1.0, "n": 100, "e_delta_sq": 4.0}},
        ]
        for spec in specs:
            path = tmp_path / "b.json"
            path.write_text(json.dumps(spec))
            assert cli.main(["bound", "--config", str(path)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["family"] == spec["family"] and out["value"] >= 0.0

    def test_unknown_family_is_config_error(self, tmp_path):
        for spec in (
            {"family": "made-up", "params": {}},
            {"family": "auroc", "params": {"epsilon": 2.0, "p": 0.5, "n": 10, "cmi": 1.0}},
            {"family": "agnostic", "params": {"kind": "nope", "cmi": 1.0, "n": 10}},
            {"family": "agnostic", "params": {"kind": "expected", "cmi": 1.0, "n": 10, "scal": 4.0}},
        ):
            path = tmp_path / "b.json"
            path.write_text(json.dumps(spec))
            assert cli.main(["bound", "--config", str(path)]) == 2, spec
