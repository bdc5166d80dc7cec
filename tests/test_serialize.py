"""Model files, explanation documents, and rendered rule text."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pools import dl_pool
from xinflate.classifiers import DecisionTree, Leaf, OrdinalSplit
from xinflate.errors import SchemaError, ValidationError
from xinflate.examples import grade_model, risk_list
from xinflate.explain import ExplanationProblem, find_axp
from xinflate.inflate import InflationConfig, inflate_axp
from xinflate.model import INTEGER, CatSet, FeatureSpace, Interval, Ordinal, interval_union
from xinflate.serialize import (
    MODEL_SCHEMA,
    ModelFile,
    explanation_to_dict,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_point,
    render_rule,
    save_model,
    set_text,
)
from xinflate.synthetic import random_point
from xinflate.trainer import load_dataset, train_forest

F = Fraction
MODELS = Path(__file__).resolve().parent.parent / "models"
DATA = Path(__file__).resolve().parent.parent / "data"


class TestRoundTrip:
    def _check(self, name, classifier, space, points):
        mf = ModelFile(name, space, classifier)
        back = model_from_dict(model_to_dict(mf))
        assert back.space == space
        assert back.classifier == classifier

    def test_decision_list(self):
        clf, space = risk_list()
        self._check("risk", clf, space, [("Junior", "Red")])

    def test_monotonic(self):
        clf, space = grade_model()
        self._check("grade", clf, space, [(F(3), F(5))])

    def test_random_lists_with_interval_literals(self):
        rng = random.Random(21)
        for clf, space, _ in dl_pool(15, seed=121):
            self._check("rand", clf, space, [])

    def test_trained_forest(self):
        dataset = load_dataset(DATA / "bench.csv")
        forest = train_forest(dataset, n_trees=5, depth=3, seed=1)
        mf = ModelFile("f", dataset.space, forest)
        back = model_from_dict(model_to_dict(mf))
        assert back.classifier == forest
        rng = random.Random(22)
        for _ in range(20):
            p = random_point(rng, dataset.space)
            assert back.classifier.predict(p) == forest.predict(p)

    def test_save_and_load_file(self, tmp_path):
        clf, space = risk_list()
        target = tmp_path / "m.json"
        save_model(ModelFile("risk", space, clf), target)
        mf = load_model(target)
        assert mf.name == "risk"
        assert mf.classifier == clf


class TestDeepModels:
    def test_too_deep_tree_is_refused_and_not_written(self, tmp_path):
        node = Leaf("a")
        for k in range(1200, 0, -1):
            node = OrdinalSplit(1, F(k), Leaf("a" if k % 2 else "b"), node)
        space = FeatureSpace((Ordinal(F(0), F(1200), INTEGER),))
        mf = ModelFile("chain", space, DecisionTree(node, ("a", "b")))
        with pytest.raises(ValidationError, match="too deeply to write"):
            model_to_dict(mf)
        target = tmp_path / "chain.json"
        with pytest.raises(ValidationError, match="too deeply to write"):
            save_model(mf, target)
        assert not target.exists()


class TestBundledModels:
    def test_risk_file_matches_code(self):
        mf = load_model(MODELS / "risk_list.json")
        clf, space = risk_list()
        assert mf.classifier == clf
        assert mf.space == space

    def test_grade_file_matches_code(self):
        mf = load_model(MODELS / "grade.json")
        clf, space = grade_model()
        assert mf.classifier == clf
        assert mf.space == space

    def test_bench_forest_loads_and_validates(self):
        mf = load_model(MODELS / "bench_forest.json")
        assert len(mf.classifier.trees) == 25
        assert mf.space.m == 8


class TestSchemaErrors:
    def _base(self):
        clf, space = risk_list()
        return model_to_dict(ModelFile("risk", space, clf))

    def test_missing_schema_key(self):
        doc = self._base()
        del doc["schema"]
        with pytest.raises(SchemaError) as err:
            model_from_dict(doc)
        assert err.value.path == "$"

    def test_wrong_schema_tag(self):
        doc = self._base()
        doc["schema"] = "something/9"
        with pytest.raises(SchemaError) as err:
            model_from_dict(doc)
        assert err.value.path == "$.schema"

    def test_feature_index_out_of_range(self):
        doc = self._base()
        doc["classifier"]["rules"][0]["if"][0]["feature"] = 7
        with pytest.raises(SchemaError) as err:
            model_from_dict(doc)
        assert "feature" in err.value.path

    def test_unknown_label_is_positioned(self):
        doc = self._base()
        doc["classifier"]["rules"][0]["if"][0]["label"] = "Mauve"
        with pytest.raises(SchemaError) as err:
            model_from_dict(doc)
        assert err.value.path.startswith("$.classifier.rules[0].if[0]")

    def test_bad_rational_is_positioned(self):
        clf, space = grade_model()
        doc = model_to_dict(ModelFile("g", space, clf))
        doc["classifier"]["weights"][0] = "one"
        with pytest.raises(SchemaError) as err:
            model_from_dict(doc)
        assert err.value.path == "$.classifier.weights[0]"

    def test_tree_threshold_outside_domain_is_positioned(self):
        doc = {
            "schema": MODEL_SCHEMA,
            "features": [{"name": "x", "domain": {"type": "ordinal", "lo": "0", "hi": "10"}}],
            "classes": ["a", "b"],
            "classifier": {
                "type": "decision_tree",
                "root": {
                    "feature": 1,
                    "threshold": "11",
                    "left": {"class": "a"},
                    "right": {"class": "b"},
                },
            },
        }
        with pytest.raises(SchemaError) as err:
            model_from_dict(doc)
        assert err.value.path == "$.classifier.root.threshold"

    def test_single_class_rejected(self):
        doc = self._base()
        doc["classes"] = ["1"]
        with pytest.raises(SchemaError) as err:
            model_from_dict(doc)
        assert err.value.path == "$.classes"

    def test_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError):
            load_model(tmp_path / "nope.json")

    def test_invalid_json_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            load_model(bad)


class TestThresholdsReadOncePerLoad:
    """Each (feature, threshold string) is parsed and range-checked once per
    load; every refusal still names the offending element."""

    @staticmethod
    def _forest(*splits, his=("10", "4")):
        features = [
            {"name": f"x{i + 1}", "domain": {"type": "ordinal", "lo": "0", "hi": hi}}
            for i, hi in enumerate(his)
        ]
        trees = [
            {"feature": j, "threshold": t, "left": {"class": "a"}, "right": {"class": "b"}}
            for j, t in splits
        ]
        return {
            "schema": MODEL_SCHEMA,
            "features": features,
            "classes": ["a", "b"],
            "classifier": {"type": "tree_ensemble", "trees": trees},
        }

    def _refused_at(self, doc) -> SchemaError:
        with pytest.raises(SchemaError) as err:
            model_from_dict(doc)
        return err.value

    def test_one_string_is_checked_against_each_features_domain(self):
        # "6" lies inside x1's (0, 10] and outside x2's (0, 4]
        err = self._refused_at(self._forest((1, "6"), (2, "6")))
        assert err.path == "$.classifier.trees[1].threshold"
        assert "outside" in str(err)

    @pytest.mark.parametrize("first", [1, "1"])
    def test_true_after_an_equal_threshold_is_still_refused(self, first):
        err = self._refused_at(self._forest((1, first), (1, True)))
        assert err.path == "$.classifier.trees[1].threshold"
        assert "expected a rational" in str(err)

    def test_repeated_out_of_range_threshold_names_its_first_occurrence(self):
        err = self._refused_at(self._forest((1, "3"), (1, "11"), (1, "11")))
        assert err.path == "$.classifier.trees[1].threshold"

    def test_repeated_thresholds_load_as_written(self):
        doc = self._forest((1, "3"), (2, "3"), (1, "3"), (1, "7/2"), (2, 3))
        back = model_to_dict(model_from_dict(doc))
        splits = [(t["feature"], t["threshold"]) for t in back["classifier"]["trees"]]
        assert splits == [(1, "3"), (2, "3"), (1, "3"), (1, "3.5"), (2, "3")]

    def test_bundled_forest_loads_to_its_own_document(self):
        path = MODELS / "bench_forest.json"
        assert model_to_dict(load_model(path)) == json.loads(path.read_text())


class TestExplanationDocuments:
    def test_risk_inflated_document(self):
        clf, space = risk_list()
        problem = ExplanationProblem.from_point(clf, space, ("Junior", "Red"))
        expl = inflate_axp(problem, find_axp(problem), trusted=True)
        doc = explanation_to_dict(space, expl)
        assert doc == {
            "kind": "abductive",
            "features": [1, 2],
            "sets": {
                "1": {"labels": ["Junior", "Senior"]},
                "2": {"labels": ["Red", "Blue", "Green", "Black"]},
            },
            "probe_order": [1, 2],
            "delta": "0",
        }

    def test_grade_interval_document(self):
        clf, space = grade_model()
        problem = ExplanationProblem.from_point(clf, space, (F(3), F(5)))
        expl = inflate_axp(problem, (1, 2), InflationConfig(delta=F(1, 2)), trusted=True)
        doc = explanation_to_dict(space, expl)
        assert doc["sets"]["1"] == {"intervals": [["0", "6.5", True, True]]}
        assert doc["sets"]["2"] == {"intervals": [["0", "5", True, True]]}
        assert doc["delta"] == "0.5"


class TestRuleText:
    def test_abductive_rule_line(self):
        clf, space = risk_list()
        problem = ExplanationProblem.from_point(clf, space, ("Junior", "Red"))
        expl = inflate_axp(problem, (1, 2), trusted=True)
        assert (
            render_rule(space, expl, "1")
            == "IF A∈{Junior,Senior} ∧ C∈{Red,Blue,Green,Black} THEN 1"
        )

    def test_contrastive_rule_line(self):
        clf, space = risk_list()
        problem = ExplanationProblem.from_point(clf, space, ("Junior", "Red"))
        from xinflate.inflate import shrink_cxp

        expl = shrink_cxp(problem, (2,))
        assert render_rule(space, expl, "1") == "IF C∈{White} THEN NOT 1"

    def test_interval_text_flavors(self):
        clf, space = grade_model()
        domain = space.domain(1)
        u = interval_union(
            domain,
            [Interval(F(0), F(2), True, False), Interval(F(3), F(3), True, True)],
        )
        assert set_text(domain, u) == "[0,2)∪{3}"

    def test_labels_render_in_domain_order(self):
        clf, space = risk_list()
        s = CatSet(frozenset({"White", "Red"}))
        assert set_text(space.domain(2), s) == "{Red,White}"


class TestParsePoint:
    def test_parses_and_coerces(self):
        clf, space = grade_model()
        assert parse_point(space, "3, 5") == (F(3), F(5))
        assert parse_point(space, "6.5,0") == (F(13, 2), F(0))

    def test_rejects_wrong_arity_and_domain(self):
        clf, space = risk_list()
        with pytest.raises(ValidationError):
            parse_point(space, "Junior")
        with pytest.raises(ValidationError):
            parse_point(space, "Junior,Mauve")
