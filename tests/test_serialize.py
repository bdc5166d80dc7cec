"""Model files, explanation documents, and rendered rule text."""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pools import dl_pool
from xinflate import serialize
from xinflate.classifiers import DecisionTree, LabelSplit, Leaf, OrdinalSplit
from xinflate.errors import SchemaError, ValidationError
from xinflate.examples import grade_model, risk_list
from xinflate.explain import ExplanationProblem, find_axp
from xinflate.inflate import InflationConfig, inflate_axp
from xinflate.model import (
    INTEGER,
    CatSet,
    Categorical,
    FeatureSpace,
    Interval,
    Ordinal,
    interval_union,
)
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
from xinflate.synthetic import random_point, random_tree
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

    def test_random_trees_with_label_splits_and_integer_domains(self):
        colors = Categorical(("red", "blue", "green"))
        space = FeatureSpace((Ordinal(F(0), F(4), INTEGER), colors, Ordinal(F(0), F(8))))

        def splits(node):
            if isinstance(node, Leaf):
                return set()
            return {(type(node), node.feature)} | splits(node.left) | splits(node.right)

        rng = random.Random(23)
        seen = set()
        for _ in range(300):
            tree = random_tree(rng, space, depth=4)
            self._check("tree", tree, space, [])
            seen |= splits(tree.root)
        assert seen == {(OrdinalSplit, 1), (LabelSplit, 2), (OrdinalSplit, 3)}

    def test_load_model_takes_a_document(self):
        clf, space = risk_list()
        mf = ModelFile("risk", space, clf)
        assert load_model(model_to_dict(mf)) == mf

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

    def test_a_json_array_is_refused(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        with pytest.raises(SchemaError) as err:
            load_model(bad)
        assert str(err.value) == "$: expected a JSON object"

    def test_invalid_json_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            load_model(bad)


# Small valid documents of each classifier type over an ordinal x in [0, 10]
# and a categorical c; each refusal below mutates one element of one of them.
DROP = object()  # the mutation deletes the key
FEATURES = [
    {"name": "x", "domain": {"type": "ordinal", "lo": "0", "hi": "10"}},
    {"name": "c", "domain": {"type": "categorical", "labels": ["p", "q"]}},
]


def _document(classifier, features=FEATURES):
    return {
        "schema": MODEL_SCHEMA,
        "name": "m",
        "features": copy.deepcopy(features),
        "classes": ["a", "b"],
        "classifier": classifier,
    }


def _tree_root():
    return {
        "feature": 1,
        "threshold": "5",
        "left": {"class": "a"},
        "right": {"feature": 2, "label": "p", "left": {"class": "a"}, "right": {"class": "b"}},
    }


DOCUMENTS = {
    "tree": lambda: _document({"type": "decision_tree", "root": _tree_root()}),
    "forest": lambda: _document({"type": "tree_ensemble", "trees": [_tree_root(), {"class": "b"}]}),
    "rules": lambda: _document(
        {
            "type": "decision_list",
            "rules": [
                {
                    "if": [
                        {"feature": 1, "op": "in", "intervals": [["0", "3", True, False]]},
                        {"feature": 2, "op": "eq", "label": "p"},
                    ],
                    "then": "b",
                },
                {"if": [{"feature": 2, "op": "in", "labels": ["q"]}], "then": "b"},
            ],
            "default": "a",
        }
    ),
    "monotone": lambda: _document(
        {"type": "monotonic", "weights": ["1", "1/2"], "thresholds": ["4"]},
        [FEATURES[0], {"name": "y", "domain": {"type": "ordinal", "lo": "0", "hi": "1/3"}}],
    ),
}

# (document, dotted path of the mutated element, its new value, the exact refusal)
REFUSALS = [
    ("rules", "schema", DROP, "$: missing key 'schema'"),
    ("rules", "schema", "x/9", "$.schema: expected 'xinflate-model/1', got 'x/9'"),
    ("rules", "schema", 1, "$.schema: expected a string"),
    ("rules", "name", 7, "$.name: expected a string"),
    ("rules", "features", {}, "$.features: expected an array"),
    ("rules", "features", [], "$.features: at least one feature required"),
    ("rules", "features.0", "x", "$.features[0]: expected an object, got str"),
    ("rules", "features.0.name", DROP, "$.features[0]: missing key 'name'"),
    ("rules", "features.1.name", "x", "$.features: feature names must be distinct"),
    ("rules", "features.0.domain", ["ordinal"], "$.features[0].domain: expected an object"),
    ("rules", "features.0.domain.type", "set",
     "$.features[0].domain.type: unknown domain type 'set'"),
    ("rules", "features.0.domain.lo", 1.5, "$.features[0].domain.lo: expected a rational"),
    ("rules", "features.0.domain.hi", "ten",
     "$.features[0].domain.hi: not a rational literal: 'ten'"),
    ("rules", "features.0.domain.hi", "0",
     "$.features[0].domain: ordinal domain needs lo < hi, got [0, 0]"),
    ("rules", "features.0.domain", {"type": "ordinal", "lo": "0", "hi": "5/2", "kind": "integer"},
     "$.features[0].domain: integer domain bounds must be integral"),
    ("rules", "features.0.domain.kind", "real",
     "$.features[0].domain.kind: expected 'continuous' or 'integer'"),
    ("rules", "features.1.domain.labels", "pq", "$.features[1].domain.labels: expected an array"),
    ("rules", "features.1.domain.labels.1", 3,
     "$.features[1].domain.labels[1]: expected a string label"),
    ("rules", "features.1.domain.labels.1", "p",
     "$.features[1].domain.labels: duplicate labels in domain: ('p', 'p')"),
    ("rules", "classes", ["a", 2], "$.classes: expected an array of strings"),
    ("rules", "classes", ["a", "a"], "$.classes: need at least two distinct classes"),
    ("rules", "classifier", "list", "$.classifier: expected an object"),
    ("rules", "classifier.type", "svm", "$.classifier.type: unknown classifier type 'svm'"),
    ("rules", "classifier.rules.0.if.0.feature", True,
     "$.classifier.rules[0].if[0].feature: expected a feature index"),
    ("rules", "classifier.rules.0.if.0.feature", 3,
     "$.classifier.rules[0].if[0].feature: index 3 out of range 1..2"),
    ("rules", "classifier.rules.0.if.0.op", "lt",
     "$.classifier.rules[0].if[0].op: unknown literal op 'lt'"),
    ("rules", "classifier.rules.0.if.0.intervals", "0..3",
     "$.classifier.rules[0].if[0].intervals: expected an array"),
    ("rules", "classifier.rules.0.if.0.intervals.0", ["0", "3", True],
     "$.classifier.rules[0].if[0].intervals[0]: expected [lo, hi, lo_closed, hi_closed]"),
    ("rules", "classifier.rules.0.if.0.intervals.0.0", [],
     "$.classifier.rules[0].if[0].intervals[0][0]: expected a rational as a string or integer"),
    ("rules", "classifier.rules.0.if.0.intervals.0.2", "yes",
     "$.classifier.rules[0].if[0].intervals[0]: endpoint flags must be booleans"),
    ("rules", "classifier.rules.0.if.0.intervals.0", ["3", "0", True, True],
     "$.classifier.rules[0].if[0].intervals: interval union is empty within the domain"),
    ("rules", "classifier.rules.0.if.0.intervals.0", ["11", "12", True, True],
     "$.classifier.rules[0].if[0].intervals: interval union is empty within the domain"),
    ("rules", "classifier.rules.0.if.0.intervals", DROP,
     "$.classifier.rules[0].if[0]: expected 'labels' or 'intervals'"),
    ("rules", "classifier.rules.0.if.0.intervals.0.3", True,
     "$.classifier: rule 0, feature 1: interval must exclude its upper endpoint"
     " unless it is the domain maximum"),
    ("rules", "classifier.rules.0.if.0.feature", 2,
     "$.classifier.rules[0].if[0]: intervals given for a categorical feature"),
    ("rules", "classifier.rules.1.if.0.feature", 1,
     "$.classifier.rules[1].if[0]: labels given for an ordinal feature"),
    ("rules", "classifier.rules.1.if.0.labels", [1],
     "$.classifier.rules[1].if[0].labels: expected an array of strings"),
    ("rules", "classifier.rules.1.if.0.labels", ["z"],
     "$.classifier.rules[1].if[0].labels: labels not in domain: ['z']"),
    ("rules", "classifier.rules.1.if.0.labels", [],
     "$.classifier.rules[1].if[0].labels: empty label set"),
    ("rules", "classifier.rules.0.if.1.label", "z",
     "$.classifier.rules[0].if[1].label: label 'z' not in the domain of feature 2"),
    ("rules", "classifier.rules.0.if.1.feature", 1,
     "$.classifier.rules[0].if[1].label: label 'p' not in the domain of feature 1"),
    ("rules", "classifier.rules.0.then", "c", "$.classifier.rules[0].then: unknown class 'c'"),
    ("rules", "classifier.default", "c", "$.classifier.default: unknown class 'c'"),
    ("rules", "classifier.rules.0.if", DROP, "$.classifier.rules[0]: missing key 'if'"),
    ("tree", "classifier.root", DROP, "$.classifier: missing key 'root'"),
    ("tree", "classifier.root.left", DROP, "$.classifier.root: missing key 'left'"),
    ("tree", "classifier.root.left.class", "c", "$.classifier.root.left.class: unknown class 'c'"),
    ("tree", "classifier.root.threshold", DROP,
     "$.classifier.root: expected 'class', 'threshold', or 'label'"),
    ("tree", "classifier.root.feature", 2, "$.classifier.root.threshold: feature 2 is categorical"),
    ("tree", "classifier.root.threshold", "11", "$.classifier.root.threshold: 11 outside (0, 10]"),
    ("tree", "classifier.root.threshold", True,
     "$.classifier.root.threshold: expected a rational as a string or integer"),
    ("tree", "classifier.root.right.feature", 1,
     "$.classifier.root.right.label: feature 1 is ordinal"),
    ("tree", "classifier.root.right.label", "z",
     "$.classifier.root.right.label: label 'z' not in the domain of feature 2"),
    ("forest", "classifier.trees", [], "$.classifier.trees: an ensemble needs at least one tree"),
    ("forest", "classifier.trees.1", 3, "$.classifier.trees[1]: expected an object"),
    ("monotone", "classifier.weights.0", "one",
     "$.classifier.weights[0]: not a rational literal: 'one'"),
    ("monotone", "classifier.weights.0", "-1",
     "$.classifier: monotonic classifier needs non-negative weights"),
    ("monotone", "classifier.thresholds", ["4", "5"], "$.classifier: 2 classes need 1 thresholds"),
    ("monotone", "classifier.weights", ["1"], "$.classifier: 1 weights for 2 features"),
    ("monotone", "features.1", FEATURES[1],
     "$.classifier: feature 2: monotonic classifiers need ordinal features"),
]


def _mutated(name, where, value):
    doc = DOCUMENTS[name]()
    *parents, last = [int(k) if k.isdigit() else k for k in where.split(".")]
    node = doc
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return doc


class TestRefusalTable:
    def test_the_documents_load(self):
        for make in DOCUMENTS.values():
            model_from_dict(make())

    @pytest.mark.parametrize(
        "name, where, value, message", REFUSALS, ids=[f"{n}:{w}" for n, w, _, _ in REFUSALS]
    )
    def test_refused_with_its_path(self, name, where, value, message):
        doc = _mutated(name, where, value)
        for load in (model_from_dict, load_model):
            with pytest.raises(SchemaError) as err:
                load(doc)
            assert str(err.value) == message
            assert message.startswith(err.value.path + ": ")


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


class TestWholeModelCheckAtLoad:
    """`validate_classifier` runs at load only on the families with a rule
    that no reader checks: monotone models and lists."""

    @pytest.mark.parametrize(
        "name, calls", [("bench_forest.json", 0), ("grade.json", 1), ("risk_list.json", 1)]
    )
    def test_calls_per_load(self, monkeypatch, name, calls):
        seen = []
        check = serialize.validate_classifier
        monkeypatch.setattr(serialize, "validate_classifier", lambda *args: seen.append(check(*args)))
        load_model(MODELS / name)
        assert len(seen) == calls


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
