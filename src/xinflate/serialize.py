"""Model files, explanation documents, and rule rendering.

A model file is one JSON object: feature declarations, the ordered class
list, and the classifier.  Parsing is strict; every complaint carries the
JSON path of the offending element.  Rationals travel as strings, decimal
when exact ("6.5") and p/q otherwise ("1/3"); both forms parse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .classifiers import (
    Classifier,
    DecisionList,
    DecisionTree,
    LabelEq,
    LabelSplit,
    Leaf,
    Literal,
    MonotonicClassifier,
    Node,
    OrdinalSplit,
    Rule,
    SetMember,
    TreeEnsemble,
    validate_classifier,
)
from .errors import SchemaError, ValidationError
from .model import (
    CatSet,
    Categorical,
    CONTINUOUS,
    Domain,
    FeatureSpace,
    INTEGER,
    InflatedExplanation,
    Interval,
    IntervalUnion,
    Ordinal,
    ValueSet,
    Value,
    cat_set,
    interval_union,
    rational,
    rational_str,
)

MODEL_SCHEMA = "xinflate-model/1"


@dataclass(frozen=True)
class ModelFile:
    """A named classifier with its feature space."""

    name: str
    space: FeatureSpace
    classifier: Classifier


# ---------------------------------------------------------------------------
# Strict readers


def _want(doc, path: str, key: str, kinds, kind_name: str):
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(path, f"missing key {key!r}")
    val = doc[key]
    bad = not isinstance(val, kinds)
    if not bad and isinstance(val, bool) and kinds is not bool:
        bad = True
    if bad:
        raise SchemaError(f"{path}.{key}", f"expected {kind_name}")
    return val


def _want_str(doc, path, key) -> str:
    return _want(doc, path, key, str, "a string")


def _want_list(doc, path, key) -> list:
    return _want(doc, path, key, list, "an array")


def _rational_at(value, path):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(path, "expected a rational as a string or integer")
    try:
        return rational(value)
    except ValidationError as exc:
        raise SchemaError(path, str(exc)) from exc


def _domain_from(doc, path) -> Domain:
    kind = _want_str(doc, path, "type")
    if kind == "categorical":
        labels = _want_list(doc, path, "labels")
        for i, l in enumerate(labels):
            if not isinstance(l, str):
                raise SchemaError(f"{path}.labels[{i}]", "expected a string label")
        try:
            return Categorical(tuple(labels))
        except ValidationError as exc:
            raise SchemaError(f"{path}.labels", str(exc)) from exc
    if kind == "ordinal":
        lo = _rational_at(_want(doc, path, "lo", (str, int), "a rational"), f"{path}.lo")
        hi = _rational_at(_want(doc, path, "hi", (str, int), "a rational"), f"{path}.hi")
        value_kind = doc.get("kind", CONTINUOUS)
        if value_kind not in (CONTINUOUS, INTEGER):
            raise SchemaError(f"{path}.kind", f"expected {CONTINUOUS!r} or {INTEGER!r}")
        try:
            return Ordinal(lo, hi, value_kind)
        except ValidationError as exc:
            raise SchemaError(path, str(exc)) from exc
    raise SchemaError(f"{path}.type", f"unknown domain type {kind!r}")


def _feature_index(doc, path, space: FeatureSpace) -> int:
    j = _want(doc, path, "feature", int, "a feature index")
    if not 1 <= j <= space.m:
        raise SchemaError(f"{path}.feature", f"index {j} out of range 1..{space.m}")
    return j


def _intervals_from(items, path, domain: Ordinal) -> IntervalUnion:
    pieces = []
    for i, entry in enumerate(items):
        here = f"{path}[{i}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise SchemaError(here, "expected [lo, hi, lo_closed, hi_closed]")
        lo = _rational_at(entry[0], f"{here}[0]")
        hi = _rational_at(entry[1], f"{here}[1]")
        if not isinstance(entry[2], bool) or not isinstance(entry[3], bool):
            raise SchemaError(here, "endpoint flags must be booleans")
        pieces.append(Interval(lo, hi, entry[2], entry[3]))
    try:
        return interval_union(domain, pieces)
    except ValidationError as exc:
        raise SchemaError(path, str(exc)) from exc


def _valueset_from(doc, path, domain: Domain) -> ValueSet:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    if "labels" in doc:
        if not isinstance(domain, Categorical):
            raise SchemaError(path, "labels given for an ordinal feature")
        labels = doc["labels"]
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise SchemaError(f"{path}.labels", "expected an array of strings")
        try:
            return cat_set(domain, labels)
        except ValidationError as exc:
            raise SchemaError(f"{path}.labels", str(exc)) from exc
    if "intervals" in doc:
        if not isinstance(domain, Ordinal):
            raise SchemaError(path, "intervals given for a categorical feature")
        items = doc["intervals"]
        if not isinstance(items, list):
            raise SchemaError(f"{path}.intervals", "expected an array")
        return _intervals_from(items, f"{path}.intervals", domain)
    raise SchemaError(path, "expected 'labels' or 'intervals'")


def _literal_from(doc, path, space: FeatureSpace) -> Literal:
    j = _feature_index(doc, path, space)
    op = _want_str(doc, path, "op")
    domain = space.domain(j)
    if op == "eq":
        label = _want_str(doc, path, "label")
        if not isinstance(domain, Categorical) or label not in domain.labels:
            raise SchemaError(f"{path}.label", f"label {label!r} not in the domain of feature {j}")
        return LabelEq(j, label)
    if op == "in":
        return SetMember(j, _valueset_from(doc, path, domain))
    raise SchemaError(f"{path}.op", f"unknown literal op {op!r}")


def _node_from(doc, path, space: FeatureSpace, classes, seen: dict) -> Node:
    """A tree node; seen maps each (feature, threshold string) read so far
    in this load to its checked value, so a repeated split is read once."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    if "class" in doc:
        cls = doc["class"]
        if not isinstance(cls, str) or cls not in classes:
            raise SchemaError(f"{path}.class", f"unknown class {cls!r}")
        return Leaf(cls)
    j = _feature_index(doc, path, space)
    domain = space.domain(j)
    left = _node_from(_want(doc, path, "left", dict, "an object"), f"{path}.left", space, classes, seen)
    right = _node_from(_want(doc, path, "right", dict, "an object"), f"{path}.right", space, classes, seen)
    if "threshold" in doc:
        raw = doc["threshold"]
        # only strings are keys: a JSON true equals 1 and must still be refused
        t = seen.get((j, raw)) if isinstance(raw, str) else None
        if t is None:
            if not isinstance(domain, Ordinal):
                raise SchemaError(f"{path}.threshold", f"feature {j} is categorical")
            t = _rational_at(raw, f"{path}.threshold")
            if not domain.lo < t <= domain.hi:
                raise SchemaError(
                    f"{path}.threshold", f"{rational_str(t)} outside ({rational_str(domain.lo)}, {rational_str(domain.hi)}]"
                )
            if isinstance(raw, str):
                seen[j, raw] = t
        return OrdinalSplit(j, t, left, right)
    if "label" in doc:
        if not isinstance(domain, Categorical):
            raise SchemaError(f"{path}.label", f"feature {j} is ordinal")
        label = doc["label"]
        if not isinstance(label, str) or label not in domain.labels:
            raise SchemaError(f"{path}.label", f"label {label!r} not in the domain of feature {j}")
        return LabelSplit(j, label, left, right)
    raise SchemaError(path, "expected 'class', 'threshold', or 'label'")


def _classifier_from(doc, path, space: FeatureSpace, classes) -> Classifier:
    kind = _want_str(doc, path, "type")
    if kind == "monotonic":
        weights = [_rational_at(w, f"{path}.weights[{i}]") for i, w in enumerate(_want_list(doc, path, "weights"))]
        thresholds = [
            _rational_at(t, f"{path}.thresholds[{i}]")
            for i, t in enumerate(_want_list(doc, path, "thresholds"))
        ]
        try:
            return MonotonicClassifier(tuple(weights), tuple(thresholds), classes)
        except ValidationError as exc:
            raise SchemaError(path, str(exc)) from exc
    if kind == "decision_list":
        rules = []
        for i, rdoc in enumerate(_want_list(doc, path, "rules")):
            rpath = f"{path}.rules[{i}]"
            lits = [
                _literal_from(ldoc, f"{rpath}.if[{k}]", space)
                for k, ldoc in enumerate(_want_list(rdoc, rpath, "if"))
            ]
            cls = _want_str(rdoc, rpath, "then")
            if cls not in classes:
                raise SchemaError(f"{rpath}.then", f"unknown class {cls!r}")
            rules.append(Rule(tuple(lits), cls))
        default = _want_str(doc, path, "default")
        if default not in classes:
            raise SchemaError(f"{path}.default", f"unknown class {default!r}")
        return DecisionList(tuple(rules), default, classes)
    seen: dict = {}  # one load's thresholds, see _node_from
    if kind == "decision_tree":
        root = _node_from(_want(doc, path, "root", dict, "an object"), f"{path}.root", space, classes, seen)
        return DecisionTree(root, classes)
    if kind == "tree_ensemble":
        trees = []
        for i, tdoc in enumerate(_want_list(doc, path, "trees")):
            root = _node_from(tdoc, f"{path}.trees[{i}]", space, classes, seen)
            trees.append(DecisionTree(root, classes))
        if not trees:
            raise SchemaError(f"{path}.trees", "an ensemble needs at least one tree")
        return TreeEnsemble(tuple(trees), classes)
    raise SchemaError(f"{path}.type", f"unknown classifier type {kind!r}")


def model_from_dict(doc: dict) -> ModelFile:
    """Read a model document, refusing its first bad element with its path.
    Each distinct threshold string of a feature's splits is parsed and
    checked against the domain once per call; repeats reuse the value."""
    path = "$"
    schema = _want_str(doc, path, "schema")
    if schema != MODEL_SCHEMA:
        raise SchemaError(f"{path}.schema", f"expected {MODEL_SCHEMA!r}, got {schema!r}")
    name = doc.get("name", "model")
    if not isinstance(name, str):
        raise SchemaError(f"{path}.name", "expected a string")
    fdocs = _want_list(doc, path, "features")
    if not fdocs:
        raise SchemaError(f"{path}.features", "at least one feature required")
    names = []
    domains = []
    for i, fdoc in enumerate(fdocs):
        fpath = f"{path}.features[{i}]"
        names.append(_want_str(fdoc, fpath, "name"))
        domains.append(_domain_from(_want(fdoc, fpath, "domain", dict, "an object"), f"{fpath}.domain"))
    try:
        space = FeatureSpace(tuple(domains), tuple(names))
    except ValidationError as exc:
        raise SchemaError(f"{path}.features", str(exc)) from exc
    classes = _want_list(doc, path, "classes")
    if not all(isinstance(c, str) for c in classes):
        raise SchemaError(f"{path}.classes", "expected an array of strings")
    if len(set(classes)) != len(classes) or len(classes) < 2:
        raise SchemaError(f"{path}.classes", "need at least two distinct classes")
    classifier = _classifier_from(
        _want(doc, path, "classifier", dict, "an object"), f"{path}.classifier", space, tuple(classes)
    )
    try:
        validate_classifier(classifier, space)
    except ValidationError as exc:
        raise SchemaError(f"{path}.classifier", str(exc)) from exc
    return ModelFile(name, space, classifier)


def load_model(source: Union[str, Path, dict]) -> ModelFile:
    try:
        if isinstance(source, dict):
            return model_from_dict(source)
        try:
            doc = json.loads(Path(source).read_text())
        except FileNotFoundError:
            raise ValidationError(f"model file not found: {source}")
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}")
        if not isinstance(doc, dict):
            raise SchemaError("$", "expected a JSON object")
        return model_from_dict(doc)
    except RecursionError:  # decoding or parsing a document nested past the limit
        raise SchemaError("$", "the document is nested too deeply to read") from None


# ---------------------------------------------------------------------------
# Writers


def _domain_to_dict(domain: Domain) -> dict:
    if isinstance(domain, Categorical):
        return {"type": "categorical", "labels": list(domain.labels)}
    return {
        "type": "ordinal",
        "lo": rational_str(domain.lo),
        "hi": rational_str(domain.hi),
        "kind": domain.kind,
    }


def _node_to_dict(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"class": node.class_id}
    if isinstance(node, OrdinalSplit):
        test = {"threshold": rational_str(node.threshold)}
    else:
        test = {"label": node.label}
    return {
        "feature": node.feature,
        **test,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _interval_list(s: IntervalUnion) -> list:
    return [
        [rational_str(iv.lo), rational_str(iv.hi), iv.lo_closed, iv.hi_closed] for iv in s.intervals
    ]


def valueset_to_dict(domain: Domain, s: ValueSet) -> dict:
    if isinstance(s, CatSet):
        return {"labels": [l for l in domain.labels if l in s.labels]}
    return {"intervals": _interval_list(s)}


def _classifier_to_dict(classifier: Classifier) -> dict:
    if isinstance(classifier, MonotonicClassifier):
        return {
            "type": "monotonic",
            "weights": [rational_str(w) for w in classifier.weights],
            "thresholds": [rational_str(t) for t in classifier.thresholds],
        }
    if isinstance(classifier, DecisionList):
        rules = []
        for rule in classifier.rules:
            lits = []
            for lit in rule.condition:
                if isinstance(lit, LabelEq):
                    test = {"op": "eq", "label": lit.label}
                elif isinstance(lit.values, CatSet):
                    test = {"op": "in", "labels": sorted(lit.values.labels)}
                else:
                    test = {"op": "in", "intervals": _interval_list(lit.values)}
                lits.append({"feature": lit.feature, **test})
            rules.append({"if": lits, "then": rule.class_id})
        return {"type": "decision_list", "rules": rules, "default": classifier.default_class}
    if isinstance(classifier, DecisionTree):
        return {"type": "decision_tree", "root": _node_to_dict(classifier.root)}
    return {"type": "tree_ensemble", "trees": [_node_to_dict(t.root) for t in classifier.trees]}


_TOO_DEEP_TO_WRITE = "the model is nested too deeply to write"


def model_to_dict(mf: ModelFile) -> dict:
    try:
        return {
            "schema": MODEL_SCHEMA,
            "name": mf.name,
            "features": [
                {"name": mf.space.name(j), "domain": _domain_to_dict(mf.space.domain(j))}
                for j in mf.space.features()
            ],
            "classes": list(mf.classifier.classes),
            "classifier": _classifier_to_dict(mf.classifier),
        }
    except RecursionError:  # the tree writer recurses on depth
        raise ValidationError(_TOO_DEEP_TO_WRITE) from None


def save_model(mf: ModelFile, path: Union[str, Path]) -> None:
    """Write the model document; nothing is written when it cannot be encoded."""
    try:
        text = json.dumps(model_to_dict(mf), indent=2, ensure_ascii=False) + "\n"
    except RecursionError:  # the encoder recurses on depth too
        raise ValidationError(_TOO_DEEP_TO_WRITE) from None
    Path(path).write_text(text)


# ---------------------------------------------------------------------------
# Explanation documents and rule text


def explanation_to_dict(space: FeatureSpace, expl: InflatedExplanation) -> dict:
    return {
        "kind": expl.kind,
        "features": list(expl.features),
        "sets": {str(j): valueset_to_dict(space.domain(j), expl.set_for(j)) for j in expl.features},
        "probe_order": list(expl.probe_order),
        "delta": rational_str(expl.delta),
    }


def _interval_text(iv: Interval) -> str:
    if iv.lo == iv.hi:
        return "{" + rational_str(iv.lo) + "}"
    left = "[" if iv.lo_closed else "("
    right = "]" if iv.hi_closed else ")"
    return f"{left}{rational_str(iv.lo)},{rational_str(iv.hi)}{right}"


def set_text(domain: Domain, s: ValueSet) -> str:
    if isinstance(s, CatSet):
        ordered = [l for l in domain.labels if l in s.labels]
        return "{" + ",".join(ordered) + "}"
    return "∪".join(_interval_text(iv) for iv in s.intervals)


def render_rule(space: FeatureSpace, expl: InflatedExplanation, class_id: str) -> str:
    """One-line rule text, e.g. IF A∈{Junior,Senior} ∧ C∈{Red} THEN 1."""
    parts = [
        f"{space.name(j)}∈{set_text(space.domain(j), expl.set_for(j))}"
        for j in expl.features
    ]
    body = " ∧ ".join(parts)
    if expl.kind == "abductive":
        return f"IF {body} THEN {class_id}"
    return f"IF {body} THEN NOT {class_id}"


def parse_point(space: FeatureSpace, text: str) -> tuple[Value, ...]:
    """Parse a comma-separated instance like "Junior,Red" or "3,5"."""
    tokens = [t.strip() for t in text.split(",")]
    return space.validate_point(tokens)
