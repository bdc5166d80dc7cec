"""The benchmark's four workloads: seeded inputs, one call per instance, checks.

Each workload has a ``setup(seed, workdir)`` that loads models and data,
validates the classifiers and generates the cases; a ``run(ctx, case,
api)`` that makes one closed-loop call into xinflate's public API; and a
``check(case, answer, rng)`` that validates the answer with nothing but
``classifier.predict`` (or, for the CLI, the returned document).  ``api``
is either the plain library (timed runs) or a ``Tracer``-wrapped one
(traced runs); the workload code is the same for both.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

from xinflate import cli
from xinflate.classifiers import validate_classifier
from xinflate.explain import ExplanationProblem, find_axp, find_cxp
from xinflate.inflate import InflationConfig, inflate_axp, shrink_cxp
from xinflate.model import (
    ABDUCTIVE,
    CatSet,
    Categorical,
    FeatureSpace,
    INTEGER,
    Instance,
    rational_str,
)
from xinflate.oracle import classifier_is_constant, discretize
from xinflate.serialize import ModelFile, explanation_to_dict, load_model, save_model
from xinflate.synthetic import (
    random_decision_list,
    random_monotone,
    random_point,
    random_space,
    random_tree,
)

from bench_trace import Tracer

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

FOREST_MODEL = ROOT / "models" / "bench_forest.json"
FOREST_ROWS = ROOT / "data" / "bench.csv"
# The first rows of data/bench.csv form a fixed panel; the seed orders it.
# Row-to-row cost varies by a factor of ~17, so a seeded choice of the ~40
# rows a run can explain would move p50 by ~15% between seeds.
FOREST_PANEL = 40
MONOTONE_POOL = 600
MONOTONE_DELTA = Fraction(1, 100)
DUAL_POOL = 1000
# Requests whose candidate space (product over features of label subsets or
# cell unions holding the instance value) exceeds 2**7 are not generated:
# no request can reach the enumeration cap, and the slowest request stays
# near 0.1 s, so a run's sample pins the tail.
DUAL_MAX_LOG2_CANDIDATES = 7
CHECK_POINTS = 8


@dataclass(frozen=True)
class Case:
    """One input: a problem instance, or a CLI request."""

    key: int
    classifier: Any = None
    space: Optional[FeatureSpace] = None
    values: tuple = ()
    argv: tuple = ()


@dataclass
class Answer:
    """What one call returned, in a form the checks and the reference use."""

    target: str
    features: tuple = ()
    expl: Any = None
    decisions: Optional[int] = None
    doc: Optional[dict] = None
    exit_code: int = 0

    def digest(self, space: Optional[FeatureSpace]) -> str:
        body = self.doc if self.doc is not None else explanation_to_dict(space, self.expl)
        text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        return hashlib.sha256(text.encode()).hexdigest()


def plain_api() -> SimpleNamespace:
    return SimpleNamespace(
        make_problem=ExplanationProblem,
        find_axp=find_axp,
        find_cxp=find_cxp,
        inflate_axp=inflate_axp,
        shrink_cxp=shrink_cxp,
        cli_main=cli.main,
    )


def traced_api(tracer: Tracer) -> SimpleNamespace:
    return SimpleNamespace(
        make_problem=tracer.make_problem,
        find_axp=tracer.wrap("explain.find_axp", find_axp),
        find_cxp=tracer.wrap("explain.find_cxp", find_cxp),
        inflate_axp=tracer.wrap("inflate.inflate_axp", inflate_axp),
        shrink_cxp=tracer.wrap("inflate.shrink_cxp", shrink_cxp),
        cli_main=tracer.cli_main,
    )


# ---------------------------------------------------------------------------
# Predict-only checks


def _sample_value(domain, s, rng: random.Random):
    """A seeded point of value set s (or of the whole domain when s is None)."""
    if isinstance(domain, Categorical):
        labels = sorted(s.labels) if s is not None else list(domain.labels)
        return rng.choice(labels)
    if s is None:
        lo, hi, lo_closed, hi_closed = domain.lo, domain.hi, True, True
    else:
        iv = rng.choice(s.intervals)
        lo, hi, lo_closed, hi_closed = iv.lo, iv.hi, iv.lo_closed, iv.hi_closed
    if domain.kind == INTEGER:
        first = lo if lo_closed else lo + 1
        last = hi if hi_closed else hi - 1
        return Fraction(rng.randint(int(first), int(last)))
    options = [lo] if lo_closed else []
    options += [hi] if hi_closed else []
    if lo < hi:
        options.append(lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000))
    return rng.choice(options)


def representative(domain, s):
    """The point a contrastive piece stands for: its label, grid point or cell middle."""
    if isinstance(s, CatSet):
        return min(s.labels)
    iv = s.intervals[0]
    if domain.kind == INTEGER or iv.lo == iv.hi:
        return iv.lo
    return (iv.lo + iv.hi) / 2


def check_abductive(case: Case, answer: Answer, rng: random.Random) -> list[str]:
    """Seeded points inside the inflated box must all predict the target."""
    classifier, space, expl = case.classifier, case.space, answer.expl
    if expl.kind != ABDUCTIVE or tuple(expl.features) != tuple(answer.features):
        return ["answer is not the inflation of the extracted AXp"]
    if classifier.predict(case.values) != answer.target:
        return ["target differs from the instance's prediction"]
    errors = []
    for _ in range(CHECK_POINTS):
        point = tuple(
            _sample_value(space.domain(j), expl.sets.get(j), rng) for j in space.features()
        )
        got = classifier.predict(point)
        if got != answer.target:
            errors.append(f"point {[str(v) for v in point]} inside the AXp box predicts {got}")
            break
    return errors


def check_contrastive(case: Case, answer: Answer, rng: random.Random) -> list[str]:
    """The representative point of the shrunk CXp box must change the prediction."""
    expl = answer.expl
    if tuple(expl.features) != tuple(answer.features):
        return ["shrunk sets do not cover the extracted CXp"]
    point = list(case.values)
    for j in expl.features:
        point[j - 1] = representative(case.space.domain(j), expl.sets[j])
    got = case.classifier.predict(tuple(point))
    if got == answer.target:
        return [f"representative point {[str(v) for v in point]} keeps class {got}"]
    return []


def check_dual_doc(case: Case, answer: Answer, rng: random.Random) -> list[str]:
    if answer.exit_code != 0:
        return [f"cli exited {answer.exit_code}"]
    doc = answer.doc
    errors = []
    if doc.get("duality_holds") is not True:
        errors.append("duality_holds is not true")
    if any(h is None for row in doc.get("hits", []) for h in row):
        errors.append("a hits entry is null")
    return errors


# ---------------------------------------------------------------------------
# Workloads


def _axp_run(ctx, case: Case, api) -> Answer:
    """find_axp then inflate_axp, as ``xinflate.bench`` explains one row."""
    instance = Instance(case.values, case.classifier.predict(case.values))
    problem = api.make_problem(case.classifier, case.space, instance, skip_checks=True)
    axp = api.find_axp(problem)
    expl = api.inflate_axp(problem, axp, ctx.config, trusted=True)
    return Answer(instance.class_id, axp, expl, problem.oracle.stats.calls)


def _cxp_run(ctx, case: Case, api) -> Answer:
    instance = Instance(case.values, case.classifier.predict(case.values))
    problem = api.make_problem(case.classifier, case.space, instance, skip_checks=True)
    cxp = api.find_cxp(problem)
    expl = api.shrink_cxp(problem, cxp, ctx.config)
    return Answer(instance.class_id, cxp, expl, problem.oracle.stats.calls)


def _dual_run(ctx, case: Case, api) -> Answer:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli_main(list(case.argv))
    doc = json.loads(out.getvalue()) if code == 0 else None
    return Answer(doc["class"] if doc else "", doc=doc, exit_code=code)


def _checked(classifier, space) -> None:
    validate_classifier(classifier, space)
    if classifier_is_constant(classifier, space):
        raise ValueError("constant classifier")


def _forest_setup(seed: int, workdir: Path) -> SimpleNamespace:
    mf = load_model(FOREST_MODEL)
    with open(FOREST_ROWS, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [row[: mf.space.m] for row in reader if row]
    _checked(mf.classifier, mf.space)
    cases = [
        Case(i, mf.classifier, mf.space, mf.space.validate_point([c.strip() for c in rows[i]]))
        for i in range(FOREST_PANEL)
    ]
    random.Random(seed).shuffle(cases)
    return SimpleNamespace(cases=cases, config=InflationConfig())


def _monotone_setup(seed: int, workdir: Path) -> SimpleNamespace:
    rng = random.Random(seed)
    cases = []
    while len(cases) < MONOTONE_POOL:
        classifier, space = random_monotone(rng, 5, rng.choice((2, 3)))
        try:
            _checked(classifier, space)
        except ValueError:
            continue
        cases.append(Case(len(cases), classifier, space, random_point(rng, space)))
    return SimpleNamespace(cases=cases, config=InflationConfig(delta=MONOTONE_DELTA))


def _log2_candidates(classifier, space: FeatureSpace) -> int:
    cells = discretize(classifier, space)
    total = 0
    for j in space.features():
        domain = space.domain(j)
        n = len(domain.labels) if isinstance(domain, Categorical) else len(cells.cells_for(j))
        total += n - 1
    return total


def _dual_model(rng: random.Random):
    space = random_space(rng, rng.randint(3, 4), categorical_share=0.5, max_labels=3, hi_choices=(4,))
    if rng.random() < 0.5:
        return random_decision_list(rng, space, max_rules=6, lattice_step=Fraction(1)), space
    return random_tree(rng, space, depth=4, lattice_step=Fraction(1)), space


def _dual_setup(seed: int, workdir: Path) -> SimpleNamespace:
    rng = random.Random(seed)
    cases = []
    while len(cases) < DUAL_POOL:
        classifier, space = _dual_model(rng)
        try:
            _checked(classifier, space)
        except ValueError:
            continue
        if _log2_candidates(classifier, space) > DUAL_MAX_LOG2_CANDIDATES:
            continue
        k = len(cases)
        path = workdir / f"model{k}.json"
        save_model(ModelFile(f"dual{k}", space, classifier), path)
        point = random_point(rng, space)
        text = ",".join(v if isinstance(v, str) else rational_str(v) for v in point)
        argv = ("dual", "--model", str(path), "--instance", text, "--format", "json")
        cases.append(Case(k, classifier, space, point, argv))
    return SimpleNamespace(cases=cases)


@dataclass(frozen=True)
class Workload:
    name: str
    # the highest percentile that keeps at least ten instances beyond it
    tail_percentile: float
    setup: Callable
    run: Callable
    check: Callable
    # forest workloads always explain the same panel, so their reference
    # holds on every seed; generated pools are pinned for DEFAULT_SEED only
    reference_any_seed: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("forest-axp", 75.0, _forest_setup, _axp_run, check_abductive, True),
        Workload("forest-cxp", 75.0, _forest_setup, _cxp_run, check_contrastive, True),
        Workload("monotone-grid", 98.0, _monotone_setup, _axp_run, check_abductive),
        Workload("cli-dual", 99.0, _dual_setup, _dual_run, check_dual_doc),
    )
}


# ---------------------------------------------------------------------------
# Reference answers


def reference_record(case: Case, answer: Answer) -> dict:
    """The parts of an answer the reference pins."""
    if answer.doc is not None or answer.expl is None:
        rec = {"exit": answer.exit_code, "doc_sha256": answer.digest(None) if answer.doc else None}
    else:
        rec = {"features": list(answer.features), "sets_sha256": answer.digest(case.space)}
    rec["class"] = answer.target
    if answer.decisions is not None:
        rec["decisions"] = answer.decisions
    return rec


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload, seed: int) -> dict:
    """Reference records by case key, or {} where none applies to this seed."""
    path = reference_path(workload)
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    if not workload.reference_any_seed and seed != doc["seed"]:
        return {}
    return {int(k): v for k, v in doc["records"].items()}


def compare_reference(expected: Optional[dict], got: dict) -> list[str]:
    """Differences between a fresh record and the reference one.

    Only keys present on both sides are compared: the CLI workload observes
    decision counts in traced runs only.
    """
    if expected is None:
        return []
    return [
        f"{key} is {got[key]!r}, reference {want!r}"
        for key, want in expected.items()
        if key in got and got[key] != want
    ]
