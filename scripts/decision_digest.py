"""Digest of every answer and oracle decision over the test pools.

Run from the repository root:

    python3 scripts/decision_digest.py

Each problem of the `tests/pools.py` pools (lists, forests, monotone,
categorical, integer-domain, monotone over integer and over non-integral
domains, whose boxes end on clip and snap boundaries, single trees
over continuous and categorical features, some sharing a subtree, and
three-class lists whose rules test a feature more than once or nothing) runs
`find_axp` + `inflate_axp`, `find_cxp` + `shrink_cxp`, and the duality
round trip: `icxp_from_iaxps` on that inflated AXp (one ICXp per feature),
then `iaxp_from_icxps` back from those.  A problem with at most six
features also runs `enumerate_all`, then `enumerate_iaxps` on every AXp
and `enumerate_icxps` on every CXp it finds, trusted since `enumerate_all`
proved them, at delta 1/2 and with a cap of 128 candidates.  Every
decision of the problem's oracle is logged as (box, class, answer); the
constancy checks made while building a problem are not.  The box is
logged as the engine decides it, `CompiledModel.box` of the assignment
after the decision: each feature's atom mask, or its monotone extremes
with both ends as reduced fractions.  So a search may pass the oracle
value sets or compiled entries, and the log is the same when the engine
decides the same boxes.  The script prints
one JSON line: the problem count, the decision count, and a sha256 over
the outputs, each problem's `oracle.stats.calls` and the ordered decision
log.  An engine change that keeps answers and decisions identical keeps
the digest.  Nothing is logged in string-hash order, so the digest does
not depend on the hash seed or on the Python version.
`scripts/decision_digest.json` holds the expected line; CI fails when the
output differs from it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from pools import (
    categorical_pool,
    dl_pool,
    forest_pool,
    fractional_monotone_pool,
    integer_monotone_pool,
    integer_pool,
    make_problem,
    monotone_pool,
    tree_pool,
    wide_list_pool,
)
from xinflate.duality import enumerate_iaxps, enumerate_icxps, iaxp_from_icxps, icxp_from_iaxps
from xinflate.errors import XInflateError
from xinflate.explain import enumerate_all, find_axp, find_cxp
from xinflate.inflate import InflationConfig, inflate_axp, shrink_cxp
from xinflate.serialize import explanation_to_dict

ENUMERATE_MAX_FEATURES = 6
DUAL_CONFIG = InflationConfig(delta=Fraction(1, 2))
DUAL_CAP = 128


def _canonical(entry):
    """A feature of a converted box as logged: a mask as it is, monotone
    extremes (lowest, highest, whether attained) as reduced fractions."""
    if isinstance(entry, int):
        return entry
    lo_num, lo_den, hi_num, hi_den, closed = entry
    return Fraction(lo_num, lo_den), Fraction(hi_num, hi_den), bool(closed)


def _logged(log: list, oracle, decide):
    def logged(assignment, class_id):
        answer = decide(assignment, class_id)
        box = oracle.model.box(assignment, [None] * oracle.model.space.m)
        log.append((list(map(_canonical, box)), class_id, answer))
        return answer

    return logged


def _attempt(call):
    """call(), or its error as (type name, message)."""
    try:
        return call()
    except XInflateError as exc:
        return type(exc).__name__, str(exc)


def _documents(problem, expls) -> list:
    return [explanation_to_dict(problem.space, e) for e in expls]


def _round_trip(problem) -> list:
    iaxp = inflate_axp(problem, find_axp(problem), trusted=True)
    icxps = [icxp_from_iaxps(problem, [iaxp], [j]) for j in iaxp.features]
    return _documents(problem, (*icxps, iaxp_from_icxps(problem, icxps, list(iaxp.features))))


def _run(problem) -> list:
    """The outputs of the listed calls; an error counts as its message."""
    out = []
    for find, finish in ((find_axp, inflate_axp), (find_cxp, shrink_cxp)):
        try:
            feats = find(problem)
            out.append((feats, explanation_to_dict(problem.space, finish(problem, feats))))
        except XInflateError as exc:
            out.append((type(exc).__name__, str(exc)))
    if problem.space.m <= ENUMERATE_MAX_FEATURES:
        try:
            families = enumerate_all(problem)
            out.append(families)
        except XInflateError as exc:
            out.append((type(exc).__name__, str(exc)))
            families = ((), ())
        for enumerate_family, family in zip((enumerate_iaxps, enumerate_icxps), families):
            for feats in family:
                out.append(_attempt(lambda: _documents(
                    problem, enumerate_family(problem, feats, DUAL_CONFIG, DUAL_CAP, trusted=True)
                )))
    out.append(_attempt(lambda: _round_trip(problem)))
    return out


def main() -> int:
    pools = (
        dl_pool()
        + forest_pool()
        + monotone_pool()
        + categorical_pool()
        + integer_pool()
        + integer_monotone_pool()
        + fractional_monotone_pool()
        + tree_pool()
        + wide_list_pool()
    )
    sha = hashlib.sha256()
    decisions = 0
    for clf, space, point in pools:
        problem = make_problem(clf, space, point)
        log: list = []
        for method in ("holds_sufficiency", "counterexample_in"):
            decide = getattr(problem.oracle, method)
            setattr(problem.oracle, method, _logged(log, problem.oracle, decide))
        out = _run(problem)
        sha.update(repr((out, problem.oracle.stats.calls, log)).encode())
        decisions += len(log)
    print(json.dumps({"problems": len(pools), "decisions": decisions, "sha256": sha.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
