"""Command-line front end.

Subcommands: predict, explain, inflate, enumerate, shrink-cxp, dual,
train-rf, bench.  Exit code 0 on success, 2 on validation or schema
problems (including an instance whose given label the model does not
reproduce), 1 on unexpected internal errors.

`main` can be called repeatedly in one process.  It builds its parser once:
parsing leaves the parser as it was, and argparse reads the terminal width
only when it formats help or a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .bench import run_bench
from .duality import ExplanationSets, enumerate_iaxps, enumerate_icxps, check_hits
from .errors import ValidationError, XInflateError
from .explain import (
    DEFAULT_SUBSET_BUDGET,
    ExplanationProblem,
    enumerate_all,
    find_axp,
    find_cxp,
)
from .inflate import BINARY, LINEAR, InflationConfig, _extract, inflate_axp, shrink_cxp
from .model import Instance, rational, rational_str
from .serialize import (
    ModelFile,
    explanation_to_dict,
    load_model,
    parse_point,
    render_rule,
    save_model,
    set_text,
)
from .trainer import load_dataset, model_accuracy, read_table, train_forest


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    if args.format == "json":
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        for line in text_lines:
            print(line)


def _feature_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"expected comma-separated feature indices, got {text!r}")


def _problem(args, mf: ModelFile) -> ExplanationProblem:
    values = parse_point(mf.space, args.instance)
    if getattr(args, "label", None):
        instance = Instance(values, args.label)
        return ExplanationProblem(mf.classifier, mf.space, instance)
    return ExplanationProblem.from_point(mf.classifier, mf.space, values)


def _config(args) -> InflationConfig:
    return InflationConfig(
        delta=rational(args.delta),
        beta=rational(args.beta) if args.beta is not None else None,
        strategy=args.strategy,
        order=_feature_list(args.order) if args.order else None,
    )


def _names(mf: ModelFile, features) -> str:
    return ",".join(mf.space.name(j) for j in features)


def _emit_explanation(
    args, mf: ModelFile, problem: ExplanationProblem, schema: str, kind: str, feats, expl,
    show_calls: bool,
) -> None:
    """The document and text of an inflated explanation grown from feats."""
    rule = render_rule(mf.space, expl, problem.target)
    doc = {
        "schema": schema,
        "model": mf.name,
        "class": problem.target,
        kind.lower(): list(feats),
        "explanation": explanation_to_dict(mf.space, expl),
        "rule": rule,
        "oracle_calls": problem.oracle.stats.calls,
    }
    lines = [f"class: {problem.target}", f"{kind}: features {','.join(map(str, feats))}"]
    for j in expl.features:
        lines.append(f"  {mf.space.name(j)} ∈ {set_text(mf.space.domain(j), expl.set_for(j))}")
    lines.append(f"rule: {rule}")
    if show_calls:
        lines.append(f"oracle calls: {problem.oracle.stats.calls}")
    _emit(args, doc, lines)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_predict(args) -> int:
    mf = load_model(args.model)
    values = parse_point(mf.space, args.instance)
    cls = mf.classifier.predict(values)
    doc = {
        "schema": "xinflate-predict/1",
        "model": mf.name,
        "instance": [v if isinstance(v, str) else rational_str(v) for v in values],
        "class": cls,
    }
    _emit(args, doc, [f"class: {cls}"])
    return 0


def _cmd_explain(args) -> int:
    mf = load_model(args.model)
    problem = _problem(args, mf)
    order = _feature_list(args.order) if args.order else None
    doc = {"schema": "xinflate-explain/1", "model": mf.name, "class": problem.target}
    lines = [f"class: {problem.target}"]
    for kind, find in (("AXp", find_axp), ("CXp", find_cxp)):
        if args.kind in (kind.lower(), "both"):
            feats = find(problem, order)
            names = [mf.space.name(j) for j in feats]
            doc[kind.lower()] = {"features": list(feats), "names": names}
            lines.append(f"{kind}: features {','.join(map(str, feats))} ({','.join(names)})")
    doc["oracle_calls"] = problem.oracle.stats.calls
    lines.append(f"oracle calls: {problem.oracle.stats.calls}")
    _emit(args, doc, lines)
    return 0


def _cmd_inflate(args) -> int:
    mf = load_model(args.model)
    problem = _problem(args, mf)
    config = _config(args)
    trusted = not args.axp
    axp, config = (
        _extract(problem, find_axp, config) if trusted else (_feature_list(args.axp), config)
    )
    expl = inflate_axp(problem, axp, config, trusted=trusted)
    _emit_explanation(args, mf, problem, "xinflate-inflate/1", "AXp", axp, expl, show_calls=True)
    return 0


def _families(args, mf: ModelFile, problem: ExplanationProblem, schema: str):
    """Every AXp and CXp, and the head of their document with the duality check."""
    sets = ExplanationSets(*enumerate_all(problem, max_subsets=args.budget))
    doc = {
        "schema": schema,
        "model": mf.name,
        "class": problem.target,
        "axps": [list(x) for x in sets.axps],
        "cxps": [list(y) for y in sets.cxps],
        "duality_holds": sets.mhs_dual(),
    }
    return sets, doc


def _cmd_enumerate(args) -> int:
    mf = load_model(args.model)
    problem = _problem(args, mf)
    sets, doc = _families(args, mf, problem, "xinflate-enumerate/1")
    lines = [f"class: {problem.target}"]
    for kind, family in (("AXps", sets.axps), ("CXps", sets.cxps)):
        lines.append(f"{kind} ({len(family)}):")
        lines += [f"  {{{','.join(map(str, x))}}} ({_names(mf, x)})" for x in family]
    lines.append(f"hitting-set duality: {'holds' if doc['duality_holds'] else 'VIOLATED'}")
    _emit(args, doc, lines)
    return 0


def _cmd_shrink_cxp(args) -> int:
    mf = load_model(args.model)
    problem = _problem(args, mf)
    config = _config(args)
    cxp, config = (
        (_feature_list(args.cxp), config) if args.cxp else _extract(problem, find_cxp, config)
    )
    expl = shrink_cxp(problem, cxp, config)
    _emit_explanation(args, mf, problem, "xinflate-shrink/1", "CXp", cxp, expl, show_calls=False)
    return 0


def _cmd_dual(args) -> int:
    mf = load_model(args.model)
    problem = _problem(args, mf)
    config = _config(args)
    sets, doc = _families(args, mf, problem, "xinflate-dual/1")
    iaxps = []
    for x in sets.axps:  # enumerate_all proved each family, so no call re-checks it
        iaxps.extend(enumerate_iaxps(problem, x, config, args.max_candidates, trusted=True))
    icxps = []
    for y in sets.cxps:
        icxps.extend(enumerate_icxps(problem, y, config, args.max_candidates, trusted=True))
    hits = [[check_hits(problem, ia, ic) for ic in icxps] for ia in iaxps]
    doc["iaxps"] = [explanation_to_dict(mf.space, e) for e in iaxps]
    doc["icxps"] = [explanation_to_dict(mf.space, e) for e in icxps]
    doc["hits"] = hits
    lines = [f"class: {problem.target}"]
    lines.append(f"plain duality: {'holds' if doc['duality_holds'] else 'VIOLATED'}")
    for kind, family in (("abductive", iaxps), ("contrastive", icxps)):
        lines.append(f"inflated {kind} families ({len(family)}):")
        lines += [f"  {render_rule(mf.space, e, problem.target)}" for e in family]
    broken = sum(1 for row in hits for h in row if h is None)
    lines.append(f"pairs without a blocking feature: {broken}")
    _emit(args, doc, lines)
    return 0


def _cmd_train_rf(args) -> int:
    dataset = load_dataset(args.data)
    for out in (args.model_out, args.out):  # refuse before training, not after
        if out and not Path(out).parent.is_dir():
            raise ValidationError(f"output directory not found: {Path(out).parent}")
    forest = train_forest(dataset, n_trees=args.trees, depth=args.depth, seed=args.seed)
    acc = model_accuracy(forest, dataset)
    mf = ModelFile(args.name, dataset.space, forest)
    save_model(mf, args.model_out)
    doc = {
        "schema": "xinflate-train/1",
        "out": str(args.model_out),
        "trees": args.trees,
        "depth": args.depth,
        "seed": args.seed,
        "classes": list(dataset.classes),
        "train_accuracy": float(acc),
    }
    lines = [
        f"wrote {args.model_out} ({args.trees} trees, depth {args.depth})",
        f"train accuracy: {float(acc):.4f}",
    ]
    _emit(args, doc, lines)
    return 0


def _read_rows(path: str, m: int):
    """The rows of a CSV of points, and its labels when it has a label column."""
    header, table = read_table(path)
    if len(header) not in (m, m + 1):
        raise ValidationError(
            f"CSV has {len(header)} columns; expected {m} features plus an optional label"
        )
    rows = [tuple(cell.strip() for cell in row[:m]) for row in table]
    labels = [row[m].strip() for row in table] if len(header) > m else None
    return rows, labels


def _cmd_bench(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValidationError(f"--limit must be non-negative, got {args.limit}")
    mf = load_model(args.model)
    rows, labels = _read_rows(args.data, mf.space.m)
    if args.limit is not None:
        rows = rows[: args.limit]
        labels = labels[: args.limit] if labels is not None else None
    config = _config(args)
    report = run_bench(
        mf.classifier, mf.space, rows, config, labels=labels, workers=args.workers
    )
    doc = report.to_dict()
    doc["model"] = mf.name
    lines = [
        f"instances: {len(report.records)}",
        f"mean AXp length: {report.axp_len_avg:.3f}",
        f"mean wall time: {report.time_avg_s * 1000:.2f} ms",
        f"widening total per instance: min {report.added_min}, "
        f"max {report.added_max}, mean {report.added_avg:.3f}",
    ]
    if report.accuracy is not None:
        lines.append(f"model accuracy on rows: {float(report.accuracy):.4f}")
    _emit(args, doc, lines)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="path to a model JSON file")
    p.add_argument("--instance", required=True, help="comma-separated feature values")
    p.add_argument("--label", help="expected class; exit 2 if the model disagrees")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write the JSON document to this file")


def _add_inflation(p: argparse.ArgumentParser, *, search: bool, order: bool) -> None:
    """--delta, plus the grid search options and --order where the subcommand reads them."""
    p.set_defaults(beta=None, strategy=LINEAR, order=None)  # what _config reads when absent
    p.add_argument("--delta", default="1/5", help="ordinal step size (rational, default 1/5)")
    if search:
        p.add_argument("--beta", default=None, help="coarse step for the coarse-then-fine strategy")
        p.add_argument(
            "--strategy", choices=(LINEAR, BINARY), default=LINEAR, help="grid search flavor"
        )
    if order:
        p.add_argument("--order", help="comma-separated feature order, e.g. 2,1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xinflate", description="Inflated formal explanations for interpretable classifiers"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="classify one instance")
    _add_common(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("explain", help="extract abductive and contrastive explanations")
    _add_common(p)
    p.add_argument("--kind", choices=("axp", "cxp", "both"), default="both")
    p.add_argument("--order", help="comma-separated feature order, e.g. 2,1")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("inflate", help="grow an abductive explanation to maximal value sets")
    _add_common(p)
    _add_inflation(p, search=True, order=True)
    p.add_argument("--axp", help="features to inflate (default: extract one first)")
    p.set_defaults(func=_cmd_inflate)

    p = sub.add_parser("enumerate", help="list all explanations and check duality")
    _add_common(p)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("shrink-cxp", help="shrink a contrastive explanation to small value sets")
    _add_common(p)
    _add_inflation(p, search=False, order=True)
    p.add_argument("--cxp", help="features to shrink (default: extract one first)")
    p.set_defaults(func=_cmd_shrink_cxp)

    p = sub.add_parser("dual", help="enumerate inflated families on both sides and cross-check")
    _add_common(p)
    _add_inflation(p, search=False, order=False)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.add_argument("--max-candidates", type=int, default=4096)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("train-rf", help="train a bagged decision forest from a CSV")
    p.add_argument("--data", required=True, help="CSV with a header row; last column is the label")
    p.add_argument("--trees", type=int, default=25)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="forest")
    p.add_argument("--model-out", required=True, help="where to write the model JSON")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write the JSON summary to this file")
    p.set_defaults(func=_cmd_train_rf)

    p = sub.add_parser("bench", help="explain and inflate every row of a CSV")
    p.add_argument("--model", required=True, help="path to a model JSON file")
    p.add_argument("--data", required=True, help="CSV of instances; label column optional")
    _add_inflation(p, search=True, order=True)
    p.add_argument("--limit", type=int, help="only bench the first N rows")
    p.add_argument("--workers", type=int, default=1, help="process count (default 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write the JSON report to this file")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped reading; point stdout at devnull so the flush
        # at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, XInflateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
