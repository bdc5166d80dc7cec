"""Command-line behavior: documents, text lines, exit codes."""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from xinflate import cli
from xinflate.classifiers import validate_classifier
from xinflate.cli import build_parser, main
from xinflate.explain import ExplanationProblem, find_axp
from xinflate.serialize import load_model, parse_point

ROOT = Path(__file__).resolve().parent.parent
RISK = str(ROOT / "models" / "risk_list.json")
GRADE = str(ROOT / "models" / "grade.json")
FOREST = str(ROOT / "models" / "bench_forest.json")
BENCH_CSV = str(ROOT / "data" / "bench.csv")
STUMP_CSV = str(ROOT / "data" / "stump.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _chain_tree_text(depth: int) -> str:
    """A model file holding a depth-deep chain tree, written as text.

    json.dumps of the nested document would itself hit the recursion limit.
    """
    node = '{"class": "a"}'
    for k in range(depth, 0, -1):
        leaf = "a" if k % 2 else "b"
        node = f'{{"feature": 1, "threshold": "{k}", "left": {{"class": "{leaf}"}}, "right": {node}}}'
    features = (
        f'[{{"name": "x", "domain": {{"type": "ordinal", "lo": "0", "hi": "{depth}", '
        '"kind": "integer"}}, {"name": "y", "domain": {"type": "ordinal", "lo": "0", "hi": "1"}}]'
    )
    return (
        f'{{"schema": "xinflate-model/1", "name": "chain", "features": {features}, '
        f'"classes": ["a", "b"], "classifier": {{"type": "decision_tree", "root": {node}}}}}'
    )


class TestPredict:
    def test_text(self, capsys):
        code, out, err = run(capsys, "predict", "--model", RISK, "--instance", "Junior,Red")
        assert code == 0
        assert out.strip() == "class: 1"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "predict", "--model", RISK, "--instance", "Adult,Red", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "0"
        assert doc["instance"] == ["Adult", "Red"]

    def test_bad_instance_exits_2(self, capsys):
        code, _, err = run(capsys, "predict", "--model", RISK, "--instance", "Junior")
        assert code == 2
        assert "error:" in err

    def test_missing_model_exits_2(self, capsys):
        code, _, err = run(capsys, "predict", "--model", "/nope.json", "--instance", "a")
        assert code == 2

    def test_too_deep_model_exits_2(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(_chain_tree_text(1200))
        for command in ("predict", "explain"):
            code, out, err = run(capsys, command, "--model", str(path), "--instance", "0,0")
            assert code == 2
            assert "$: the document is nested too deeply" in err
            assert out == ""

    def test_deep_model_within_the_limit_loads(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(_chain_tree_text(400))
        code, out, _ = run(capsys, "explain", "--model", str(path), "--instance", "0,0")
        assert code == 0
        assert "AXp: features 1 (x)" in out


class TestExplain:
    def test_both_kinds_reported(self, capsys):
        code, out, _ = run(
            capsys, "explain", "--model", RISK, "--instance", "Junior,Red", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["axp"]["features"] == [1, 2]
        assert doc["cxp"]["features"] == [1]
        assert doc["class"] == "1"

    def test_retention_order_changes_cxp(self, capsys):
        code, out, _ = run(
            capsys,
            "explain", "--model", RISK, "--instance", "Junior,Red",
            "--kind", "cxp", "--order", "2,1", "--format", "json",
        )
        assert json.loads(out)["cxp"]["features"] == [2]

    def test_label_disagreement_exits_2(self, capsys):
        code, _, err = run(
            capsys, "explain", "--model", RISK, "--instance", "Junior,Red", "--label", "0"
        )
        assert code == 2
        assert "predicts" in err


class TestInflate:
    def test_rule_text(self, capsys):
        code, out, _ = run(capsys, "inflate", "--model", RISK, "--instance", "Junior,Red")
        assert code == 0
        assert "rule: IF A∈{Junior,Senior} ∧ C∈{Red,Blue,Green,Black} THEN 1" in out

    def test_grade_with_delta(self, capsys):
        code, out, _ = run(
            capsys,
            "inflate", "--model", GRADE, "--instance", "3,5",
            "--delta", "1/2", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["explanation"]["sets"]["1"] == {"intervals": [["0", "6.5", True, True]]}
        assert doc["explanation"]["delta"] == "0.5"

    def test_explicit_axp_is_validated(self, capsys):
        code, _, err = run(
            capsys, "inflate", "--model", RISK, "--instance", "Junior,Red", "--axp", "1"
        )
        assert code == 2

    def test_a_non_integer_axp_index_exits_2(self, capsys):
        code, out, err = run(
            capsys, "inflate", "--model", RISK, "--instance", "Junior,Red", "--axp", "1,x"
        )
        message = "error: expected comma-separated feature indices, got '1,x'\n"
        assert (code, out, err) == (2, "", message)

    def test_order_steers_extraction_and_inflation(self, capsys):
        order = "8,7,6,5,4,3,2,1"
        code, out, err = run(
            capsys,
            "inflate", "--model", FOREST, "--instance", "7,7,7,8,3,2.5,high,green",
            "--order", order, "--format", "json",
        )
        assert code == 0, err
        doc = json.loads(out)
        mf = load_model(FOREST)
        problem = ExplanationProblem.from_point(
            mf.classifier, mf.space, parse_point(mf.space, "7,7,7,8,3,2.5,high,green")
        )
        axp = find_axp(problem, (8, 7, 6, 5, 4, 3, 2, 1))
        assert axp != find_axp(problem)
        assert doc["axp"] == list(axp)
        assert doc["explanation"]["probe_order"] == sorted(axp, reverse=True)

    def test_out_writes_document(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code, _, _ = run(
            capsys,
            "inflate", "--model", RISK, "--instance", "Junior,Red", "--out", str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["schema"] == "xinflate-inflate/1"


class TestEnumerateAndDual:
    def test_enumerate_lists_families(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--model", RISK, "--instance", "Junior,Red", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["axps"] == [[1, 2]]
        assert doc["cxps"] == [[1], [2]]
        assert doc["duality_holds"] is True

    def test_dual_cross_checks_families(self, capsys):
        code, out, _ = run(
            capsys, "dual", "--model", RISK, "--instance", "Junior,Red", "--format", "json"
        )
        doc = json.loads(out)
        assert len(doc["iaxps"]) == 1
        assert len(doc["icxps"]) == 3
        for row in doc["hits"]:
            for hit in row:
                assert hit is not None

    def test_shrink_cxp(self, capsys):
        code, out, _ = run(
            capsys,
            "shrink-cxp", "--model", RISK, "--instance", "Junior,Red",
            "--cxp", "2", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["explanation"]["sets"]["2"] == {"labels": ["White"]}


    def test_shrink_cxp_with_a_one_atom_feature_exits_2(self, capsys, tmp_path):
        # the tree never tests feature 2, so it has no off-instance value
        path = tmp_path / "stump.json"
        ordinal = {"type": "ordinal", "lo": "0", "hi": "4"}
        root = {"feature": 1, "threshold": "2", "left": {"class": "a"}, "right": {"class": "b"}}
        path.write_text(json.dumps({
            "schema": "xinflate-model/1", "name": "stump",
            "features": [{"name": "x1", "domain": ordinal}, {"name": "x2", "domain": ordinal}],
            "classes": ["a", "b"], "classifier": {"type": "decision_tree", "root": root},
        }))
        code, out, err = run(
            capsys, "shrink-cxp", "--model", str(path), "--instance", "1,1", "--cxp", "1,2"
        )
        assert code == 2
        assert out == ""
        assert err == "error: feature 2 has no value but the instance's to contrast with\n"

    def test_shrink_cxp_refuses_a_grid_too_large_to_build(self, capsys):
        code, out, err = run(
            capsys, "shrink-cxp", "--model", GRADE, "--instance", "3,5", "--delta", "1/1000000000"
        )
        assert code == 2
        assert out == ""
        assert err == "error: feature 1: 10000000001 grid points exceed 1048576\n"

    def test_shrink_cxp_extracts_in_order(self, capsys):
        code, out, err = run(
            capsys,
            "shrink-cxp", "--model", RISK, "--instance", "Junior,Red",
            "--order", "2,1", "--format", "json",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["cxp"] == [2]
        assert doc["explanation"]["sets"]["2"] == {"labels": ["White"]}
        assert doc["explanation"]["probe_order"] == [2]

    def test_unread_options_are_not_accepted(self, capsys):
        for argv in (
            ("dual", "--order", "2,1"),
            ("dual", "--beta", "1/2"),
            ("dual", "--strategy", "binary"),
            ("shrink-cxp", "--beta", "1/2"),
            ("shrink-cxp", "--strategy", "binary"),
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--model", RISK, "--instance", "Junior,Red"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_dual_refuses_too_many_candidates_before_building_them(self, capsys):
        # the forest's first row gives 2**32 candidate set families
        with open(BENCH_CSV) as fh:
            row = fh.read().splitlines()[1].rsplit(",", 1)[0]
        start = time.perf_counter()
        code, out, err = run(capsys, "dual", "--model", FOREST, "--instance", row)
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert err == "error: 4294967296 candidate set families exceed the cap of 4096\n"


class TestTrainAndBench:
    def test_train_then_bench_round_trip(self, capsys, tmp_path):
        model_path = tmp_path / "rf.json"
        code, out, _ = run(
            capsys,
            "train-rf", "--data", STUMP_CSV, "--trees", "5", "--depth", "2",
            "--seed", "3", "--model-out", str(model_path), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["train_accuracy"] == 1.0
        assert model_path.exists()

        code, out, _ = run(
            capsys,
            "bench", "--model", str(model_path), "--data", STUMP_CSV,
            "--limit", "6", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["instances"] == 6
        assert report["accuracy"] == 1.0
        assert set(report["aggregates"]) == {
            "axp_len_avg",
            "time_avg_s",
            "added_min",
            "added_max",
            "added_avg",
        }

    def test_bench_bundled_forest_few_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--model", FOREST, "--data", BENCH_CSV, "--limit", "3",
        )
        assert code == 0
        assert "instances: 3" in out

    def test_bench_order_steers_extraction(self, capsys):
        order = (8, 7, 6, 5, 4, 3, 2, 1)
        code, out, err = run(
            capsys,
            "bench", "--model", FOREST, "--data", BENCH_CSV, "--limit", "3",
            "--order", ",".join(map(str, order)), "--format", "json",
        )
        assert code == 0, err
        records = json.loads(out)["records"]
        mf = load_model(FOREST)
        with open(BENCH_CSV) as fh:
            rows = [line.strip().split(",")[:-1] for line in fh.readlines()[1:4]]
        moved = 0
        for record, row in zip(records, rows):
            point = parse_point(mf.space, ",".join(row))
            problem = ExplanationProblem.from_point(mf.classifier, mf.space, point)
            axp = find_axp(problem, order)
            assert record["axp"] == list(axp)
            moved += axp != find_axp(problem)
        assert moved, "the order must change some row's AXp"

    def test_bench_column_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "bench", "--model", RISK, "--data", BENCH_CSV)
        assert code == 2

    def test_bench_names_a_ragged_row_and_an_empty_file(self, capsys, tmp_path):
        lines = Path(BENCH_CSV).read_text().splitlines()[:6]
        lines[4] += ",extra"  # the fifth line: a 10-cell row under a 9-cell header
        ragged, empty = tmp_path / "ragged.csv", tmp_path / "empty.csv"
        ragged.write_text("\n".join(lines) + "\n")
        empty.write_text("")
        for data, message in (
            (ragged, "row 5 has 10 cells, expected 9"),
            (empty, f"empty CSV file: {empty}"),
        ):
            code, out, err = run(capsys, "bench", "--model", FOREST, "--data", str(data))
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_bench_names_a_ragged_row_by_its_first_line(self, capsys, tmp_path):
        header, first, second = Path(BENCH_CSV).read_text().splitlines()[:3]
        two_line_label = first.rsplit(",", 1)[0] + ',"1\n0"'
        data = tmp_path / "ragged.csv"
        for text, message in (
            (f"{header}\n{first}\n\n\n{second},extra\n", "row 5 has 10 cells, expected 9"),
            (f"{header}\n{two_line_label}\n{second},x\n", "row 4 has 10 cells, expected 9"),
            (f'{header}\n\n{first}\n"1\n2",{second}\n', "row 4 has 10 cells, expected 9"),
        ):
            data.write_text(text)
            code, out, err = run(capsys, "bench", "--model", FOREST, "--data", str(data))
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_bench_reads_rows_without_a_label_column(self, capsys, tmp_path):
        lines = Path(BENCH_CSV).read_text().splitlines()[:4]
        data = tmp_path / "points.csv"
        data.write_text("\n\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
        code, out, err = run(capsys, "bench", "--model", FOREST, "--data", str(data))
        assert code == 0, err
        assert "instances: 3" in out
        assert "accuracy" not in out

    def test_bench_negative_limit_exits_2(self, capsys):
        code, out, err = run(
            capsys, "bench", "--model", FOREST, "--data", BENCH_CSV, "--limit", "-298"
        )
        assert code == 2
        assert "--limit" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--model-out", "--out"])
    def test_train_refuses_a_missing_output_directory_before_training(
        self, capsys, monkeypatch, tmp_path, flag
    ):
        def never(*args, **kwargs):
            raise AssertionError("trained before checking the output directory")

        monkeypatch.setattr(cli, "train_forest", never)
        paths = {"--model-out": str(tmp_path / "model.json"), "--out": str(tmp_path / "out.json")}
        paths[flag] = str(tmp_path / "no" / "such" / "dir" / "x.json")
        argv = ["train-rf", "--data", BENCH_CSV, "--trees", "1"]
        code, out, err = run(capsys, *argv, *(a for item in paths.items() for a in item))
        assert code == 2
        assert err == f"error: output directory not found: {tmp_path / 'no' / 'such' / 'dir'}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_train_negative_depth_exits_2(self, capsys, tmp_path):
        model_path = tmp_path / "rf.json"
        code, out, err = run(
            capsys,
            "train-rf", "--data", STUMP_CSV, "--trees", "2", "--depth", "-3",
            "--model-out", str(model_path),
        )
        assert code == 2
        assert "depth" in err
        assert out == ""
        assert not model_path.exists()


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "--model", str(ROOT / "models"), "--instance", "3,5"),
            ("bench", "--model", FOREST, "--data", "{tmp}/missing.csv"),
            ("bench", "--model", FOREST, "--data", str(ROOT / "data")),
            ("train-rf", "--data", "{tmp}/missing.csv", "--model-out", "{tmp}/x.json"),
            ("train-rf", "--data", BENCH_CSV, "--model-out", "{tmp}/no/such/dir/x.json"),
            ("predict", "--model", GRADE, "--instance", "3,5", "--out", "{tmp}/no/such/dir/o.json"),
        ],
        ids=["model-dir", "data-missing", "data-dir", "train-data-missing", "model-out-dir", "out-dir"],
    )
    def test_unusable_path_exits_2(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("bench", "--model", FOREST, "--data", "{tmp}/bytes.csv"), "{tmp}/bytes.csv: line 3 is not UTF-8"),
            (
                ("train-rf", "--data", "{tmp}/bytes.csv", "--model-out", "{tmp}/m.json"),
                "{tmp}/bytes.csv: line 3 is not UTF-8",
            ),
            (("predict", "--model", "{tmp}/bytes.json", "--instance", "3,5"), "{tmp}/bytes.json: line 3 is not UTF-8"),
            (
                ("predict", "--model", "{tmp}/surrogate.json", "--instance", "3,5", "--format", "json"),
                "'\\ud800' cannot be written as UTF-8",
            ),
            (
                ("predict", "--model", "{tmp}/surrogate.json", "--instance", "3,5", "--out", "{tmp}/o.json"),
                "'\\ud800' cannot be written as UTF-8",
            ),
            (
                ("train-rf", "--data", STUMP_CSV, "--name", os.fsdecode(b"\xff"), "--model-out", "{tmp}/m.json"),
                "'\\udcff' cannot be written as UTF-8",
            ),
            (("bench", "--model", FOREST, "--data", "{tmp}/long.csv"), "{tmp}/long.csv: row 3: field larger"),
            (
                ("train-rf", "--data", "{tmp}/long.csv", "--model-out", "{tmp}/m.json"),
                "{tmp}/long.csv: row 3: field larger",
            ),
        ],
        ids=[
            "bench-csv-bytes",
            "train-csv-bytes",
            "model-bytes",
            "surrogate-json",
            "surrogate-out",
            "train-name-bytes",
            "bench-long-cell",
            "train-long-cell",
        ],
    )
    def test_text_utf8_cannot_carry_exits_2_and_writes_nothing(self, capsys, tmp_path, argv, message):
        (tmp_path / "bytes.csv").write_bytes(b"x1,x2,label\n5,2,pos\n6,10,neg\xff\xfe\n")
        (tmp_path / "long.csv").write_text("x1,x2,label\n5,2,pos\n6," + "1" * 140_000 + ",neg\n")
        (tmp_path / "bytes.json").write_bytes(Path(GRADE).read_bytes().replace(b"grade", b"gr\xffade"))
        doc = json.loads(Path(GRADE).read_text())
        doc["name"] = "\ud800"
        (tmp_path / "surrogate.json").write_text(json.dumps(doc))
        inputs = set(tmp_path.iterdir())
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2
        assert err.startswith("error: " + message.format(tmp=tmp_path)), err
        assert out == ""
        assert set(tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize(
        "argv, word",
        [
            (("enumerate", "--model", RISK, "--instance", "Junior,Red", "--budget", "-1"), "budget"),
            (("dual", "--model", RISK, "--instance", "Junior,Red", "--budget", "-1"), "budget"),
            (
                ("dual", "--model", RISK, "--instance", "Junior,Red", "--max-candidates", "-1"),
                "non-negative",
            ),
            (("bench", "--model", FOREST, "--data", BENCH_CSV, "--limit", "2", "--workers", "-3"), "workers"),
        ],
        ids=["enumerate-budget", "dual-budget", "dual-max-candidates", "bench-workers"],
    )
    def test_negative_budget_or_count_exits_2(self, capsys, argv, word):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert word in err
        assert out == ""


class TestClosedStdout:
    def test_closed_stdout_exits_0_quietly(self):
        # the read end is closed before the CLI writes, so every write fails
        r, w = os.pipe()
        os.close(r)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        argv = ["inflate", "--model", GRADE, "--instance", "3,5", "--delta", "1/10000", "--format", "json"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "xinflate.cli", *argv],
                stdout=w, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(w)
        assert proc.returncode == 0
        assert proc.stderr == b""


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


_SUBCOMMANDS = ("predict", "explain", "inflate", "enumerate", "shrink-cxp", "dual", "train-rf", "bench")


def _exit_text(capsys, parse, argv):
    """The exit code and the text parse(argv) prints before it exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestCachedParser:
    """main reuses one parser per process; no request sees another's."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_then_a_valid_call(self, capsys):
        argv = ("dual", "--model", RISK, "--instance", "Junior,Red", "--format", "json")
        first = run(capsys, *argv)
        assert _exit_text(capsys, main, ["dual", "--model", RISK])[0] == 2
        assert run(capsys, *argv) == first
        doc = json.loads(first[1])
        assert (doc["axps"], doc["cxps"], doc["duality_holds"]) == ([[1, 2]], [[1], [2]], True)

    def test_no_value_leaks_into_the_next_request(self, capsys):
        code, _, err = run(
            capsys, "dual", "--model", RISK, "--instance", "Junior,Red",
            "--max-candidates", "200", "--delta", "1/2",
        )
        assert code == 0, err
        argv = ["inflate", "--model", GRADE, "--instance", "3,5"]
        args = build_parser().parse_args(argv)
        assert vars(args) == vars(build_parser.__wrapped__().parse_args(argv))
        assert not hasattr(args, "max_candidates") and args.delta == "1/5"

    @pytest.mark.parametrize("columns", ["60", "200"])
    def test_help_and_usage_errors_read_the_width_when_printed(self, capsys, monkeypatch, columns):
        # the cached parser is built at the other width, then prints at this one
        monkeypatch.setenv("COLUMNS", "200" if columns == "60" else "60")
        build_parser.cache_clear()
        build_parser()
        monkeypatch.setenv("COLUMNS", columns)
        cases = [
            ["--help"],
            *([command, "--help"] for command in _SUBCOMMANDS),
            ["frobnicate"],
            ["predict", "--instance", "1"],
        ]
        for argv in cases:
            expected = _exit_text(capsys, build_parser.__wrapped__().parse_args, argv)
            assert _exit_text(capsys, main, argv) == expected, argv
            assert expected[0] == (0 if "--help" in argv else 2)
        top = _exit_text(capsys, main, ["--help"])[1]
        monkeypatch.setenv("COLUMNS", "60" if columns == "200" else "200")
        assert _exit_text(capsys, main, ["--help"])[1] != top


class TestOneCheckPerRequest:
    """A request checks its model once, whether `load_model` compiles it (a
    list or a monotone model) or its first problem does (a tree or forest)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("dual", "--model", RISK, "--instance", "Junior,Red"),
            ("predict", "--model", RISK, "--instance", "Junior,Red"),
            ("inflate", "--model", GRADE, "--instance", "3,5"),
            ("explain", "--model", FOREST, "--instance", "7,7,7,8,3,2.5,high,green"),
        ],
        ids=["dual-list", "predict-list", "inflate-monotone", "explain-forest"],
    )
    def test_validations_per_request(self, capsys, monkeypatch, argv):
        seen = []
        check = validate_classifier
        for module in [m for name, m in sys.modules.items() if name.startswith("xinflate")]:
            if getattr(module, "validate_classifier", None) is check:
                monkeypatch.setattr(module, "validate_classifier", lambda *args: seen.append(args) or check(*args))
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert len(seen) == 1


# small values only: a domain bound of 10**9 would make a grid search walk for hours
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    # "\ud800", a lone surrogate, is valid JSON but cannot be written as UTF-8
    st.sampled_from(["", "0", "-1", "1/0", "2/3", "7/2", "nan", "x", "Red", "ordinal", "integer", "\ud800"]),
    st.just([]),
    st.just({}),
)
_BUNDLED = [(RISK, "Junior,Red"), (GRADE, "3,5"), (FOREST, "7,7,7,8,3,2.5,high,green")]
_COMMANDS = [
    ("predict",),
    ("explain",),
    ("inflate",),
    ("enumerate", "--budget", "64"),
    ("shrink-cxp",),
    ("dual", "--budget", "64", "--max-candidates", "64"),
]


def _mutate(data, doc):
    """doc with one value replaced, removed or repeated, as drawn.  The value
    is found by walking down from the root, stopping at each level with
    probability 1/3, so values near the root are drawn as often as deep ones."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 2)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    action = data.draw(st.sampled_from(["replace", "remove", "repeat"]))
    if parent is None:
        return data.draw(_JSON_VALUES)
    if action == "replace":
        parent[key] = data.draw(_JSON_VALUES)
    elif action == "remove":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    return doc


class TestExitCodeProperty:
    """Mutated bundled model files and instances make the CLI exit 0 or 2, never 1,
    whether the file is written escaped or as raw text (a lone surrogate then becomes
    bytes that are not UTF-8) and whether or not one of its bytes is corrupted."""

    @settings(
        max_examples=500,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_mutated_inputs_never_exit_1(self, capsys, tmp_path, data):
        model, instance = data.draw(st.sampled_from(_BUNDLED))
        command = data.draw(st.sampled_from(_COMMANDS))
        doc = json.loads(Path(model).read_text())
        if data.draw(st.booleans()):
            doc = _mutate(data, doc)
        values = instance.split(",")
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(values) - 1))
            values[i : i + 1] = data.draw(
                st.lists(st.sampled_from(["", "x", "-1", "1/2", "99", "Adult", "high"]), max_size=2)
            )
        raw = json.dumps(doc, ensure_ascii=data.draw(st.booleans())).encode("utf-8", "surrogatepass")
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(raw) - 1))
            raw = raw[:i] + bytes([data.draw(st.sampled_from(b'\x00\x80\xc3\xff"\\'))]) + raw[i + 1 :]
        path = tmp_path / "model.json"
        path.write_bytes(raw)
        instance = "--instance=" + ",".join(values)  # one argument even when it starts with "-"
        form = data.draw(st.sampled_from(["text", "json"]))
        code = main([command[0], "--model", str(path), instance, "--format", form, *command[1:]])
        err = capsys.readouterr().err
        assert code in (0, 2), err
