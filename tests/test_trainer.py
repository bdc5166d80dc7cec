"""CSV loading and the bagged forest trainer."""

from fractions import Fraction
from pathlib import Path

import pytest

from xinflate.classifiers import Leaf, validate_classifier
from xinflate.errors import ValidationError
from xinflate.model import Categorical, Ordinal
from xinflate.serialize import model_to_dict, ModelFile
from xinflate.trainer import load_dataset, model_accuracy, read_table, train_forest, train_tree

F = Fraction
DATA = Path(__file__).resolve().parent.parent / "data"


def _write(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text)
    return p


class TestLoadDataset:
    def test_infers_column_kinds(self):
        ds = load_dataset(DATA / "bench.csv")
        assert ds.space.m == 8
        assert all(isinstance(d, Ordinal) for d in ds.space.domains[:6])
        assert isinstance(ds.space.domains[6], Categorical)
        assert ds.space.names[:2] == ("x1", "x2")
        assert ds.classes == ("1", "0") or ds.classes == ("0", "1")
        assert ds.n == 300

    def test_categorical_labels_keep_first_appearance_order(self, tmp_path):
        path = _write(tmp_path, "c,y\nmid,0\nlow,1\nhigh,0\nlow,1\n")
        ds = load_dataset(path)
        assert ds.space.domains[0].labels == ("mid", "low", "high")
        assert ds.classes == ("0", "1")

    def test_numeric_column_becomes_ordinal_with_observed_range(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,0\n4,1\n2.5,0\n")
        ds = load_dataset(path)
        dom = ds.space.domains[0]
        assert (dom.lo, dom.hi) == (F(1), F(4))
        assert ds.rows[2] == (F(5, 2),)

    def test_constant_column_rejected(self, tmp_path):
        path = _write(tmp_path, "x,y\n3,0\n3,1\n")
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_ragged_rows_rejected(self, tmp_path):
        for text, width in (("x,y\n1,0\n2\n", 1), ("x,y\n1,0\n2,1,3\n", 3)):
            path = _write(tmp_path, text)
            for reader in (read_table, load_dataset):
                with pytest.raises(ValidationError) as err:
                    reader(path)
                assert str(err.value) == f"row 3 has {width} cells, expected 2"

    def test_single_class_rejected(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,0\n2,0\n")
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "")
        for reader in (read_table, load_dataset):
            with pytest.raises(ValidationError) as err:
                reader(path)
            assert str(err.value) == f"empty CSV file: {path}"


class TestReadTable:
    def test_header_and_rows_without_blank_lines(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,a\n\n 2 ,b\n")
        assert read_table(path) == (["x", "y"], [["1", "a"], [" 2 ", "b"]])

    def test_a_quoted_cell_may_span_lines(self, tmp_path):
        path = _write(tmp_path, 'x,y\n"a\nb",0\n\nc,1\n')
        assert read_table(path) == (["x", "y"], [["a\nb", "0"], ["c", "1"]])

    @pytest.mark.parametrize(
        "text, line, width",
        [
            ("x,y\n\n\n1,0\n2\n", 5, 1),  # two blank lines above
            ('x,y\n"a\nb",0\n\n1\n', 5, 1),  # a row of two lines and a blank line above
            ('x,y\n1,0\n"a\nb",0,1\n', 3, 3),  # the ragged row spans lines 3 and 4
            ("x,y\n1,0\n\n2,1,3\n\n", 4, 3),
        ],
    )
    def test_a_ragged_row_is_named_by_its_first_line(self, tmp_path, text, line, width):
        path = _write(tmp_path, text)
        for reader in (read_table, load_dataset):
            with pytest.raises(ValidationError) as err:
                reader(path)
            assert str(err.value) == f"row {line} has {width} cells, expected 2"

    def test_header_only_has_no_rows(self, tmp_path):
        path = _write(tmp_path, "x,y\n")
        assert read_table(path) == (["x", "y"], [])
        with pytest.raises(ValidationError, match="no data rows"):
            load_dataset(path)


class TestTrainer:
    def test_stump_rule_is_learned_exactly(self):
        ds = load_dataset(DATA / "stump.csv")
        forest = train_forest(ds, n_trees=5, depth=2, seed=3)
        validate_classifier(forest, ds.space)
        assert model_accuracy(forest, ds) == 1

    def test_single_tree_fits_bench_reasonably(self):
        ds = load_dataset(DATA / "bench.csv")
        tree = train_tree(ds, depth=4)
        validate_classifier(tree, ds.space)
        assert model_accuracy(tree, ds) > F(4, 5)

    def test_same_seed_reproduces_the_forest(self):
        ds = load_dataset(DATA / "stump.csv")
        a = train_forest(ds, n_trees=4, depth=3, seed=9)
        b = train_forest(ds, n_trees=4, depth=3, seed=9)
        assert a == b
        assert model_to_dict(ModelFile("m", ds.space, a)) == model_to_dict(
            ModelFile("m", ds.space, b)
        )

    def test_different_seeds_usually_differ(self):
        ds = load_dataset(DATA / "bench.csv")
        a = train_forest(ds, n_trees=3, depth=3, seed=1)
        b = train_forest(ds, n_trees=3, depth=3, seed=2)
        assert a != b

    def test_trained_thresholds_live_inside_domains(self):
        ds = load_dataset(DATA / "bench.csv")
        forest = train_forest(ds, n_trees=6, depth=4, seed=5)
        validate_classifier(forest, ds.space)

    def test_negative_depth_rejected(self):
        ds = load_dataset(DATA / "stump.csv")
        with pytest.raises(ValidationError, match="depth"):
            train_tree(ds, depth=-1)
        with pytest.raises(ValidationError, match="depth"):
            train_forest(ds, n_trees=2, depth=-3)

    def test_depth_zero_is_a_majority_leaf(self):
        ds = load_dataset(DATA / "stump.csv")
        tree = train_tree(ds, depth=0)
        assert isinstance(tree.root, Leaf)
        forest = train_forest(ds, n_trees=2, depth=0, seed=1)
        assert all(isinstance(t.root, Leaf) for t in forest.trees)

    def test_labels_survive_into_predictions(self):
        ds = load_dataset(DATA / "stump.csv")
        forest = train_forest(ds, n_trees=5, depth=2, seed=3)
        assert forest.predict((F(9), F(0))) == "pos"
        assert forest.predict((F(1), F(9))) == "neg"
