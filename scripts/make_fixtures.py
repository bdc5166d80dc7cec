"""Regenerate the bundled model files and datasets.

Run from the repository root:

    python3 scripts/make_fixtures.py

Everything is seeded, so reruns reproduce the committed files byte for
byte.
"""

from __future__ import annotations

import csv
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from xinflate.examples import grade_model, risk_list
from xinflate.model import Value, rational_str
from xinflate.serialize import ModelFile, save_model
from xinflate.trainer import load_dataset, model_accuracy, train_forest


def _halves(hi: int) -> list[Fraction]:
    """0, 1/2, 1, ..., hi: the values of a half-step ordinal column on [0, hi]."""
    return [Fraction(k, 2) for k in range(2 * hi + 1)]


def stump_dataset(n: int = 80, seed: int = 7):
    """Two ordinal features on [0, 10]; label pos iff x1 >= 5."""
    rng = random.Random(seed)
    points = _halves(10)
    names = ("x1", "x2")
    rows = []
    labels = []
    for _ in range(n):
        x1, x2 = rng.choice(points), rng.choice(points)
        rows.append((x1, x2))
        labels.append("pos" if x1 >= 5 else "neg")
    return names, tuple(rows), tuple(labels)


def bench_dataset(n: int = 300, seed: int = 11):
    """Six ordinal features on [0, 8] plus two categoricals.

    Label "1" iff x1 + x2 >= 9, or size is high and x3 >= 5.
    """
    rng = random.Random(seed)
    points = _halves(8)
    sizes = ("low", "mid", "high")
    hues = ("red", "green", "blue")
    names = ("x1", "x2", "x3", "x4", "x5", "x6", "size", "hue")
    rows = []
    labels = []
    for _ in range(n):
        xs = [rng.choice(points) for _ in range(6)]
        size = rng.choice(sizes)
        hue = rng.choice(hues)
        rows.append(tuple(xs) + (size, hue))
        positive = xs[0] + xs[1] >= 9 or (size == "high" and xs[2] >= 5)
        labels.append("1" if positive else "0")
    return names, tuple(rows), tuple(labels)


def write_csv(
    path: Union[str, Path],
    names: Sequence[str],
    rows: Sequence[Sequence[Value]],
    labels: Sequence[str],
    label_name: str = "label",
) -> None:
    def cell(v: Value) -> str:
        if isinstance(v, str):
            return v
        return rational_str(Fraction(v))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [label_name])
        for row, label in zip(rows, labels):
            writer.writerow([cell(v) for v in row] + [label])


def main() -> None:
    models = ROOT / "models"
    data = ROOT / "data"
    models.mkdir(exist_ok=True)
    data.mkdir(exist_ok=True)

    clf, space = risk_list()
    save_model(ModelFile("risk-list", space, clf), models / "risk_list.json")
    clf, space = grade_model()
    save_model(ModelFile("grade", space, clf), models / "grade.json")

    names, rows, labels = stump_dataset()
    write_csv(data / "stump.csv", names, rows, labels)

    names, rows, labels = bench_dataset()
    write_csv(data / "bench.csv", names, rows, labels)

    dataset = load_dataset(data / "bench.csv")
    forest = train_forest(dataset, n_trees=25, depth=4, seed=0)
    acc = model_accuracy(forest, dataset)
    save_model(ModelFile("bench-forest", dataset.space, forest), models / "bench_forest.json")
    print(f"bench forest train accuracy: {float(acc):.4f}")
    # a forest where the vote search dominates a row's time
    large = train_forest(dataset, n_trees=100, depth=8, seed=1)
    save_model(ModelFile("forest-large", dataset.space, large), models / "forest_large.json")
    for path in sorted(models.glob("*.json")) + sorted(data.glob("*.csv")):
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
