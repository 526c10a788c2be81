"""Dataset construction: synthetic generators, delimited-text loaders,
standardization, and decision-boundary grid export."""

from __future__ import annotations

import csv
import itertools
import math
import sys
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from .tessellation import DiscriminantBank, ScalerParams, _count, _IdNames, _names, predict

__all__ = [
    "Dataset",
    "ScalerParams",
    "make_moons",
    "make_circles",
    "make_gaussian_blobs",
    "load_csv",
    "load_csv_features",
    "load_svmlight",
    "standardize_fit",
    "standardize_apply",
    "decision_grid",
    "write_grid_csv",
    "write_dataset_csv",
    "BENCHMARK_DATASETS",
    "load_benchmark_dataset",
]


@dataclass
class Dataset:
    """Dense feature matrix with contiguous integer class labels;
    n_classes is an integer >= 1 (numpy integers are stored as int,
    bools refused).

    label_names maps each class id back to the original label token of
    the source file (position = id), n_classes distinct strings; None
    stores the ids, made as they are read (see Model.label_names).
    """

    X: np.ndarray
    y: np.ndarray
    n_classes: int
    label_names: Sequence[str] | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        # an int64 class id each, not truncated to one; nan fails the compare
        if y.dtype.kind == "f" and not ((np.abs(y) < 2.0**63) & (np.trunc(y) == y)).all():
            raise ValueError("labels must be integer class ids")
        self.y = y.astype(np.int64, copy=False)
        if self.X.ndim != 2 or self.X.shape[0] == 0:
            raise ValueError("X must be a nonempty 2-D matrix")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y must have one label per row of X")
        if not np.isfinite(self.X).all():
            raise ValueError("non-finite feature in X")
        self.n_classes = _count("n_classes", self.n_classes, 1)
        if self.y.min() < 0 or self.y.max() >= self.n_classes:
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        self.label_names = _names(self.label_names, self.n_classes)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _two_curves(n: int, noise: float, seed: int, curve) -> Dataset:
    """make_moons' or make_circles' rows: curve(n // 2), the points of class
    0 and of class 1, with isotropic Gaussian noise added per coordinate."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise must be nonnegative and finite, got {noise}")
    X = np.concatenate(curve(n // 2))
    X = X + np.random.default_rng(seed).normal(0.0, noise, X.shape)
    return Dataset(X=X, y=np.repeat([0, 1], n // 2), n_classes=2)


def make_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaving half-circles: class 0 at (cos t, sin t) and
    class 1 at (1 - cos t, 0.5 - sin t), t evenly spaced over [0, pi]
    inclusive, with isotropic Gaussian noise added per coordinate."""

    def curve(half):
        t = np.linspace(0.0, np.pi, half)
        c, s = np.cos(t), np.sin(t)
        return np.column_stack([c, s]), np.column_stack([1.0 - c, 0.5 - s])

    return _two_curves(n, noise, seed, curve)


def make_circles(n: int, factor: float, noise: float, seed: int) -> Dataset:
    """Concentric circles: class 0 on the unit circle, class 1 on a
    circle of radius factor, angles evenly spaced over [0, 2*pi)."""
    if not 0.0 < factor < 1.0:
        raise ValueError(f"factor must be in (0, 1), got {factor}")

    def curve(half):
        angles = np.linspace(0.0, 2.0 * np.pi, half, endpoint=False)
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        return ring, factor * ring

    return _two_curves(n, noise, seed, curve)


def make_gaussian_blobs(n_per_class: int, centers, sigma: float, seed: int) -> Dataset:
    """n_per_class samples per class from an isotropic Gaussian at each
    row of centers."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError("centers must be a nonempty 2-D matrix")
    if not np.isfinite(centers).all():
        raise ValueError("non-finite value in centers")
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    n_classes, d = centers.shape
    rng = np.random.default_rng(seed)
    X = np.concatenate(
        [centers[c] + rng.normal(0.0, sigma, (n_per_class, d)) for c in range(n_classes)]
    )
    y = np.repeat(np.arange(n_classes), n_per_class)
    return Dataset(X=X, y=y, n_classes=n_classes)


def _labeled(path: Path, X, token_idx, tokens: list[str], label_names: Sequence[str] | None):
    """Dataset of X whose row i has the distinct label token tokens[token_idx[i]].

    Without label_names, tokens sort ascending (numerically when every
    token parses as a number, else lexicographically) and ids follow
    that order; with them, the id of a token is its position in
    label_names, and a token not among them is an error. The id -> token
    mapping lands in label_names.
    """
    if label_names is None:
        label_names = sorted(tokens)
        try:
            label_names.sort(key=float)
        except ValueError:
            pass
    if isinstance(label_names, _IdNames):  # the ids: look up only the file's tokens
        ids = {tok: int(tok) for tok in tokens if tok in label_names}
    else:
        ids = {tok: i for i, tok in enumerate(label_names)}
        if len(ids) != len(label_names):
            raise ValueError("label_names must not repeat a token")
    unknown = [tok for tok in tokens if tok not in ids]
    if unknown:
        raise ValueError(f"{path.name}: unknown label {unknown[0]!r}")
    return Dataset(
        X=X,
        y=np.array([ids[tok] for tok in tokens], dtype=np.int64)[token_idx],
        n_classes=len(label_names),
        label_names=label_names,
    )


def _data_row(path: Path, skip: int, line: int = 0, index: int = 0):
    """Rescan a CSV file for (line number, cells) of the index-th
    non-blank row after line skip that ends on or after line."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        found = ((rows.line_num, r) for r in rows if r and rows.line_num > max(skip, line - 1))
        return next(itertools.islice(found, index, None), (line, []))


def _read_csv(path: Path, label_column, has_header: bool):
    """Parse a CSV file with one pass of numpy's C reader.

    Returns (X, token_idx, tokens): X holds every column but the label
    column (all of them when label_column is None), tokens the distinct
    stripped label tokens in order of appearance, token_idx each row's
    index into tokens. Blank lines are skipped. Errors name the file,
    the physical line and, for a bad cell, its column.
    """
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None) if has_header else None
        skip = rows.line_num
    if has_header and header is None:
        raise ValueError(f"{path.name}: empty file")
    n_cols = len(_data_row(path, skip)[1])
    if n_cols == 0:
        raise ValueError(f"{path.name}: no data rows")
    if isinstance(label_column, str):
        if header is None:
            raise ValueError("label column given by name requires has_header=True")
        if label_column not in header:
            raise ValueError(f"{path.name}: no column named {label_column!r}")
        label_column = header.index(label_column)
    elif label_column is not None and not -n_cols <= int(label_column) < n_cols:
        raise ValueError(f"{path.name}: label column {label_column} outside 0..{n_cols - 1}")
    label_idx = None if label_column is None else range(n_cols)[int(label_column)]

    # numpy parses every cell but the label, which the interner maps to a
    # float id once per row. It pulls one line at a time, so where[0] is
    # the line it failed on.
    tokens: dict[str, int] = {}
    intern = {label_idx: lambda tok: tokens.setdefault(tok.strip(), len(tokens))}
    where = [0]
    try:
        with open(path, newline="") as fh:
            table = np.loadtxt(
                (text for where[0], text in enumerate(fh, start=1)),
                delimiter=",", comments=None, quotechar='"', skiprows=skip, ndmin=2,
                converters=None if label_idx is None else intern,
            )
    except ValueError as exc:
        line, row = _data_row(path, skip, line=where[0])
        reason = str(exc)
        if row and len(row) != n_cols:
            reason, row = f"ragged row with {len(row)} columns, expected {n_cols}", []
        for j, cell in enumerate(row):  # find the first cell numpy rejects
            try:
                if j != label_idx:
                    np.loadtxt(['"' + cell.replace('"', '""') + '"'], delimiter=",", quotechar='"')
            except ValueError:
                line, reason = f"{line}, column {j}", f"could not parse {cell!r} as a number"
                break
        raise ValueError(f"{path.name} line {line}: {reason}") from None

    if not np.isfinite(table).all():  # label ids are finite
        i, j = np.argwhere(~np.isfinite(table))[0]
        line, row = _data_row(path, skip, index=i)
        raise ValueError(f"{path.name} line {line}, column {j}: non-finite value {row[j]!r}")
    if label_idx is None:
        return table, None, []
    return np.delete(table, label_idx, axis=1), table[:, label_idx].astype(np.int64), list(tokens)


def load_csv(
    path, label_column, has_header: bool = False, label_names: Sequence[str] | None = None
) -> Dataset:
    """Load a comma-separated file into a Dataset.

    label_column is a 0-based column index (negative counts from the
    end) or, when has_header is set, a column name. All other columns
    become features in file order. Labels map to contiguous ids, in the
    order of label_names when it is given (see _labeled).
    """
    path = Path(path)
    return _labeled(path, *_read_csv(path, label_column, has_header), label_names)


def load_csv_features(path, has_header: bool = False) -> np.ndarray:
    """Read every column of a CSV file as a feature (load_csv's dialect and errors)."""
    return _read_csv(Path(path), None, has_header)[0]


def load_svmlight(path, n_features: int, label_names: Sequence[str] | None = None) -> Dataset:
    """Load a "label idx:val ..." file with 1-based feature indices into
    a dense Dataset; absent indices are zero. Comment lines (leading
    '#') and blank lines are skipped."""
    path = Path(path)
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    rows = []
    tokens: dict[str, int] = {}
    token_idx = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            token_idx.append(tokens.setdefault(parts[0], len(tokens)))
            row = np.zeros(n_features, dtype=np.float64)
            where = f"{path.name} line {lineno}"
            for tok in parts[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise ValueError(f"{where}: malformed token {tok!r}")
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise ValueError(f"{where}: malformed token {tok!r}") from None
                if not 1 <= idx <= n_features:
                    raise ValueError(f"{where}: feature index {idx} outside [1, {n_features}]")
                try:
                    row[idx - 1] = float(val_s)
                except ValueError:
                    raise ValueError(f"{where}: could not parse value in token {tok!r}") from None
                if not math.isfinite(row[idx - 1]):
                    raise ValueError(f"{where}: non-finite value in token {tok!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path.name}: no data rows")
    return _labeled(path, np.vstack(rows), token_idx, list(tokens), label_names)


def standardize_fit(train: Dataset) -> ScalerParams:
    """Per-feature mean and standard deviation of the training data;
    zero-variance features get scale 1 (centered only); overflow raises."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean, std = train.X.mean(axis=0), train.X.std(axis=0)
    if not (finite := np.isfinite(std)).all():
        raise ValueError(f"feature column {finite.argmin()}: standard deviation overflows float64")
    return ScalerParams(mean=mean, scale=np.where(std > 0, std, 1.0))


def standardize_apply(params: ScalerParams, ds: Dataset) -> Dataset:
    if params.mean.shape[0] != ds.d:
        raise ValueError(
            f"dimension mismatch: scaler has {params.mean.shape[0]} features, data has {ds.d}"
        )
    return replace(ds, X=params.apply(ds.X))


def decision_grid(bank: DiscriminantBank, x_range, y_range, resolution: int):
    """Classify every point of an inclusive resolution x resolution grid.

    Returns (xy, labels): xy is (resolution**2, 2) in row-major order
    with x as the outer axis, labels the predicted class per row.
    """
    if bank.points.shape[1] != 2:
        raise ValueError("grid export requires 2-D models")
    (x_lo, x_hi), (y_lo, y_hi) = x_range, y_range
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("ranges must satisfy lo < hi on both axes")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    xs = np.linspace(x_lo, x_hi, resolution)
    ys = np.linspace(y_lo, y_hi, resolution)
    xy = np.column_stack([np.repeat(xs, resolution), np.tile(ys, resolution)])
    return xy, predict(bank, xy)


# Each character str.splitlines breaks a line at, as its escape sequence.
_ONE_LINE = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _text_out(out):
    """A context holding out: stdout for "-", a new file for any other path, a stream as it is."""
    if out == "-":
        return nullcontext(sys.stdout)
    return open(out, "w", newline="") if isinstance(out, (str, Path)) else nullcontext(out)


def _csv_cell(token: str) -> str:
    """token as one CSV cell, quoted when it holds a delimiter, a quote or a line break."""
    if any(c in token for c in ',"\r\n'):
        return '"' + token.replace('"', '""') + '"'
    return token


def _csv_row(cells) -> str:
    """cells as one CSV line; a row that would be blank is written "" instead."""
    return (",".join(map(_csv_cell, cells)) or '""') + "\n"


def write_grid_csv(out, xy: np.ndarray, labels) -> None:
    """Write grid rows as CSV with header "x,y,label". Each label, a
    class id or a label token, is written as one CSV cell."""
    cell = cache(lambda lab: _csv_cell(str(lab)))  # quotes each distinct label once
    with _text_out(out) as fh:
        fh.write("x,y,label\n")
        for (x, y), lab in zip(xy, labels):
            fh.write(f"{float(x)!r},{float(y)!r},{cell(lab)}\n")


def write_dataset_csv(out, ds: Dataset, header: bool = True) -> None:
    """Write a dataset as CSV: feature columns x0..x{d-1}, then the
    integer class id in a final "label" column. Floats use their
    shortest round-trip form, so identical datasets give identical
    bytes."""
    with _text_out(out) as fh:
        if header:
            fh.write(",".join([f"x{j}" for j in range(ds.d)] + ["label"]) + "\n")
        for row, lab in zip(ds.X, ds.y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(lab)}\n")


# On-disk layout written by the fetch step; loaders only touch local files.
BENCHMARK_DATASETS = {
    "optdigits": {"format": "csv", "label_column": 64, "train": "train.csv", "test": "test.csv"},
    "usps": {"format": "svmlight", "n_features": 256, "train": "train.svm", "test": "test.svm"},
    "satimage": {"format": "csv", "label_column": 36, "train": "train.csv", "test": "test.csv"},
    "letter": {"format": "csv", "label_column": 0, "train": "train.csv", "test": "test.csv"},
    "isolet": {"format": "csv", "label_column": 617, "train": "train.csv", "test": "test.csv"},
}


def load_benchmark_dataset(name: str, data_dir) -> tuple[Dataset, Dataset]:
    """Load the train/test pair of a fetched real-world dataset.

    The test file reuses the training file's label_names so class ids
    agree across the split even if the test file misses a class.
    """
    if name not in BENCHMARK_DATASETS:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {sorted(BENCHMARK_DATASETS)}"
        )
    info = BENCHMARK_DATASETS[name]
    base = Path(data_dir) / name
    train_path, test_path = base / info["train"], base / info["test"]
    for p in (train_path, test_path):
        if not p.exists():
            raise FileNotFoundError(
                f"{p} not found; run the fetch command to download {name!r} first"
            )
    if info["format"] == "csv":
        load = partial(load_csv, label_column=info["label_column"])
    else:
        load = partial(load_svmlight, n_features=info["n_features"])
    train = load(train_path)
    return train, load(test_path, label_names=train.label_names)
