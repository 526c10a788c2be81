"""Benchmark harness: accuracy plus train/inference timing tables for
the tessellation classifier against a brute-force KNN baseline."""

from __future__ import annotations

import io
import os
import statistics
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import _nearest
from .clustering import KMeansConfig, UsageError
from .datasets import (
    _ONE_LINE,
    Dataset,
    _csv_row,
    load_benchmark_dataset,
    make_circles,
    make_gaussian_blobs,
    make_moons,
    standardize_apply,
    standardize_fit,
)
from .tessellation import DiscriminantBank, fit, predict, to_discriminants

__all__ = [
    "TimingStat",
    "BenchConfig",
    "BenchCell",
    "BenchReport",
    "time_op",
    "KnnModel",
    "knn_fit",
    "knn_predict",
    "synthetic_benchmark_data",
    "run_benchmark",
    "emit_report",
]

SYNTHETIC_NAMES = ("moons", "circles", "blobs")
ALGORITHMS = ("superklust", "knn")


@dataclass
class TimingStat:
    """Sample mean and standard deviation of repeated timings, in ms."""

    mean_ms: float
    std_ms: float
    repetitions: int


def time_op(thunk, repetitions: int, warmup: int = 0) -> TimingStat:
    """Time thunk() with a monotonic clock: warmup untimed runs, then
    repetitions timed runs. std is the sample standard deviation, 0 by
    convention for a single repetition."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        thunk()
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        thunk()
        samples.append((time.perf_counter() - start) * 1e3)
    std = statistics.stdev(samples) if repetitions >= 2 else 0.0
    return TimingStat(mean_ms=statistics.fmean(samples), std_ms=std, repetitions=repetitions)


@dataclass
class KnnModel:
    """Stored training set for exact brute-force k-nearest-neighbors; bank
    holds its rows as generators of their labels, knn_predict's sites."""

    X: np.ndarray
    y: np.ndarray
    n_neighbors: int
    n_classes: int
    bank: DiscriminantBank = field(init=False)

    def __post_init__(self):
        self.bank = DiscriminantBank(_nearest.linear_forms(self.X), labels=self.y, points=self.X)


def knn_fit(train: Dataset, n_neighbors: int) -> KnnModel:
    if not 1 <= n_neighbors <= train.n:
        raise ValueError(f"n_neighbors must be in [1, {train.n}], got {n_neighbors}")
    return KnnModel(
        X=train.X.copy(), y=train.y.copy(), n_neighbors=n_neighbors, n_classes=train.n_classes
    )


def knn_predict(model: KnnModel, X) -> np.ndarray:
    """Exact Euclidean KNN with majority vote.

    Neighbors are the first n_neighbors training points ordered by
    (exact explicit-difference squared distance, training index); vote
    ties go to the lowest class id. The neighbors come from predict's
    certified float32 scan, _nearest.scan, which raises predict's
    ValueError naming the first non-finite query row.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.X.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries must be 2-D with {model.X.shape[1]} features"
        )
    nn = _nearest.scan(X, model.bank.forms, model.X, model.bank.p_max, k=model.n_neighbors)
    offsets = model.y[nn] + np.arange(X.shape[0])[:, None] * model.n_classes
    counts = np.bincount(offsets.ravel(), minlength=X.shape[0] * model.n_classes)
    return counts.reshape(X.shape[0], model.n_classes).argmax(axis=1)


@dataclass
class BenchConfig:
    """Everything needed to rerun a benchmark identically."""

    k: int = 20
    seed: int = 0
    n_restarts: int = 4
    standardize: bool = True
    repetitions: int = 10
    warmup: int = 2
    knn_neighbors: int = 3
    data_dir: str = "data"


@dataclass
class BenchCell:
    accuracy: float | None = None
    train: TimingStat | None = None
    infer: TimingStat | None = None
    error: str | None = None


@dataclass
class BenchReport:
    datasets: list[str]
    algos: list[str]
    cells: dict[tuple[str, str], BenchCell]
    config: dict = field(default_factory=dict)


def synthetic_benchmark_data(name: str, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Deterministic train/test pair for the synthetic dataset names,
    for benchmarking without any downloads."""
    if name == "moons":
        return make_moons(2000, 0.15, seed), make_moons(1000, 0.15, seed + 10007)
    if name == "circles":
        return (
            make_circles(2000, 0.5, 0.08, seed),
            make_circles(1000, 0.5, 0.08, seed + 10007),
        )
    if name == "blobs":
        centers = np.random.default_rng(seed).uniform(-10.0, 10.0, (5, 2))
        return (
            make_gaussian_blobs(400, centers, 1.0, seed + 1),
            make_gaussian_blobs(100, centers, 1.0, seed + 10007),
        )
    raise ValueError(f"unknown synthetic dataset {name!r}")


def _load(entry, config: BenchConfig) -> tuple[Dataset, Dataset]:
    """The train/test pair of a dataset entry, standardized if config asks."""
    if not isinstance(entry, str):
        _, train, test = entry
    elif entry in SYNTHETIC_NAMES:
        train, test = synthetic_benchmark_data(entry, config.seed)
    else:
        train, test = load_benchmark_dataset(entry, config.data_dir)
    if config.standardize:
        params = standardize_fit(train)
        train, test = standardize_apply(params, train), standardize_apply(params, test)
    return train, test


def _error_text(exc: Exception) -> str:
    """A failed cell's error: the exception's type name, then its message if it has one."""
    return f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__


def run_benchmark(datasets: list, algos: list[str], config: BenchConfig) -> BenchReport:
    """Run every (dataset, algorithm) cell sequentially.

    Dataset entries are names (real datasets read from config.data_dir,
    synthetic ones generated on the fly) or (name, train, test) triples.
    A name given twice raises clustering's UsageError (a ValueError)
    before any cell runs. Per cell: training is timed over the full fit,
    accuracy computed once, inference timed over the full test set.
    Loading and standardization happen before the clock starts; a
    dataset that fails there records the error in each of its cells. A
    failing cell records its error and the rest still run; a fit over
    clustering's budget fails that way, before it clusters. The report's
    config holds the BenchConfig fields, the names run and, under "env",
    the environment the run was measured in.
    """
    names = [entry if isinstance(entry, str) else entry[0] for entry in datasets]
    for kind, values in (("dataset", names), ("algorithm", list(algos))):
        if repeated := sorted({v for v in values if values.count(v) > 1}):
            raise UsageError(f"repeated {kind} name(s): {', '.join(repeated)}")
    cells = {}
    for name, entry in zip(names, datasets):
        try:
            train, test = _load(entry, config)
        except Exception as exc:
            cells.update({(name, algo): BenchCell(error=_error_text(exc)) for algo in algos})
            continue
        for algo in algos:
            try:
                cells[(name, algo)] = _run_cell(algo, train, test, config)
            except Exception as exc:
                cells[(name, algo)] = BenchCell(error=_error_text(exc))
    return BenchReport(datasets=names, algos=list(algos), cells=cells, config={
        **asdict(config),
        "datasets": names,
        "algos": list(algos),
        "env": _environment(),
    })


def _environment() -> dict:
    """The environment a benchmark really ran in: the OS threads of this
    process after a warm GEMM (None without /proc), the numpy version
    and the core count."""
    warm = np.ones((256, 256))
    warm @ warm
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {"threads": threads, "numpy": np.__version__, "cpu_count": os.cpu_count()}


def _run_cell(algo: str, train: Dataset, test: Dataset, config: BenchConfig) -> BenchCell:
    """Time the training step, score its last model once, then time
    inference. Only the last model is kept: a KNN model copies the
    training rows."""
    if algo == "superklust":
        kcfg = KMeansConfig(k=config.k, n_restarts=config.n_restarts, seed=config.seed)
        train_step = partial(fit, train, kcfg)
        classifier = lambda model: partial(predict, to_discriminants(model))
    elif algo == "knn":
        train_step = partial(knn_fit, train, config.knn_neighbors)
        classifier = lambda model: partial(knn_predict, model)
    else:
        raise ValueError(f"unknown algorithm {algo!r}; expected 'superklust' or 'knn'")
    reps, warm = config.repetitions, config.warmup
    last = {}
    train_stat = time_op(lambda: last.update(model=train_step()), reps, warm)
    classify = classifier(last["model"])
    accuracy = float((classify(test.X) == test.y).mean())
    infer_stat = time_op(lambda: classify(test.X), reps, warm)
    return BenchCell(accuracy=accuracy, train=train_stat, infer=infer_stat)


def _cell_text(cell: BenchCell, kind: str) -> str:
    if cell is None:
        return ""
    if cell.error is not None:
        return "error"
    if kind == "accuracy":
        return f"{cell.accuracy:.3f}"
    stat = cell.train if kind == "train" else cell.infer
    return f"{stat.mean_ms:.1f}({stat.std_ms:.1f})"


def _md_cell(name: str) -> str:
    """name as one markdown table cell: a `|` in it is escaped, and each
    line break written as its escape sequence (see datasets._ONE_LINE)."""
    return name.replace("|", "\\|").translate(_ONE_LINE)


def _markdown(report: BenchReport) -> str:
    out = io.StringIO()
    sections = [
        ("Test accuracy", "accuracy"),
        ("Training time (ms), mean(std)", "train"),
        ("Inference time (ms), mean(std)", "infer"),
    ]
    for title, kind in sections:
        out.write(f"## {title}\n\n")
        out.write("| algorithm | " + " | ".join(map(_md_cell, report.datasets)) + " |\n")
        out.write("|---" * (len(report.datasets) + 1) + "|\n")
        for algo in report.algos:
            row = [
                _cell_text(report.cells.get((ds, algo)), kind) for ds in report.datasets
            ]
            out.write("| " + " | ".join([_md_cell(algo)] + row) + " |\n")
        out.write("\n")
    return out.getvalue()


def _csv(report: BenchReport) -> str:
    rows = [[
        "dataset", "algorithm", "accuracy", "train_mean_ms", "train_std_ms",
        "infer_mean_ms", "infer_std_ms", "repetitions", "error",
    ]]
    for ds in report.datasets:
        for algo in report.algos:
            cell = report.cells.get((ds, algo))
            if cell is None:
                continue
            if cell.error is not None:
                rows.append([ds, algo, "", "", "", "", "", "", cell.error])
            else:
                rows.append([
                    ds, algo, repr(cell.accuracy),
                    repr(cell.train.mean_ms), repr(cell.train.std_ms),
                    repr(cell.infer.mean_ms), repr(cell.infer.std_ms),
                    str(cell.train.repetitions), "",
                ])
    return "".join(map(_csv_row, rows))


def emit_report(report: BenchReport, format: str = "markdown") -> str:
    """Render the report as markdown tables (rows = algorithms, columns
    = datasets) or as flat CSV whose float fields parse back exactly."""
    if format == "markdown":
        return _markdown(report)
    if format == "csv":
        return _csv(report)
    raise ValueError(f"unknown format {format!r}; expected 'markdown' or 'csv'")
