"""Benchmark harness: accuracy plus train/inference timing tables for
the tessellation classifier against a brute-force KNN baseline."""

from __future__ import annotations

import io
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ._nearest import k_nearest_sets, sq_norms
from .clustering import KMeansConfig
from .datasets import (
    Dataset,
    load_benchmark_dataset,
    make_circles,
    make_gaussian_blobs,
    make_moons,
    standardize_apply,
    standardize_fit,
)
from .tessellation import evaluate, fit, predict, to_discriminants

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
    """Stored training set for exact brute-force k-nearest-neighbors."""

    X: np.ndarray
    y: np.ndarray
    n_neighbors: int
    n_classes: int


def knn_fit(train: Dataset, n_neighbors: int) -> KnnModel:
    if not 1 <= n_neighbors <= train.n:
        raise ValueError(
            f"n_neighbors must be in [1, {train.n}], got {n_neighbors}"
        )
    return KnnModel(
        X=train.X.copy(), y=train.y.copy(), n_neighbors=n_neighbors, n_classes=train.n_classes
    )


def knn_predict(model: KnnModel, X) -> np.ndarray:
    """Exact Euclidean KNN with majority vote.

    Neighbors are the first n_neighbors training points ordered by
    (exact explicit-difference squared distance, training index); vote
    ties go to the lowest class id. Distances are screened by one GEMM
    per block of queries, which bounds the distance-matrix memory.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.X.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries must be 2-D with {model.X.shape[1]} features"
        )
    nn = k_nearest_sets(X, model.X, model.n_neighbors, np.sqrt(sq_norms(X)))
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
    threads: int | None = None

    def snapshot(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "n_restarts": self.n_restarts,
            "standardize": self.standardize,
            "repetitions": self.repetitions,
            "warmup": self.warmup,
            "knn_neighbors": self.knn_neighbors,
            "data_dir": self.data_dir,
            "threads": self.threads,
        }


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


def _resolve(entry, config: BenchConfig) -> tuple[str, Dataset, Dataset]:
    if isinstance(entry, str):
        if entry in SYNTHETIC_NAMES:
            train, test = synthetic_benchmark_data(entry, config.seed)
        else:
            train, test = load_benchmark_dataset(entry, config.data_dir)
        return entry, train, test
    name, train, test = entry
    return name, train, test


def run_benchmark(datasets: list, algos: list[str], config: BenchConfig) -> BenchReport:
    """Run every (dataset, algorithm) cell sequentially.

    Dataset entries are names (real datasets read from config.data_dir,
    synthetic ones generated on the fly) or (name, train, test) triples.
    Per cell: training is timed over the full fit, accuracy computed
    once, inference timed over the full test set. Loading and
    standardization happen before the clock starts. A failing cell
    records its error and the rest still run.
    """
    names = []
    cells = {}
    for entry in datasets:
        try:
            name, train, test = _resolve(entry, config)
        except Exception as exc:
            name = entry if isinstance(entry, str) else entry[0]
            names.append(name)
            for algo in algos:
                cells[(name, algo)] = BenchCell(error=f"{type(exc).__name__}: {exc}")
            continue
        names.append(name)
        if config.standardize:
            params = standardize_fit(train)
            train = standardize_apply(params, train)
            test = standardize_apply(params, test)
        for algo in algos:
            try:
                cells[(name, algo)] = _run_cell(algo, train, test, config)
            except Exception as exc:
                cells[(name, algo)] = BenchCell(error=f"{type(exc).__name__}: {exc}")
    return BenchReport(datasets=names, algos=list(algos), cells=cells, config={
        **config.snapshot(),
        "datasets": names,
        "algos": list(algos),
    })


def _run_cell(algo: str, train: Dataset, test: Dataset, config: BenchConfig) -> BenchCell:
    reps, warm = config.repetitions, config.warmup
    if algo == "superklust":
        kcfg = KMeansConfig(k=config.k, n_restarts=config.n_restarts, seed=config.seed)
        holder = {}

        def train_thunk():
            holder["model"] = fit(train, kcfg)

        train_stat = time_op(train_thunk, reps, warm)
        bank = to_discriminants(holder["model"])
        accuracy = evaluate(bank, test)
        infer_stat = time_op(lambda: predict(bank, test.X), reps, warm)
    elif algo == "knn":
        holder = {}

        def knn_thunk():
            holder["model"] = knn_fit(train, config.knn_neighbors)

        train_stat = time_op(knn_thunk, reps, warm)
        model = holder["model"]
        accuracy = float((knn_predict(model, test.X) == test.y).mean())
        infer_stat = time_op(lambda: knn_predict(model, test.X), reps, warm)
    else:
        raise ValueError(f"unknown algorithm {algo!r}; expected 'superklust' or 'knn'")
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


def _markdown(report: BenchReport) -> str:
    out = io.StringIO()
    sections = [
        ("Test accuracy", "accuracy"),
        ("Training time (ms), mean(std)", "train"),
        ("Inference time (ms), mean(std)", "infer"),
    ]
    for title, kind in sections:
        out.write(f"## {title}\n\n")
        out.write("| algorithm | " + " | ".join(report.datasets) + " |\n")
        out.write("|---" * (len(report.datasets) + 1) + "|\n")
        for algo in report.algos:
            row = [
                _cell_text(report.cells.get((ds, algo)), kind) for ds in report.datasets
            ]
            out.write("| " + " | ".join([algo] + row) + " |\n")
        out.write("\n")
    return out.getvalue()


def _csv(report: BenchReport) -> str:
    out = io.StringIO()
    out.write(
        "dataset,algorithm,accuracy,train_mean_ms,train_std_ms,"
        "infer_mean_ms,infer_std_ms,repetitions,error\n"
    )
    for ds in report.datasets:
        for algo in report.algos:
            cell = report.cells.get((ds, algo))
            if cell is None:
                continue
            if cell.error is not None:
                err = cell.error.replace('"', "'")
                out.write(f'{ds},{algo},,,,,,,"{err}"\n')
            else:
                out.write(
                    f"{ds},{algo},{cell.accuracy!r},"
                    f"{cell.train.mean_ms!r},{cell.train.std_ms!r},"
                    f"{cell.infer.mean_ms!r},{cell.infer.std_ms!r},"
                    f"{cell.train.repetitions},\n"
                )
    return out.getvalue()


def emit_report(report: BenchReport, format: str = "markdown") -> str:
    """Render the report as markdown tables (rows = algorithms, columns
    = datasets) or as flat CSV whose float fields parse back exactly."""
    if format == "markdown":
        return _markdown(report)
    if format == "csv":
        return _csv(report)
    raise ValueError(f"unknown format {format!r}; expected 'markdown' or 'csv'")
