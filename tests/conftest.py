import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import superklust
from superklust import KMeansConfig, KMeansResult, Model
from superklust._nearest import rounding_bound


# A model of 10^9 classes as save_model writes it: one generator, at the
# origin of the plane, labeled class 999999999.
HUGE_CLASS_COUNT_DOC = (
    '{"version":2,"d":2,"n_classes":1000000000,"k":1,"correction_iterations":0,'
    '"labels":[999999999],"source_classes":[999999999],"points":"AAAAAAAAAAAAAAAAAAAAAA=="}\n'
)


def run_capped(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run Python code, with this package importable, in a process whose
    address space is capped at 1 GiB: an allocation that the code should
    not make then fails at once instead of growing."""
    prelude = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.path.insert(0, {str(Path(superklust.__file__).parents[1])!r})\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", prelude + code, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def benchmark_data_dir() -> Path:
    return Path(os.environ.get("DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def require_benchmark_dataset(name: str):
    from superklust.fetch import dataset_present

    if not dataset_present(name, benchmark_data_dir()):
        pytest.skip(
            f"dataset {name!r} not fetched (this environment has no general "
            f"network access; run `superklust fetch` where downloads work)"
        )


def random_labeled_model(
    rng: np.random.Generator,
    d: int,
    scale: float = 3.0,
    n_gen: int | None = None,
    n_classes: int | None = None,
) -> Model:
    """Random model with interleaved labels, for exercising prediction."""
    if n_gen is None:
        n_gen = int(rng.integers(1, 41))
    if n_classes is None:
        n_classes = int(rng.integers(2, 7))
    # per generator, in this order: its point, its label, its source class
    draws = [
        (rng.normal(0.0, scale, d), int(rng.integers(n_classes)), int(rng.integers(n_classes)))
        for _ in range(n_gen)
    ]
    points, labels, sources = zip(*draws)
    return Model(
        points=np.array(points), labels=labels, source_classes=sources, n_classes=n_classes, k=n_gen
    )


def predict_oracle(model: Model, X) -> np.ndarray:
    """Reference classifier: per query, explicitly minimize the squared
    distance over generators with the same tie rule. Exists to validate
    predict() through an independent code path."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("queries must form a 2-D matrix")
    if X.shape[1] != model.d:
        raise ValueError(
            f"dimension mismatch: queries have {X.shape[1]} features, expected {model.d}"
        )
    if not np.isfinite(X).all():
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
        raise ValueError(f"non-finite feature in query row {bad}")
    if model.scaler is not None:
        X = (X - model.scaler.mean) / model.scaler.scale
    points, labels = model.points, model.labels
    out = np.empty(X.shape[0], dtype=np.int64)
    for i, x in enumerate(X):
        d2 = ((points - x) ** 2).sum(axis=1)
        out[i] = labels[int(d2.argmin())]
    return out


def kmeans_pp_oracle(data: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ as kmeans_pp_init draws it for one seed, with one GEMV
    per chosen center: same random stream, rounding bound, exact
    recompute of the weights near zero and draw against the last
    cumulative weight."""
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    x_sq = np.einsum("ij,ij->i", data, data)
    x_norms = np.sqrt(x_sq)

    def sq_dists_to(idx):
        c = data[idx]
        d2 = x_sq - 2.0 * (data @ c) + x_sq[idx]
        near = ~(d2 > rounding_bound(x_norms, x_norms[idx], data.shape[1]))
        d2[near] = np.square(data[near] - c).sum(axis=1)
        return d2

    chosen = [int(rng.integers(n))]
    closest = sq_dists_to(chosen[0])
    for _ in range(1, min(k, n)):
        cum = np.cumsum(closest)
        if cum[-1] > 0:
            idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        np.minimum(closest, sq_dists_to(idx), out=closest)
    return data[chosen]


def lloyd_oracle(data: np.ndarray, centers: np.ndarray, max_iter: int) -> KMeansResult:
    """Lloyd with a full recompute every step: every explicit distance,
    then every center as the mean of its rows; empty clusters dropped."""
    prev, iterations = None, 0
    while True:
        d2 = np.stack([np.square(data - c).sum(axis=1) for c in centers], axis=1)
        assign = d2.argmin(axis=1)
        if (prev is not None and np.array_equal(assign, prev)) or iterations >= max_iter:
            break
        keep = np.unique(assign)
        assign = np.searchsorted(keep, assign)
        centers = np.array([data[assign == j].mean(axis=0) for j in range(keep.size)])
        prev, iterations = assign, iterations + 1
    inertia = float(np.square(data - centers[assign]).sum())
    return KMeansResult(centers, assign, inertia, iterations)


def kmeans_oracle(data, config: KMeansConfig) -> KMeansResult:
    """fit_kmeans as a plain loop over restarts: restart r runs
    lloyd_oracle from kmeans_pp_oracle(seed + r); the earliest lowest
    inertia wins."""
    data = np.asarray(data, dtype=np.float64)
    best = None
    for r in range(config.n_restarts):
        init = kmeans_pp_oracle(data, config.k, config.seed + r)
        result = lloyd_oracle(data, init, config.max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


# --- acceptance reporting -------------------------------------------------
# Each acceptance test wraps its body in criterion(); the terminal
# summary then shows one PASS/FAIL/SKIP line per criterion regardless
# of output capture.

ACCEPTANCE_LINES: list[str] = []


@contextmanager
def criterion(number: int, title: str):
    info = {"detail": ""}
    try:
        yield info
    except pytest.skip.Exception as exc:
        ACCEPTANCE_LINES.append(f"criterion {number} ({title}): SKIP ({exc})")
        raise
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {number} ({title}): FAIL")
        raise
    else:
        detail = f" [{info['detail']}]" if info["detail"] else ""
        ACCEPTANCE_LINES.append(f"criterion {number} ({title}): PASS{detail}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
