import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from superklust import Model


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
