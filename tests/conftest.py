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
