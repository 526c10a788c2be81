"""Paper-shaped workloads of the superklust benchmark.

Every workload is one user's session at one dataset shape, run as a
closed loop with a single caller: it fits with the library, predicts
single rows and batches, and drives the command line (`fit`, `predict`
and a bare `import superklust`) on the same data. The two shapes put
the cost of a fit in different layers:

- letter: 16000x16, 26 classes. Lloyd is bound by Python overhead, so
  the clustering loop and correction show. The session also serves:
  single-row predicts and 100000-row batches, whose unbounded n x G
  score matrix shows in peak memory.
- isolet-fit: 6240x617, 26 classes. The distance computation dominates
  fit (cdist and k-means++ seeding), so a nearest-site kernel shows and
  a change to the Lloyd loop alone barely does.

Inputs are synthetic Gaussian mixtures. Each shape has one fixed
mixture: every class has MODES modes whose centers scatter with the
shape's `spread` around the origin, drawn once from MIXTURE_SEED. The
workload seed draws the rows: unit noise around a random mode of each
row's class, rounded to DECIMALS places as the real datasets' features
are. Fixing the mixture keeps the work and the accuracy of a fit close
across seeds; the spreads put test accuracy well below 1.
"""

from __future__ import annotations

import hashlib
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from superklust import clustering, datasets, tessellation

MODES = 4
DECIMALS = 4
MIXTURE_SEED = 0
CONFIG = clustering.KMeansConfig(k=20, n_restarts=4)
SUBPROCESS_TIMEOUT_S = 60


@dataclass(frozen=True)
class Shape:
    n_train: int
    n_test: int
    d: int
    n_classes: int
    spread: float


SHAPES = {
    "letter": Shape(16000, 4000, 16, 26, 1.3),
    "isolet": Shape(6240, 1560, 617, 26, 0.24),
}
# Same dimensions and class counts, about thirty rows per class: for the
# benchmark's self-tests, which check the metric set, not the numbers.
TINY_SHAPES = {
    name: Shape(30 * s.n_classes, 8 * s.n_classes, s.d, s.n_classes, s.spread)
    for name, s in SHAPES.items()
}


@dataclass(frozen=True)
class Workload:
    shape: str
    # The heavy operations of one round, in order: "fit" (library fit),
    # "cli_fit", "cli_predict", "import" (subprocesses) and "big" (one
    # predict of each batch larger than SMALL_BATCH). A workload without
    # "fit" fits its model once per set-up.
    steps: tuple[str, ...]
    rows_per_burst: int  # single-row predict calls after each heavy operation
    batches: tuple[int, ...]  # those up to SMALL_BATCH run after each heavy operation


SMALL_BATCH = 4096
ROW_POOL = 1000
BANKS = 8  # copies of the bank that bursts rotate through, see Session.fit_once
WORKLOADS = {
    "letter": Workload(
        "letter",
        ("fit", "big", "cli_fit", "import", "fit", "big", "cli_predict", "import", "cli_predict"),
        100,
        (64, 4096, 100_000),
    ),
    "isolet-fit": Workload(
        "isolet", ("fit", "cli_fit", "import", "cli_predict", "import", "cli_predict"), 40, (64, 4096)
    ),
}
TINY_BATCHES = {4096: 256, 100_000: 1024}


class Ops:
    """Counts operations (timed calls, subprocesses and output checks)
    and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok

    def timed(self, name: str, fn, *args):
        """Call fn(*args) on the clock; returns (seconds, result), or
        (None, None) after counting a raise as a failed operation."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing call is counted, the session goes on
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            return None, None
        return time.perf_counter() - start, result


def make_mixture(shape: Shape, seed: int, n_queries: int):
    """Train, test and query rows drawn by the seed from the shape's mixture."""
    modes = np.random.default_rng(MIXTURE_SEED).normal(
        0.0, shape.spread, (shape.n_classes, MODES, shape.d)
    )
    rng = np.random.default_rng(seed)

    def draw(n: int):
        y = rng.permutation(np.arange(n) % shape.n_classes)
        X = modes[y, rng.integers(MODES, size=n)] + rng.normal(0.0, 1.0, (n, shape.d))
        return np.round(X, DECIMALS), y

    train = datasets.Dataset(*draw(shape.n_train), n_classes=shape.n_classes)
    test = datasets.Dataset(*draw(shape.n_test), n_classes=shape.n_classes)
    queries, _ = draw(n_queries)
    return train, test, queries


def write_csv(path: Path, ds) -> None:
    """Features with DECIMALS places, then the integer label. The rows
    are rounded to DECIMALS places already, so the command line parses
    exactly the in-memory rows."""
    fmt = ",".join([f"%.{DECIMALS}f"] * ds.d) + ",%d"
    path.write_text(
        "\n".join(fmt % (*row, label) for row, label in zip(ds.X.tolist(), ds.y.tolist())) + "\n"
    )


def sq_dist_chunks(Q: np.ndarray, P: np.ndarray, budget: int = 2_000_000):
    """Yield (start, d2) with d2[i, j] = sum((Q[start+i] - P[j])**2),
    computed from explicit differences in chunks of at most ~budget
    elements."""
    step = max(1, budget // (P.shape[0] * P.shape[1]))
    for start in range(0, Q.shape[0], step):
        diff = Q[start : start + step, None, :] - P[None, :, :]
        yield start, np.einsum("ijk,ijk->ij", diff, diff)


def nearest_labels(model, Q: np.ndarray) -> np.ndarray:
    """Benchmark's own exact classifier: label of the nearest generator
    by explicit squared distance, ties to the lowest generator index."""
    labels = model.labels
    out = np.empty(Q.shape[0], dtype=np.int64)
    for start, d2 in sq_dist_chunks(Q, model.points):
        out[start : start + d2.shape[0]] = labels[d2.argmin(axis=1)]
    return out


def blas_threads() -> int | None:
    """OS threads of this process after a warm GEMM (None without /proc)."""
    a = np.ones((256, 256))
    a @ a
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any finished child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class Session:
    """One workload's inputs, its timed loop and its output checks.

    samples maps a sample name to the wall times (s) measured so far."""

    def __init__(self, name: str, seed: int, workdir: Path, src: Path, tiny: bool):
        self.spec = WORKLOADS[name]
        self.shape = (TINY_SHAPES if tiny else SHAPES)[self.spec.shape]
        # batch size as run -> size it stands for (they differ only when tiny)
        self.batch_names = {
            (TINY_BATCHES.get(b, b) if tiny else b): b for b in self.spec.batches
        }
        self.batches = tuple(self.batch_names)
        self.seed = seed
        self.workdir = workdir
        self.ops = Ops()
        self.samples: dict[str, list[float]] = {}
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.model = None
        self.model_bytes = None
        self.reference = None
        self.expected_cli_accuracy = None

    def sample(self, key: str, seconds) -> None:
        if seconds is not None:
            self.samples.setdefault(key, []).append(seconds)

    # -- set-up -------------------------------------------------------

    def setup(self) -> None:
        """Draw the inputs and write the CSVs; a workload without library
        fits in its loop also fits its model here. Timed by the caller."""
        self.train, self.test, self.queries = make_mixture(
            self.shape, self.seed, max(self.batches)
        )
        self.train_csv = self.workdir / "train.csv"
        self.test_csv = self.workdir / "test.csv"
        write_csv(self.train_csv, self.train)
        write_csv(self.test_csv, self.test)
        if "fit" not in self.spec.steps:
            self.fit_once()

    def fit_once(self) -> None:
        seconds, model = self.ops.timed("fit", tessellation.fit, self.train, CONFIG)
        if model is None:
            return
        self.sample("fit", seconds)
        blob = tessellation.save_model(model)
        if self.model_bytes is None:
            self.model_bytes = blob
        self.ops.check("fit determinism", blob == self.model_bytes, "same-seed fits differ")
        self.model = model
        # Single-row latency depends on where the bank's arrays happen to
        # sit in memory, and differs by half between allocations; each
        # burst takes the next of several fresh copies, which averages that
        # within every run. Per burst, not per call: at isolet shape a bank
        # is 2.5 MB, and rotating per call would predict from a cold cache.
        self.banks = [tessellation.to_discriminants(model) for _ in range(BANKS)]
        self.bank = self.banks[0]

    def prepare_checks(self) -> None:
        """Reference labels for every batch the loop predicts, computed
        once per run and outside every timed region. Same-seed fits are
        checked to give the same model, so the first one serves."""
        self.row_pool = self.queries[:ROW_POOL]
        self.next_row = 0
        self.bursts = 0
        self.reference = nearest_labels(self.model, self.queries)
        self.test_reference = nearest_labels(self.model, self.test.X)

    # -- the timed loop -----------------------------------------------

    def round(self) -> None:
        """The heavy operations once each, every one followed by a burst
        of single-row and small-batch predicts. Interleaving spreads each
        kind's samples over the whole run, because the machine's speed
        drifts over seconds."""
        small = [n for n, name in self.batch_names.items() if name <= SMALL_BATCH]
        big = [n for n, name in self.batch_names.items() if name > SMALL_BATCH]
        run_step = {
            "fit": self.fit_once,
            "cli_fit": self.cli_fit,
            "cli_predict": self.cli_predict,
            "import": self.import_once,
            "big": lambda: self.predict_batches(big),
        }
        for step in self.spec.steps:
            run_step[step]()
            if self.model is None:
                raise RuntimeError("no model: every fit failed")
            if self.reference is None:
                self.prepare_checks()
            self.bank = self.banks[self.bursts % BANKS]
            self.bursts += 1
            self.predict_rows()
            self.predict_batches(small)

    def predict_batches(self, sizes) -> None:
        for n in sizes:
            seconds, labels = self.ops.timed(
                f"predict b{n}", tessellation.predict, self.bank, self.queries[:n]
            )
            if labels is not None and self.ops.check(
                f"predict b{n}",
                np.array_equal(labels, self.reference[:n]),
                "labels differ from the exact nearest generator",
            ):
                self.sample(f"predict.b{n}", seconds)

    def predict_rows(self) -> None:
        bank, predict, pool = self.bank, tessellation.predict, self.row_pool
        times = []
        wrong = 0
        for _ in range(self.spec.rows_per_burst):
            i = self.next_row
            self.next_row = (i + 1) % pool.shape[0]
            x = pool[i : i + 1]
            start = time.perf_counter()
            try:
                label = predict(bank, x)
            except Exception:  # counted below as a failed operation
                wrong += 1
                continue
            times.append(time.perf_counter() - start)
            wrong += int(label.shape != (1,) or label[0] != self.reference[i])
        self.ops.attempted += self.spec.rows_per_burst
        self.ops.failed += wrong
        if wrong:
            print(f"FAILED predict b1: {wrong} rows", file=sys.stderr)
        self.samples.setdefault("predict.b1", []).extend(times)

    def run_cli(self, name: str, args: list[str]):
        """Run one command-line subprocess on the clock."""
        cmd = [sys.executable, *args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                cwd=self.workdir,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=SUBPROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.ops.check(name, False, f"timed out after {SUBPROCESS_TIMEOUT_S} s")
            return None, None
        seconds = time.perf_counter() - start
        if not self.ops.check(
            f"{name} exit code", proc.returncode == 0, proc.stderr.strip()[-500:]
        ):
            return None, None
        return seconds, proc

    def cli_fit(self) -> None:
        seconds, _ = self.run_cli(
            "cli fit",
            ["-m", "superklust", "fit", "--data", "train.csv", "--k", str(CONFIG.k),
             "--out", "model.json"],
        )
        if seconds is not None and self.ops.check(
            "cli fit model",
            (self.workdir / "model.json").read_bytes() == self.model_bytes,
            "model.json differs from the library fit of the same rows",
        ):
            self.sample("cli_fit", seconds)

    def cli_predict(self) -> None:
        seconds, proc = self.run_cli(
            "cli predict",
            ["-m", "superklust", "predict", "--model", "model.json", "--data", "test.csv",
             "--label-col", "-1", "--out", "pred.csv"],
        )
        if seconds is not None and self.check_cli_predict(proc.stdout):
            self.sample("cli_predict", seconds)

    def import_once(self) -> None:
        seconds, _ = self.run_cli("import", ["-c", "import superklust"])
        self.sample("import", seconds)

    def check_cli_predict(self, stdout: str) -> bool:
        lines = (self.workdir / "pred.csv").read_text().split()
        ok = self.ops.check(
            "cli predict rows",
            lines[:1] == ["label"]
            and np.array_equal(np.array(lines[1:], dtype=np.int64), self.test_reference),
            f"pred.csv has {len(lines) - 1} labels for {self.test.n} test rows, or wrong ones",
        )
        if self.expected_cli_accuracy is None:
            model = tessellation.load_model((self.workdir / "model.json").read_bytes())
            test = datasets.load_csv(self.test_csv, label_column=-1)
            self.expected_cli_accuracy = f"accuracy: {tessellation.evaluate(model, test):.4f}"
        printed = re.findall(r"^accuracy: .*$", stdout, flags=re.M)
        return self.ops.check(
            "cli predict accuracy",
            printed == [self.expected_cli_accuracy],
            f"printed {printed}, library evaluate gives {self.expected_cli_accuracy!r}",
        ) and ok

    # -- after the loop -----------------------------------------------

    def final_checks(self) -> float:
        """Round-trip and accuracy checks; returns the test accuracy."""
        model = self.model
        self.ops.check(
            "save/load round trip",
            tessellation.load_model(tessellation.save_model(model)) == model,
            "load_model(save_model(m)) != m",
        )
        accuracy = tessellation.evaluate(model, self.test)
        self.ops.check(
            "test accuracy",
            accuracy == float((self.test_reference == self.test.y).mean()),
            "evaluate disagrees with the exact nearest generator",
        )
        return accuracy

    def end_to_end(self, setup_times: list[float], accuracy: float) -> dict[str, float]:
        med = {key: statistics.median(v) for key, v in self.samples.items()}
        # Throughput at the batch every workload runs; the 100000-row batch
        # reads 126k-230k rows/s across processes (page faults on its
        # 832 MB of score matrices), so it stays a per-layer number.
        batch = max(n for n, name in self.batch_names.items() if name <= SMALL_BATCH)
        return {
            "setup_s": statistics.median(setup_times),
            "fit_s": med["fit"],
            "test_accuracy": accuracy,
            "predict_row_us": med["predict.b1"] * 1e6,
            "predict_rows_per_s": batch / med[f"predict.b{batch}"],
            "peak_rss_mb": peak_rss_mb(),
            "cli_fit_s": med["cli_fit"],
            "cli_predict_s": med["cli_predict"],
            "import_s": med["import"],
        }
