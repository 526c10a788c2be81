"""Per-layer numbers for the superklust benchmark from a traced run.

The tracer replaces public functions of the package's modules with
timing wrappers, from outside the package, so that the library's own
internal calls (fit -> fit_kmeans -> kmeans_pp_init / lloyd, fit ->
assemble / correct, evaluate -> to_discriminants / predict, the CLI's
handlers -> load_csv / fit / save_model ...) pass through them. Each
call becomes an in-memory span (name, start, end, parent, attributes);
the spans are written out when the run ends. A layer's self time is its
span's duration minus the time its child spans cover. A name that the
package no longer has is skipped and its metrics read 0.

Counters marked "computed" come from array sizes (2*n*k*d FLOPs per
Lloyd assignment step, 2*n*G*d per predict, 8*n*G bytes per score
matrix) and ignore cache behaviour.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

from superklust import bench, cli, clustering, datasets, tessellation

import workloads as wl

# Layer metrics in BENCHMARK.json order: name -> unit.
PER_LAYER = {
    "clustering.kmeans_pp_init.s": "s",
    "clustering.kmeans_pp_init.calls": "count",
    "clustering.lloyd.s": "s",
    "clustering.lloyd.calls": "count",
    "clustering.lloyd.iterations": "count",
    "clustering.lloyd.s_per_iter": "s",
    "clustering.lloyd.gflop": "GFLOP",
    "clustering.lloyd.gflop_per_s": "GFLOP/s",
    "clustering.lloyd.dist_mb": "MB",
    "clustering.fit_kmeans.s": "s",
    "clustering.fit_kmeans.self_s": "s",
    "clustering.fit_kmeans.calls": "count",
    "tessellation.fit.s": "s",
    "tessellation.fit.self_s": "s",
    "tessellation.fit.calls": "count",
    "tessellation.assemble.s": "s",
    "tessellation.correct.s": "s",
    "tessellation.correct.passes": "count",
    "tessellation.correct.pruned": "count",
    "tessellation.correct.relabeled": "count",
    "tessellation.generators": "count",
    "tessellation.to_discriminants.ms": "ms",
    "tessellation.predict.b1.us": "us",
    "tessellation.predict.row_us_p99": "us",
    "tessellation.predict.b64.us": "us",
    "tessellation.predict.b4096.ms": "ms",
    "tessellation.predict.b4096.gflop_per_s": "GFLOP/s",
    "tessellation.predict.b100000.ms": "ms",
    "tessellation.predict.b100000.gflop_per_s": "GFLOP/s",
    "tessellation.predict.score_mb": "MB",
    "tessellation.predict.gemm_share": "ratio",
    "tessellation.predict.gemm_share.gemm_ms": "ms",
    "tessellation.predict.gemm_share.predict_ms": "ms",
    "tessellation.predict.gemm_gflop_per_s": "GFLOP/s",
    "tessellation.save_model.ms": "ms",
    "tessellation.save_model.bytes": "bytes",
    "tessellation.load_model.ms": "ms",
    "datasets.load_csv.s": "s",
    "datasets.load_csv.mb_per_s": "MB/s",
    "bench.knn_predict.rows_per_s": "rows/s",
    "bench.knn_accuracy": "fraction",
    "bench.knn_over_predict": "ratio",
    "bench.knn_over_predict.knn_row_us": "us",
    "bench.knn_over_predict.predict_row_us": "us",
    "import.numpy.s": "s",
    "import.scipy.s": "s",
    "import.superklust.bench.s": "s",
    "import.superklust.fetch.s": "s",
    "import.superklust.s": "s",
    "cli.fit.s": "s",
    "cli.predict.s": "s",
    "trace_overhead": "ratio",
    "trace_overhead.traced_fit_s": "s",
    "trace_overhead.untraced_fit_s": "s",
}
IMPORT_GROUPS = ("numpy", "scipy", "superklust.bench", "superklust.fetch", "superklust")
OVERHEAD_PAIRS = 2
IMPORTTIME_RUNS = 3
KNN_NEIGHBORS = 3
KNN_QUERIES = 500


def _rows(args):
    return np.shape(args[1])[0]


def _lloyd_attrs(args, kwargs, result):
    data, init = np.shape(args[0]), np.shape(args[1])
    steps = result.iterations + 1
    return {"n": data[0], "d": data[1], "k": init[0], "iterations": result.iterations,
            "steps": steps}


def _predict_attrs(args, kwargs, result):
    bank = args[0]
    return {"n": _rows(args), "G": bank.weights.shape[0], "d": bank.weights.shape[1]}


# module, attribute, span name, attribute function (args, kwargs, result) -> dict
WRAPPED = [
    (clustering, "kmeans_pp_init", "clustering.kmeans_pp_init", None),
    (clustering, "lloyd", "clustering.lloyd", _lloyd_attrs),
    (tessellation, "fit_kmeans", "clustering.fit_kmeans", None),
    (tessellation, "fit", "tessellation.fit", None),
    (tessellation, "assemble", "tessellation.assemble", None),
    (tessellation, "correct", "tessellation.correct",
     lambda a, kw, r: {"before": a[0], "after": r}),
    (tessellation, "to_discriminants", "tessellation.to_discriminants", None),
    (tessellation, "predict", "tessellation.predict", _predict_attrs),
    (tessellation, "save_model", "tessellation.save_model", lambda a, kw, r: {"bytes": len(r)}),
    (tessellation, "load_model", "tessellation.load_model", None),
    (datasets, "load_csv", "datasets.load_csv",
     lambda a, kw, r: {"bytes": Path(a[0]).stat().st_size}),
    (bench, "knn_fit", "bench.knn_fit", None),
    (bench, "knn_predict", "bench.knn_predict", lambda a, kw, r: {"n": _rows(a)}),
    (cli, "main", "cli", lambda a, kw, r: {"command": (a[0] if a else kw["argv"])[0]}),
]


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, attrs in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, attrs))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, attrs):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else -1}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                try:
                    span["attrs"] = attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature costs the counters, not the run
            return result

        return wrapper

    def write(self, path: Path) -> None:
        def plain(span):
            attrs = {k: v for k, v in span.get("attrs", {}).items()
                     if isinstance(v, (int, float, str))}
            return {"name": span["name"], "start": span["start"], "end": span["end"],
                    "parent": span["parent"], **({"attrs": attrs} if attrs else {})}

        path.write_text(json.dumps([plain(s) for s in self.spans]) + "\n")


def _duration(span) -> float:
    return span["end"] - span["start"]


def _self_times(spans) -> list[float]:
    out = [_duration(s) for s in spans]
    for span in spans:
        if span["parent"] >= 0:
            out[span["parent"]] -= _duration(span)
    return out


def _relabeled(before, after) -> int:
    """Generators kept by correction whose label changed, matched to
    their input generator by coordinates."""
    label_of = {g.point.tobytes(): g.label for g in before.generators}
    return sum(label_of.get(g.point.tobytes(), g.label) != g.label for g in after.generators)


def knn_labels(train, Q: np.ndarray, k: int) -> np.ndarray:
    """Exact KNN reference: the first k training rows by (distance,
    index), majority vote with ties to the lowest class id."""
    out = np.empty(Q.shape[0], dtype=np.int64)
    for start, d2 in wl.sq_dist_chunks(Q, train.X):
        nn = np.argsort(d2, axis=1, kind="stable")[:, :k]
        for i, votes in enumerate(train.y[nn]):
            out[start + i] = np.bincount(votes, minlength=train.n_classes).argmax()
    return out


def importtime(session) -> dict[str, float]:
    """Cumulative import seconds per group from `python -X importtime`,
    median over IMPORTTIME_RUNS interpreter starts. A group's time is
    the sum over its outermost modules (those not imported by a module
    of the same group)."""
    runs = {group: [] for group in IMPORT_GROUPS}
    for _ in range(IMPORTTIME_RUNS):
        _, proc = session.run_cli("importtime", ["-X", "importtime", "-c", "import superklust"])
        if proc is None:
            continue
        rows = []  # (depth, name, cumulative us), children before parents
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            label = parts[2].rstrip()
            name = label.lstrip()
            rows.append(((len(label) - len(name)) // 2, name, int(parts[1])))
        parent = [None] * len(rows)
        stack = []
        for i in range(len(rows) - 1, -1, -1):
            while stack and rows[stack[-1]][0] >= rows[i][0]:
                stack.pop()
            parent[i] = stack[-1] if stack else None
            stack.append(i)
        for group in IMPORT_GROUPS:

            def member(name):
                return name == group or name.startswith(group + ".")

            runs[group].append(sum(
                us for i, (_, name, us) in enumerate(rows)
                if member(name) and (parent[i] is None or not member(rows[parent[i]][1]))
            ) / 1e6)
    return {f"import.{g}.s": statistics.median(v) if v else 0.0 for g, v in runs.items()}


def probes(session, tracer: Tracer) -> dict[str, float]:
    """Layer probes a traced run adds after the timed loop."""
    ops, out = session.ops, {}

    # Tracing overhead: alternate untraced and traced fits of the same rows.
    fit_times = {"traced": [], "untraced": []}
    for _ in range(OVERHEAD_PAIRS):
        for kind in ("untraced", "traced"):
            (tracer.uninstall if kind == "untraced" else tracer.install)()
            seconds, model = ops.timed("fit", tessellation.fit, session.train, wl.CONFIG)
            if model is not None and ops.check(
                "fit determinism", tessellation.save_model(model) == session.model_bytes,
                "same-seed fits differ",
            ):
                fit_times[kind].append(seconds)
    traced = statistics.median(fit_times["traced"])
    untraced = statistics.median(fit_times["untraced"])
    out["trace_overhead"] = traced / untraced
    out["trace_overhead.traced_fit_s"] = traced
    out["trace_overhead.untraced_fit_s"] = untraced

    # Bare GEMM of the largest predict batch, same shape and dtype.
    big = max(session.batches)
    X, W = session.queries[:big], session.banks[0].weights
    reps = max(3, len(session.samples.get(f"predict.b{big}", [])))
    gemm = []
    for _ in range(reps):
        start = time.perf_counter()
        X @ W.T
        gemm.append(time.perf_counter() - start)
    out["gemm_s"] = statistics.median(gemm)

    # Brute-force KNN baseline on a fixed subset of the test rows.
    n_q = min(KNN_QUERIES, session.test.n)
    Q, truth = session.test.X[:n_q], session.test.y[:n_q]
    knn = bench.knn_fit(session.train, KNN_NEIGHBORS)
    seconds, labels = ops.timed("knn_predict", bench.knn_predict, knn, Q)
    if labels is not None and ops.check(
        "knn_predict", np.array_equal(labels, knn_labels(session.train, Q, KNN_NEIGHBORS)),
        "labels differ from the exact KNN reference",
    ):
        out["knn_s"] = seconds
        out["knn_rows"] = n_q
        out["bench.knn_accuracy"] = float((labels == truth).mean())

    # CSV parsing in-process, then the CLI handlers without interpreter start-up.
    ds = datasets.load_csv(session.train_csv, label_column=-1)
    ops.check("load_csv", np.array_equal(ds.X, session.train.X), "parsed rows differ")
    workdir = session.workdir
    for argv in (
        ["fit", "--data", str(session.train_csv), "--k", str(wl.CONFIG.k),
         "--out", str(workdir / "model-inprocess.json")],
        ["predict", "--model", str(workdir / "model-inprocess.json"),
         "--data", str(session.test_csv), "--label-col", "-1",
         "--out", str(workdir / "pred-inprocess.csv")],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        ops.check(f"cli.main {argv[0]}", code == 0, f"exit code {code}")

    out.update(importtime(session))
    return out


def per_layer(tracer: Tracer, probe: dict, session) -> dict[str, float]:
    """Fold spans and probe results into the PER_LAYER metrics. Layers
    of fit are reported per fit call; predict and I/O as medians."""
    spans = tracer.spans
    model = session.model
    self_s = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        name = span["name"]
        if name == "cli":
            name = f"cli.{span.get('attrs', {}).get('command')}"
        by_name.setdefault(name, []).append(i)

    def total(name):
        return sum(_duration(spans[i]) for i in by_name.get(name, []))

    def median_of(name):
        ds = [_duration(spans[i]) for i in by_name.get(name, [])]
        return statistics.median(ds) if ds else 0.0

    n_fits = len(by_name.get("tessellation.fit", []))
    per_fit = 1.0 / n_fits if n_fits else 0.0
    m = {name: 0.0 for name in PER_LAYER}

    for name in ("clustering.kmeans_pp_init", "clustering.lloyd", "clustering.fit_kmeans"):
        m[f"{name}.s"] = total(name) * per_fit
        m[f"{name}.calls"] = len(by_name.get(name, [])) * per_fit
    lloyd = [spans[i]["attrs"] for i in by_name.get("clustering.lloyd", []) if "attrs" in spans[i]]
    m["clustering.lloyd.iterations"] = sum(a["iterations"] for a in lloyd) * per_fit
    if lloyd:
        flop = sum(a["steps"] * 2 * a["n"] * a["k"] * a["d"] for a in lloyd)
        m["clustering.lloyd.gflop"] = flop / 1e9 * per_fit
        m["clustering.lloyd.gflop_per_s"] = flop / 1e9 / total("clustering.lloyd")
        m["clustering.lloyd.dist_mb"] = max(8 * a["n"] * a["k"] for a in lloyd) / 1e6
    if m["clustering.lloyd.iterations"]:
        m["clustering.lloyd.s_per_iter"] = m["clustering.lloyd.s"] / m["clustering.lloyd.iterations"]
    m["clustering.fit_kmeans.self_s"] = sum(
        self_s[i] for i in by_name.get("clustering.fit_kmeans", [])) * per_fit

    m["tessellation.fit.s"] = total("tessellation.fit") * per_fit
    m["tessellation.fit.self_s"] = sum(
        self_s[i] for i in by_name.get("tessellation.fit", [])) * per_fit
    m["tessellation.fit.calls"] = n_fits
    m["tessellation.assemble.s"] = total("tessellation.assemble") * per_fit
    m["tessellation.correct.s"] = total("tessellation.correct") * per_fit
    corrections = [
        spans[i]["attrs"] for i in by_name.get("tessellation.correct", []) if "attrs" in spans[i]
    ]
    if corrections:
        last = corrections[-1]
        before, after = last["before"], last["after"]
        m["tessellation.correct.passes"] = after.correction_iterations - before.correction_iterations
        m["tessellation.correct.pruned"] = len(before.generators) - len(after.generators)
        m["tessellation.correct.relabeled"] = _relabeled(before, after)
    m["tessellation.generators"] = len(model.generators)
    m["tessellation.to_discriminants.ms"] = median_of("tessellation.to_discriminants") * 1e3

    def batch(n):
        return [_duration(spans[i]) for i in by_name.get("tessellation.predict", [])
                if spans[i].get("attrs", {}).get("n") == n]

    rows = batch(1)
    if rows:
        m["tessellation.predict.b1.us"] = statistics.median(rows) * 1e6
        m["tessellation.predict.row_us_p99"] = float(np.percentile(rows, 99)) * 1e6
    b64 = batch(64)
    if b64:
        m["tessellation.predict.b64.us"] = statistics.median(b64) * 1e6
    G, d = model.points.shape
    sizes = [n for n, name in session.batch_names.items() if name in (4096, 100_000) and batch(n)]
    for n in sizes:
        t = statistics.median(batch(n))
        name = session.batch_names[n]
        m[f"tessellation.predict.b{name}.ms"] = t * 1e3
        m[f"tessellation.predict.b{name}.gflop_per_s"] = 2 * n * G * d / t / 1e9
    big = max(sizes) if sizes else 0
    if big:
        predict_s = statistics.median(batch(big))
        m["tessellation.predict.score_mb"] = 8 * big * G / 1e6
        m["tessellation.predict.gemm_share"] = probe["gemm_s"] / predict_s
        m["tessellation.predict.gemm_share.gemm_ms"] = probe["gemm_s"] * 1e3
        m["tessellation.predict.gemm_share.predict_ms"] = predict_s * 1e3
        m["tessellation.predict.gemm_gflop_per_s"] = 2 * big * G * d / probe["gemm_s"] / 1e9

    m["tessellation.save_model.ms"] = median_of("tessellation.save_model") * 1e3
    saves = [spans[i]["attrs"]["bytes"] for i in by_name.get("tessellation.save_model", [])
             if "attrs" in spans[i]]
    m["tessellation.save_model.bytes"] = saves[-1] if saves else 0
    m["tessellation.load_model.ms"] = median_of("tessellation.load_model") * 1e3

    loads = by_name.get("datasets.load_csv", [])
    m["datasets.load_csv.s"] = median_of("datasets.load_csv")
    if loads:
        m["datasets.load_csv.mb_per_s"] = (
            sum(spans[i].get("attrs", {}).get("bytes", 0) for i in loads) / 1e6
            / total("datasets.load_csv")
        )

    if "knn_s" in probe:
        knn_row = probe["knn_s"] / probe["knn_rows"]
        m["bench.knn_predict.rows_per_s"] = 1.0 / knn_row
        m["bench.knn_accuracy"] = probe["bench.knn_accuracy"]
        m["bench.knn_over_predict.knn_row_us"] = knn_row * 1e6
        n = min(sizes) if sizes else 0
        if n:
            predict_row = statistics.median(batch(n)) / n
            m["bench.knn_over_predict.predict_row_us"] = predict_row * 1e6
            m["bench.knn_over_predict"] = knn_row / predict_row

    for group in IMPORT_GROUPS:
        m[f"import.{group}.s"] = probe[f"import.{group}.s"]
    m["cli.fit.s"] = median_of("cli.fit")
    m["cli.predict.s"] = median_of("cli.predict")
    for key in ("trace_overhead", "trace_overhead.traced_fit_s", "trace_overhead.untraced_fit_s"):
        m[key] = probe[key]
    return m
