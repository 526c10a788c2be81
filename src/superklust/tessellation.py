"""Labeled Voronoi tessellation classifier.

A model is a (G, d) matrix of generator points (per-class cluster
means) with one label per row. Classification assigns a query to the
label of its nearest generator. Because

    ||x - g||^2 = ||x||^2 - (2 g . x - ||g||^2)

and ||x||^2 does not depend on the generator, the nearest-generator rule
equals an argmax over the linear discriminants w = 2 g, b = -||g||^2.
That makes the classifier piecewise linear and turns batch inference
into a single matrix product: the bank stores each form as one column
[w; b] of a (d+1, G) matrix, so a block of queries with a column of
ones appended, [x, 1], is scored, biases included, by one GEMM per
block of rows, followed by a row-wise argmax. The order of generators
is part of the model: all ties break to the lowest index.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from ._nearest import block_rows, nearest, sq_norms
from .clustering import KMeansConfig, fit_kmeans

if TYPE_CHECKING:
    from .datasets import Dataset

__all__ = [
    "Generator",
    "Model",
    "ScalerParams",
    "DiscriminantBank",
    "ModelFormatError",
    "MalformedModelError",
    "ModelVersionError",
    "NonFiniteModelError",
    "assemble",
    "to_discriminants",
    "predict",
    "predict_oracle",
    "correct",
    "fit",
    "evaluate",
    "save_model",
    "load_model",
]


class ModelFormatError(ValueError):
    """Base class for model (de)serialization failures."""

    code = "malformed"


class MalformedModelError(ModelFormatError):
    code = "malformed"


class ModelVersionError(ModelFormatError):
    code = "version"


class NonFiniteModelError(ModelFormatError):
    code = "non-finite"


class _ArrayEq:
    """Dataclass equality that compares array fields with np.array_equal."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(eq=False)
class ScalerParams(_ArrayEq):
    """Per-feature affine transform: x -> (x - mean) / scale."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.mean.ndim != 1 or self.mean.shape != self.scale.shape:
            raise ValueError("mean and scale must be vectors of one length")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.scale).all()):
            raise ValueError("non-finite entry in scaler")
        if (self.scale <= 0).any():
            raise ValueError("scale entries must be strictly positive")


@dataclass(frozen=True, eq=False)
class Generator:
    """Read-only view of one generator of a Model: its point (a row of
    Model.points), its class label, and the class it was clustered from
    (labels can change during correction, source_class does not)."""

    point: np.ndarray
    label: int
    source_class: int


@dataclass(eq=False)
class Model(_ArrayEq):
    """A labeled Voronoi tessellation and the fit-time facts needed to
    interpret it: points, the (G, d) float64 generator matrix in model
    order, and labels and source_classes, (G,) int64 ids in [0,
    n_classes), all read-only copies; k bounds G by k * n_classes.

    label_names, when present, holds the label token of each class id
    (position = id) in the data the model was fitted on; None means the
    ids are the names, and names that are exactly "0", "1", ... are
    stored as None.

    scaler, when present, maps raw feature rows to the coordinates of
    points: predict (through the bank), evaluate, predict_oracle and
    correct take raw rows and apply (x - mean) / scale themselves.
    """

    points: np.ndarray
    labels: np.ndarray
    source_classes: np.ndarray
    n_classes: int
    k: int
    correction_iterations: int = 0
    label_names: tuple[str, ...] | None = None
    scaler: ScalerParams | None = None

    def __post_init__(self):
        points = np.array(self.points, dtype=np.float64)
        if points.ndim != 2 or points.size == 0:
            raise ValueError(f"points must be a nonempty (G, d) matrix, not shape {points.shape}")
        G = points.shape[0]
        if G > self.k * self.n_classes:
            raise ValueError(
                f"{G} generators exceed the budget k * n_classes = {self.k * self.n_classes}"
            )
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite feature in generator {int(finite.argmin())}")
        points.flags.writeable = False
        self.points = points
        for name in ("labels", "source_classes"):
            ids = np.array(getattr(self, name))
            if ids.shape != (G,) or ids.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold {G} integer class ids")
            outside = (ids < 0) | (ids >= self.n_classes)
            if outside.any():
                raise ValueError(f"{name} entry {ids[outside][0]} outside [0, {self.n_classes})")
            ids = ids.astype(np.int64, copy=False)
            ids.flags.writeable = False
            setattr(self, name, ids)
        if self.scaler is not None and self.scaler.mean.shape != (self.d,):
            raise ValueError(
                f"dimension mismatch: scaler has {self.scaler.mean.size} features, "
                f"model has {self.d}"
            )
        if self.label_names is not None:
            names = tuple(self.label_names)
            if (
                len(names) != self.n_classes
                or not all(isinstance(t, str) for t in names)
                or len(set(names)) != len(names)
            ):
                raise ValueError(f"label_names must be {self.n_classes} distinct strings")
            self.label_names = None if names == tuple(map(str, range(self.n_classes))) else names

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def generators(self) -> list[Generator]:
        """One read-only Generator view per row, in model order."""
        rows = zip(self.points, self.labels.tolist(), self.source_classes.tolist())
        return [Generator(*row) for row in rows]


@dataclass(eq=False)
class DiscriminantBank:
    """Linear forms realizing the nearest-generator rule; see the module
    docstring for the identity.

    forms is the (d+1, G) matrix whose column j is generator j's form
    [w_j; b_j]; weights and biases are views of it, not copies. labels
    holds each generator's class in model order. scaler is the model's
    (see Model): predict applies it to each query block.
    """

    forms: np.ndarray
    labels: np.ndarray
    scaler: ScalerParams | None = None

    @property
    def weights(self) -> np.ndarray:
        """The (G, d) weights w = 2 g."""
        return self.forms[:-1].T

    @property
    def biases(self) -> np.ndarray:
        """The (G,) biases b = -||g||^2."""
        return self.forms[-1]


def assemble(per_class_centers: list[np.ndarray], k: int | None = None) -> Model:
    """Concatenate per-class center matrices into a labeled model.

    Element c of the list holds class c's centers; generators keep that
    order, labeled with their source class. An empty matrix means the
    class contributes no generators. k defaults to the largest per-class
    center count.
    """
    if not per_class_centers:
        raise ValueError("per_class_centers must not be empty")
    blocks = []  # (class, centers) of the classes with centers
    for c, centers in enumerate(per_class_centers):
        arr = np.asarray(centers, dtype=np.float64)
        if arr.size == 0:
            continue
        if arr.ndim != 2:
            raise ValueError(f"class {c}: centers must be a 2-D matrix")
        if blocks and arr.shape[1] != blocks[0][1].shape[1]:
            raise ValueError(
                f"dimension mismatch: class {c} has {arr.shape[1]} features, "
                f"expected {blocks[0][1].shape[1]}"
            )
        blocks.append((c, arr))
    if not blocks:
        raise ValueError("zero total generators")
    labels = np.concatenate([np.full(arr.shape[0], c) for c, arr in blocks])
    return Model(
        points=np.concatenate([arr for _, arr in blocks]),
        labels=labels,
        source_classes=labels,
        n_classes=len(per_class_centers),
        k=max(arr.shape[0] for _, arr in blocks) if k is None else k,
    )


def to_discriminants(model: Model, dtype=np.float64) -> DiscriminantBank:
    """Precompute the linear forms for a model; the bank keeps the
    model's labels and scaler.

    dtype=np.float32 gives a faster bank for inference; predictions then
    come from 32-bit arithmetic and can differ from the 64-bit bank only
    on queries within float32 rounding of a cell boundary.
    """
    points = model.points.astype(dtype)
    forms = np.empty((model.d + 1, points.shape[0]), dtype=dtype)
    forms[:-1] = (2.0 * points).T
    forms[-1] = -(points * points).sum(axis=1)
    return DiscriminantBank(forms=forms, labels=model.labels, scaler=model.scaler)


def _check_queries(X, d: int) -> np.ndarray:
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("queries must form a 2-D matrix")
    if X.shape[1] != d:
        raise ValueError(f"dimension mismatch: queries have {X.shape[1]} features, expected {d}")
    if not np.isfinite(X).all():
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
        raise ValueError(f"non-finite feature in query row {bad}")
    return X


def _scaled(model: Model, X: np.ndarray) -> np.ndarray:
    """Raw rows X in the coordinates of model.points."""
    scaler = model.scaler
    return X if scaler is None else (X - scaler.mean) / scaler.scale


def predict(bank: DiscriminantBank, X) -> np.ndarray:
    """Classify each raw row of X: label of the argmax discriminant, ties
    to the lowest generator index.

    Rows are copied, in blocks, into a query matrix [x, 1] that one GEMM
    per block scores against bank.forms, biases included; a row-wise
    argmax follows. No distance loop. A bank with a scaler subtracts its
    mean from, and divides by its scale, each copied block in place:
    the same float64 operations as (X - mean) / scale. A call holds one
    block of scores and its (rows, d+1) query block, both reused by
    every block and each of at most _nearest.BLOCK_ENTRIES entries.
    """
    forms, scaler = bank.forms, bank.scaler
    d1, G = forms.shape
    X = _check_queries(X, d1 - 1)
    n, step = X.shape[0], block_rows(max(G, d1))
    queries = np.empty((min(n, step), d1), dtype=forms.dtype)
    queries[:, -1] = 1.0
    if n <= step:
        queries[:, :-1] = X
        if scaler is not None:
            queries[:, :-1] -= scaler.mean
            queries[:, :-1] /= scaler.scale
        return bank.labels[(queries @ forms).argmax(axis=1)]
    scores = np.empty((step, G), dtype=forms.dtype)
    best = np.empty(n, dtype=np.intp)
    for start in range(0, n, step):
        stop = min(start + step, n)
        q, s = queries[: stop - start], scores[: stop - start]
        q[:, :-1] = X[start:stop]
        if scaler is not None:
            q[:, :-1] -= scaler.mean
            q[:, :-1] /= scaler.scale
        np.matmul(q, forms, out=s)
        s.argmax(axis=1, out=best[start:stop])
    return bank.labels[best]


def predict_oracle(model: Model, X) -> np.ndarray:
    """Reference classifier: per query, explicitly minimize the squared
    distance over generators with the same tie rule. Exists to validate
    predict() through an independent code path."""
    X = _scaled(model, _check_queries(X, model.d))
    points, labels = model.points, model.labels
    out = np.empty(X.shape[0], dtype=np.int64)
    for i, x in enumerate(X):
        d2 = ((points - x) ** 2).sum(axis=1)
        out[i] = labels[int(d2.argmin())]
    return out


def correct(model: Model, train: "Dataset", max_passes: int = 100) -> Model:
    """Relabel and prune generators against the training partition.

    Each pass: (1) assign every training sample to its nearest generator
    (exact explicit-difference squared distances, ties to lowest index);
    (2) give each generator the majority label of its samples, keeping
    the current label when it ties for the majority and otherwise taking
    the lowest tied class id; (3) drop generators that received no
    samples. Stops after a pass that changes nothing, or after
    max_passes. Training accuracy never decreases: majority relabeling
    is optimal for the fixed partition, and dropping empty cells leaves
    every training sample's nearest generator in place (order, hence
    tie-breaking, is preserved). The training rows are raw rows (see
    Model.scaler); label_names and scaler carry over.
    """
    if train.X.shape[0] == 0:
        raise ValueError("training set must not be empty")
    if train.X.shape[1] != model.d:
        raise ValueError(
            f"dimension mismatch: training data has {train.X.shape[1]} features, "
            f"model has {model.d}"
        )
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    y = np.asarray(train.y)
    if y.min() < 0 or y.max() >= model.n_classes:
        raise ValueError(f"training labels must lie in [0, {model.n_classes})")

    X = _scaled(model, train.X)
    points, labels, sources = model.points, model.labels, model.source_classes
    x_norms = np.sqrt(sq_norms(X))
    passes = 0

    while passes < max_passes:
        passes += 1
        assign = nearest(X, points, x_norms)

        G, C = points.shape[0], model.n_classes
        counts = np.bincount(assign * C + y, minlength=G * C).reshape(G, C)
        # An empty cell ties every class at 0 and so keeps its label.
        tied = counts == counts.max(axis=1, keepdims=True)
        keep = tied[np.arange(G), labels]
        new_labels = np.where(keep, labels, tied.argmax(axis=1))

        occupied = counts.any(axis=1)
        changed = bool((new_labels != labels).any() or not occupied.all())
        points = points[occupied]
        labels = new_labels[occupied]
        sources = sources[occupied]
        if not changed:
            break

    # A nonempty training set keeps at least one generator occupied.
    return replace(
        model,
        points=points,
        labels=labels,
        source_classes=sources,
        correction_iterations=model.correction_iterations + passes,
    )


def fit(train: "Dataset", config: KMeansConfig, max_correction_passes: int = 100) -> Model:
    """Fit the full pipeline: per-class k-means, assembly, correction.

    Every class in [0, n_classes) must have at least one sample. Class c
    clusters with seed config.seed + c * config.n_restarts so that no
    two (class, restart) pairs share a seed; the whole fit is
    deterministic given (train, config). The model keeps
    train.label_names and has no scaler.
    """
    if train.X.shape[0] == 0:
        raise ValueError("training set must not be empty")
    per_class_centers = []
    for c in range(train.n_classes):
        Xc = train.X[train.y == c]
        if Xc.shape[0] == 0:
            raise ValueError(f"class {c} has no training samples")
        cfg = KMeansConfig(
            k=config.k,
            max_iter=config.max_iter,
            tol=config.tol,
            n_restarts=config.n_restarts,
            seed=config.seed + c * config.n_restarts,
        )
        per_class_centers.append(fit_kmeans(Xc, cfg).centers)
    model = replace(assemble(per_class_centers, k=config.k), label_names=train.label_names)
    return correct(model, train, max_passes=max_correction_passes)


def evaluate(model_or_bank, test: "Dataset") -> float:
    """Fraction of test rows (raw rows, see Model.scaler) whose predicted
    label matches the truth."""
    if test.X.shape[0] == 0:
        raise ValueError("empty test set")
    bank = (
        model_or_bank
        if isinstance(model_or_bank, DiscriminantBank)
        else to_discriminants(model_or_bank)
    )
    return float((predict(bank, test.X) == np.asarray(test.y)).mean())


_MODEL_VERSION = 2


def _b64_f8(matrix: np.ndarray) -> str:
    return base64.b64encode(matrix.astype("<f8").tobytes()).decode("ascii")


def save_model(model: Model) -> bytes:
    """Serialize a model to its version-2 JSON document (UTF-8 bytes).

    The object holds, in this order, version, d, n_classes, k,
    correction_iterations, labels and source_classes (one integer per
    generator), label_names when the model has them, scaler when the
    model has one, and points. points is the (G, d) generator matrix as
    little-endian float64 bytes in model order, base64-encoded; scaler
    is the (2, d) matrix [mean; scale] encoded the same way. The bytes
    are the floats themselves, so load_model(save_model(m)) reproduces m
    bit-exactly and identical models give identical documents. Decimal
    text would cost more than the rest of a save or load: at 520 x 617
    coordinates, writing shortest round-trip decimals took ~95 % of a
    save, and parsing them back about half of a load.
    """
    doc = {
        "version": _MODEL_VERSION,
        "d": model.d,
        "n_classes": model.n_classes,
        "k": model.k,
        "correction_iterations": model.correction_iterations,
        "labels": model.labels.tolist(),
        "source_classes": model.source_classes.tolist(),
    }
    if model.label_names is not None:
        doc["label_names"] = list(model.label_names)
    if model.scaler is not None:
        doc["scaler"] = _b64_f8(np.stack([model.scaler.mean, model.scaler.scale]))
    doc["points"] = _b64_f8(model.points)
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def _require(condition: bool, message: str):
    if not condition:
        raise MalformedModelError(f"malformed model document: {message}")


def _v1_arrays(doc: dict, d: int):
    """(points, labels, source_classes) of a version-1 document: one
    object per generator, coordinates as JSON numbers, source_class
    defaulting to the label."""
    gens = doc.get("generators")
    _require(isinstance(gens, list) and len(gens) >= 1, "generators must be a nonempty array")
    for i, g in enumerate(gens):
        _require(isinstance(g, dict), f"generator {i} must be an object")
        point = g.get("point")
        _require(
            isinstance(point, list)
            and len(point) == d
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in point),
            f"generator {i}: point must be an array of {d} numbers",
        )
    labels = [g.get("label") for g in gens]
    sources = [g.get("source_class", label) for g, label in zip(gens, labels)]
    return np.array([g["point"] for g in gens], dtype=np.float64), labels, sources


def _f8_matrix(doc: dict, key: str, rows: int, d: int) -> np.ndarray:
    """The (rows, d) matrix stored under key as base64 little-endian float64."""
    text = doc.get(key)
    _require(isinstance(text, str), f"{key} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise MalformedModelError(f"malformed model document: {key}: {exc}") from exc
    _require(
        len(raw) == 8 * rows * d,
        f"{key} must hold {rows} x {d} float64 values, not {len(raw)} bytes",
    )
    return np.frombuffer(raw, dtype="<f8").reshape(rows, d)


def load_model(data: bytes | str) -> Model:
    """Parse a model document produced by save_model, of version 2 or 1.

    Raises MalformedModelError, ModelVersionError, or
    NonFiniteModelError (distinct codes) for broken documents,
    unsupported versions, and non-finite coordinates or scaler entries
    respectively. correction_iterations is optional in either version
    and defaults to 0; label_names and scaler are optional in version 2.
    A version-1 document writes each generator as an object
    {"point": [...], "label": ..., "source_class": ...} whose
    source_class defaults to the label, and has no label_names or
    scaler.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedModelError(f"malformed model document: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedModelError(f"malformed model document: {exc}") from exc

    _require(isinstance(doc, dict), "top level must be an object")
    _require("version" in doc, "missing version")
    version = doc["version"]
    if version not in (1, _MODEL_VERSION):
        raise ModelVersionError(
            f"unsupported model version {version!r}, expected 1 or {_MODEL_VERSION}"
        )
    for key in ("d", "n_classes", "k"):
        _require(isinstance(doc.get(key), int) and doc[key] >= 1, f"{key} must be a positive integer")
    corr = doc.get("correction_iterations", 0)
    _require(isinstance(corr, int) and corr >= 0, "correction_iterations must be a nonnegative integer")

    d, n_classes = doc["d"], doc["n_classes"]
    if version == 1:
        points, labels, sources = _v1_arrays(doc, d)
    else:
        labels, sources = doc.get("labels"), doc.get("source_classes")
    # one pass over each G-long list; the points are checked as arrays
    for key, values in (("labels", labels), ("source_classes", sources)):
        _require(
            isinstance(values, list)
            and len(values) >= 1
            and all(type(v) is int and 0 <= v < n_classes for v in values),
            f"{key} must be a nonempty array of integers in [0, {n_classes})",
        )
    G = len(labels)
    _require(len(sources) == G, f"{G} labels but {len(sources)} source_classes")
    names = scaler = None
    if version == 2:
        points = _f8_matrix(doc, "points", G, d)
        names = doc.get("label_names")
        _require(names is None or isinstance(names, list), "label_names must be an array")
        if "scaler" in doc:
            scaler = _f8_matrix(doc, "scaler", 2, d)
            if not np.isfinite(scaler).all():
                raise NonFiniteModelError("non-finite value in scaler")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise NonFiniteModelError(f"non-finite value in generator {int(finite.argmin())}")

    try:
        return Model(
            points=points, labels=labels, source_classes=sources, n_classes=n_classes,
            k=doc["k"], correction_iterations=corr, label_names=names,
            scaler=None if scaler is None else ScalerParams(mean=scaler[0], scale=scaler[1]),
        )
    except ValueError as exc:
        raise MalformedModelError(f"malformed model document: {exc}") from exc
