"""Labeled Voronoi tessellation classifier.

A model is an ordered list of labeled generator points (per-class
cluster means). Classification assigns a query to the label of its
nearest generator. Because

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
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ._nearest import block_rows, nearest, sq_norms
from .clustering import KMeansConfig, fit_kmeans

if TYPE_CHECKING:
    from .datasets import Dataset

__all__ = [
    "Generator",
    "Model",
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


@dataclass(eq=False)
class Generator:
    """One Voronoi site: a point, its class label, and the class it was
    clustered from (labels can change during correction, source_class
    does not)."""

    point: np.ndarray
    label: int
    source_class: int

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=np.float64)
        if self.point.ndim != 1:
            raise ValueError("generator point must be a 1-D vector")
        if not np.isfinite(self.point).all():
            raise ValueError("non-finite feature in generator point")

    def __eq__(self, other):
        if not isinstance(other, Generator):
            return NotImplemented
        return (
            self.label == other.label
            and self.source_class == other.source_class
            and np.array_equal(self.point, other.point)
        )


@dataclass(eq=False)
class Model:
    """Ordered labeled generators plus the fit-time configuration facts
    needed to interpret them (dimension, class count, shared k).

    label_names, when present, holds the label token of each class id
    (position = id) in the data the model was fitted on; None means the
    ids are the names, and names that are exactly "0", "1", ... are
    stored as None.
    """

    generators: list[Generator]
    n_classes: int
    d: int
    k: int
    correction_iterations: int = 0
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.generators:
            raise ValueError("model must contain at least one generator")
        if len(self.generators) > self.k * self.n_classes:
            raise ValueError(
                f"{len(self.generators)} generators exceed the budget "
                f"k * n_classes = {self.k * self.n_classes}"
            )
        for g in self.generators:
            if g.point.shape[0] != self.d:
                raise ValueError("generator dimension does not match model d")
            if not 0 <= g.label < self.n_classes:
                raise ValueError(f"generator label {g.label} outside [0, {self.n_classes})")
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
    def points(self) -> np.ndarray:
        """Generator coordinates as a (G, d) matrix in model order."""
        return np.stack([g.point for g in self.generators])

    @property
    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.generators], dtype=np.int64)

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self.n_classes == other.n_classes
            and self.d == other.d
            and self.k == other.k
            and self.correction_iterations == other.correction_iterations
            and self.label_names == other.label_names
            and self.generators == other.generators
        )


@dataclass(eq=False)
class DiscriminantBank:
    """Linear forms realizing the nearest-generator rule; see the module
    docstring for the identity.

    forms is the (d+1, G) matrix whose column j is generator j's form
    [w_j; b_j]; weights and biases are views of it, not copies. labels
    holds each generator's class in model order.
    """

    forms: np.ndarray
    labels: np.ndarray

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
    mats = []
    d = None
    for c, centers in enumerate(per_class_centers):
        arr = np.asarray(centers, dtype=np.float64)
        if arr.size == 0:
            mats.append(None)
            continue
        if arr.ndim != 2:
            raise ValueError(f"class {c}: centers must be a 2-D matrix")
        if d is None:
            d = arr.shape[1]
        elif arr.shape[1] != d:
            raise ValueError(
                f"dimension mismatch: class {c} has {arr.shape[1]} features, expected {d}"
            )
        mats.append(arr)

    generators = [
        Generator(point=row.copy(), label=c, source_class=c)
        for c, arr in enumerate(mats)
        if arr is not None
        for row in arr
    ]
    if not generators:
        raise ValueError("zero total generators")
    if k is None:
        k = max(arr.shape[0] for arr in mats if arr is not None)
    return Model(
        generators=generators,
        n_classes=len(per_class_centers),
        d=d,
        k=k,
        correction_iterations=0,
    )


def to_discriminants(model: Model, dtype=np.float64) -> DiscriminantBank:
    """Precompute the linear forms for a model.

    dtype=np.float32 gives a faster bank for inference; predictions then
    come from 32-bit arithmetic and can differ from the 64-bit bank only
    on queries within float32 rounding of a cell boundary.
    """
    points = model.points.astype(dtype)
    forms = np.empty((model.d + 1, points.shape[0]), dtype=dtype)
    forms[:-1] = (2.0 * points).T
    forms[-1] = -(points * points).sum(axis=1)
    return DiscriminantBank(forms=forms, labels=model.labels)


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


def predict(bank: DiscriminantBank, X) -> np.ndarray:
    """Classify each row of X: label of the argmax discriminant, ties to
    the lowest generator index.

    Rows are copied, in blocks, into a query matrix [x, 1] that one GEMM
    per block scores against bank.forms, biases included; a row-wise
    argmax follows. No distance loop. A call holds one block of scores
    and its (rows, d+1) query block, both reused by every block and each
    of at most _nearest.BLOCK_ENTRIES entries.
    """
    forms = bank.forms
    d1, G = forms.shape
    X = _check_queries(X, d1 - 1)
    n, step = X.shape[0], block_rows(max(G, d1))
    queries = np.empty((min(n, step), d1), dtype=forms.dtype)
    queries[:, -1] = 1.0
    if n <= step:
        queries[:, :-1] = X
        return bank.labels[(queries @ forms).argmax(axis=1)]
    scores = np.empty((step, G), dtype=forms.dtype)
    best = np.empty(n, dtype=np.intp)
    for start in range(0, n, step):
        stop = min(start + step, n)
        q, s = queries[: stop - start], scores[: stop - start]
        q[:, :-1] = X[start:stop]
        np.matmul(q, forms, out=s)
        s.argmax(axis=1, out=best[start:stop])
    return bank.labels[best]


def predict_oracle(model: Model, X) -> np.ndarray:
    """Reference classifier: per query, explicitly minimize the squared
    distance over generators with the same tie rule. Exists to validate
    predict() through an independent code path."""
    X = _check_queries(X, model.d)
    points = model.points
    labels = model.labels
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
    tie-breaking, is preserved).
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

    points = model.points
    labels = model.labels
    sources = np.array([g.source_class for g in model.generators], dtype=np.int64)
    x_norms = np.sqrt(sq_norms(train.X))
    passes = 0

    while passes < max_passes:
        passes += 1
        assign = nearest(train.X, points, x_norms)

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
    if points.shape[0] == 0:
        raise ValueError("degenerate correction: all generators removed")

    generators = [
        Generator(point=points[i].copy(), label=int(labels[i]), source_class=int(sources[i]))
        for i in range(points.shape[0])
    ]
    return Model(
        generators=generators,
        n_classes=model.n_classes,
        d=model.d,
        k=model.k,
        correction_iterations=model.correction_iterations + passes,
        label_names=model.label_names,
    )


def fit(train: "Dataset", config: KMeansConfig, max_correction_passes: int = 100) -> Model:
    """Fit the full pipeline: per-class k-means, assembly, correction.

    Every class in [0, n_classes) must have at least one sample. Class c
    clusters with seed config.seed + c * config.n_restarts so that no
    two (class, restart) pairs share a seed; the whole fit is
    deterministic given (train, config). The model keeps
    train.label_names.
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
    """Fraction of test rows whose predicted label matches the truth."""
    if test.X.shape[0] == 0:
        raise ValueError("empty test set")
    bank = (
        model_or_bank
        if isinstance(model_or_bank, DiscriminantBank)
        else to_discriminants(model_or_bank)
    )
    return float((predict(bank, test.X) == np.asarray(test.y)).mean())


_MODEL_VERSION = 2


def save_model(model: Model) -> bytes:
    """Serialize a model to its version-2 JSON document (UTF-8 bytes).

    The object holds, in this order, version, d, n_classes, k,
    correction_iterations, labels and source_classes (one integer per
    generator), label_names when the model has them, and points: the
    (G, d) generator matrix as little-endian float64 bytes in model
    order, base64-encoded. The bytes are the floats themselves, so
    load_model(save_model(m)) reproduces m bit-exactly and identical
    models give identical documents. Decimal text would cost more than
    the rest of a save or load: at 520 x 617 coordinates, writing
    shortest round-trip decimals took ~95 % of a save, and parsing them
    back about half of a load.
    """
    doc = {
        "version": _MODEL_VERSION,
        "d": model.d,
        "n_classes": model.n_classes,
        "k": model.k,
        "correction_iterations": model.correction_iterations,
        "labels": [int(g.label) for g in model.generators],
        "source_classes": [int(g.source_class) for g in model.generators],
    }
    if model.label_names is not None:
        doc["label_names"] = list(model.label_names)
    doc["points"] = base64.b64encode(model.points.astype("<f8").tobytes()).decode("ascii")
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def _require(condition: bool, message: str):
    if not condition:
        raise MalformedModelError(f"malformed model document: {message}")


def _v1_generators(doc: dict, d: int, n_classes: int) -> list[Generator]:
    """Generators of a version-1 document: one object per generator,
    coordinates as JSON numbers, source_class optional."""
    gens = doc.get("generators")
    _require(isinstance(gens, list) and len(gens) >= 1, "generators must be a nonempty array")
    generators = []
    for i, g in enumerate(gens):
        _require(isinstance(g, dict), f"generator {i} must be an object")
        point = g.get("point")
        _require(
            isinstance(point, list)
            and len(point) == d
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in point),
            f"generator {i}: point must be an array of {d} numbers",
        )
        if not all(math.isfinite(v) for v in point):
            raise NonFiniteModelError(f"non-finite value in generator {i}")
        label = g.get("label")
        _require(
            isinstance(label, int) and 0 <= label < n_classes,
            f"generator {i}: label must be an integer in [0, {n_classes})",
        )
        source = g.get("source_class", label)
        _require(
            isinstance(source, int) and 0 <= source < n_classes,
            f"generator {i}: source_class must be an integer in [0, {n_classes})",
        )
        generators.append(
            Generator(point=np.array(point, dtype=np.float64), label=label, source_class=source)
        )
    return generators


def _v2_generators(doc: dict, d: int, n_classes: int) -> list[Generator]:
    """Generators of a version-2 document (see save_model), checked with
    one pass over each G-long list and array operations on the points."""
    labels, sources = doc.get("labels"), doc.get("source_classes")
    for key, values in (("labels", labels), ("source_classes", sources)):
        _require(
            isinstance(values, list)
            and len(values) >= 1
            and all(type(v) is int and 0 <= v < n_classes for v in values),
            f"{key} must be a nonempty array of integers in [0, {n_classes})",
        )
    G = len(labels)
    _require(len(sources) == G, f"{G} labels but {len(sources)} source_classes")
    text = doc.get("points")
    _require(isinstance(text, str), "points must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise MalformedModelError(f"malformed model document: points: {exc}") from exc
    _require(
        len(raw) == 8 * G * d, f"points must hold {G} x {d} float64 values, not {len(raw)} bytes"
    )
    points = np.frombuffer(raw, dtype="<f8").reshape(G, d).astype(np.float64)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise NonFiniteModelError(f"non-finite value in generator {int(finite.argmin())}")
    return [
        Generator(point=p, label=label, source_class=source)
        for p, label, source in zip(points, labels, sources)
    ]


def load_model(data: bytes | str) -> Model:
    """Parse a model document produced by save_model, of version 2 or 1.

    Raises MalformedModelError, ModelVersionError, or
    NonFiniteModelError (distinct codes) for broken documents,
    unsupported versions, and non-finite coordinates respectively.
    correction_iterations is optional in either version and defaults
    to 0; a version-1 document writes each generator as an object
    {"point": [...], "label": ..., "source_class": ...} whose
    source_class defaults to the label, and has no label_names.
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
        generators, names = _v1_generators(doc, d, n_classes), None
    else:
        generators, names = _v2_generators(doc, d, n_classes), doc.get("label_names")
        _require(names is None or isinstance(names, list), "label_names must be an array")

    try:
        return Model(
            generators=generators,
            n_classes=n_classes,
            d=d,
            k=doc["k"],
            correction_iterations=corr,
            label_names=names,
        )
    except ValueError as exc:
        raise MalformedModelError(f"malformed model document: {exc}") from exc
