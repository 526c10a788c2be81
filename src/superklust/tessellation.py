"""Labeled Voronoi tessellation classifier.

A model is an ordered list of labeled generator points (per-class
cluster means). Classification assigns a query to the label of its
nearest generator. Because

    ||x - g||^2 = ||x||^2 - (2 g . x - ||g||^2)

and ||x||^2 does not depend on the generator, the nearest-generator rule
equals an argmax over the linear discriminants w = 2 g, b = -||g||^2.
That makes the classifier piecewise linear and turns batch inference
into a single matrix product. The order of generators is part of the
model: all ties break to the lowest index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    needed to interpret them (dimension, class count, shared k)."""

    generators: list[Generator]
    n_classes: int
    d: int
    k: int
    correction_iterations: int = 0

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
            and self.generators == other.generators
        )


@dataclass(eq=False)
class DiscriminantBank:
    """Linear forms (weights, biases, labels) realizing the
    nearest-generator rule; see the module docstring for the identity."""

    weights: np.ndarray
    biases: np.ndarray
    labels: np.ndarray


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
    return DiscriminantBank(
        weights=2.0 * points,
        biases=-(points * points).sum(axis=1),
        labels=model.labels,
    )


def _check_queries(X, d: int) -> np.ndarray:
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("queries must form a 2-D matrix")
    if X.shape[1] != d:
        raise ValueError(f"dimension mismatch: queries have {X.shape[1]} features, expected {d}")
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite feature in query row {int(np.flatnonzero(bad)[0])}")
    return X


def predict(bank: DiscriminantBank, X) -> np.ndarray:
    """Classify each row of X: label of the argmax discriminant, ties to
    the lowest generator index. One matrix product per block of rows, no
    distance loop; blocks bound the memory of the scores."""
    X = _check_queries(X, bank.weights.shape[1]).astype(bank.weights.dtype, copy=False)
    n, step = X.shape[0], block_rows(bank.weights.shape[0])
    if n <= step:
        scores = X @ bank.weights.T
        scores += bank.biases
        return bank.labels[scores.argmax(axis=1)]
    best = np.empty(n, dtype=np.intp)
    for start in range(0, n, step):
        scores = X[start : start + step] @ bank.weights.T
        scores += bank.biases
        scores.argmax(axis=1, out=best[start : start + step])
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
    )


def fit(train: "Dataset", config: KMeansConfig, max_correction_passes: int = 100) -> Model:
    """Fit the full pipeline: per-class k-means, assembly, correction.

    Every class in [0, n_classes) must have at least one sample. Class c
    clusters with seed config.seed + c * config.n_restarts so that no
    two (class, restart) pairs share a seed; the whole fit is
    deterministic given (train, config).
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
    model = assemble(per_class_centers, k=config.k)
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


_MODEL_VERSION = 1


def save_model(model: Model) -> bytes:
    """Serialize a model to its JSON document (UTF-8 bytes).

    Floats use Python's shortest round-trip decimal form, so
    load_model(save_model(m)) reproduces m bit-exactly.
    """
    doc = {
        "version": _MODEL_VERSION,
        "d": model.d,
        "n_classes": model.n_classes,
        "k": model.k,
        "correction_iterations": model.correction_iterations,
        "generators": [
            {
                "point": [float(v) for v in g.point],
                "label": int(g.label),
                "source_class": int(g.source_class),
            }
            for g in model.generators
        ],
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def _require(condition: bool, message: str):
    if not condition:
        raise MalformedModelError(f"malformed model document: {message}")


def load_model(data: bytes | str) -> Model:
    """Parse a model document produced by save_model.

    Raises MalformedModelError, ModelVersionError, or
    NonFiniteModelError (distinct codes) for broken documents,
    unsupported versions, and non-finite coordinates respectively.
    source_class and correction_iterations are optional in the document;
    absent values default to the generator's label and 0.
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
    if doc["version"] != _MODEL_VERSION:
        raise ModelVersionError(
            f"unsupported model version {doc['version']!r}, expected {_MODEL_VERSION}"
        )
    for key in ("d", "n_classes", "k"):
        _require(isinstance(doc.get(key), int) and doc[key] >= 1, f"{key} must be a positive integer")
    corr = doc.get("correction_iterations", 0)
    _require(isinstance(corr, int) and corr >= 0, "correction_iterations must be a nonnegative integer")
    gens = doc.get("generators")
    _require(isinstance(gens, list) and len(gens) >= 1, "generators must be a nonempty array")

    d, n_classes = doc["d"], doc["n_classes"]
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

    try:
        return Model(
            generators=generators,
            n_classes=n_classes,
            d=d,
            k=doc["k"],
            correction_iterations=corr,
        )
    except ValueError as exc:
        raise MalformedModelError(f"malformed model document: {exc}") from exc
