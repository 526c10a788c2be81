"""Labeled Voronoi tessellation classifier.

A model is a (G, d) matrix of generator points (per-class cluster
means) with one label per row. Classification assigns a query to the
label of its nearest generator. Because

    ||x - g||^2 = ||x||^2 - (2 g . x - ||g||^2)

and ||x||^2 does not depend on the generator, the nearest-generator rule
equals an argmax over the linear discriminants w = 2 g, b = -||g||^2.
That makes the classifier piecewise linear and turns batch inference
into one float32 GEMM per block of rows, [x, 1] against the bank's
columns [w; b]. The bank, _nearest.DiscriminantBank (re-exported here),
is built from the generators alone; its search, _nearest.scan for
predict and correct alike, checks the rows, certifies each winner
against a rounding bound and re-scores the rest exactly, so answers
equal the explicit-difference argmin of the float64 distances. The
order of generators is part of the model: ties go to the lowest index.
"""

from __future__ import annotations

import base64
import json
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from operator import eq
from typing import TYPE_CHECKING

import numpy as np

from . import _nearest
from ._nearest import DiscriminantBank
from .clustering import KMeansConfig, _count, _within_fit_budget, fit_kmeans

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


class _IdNames(Sequence):
    """The default label names of n classes, "0", "1", ..., each made when
    it is read, so that a class count costs no memory. Equal to the tuple
    of the same names."""

    def __init__(self, n: int):
        self._ids = range(n)

    def __len__(self):
        return len(self._ids)

    def __getitem__(self, i):
        ids = self._ids[i]
        return tuple(map(str, ids)) if isinstance(i, slice) else str(ids)

    def __contains__(self, token):
        try:
            return str(int(token)) == token and int(token) in self._ids
        except (TypeError, ValueError):
            return False

    def __eq__(self, other):
        if isinstance(other, _IdNames):
            return self._ids == other._ids
        return isinstance(other, tuple) and len(other) == len(self) and all(map(eq, other, self))

    def __repr__(self):
        return f"_IdNames({len(self)})"


def _names(label_names, n_classes: int) -> Sequence[str]:
    """label_names as a tuple of n_classes distinct strings; None gives the _IdNames."""
    names = _IdNames(n_classes) if label_names is None else label_names
    if isinstance(names, _IdNames):
        ok = len(names) == n_classes
    else:
        names = tuple(names)
        ok = all(isinstance(t, str) for t in names) and len(set(names)) == len(names) == n_classes
    if not ok:
        raise ValueError(f"label_names must be {n_classes} distinct strings")
    return names


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

    def apply(self, X, out: np.ndarray | None = None) -> np.ndarray:
        """(X - mean) / scale for raw rows X, as float64, into out when it
        is given. A finite entry that overflows becomes inf, quietly."""
        with np.errstate(over="ignore"):
            out = np.subtract(X, self.mean, out=out)
            out /= self.scale
        return out


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
    n_classes and k are integers >= 1, correction_iterations (see
    correct) one >= 0; numpy integers are stored as int, bools refused.

    label_names holds the n_classes distinct label tokens of the data
    the model was fitted on, the token of each class id at its position,
    as a tuple; None stores the ids themselves as names, "0", "1", ...,
    made as they are read and equal to their tuple.

    scaler, when present, maps raw feature rows to the coordinates of
    points: predict (through the bank), evaluate and correct take raw
    rows and apply (x - mean) / scale themselves.
    """

    points: np.ndarray
    labels: np.ndarray
    source_classes: np.ndarray
    n_classes: int
    k: int
    correction_iterations: int = 0
    label_names: Sequence[str] | None = None
    scaler: ScalerParams | None = None

    def __post_init__(self):
        for name, least in (("n_classes", 1), ("k", 1), ("correction_iterations", 0)):
            setattr(self, name, _count(name, getattr(self, name), least))
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
        self.label_names = _names(self.label_names, self.n_classes)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def generators(self) -> list[Generator]:
        """One read-only Generator view per row, in model order."""
        rows = zip(self.points, self.labels.tolist(), self.source_classes.tolist())
        return [Generator(*row) for row in rows]


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


def to_discriminants(model: Model) -> DiscriminantBank:
    """The model's bank: its points, labels and scaler, not copies."""
    return DiscriminantBank(model.points, model.labels, model.scaler)


def predict(bank: DiscriminantBank, X) -> np.ndarray:
    """Classify each raw row of X: label of the nearest generator by
    explicit float64 squared distance, ties to the lowest generator
    index; equal to the argmax discriminant in exact arithmetic.

    _nearest.scan searches and checks the rows: X must be a 2-D matrix
    of real numbers as wide as the model; ValueError names the first row
    that is not finite, or overflows when scaled.
    """
    return bank.labels[_nearest.scan(X, bank)]


def _check_labels(model: Model, data: "Dataset", what: str) -> None:
    """Refuse data with a class id c of data.y past the model's classes,
    or whose token data.label_names[c] is not model.label_names[c]."""
    y = data.y  # a count per class would cost more than the rows when classes outnumber them
    present = np.flatnonzero(np.bincount(y)) if data.n_classes <= y.size else np.unique(y)
    for c in present.tolist():
        name, n = data.label_names[c], model.n_classes
        if c >= n:
            raise ValueError(f"{what} labels must lie in [0, {n}): label {name!r} is class {c}")
        if name != model.label_names[c]:
            raise ValueError(f"{what} labels must be the model's: label {name!r} is class {c}, "
                             f"which the model names {model.label_names[c]!r}")


def correct(model: Model, train: "Dataset") -> Model:
    """Relabel and prune generators against the training partition, in
    one pass: (1) assign every training sample to its nearest generator
    by predict's scan of the model's bank (exact, ties to lowest index);
    (2) give each generator the majority label of its samples, keeping
    the current label when it ties for the majority and otherwise taking
    the lowest tied class id (_nearest.majority, which counts only the
    (generator, class) pairs that occur, so no table of generators x
    n_classes is made); (3) drop generators that received no
    samples. Training accuracy never decreases: majority relabeling is
    optimal for the fixed partition, and the prune keeps every sample's
    nearest generator.

    One pass reaches a fixed point. Every sample's nearest generator
    survives the prune, since its cell holds the sample; the prune keeps
    generator order and the search is exact with ties to the lowest
    index, so a second pass would see the same partition and counts,
    keep every majority label and find no empty cell. So
    correction_iterations grows by the passes the rule takes to reach a
    pass that changes nothing: 1 if nothing is relabeled or dropped,
    else 2. Training rows are raw (see Model.scaler); the scan checks
    them as it does predict's, naming them training rows, so rows of
    another width, or one that overflows when scaled, raise, as do
    labels that are not the model's (see evaluate). label_names and
    scaler carry over.
    """
    if train.X.shape[0] == 0:
        raise ValueError("training set must not be empty")
    _check_labels(model, train, "training")
    y = np.asarray(train.y)
    labels = model.labels
    assign = _nearest.scan(train.X, to_discriminants(model), what="training")
    held, majority = _nearest.majority(assign, y, prefer=labels)
    new_labels, occupied = labels.copy(), np.zeros(labels.shape[0], dtype=bool)
    new_labels[held], occupied[held] = majority, True
    changed = bool((new_labels != labels).any() or not occupied.all())
    # A nonempty training set keeps at least one generator occupied.
    return replace(
        model,
        points=model.points[occupied],
        labels=new_labels[occupied],
        source_classes=model.source_classes[occupied],
        correction_iterations=model.correction_iterations + 1 + changed,
    )


def fit(train: "Dataset", config: KMeansConfig) -> Model:
    """Fit the full pipeline: per-class k-means, assembly, and the one
    correction pass (see correct).

    Every class in [0, n_classes) must have a sample, and the largest
    must fit the MAX_VALUES budget, before any class clusters. Class c
    clusters with config's fields and seed config.seed + c *
    config.n_restarts, so that no two (class, restart) pairs share a
    seed; the whole fit is deterministic given (train, config). The
    model keeps train.label_names and has no scaler.
    """
    if train.X.shape[0] == 0:
        raise ValueError("training set must not be empty")
    # n rows fill at most n classes, so ids past n can share one count: the first zero is
    # then still the first class without samples, and the counts cost no more than the rows
    n, y = train.n, train.y
    sizes = np.bincount(y if train.n_classes <= n else np.minimum(y, n),
                        minlength=min(train.n_classes, n + 1))
    if not sizes.all():
        raise ValueError(f"class {int(sizes.argmin())} has no training samples")
    m = int(sizes.max())
    _within_fit_budget(config.n_restarts, min(config.k, m), m)
    per_class_centers = []
    for c in range(train.n_classes):
        Xc = train.X[train.y == c]
        cfg = replace(config, seed=config.seed + c * config.n_restarts)
        per_class_centers.append(fit_kmeans(Xc, cfg).centers)
    model = replace(assemble(per_class_centers, k=config.k), label_names=train.label_names)
    return correct(model, train)


def evaluate(model: Model, test: "Dataset") -> float:
    """Fraction of test rows (raw rows, see Model.scaler) whose predicted
    label matches the truth. Labels that are not the model's raise
    ValueError: load test files with label_names=model.label_names."""
    if test.X.shape[0] == 0:
        raise ValueError("empty test set")
    _check_labels(model, test, "test")
    return float((predict(to_discriminants(model), test.X) == np.asarray(test.y)).mean())


_MODEL_VERSION = 2


def _b64_f8(matrix: np.ndarray) -> str:
    return base64.b64encode(matrix.astype("<f8").tobytes()).decode("ascii")


def save_model(model: Model) -> bytes:
    """Serialize a model to its version-2 JSON document (UTF-8 bytes).

    The object holds, in this order, version, d, n_classes, k,
    correction_iterations, labels and source_classes (one integer per
    generator), label_names when they differ from the ids "0", "1", ...,
    scaler when the model has one, and points. points is the (G, d)
    generator matrix as little-endian float64 bytes in model order,
    base64-encoded; scaler is the (2, d) matrix [mean; scale] encoded
    the same way. The bytes
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
    if model.label_names != _IdNames(model.n_classes):
        doc["label_names"] = list(model.label_names)
    if model.scaler is not None:
        doc["scaler"] = _b64_f8(np.stack([model.scaler.mean, model.scaler.scale]))
    doc["points"] = _b64_f8(model.points)
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def _require(condition: bool, message: str):
    if not condition:
        raise MalformedModelError(f"malformed model document: {message}")


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
    """Parse a model document produced by save_model.

    Raises MalformedModelError, ModelVersionError, or
    NonFiniteModelError (distinct codes) for broken documents,
    unsupported versions (version 1 included: its models must be
    refitted), and non-finite coordinates or scaler entries
    respectively; Model checks what decoding does not.
    correction_iterations, label_names and scaler are optional:
    correction_iterations defaults to 0 and label_names to the ids.
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
    if type(version) is not int or version != _MODEL_VERSION:  # the JSON float 2.0 is no version
        raise ModelVersionError(
            f"unsupported model version {version!r}, expected {_MODEL_VERSION}; "
            "refit the model with this version of superklust"
        )
    d = doc.get("d")
    _require(type(d) is int and d >= 1, "d must be a positive integer")
    labels, sources = doc.get("labels"), doc.get("source_classes")
    # one pass over each G-long list: JSON true and 1.0 are not class ids
    for key, values in (("labels", labels), ("source_classes", sources)):
        _require(
            isinstance(values, list) and all(type(v) is int for v in values),
            f"{key} must be an array of integers",
        )
    # with G >= 1 the byte-length check bounds d before any reshape
    _require(labels, f"points must be a nonempty (G, d) matrix, not shape (0, {d})")
    points = _f8_matrix(doc, "points", len(labels), d)
    names = doc.get("label_names")
    _require(names is None or isinstance(names, list), "label_names must be an array")
    scaler = None
    if "scaler" in doc:
        scaler = _f8_matrix(doc, "scaler", 2, d)
        if not np.isfinite(scaler).all():
            raise NonFiniteModelError("non-finite value in scaler")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise NonFiniteModelError(f"non-finite value in generator {int(finite.argmin())}")

    try:
        return Model(
            points=points, labels=labels, source_classes=sources,
            n_classes=doc.get("n_classes"), k=doc.get("k"),
            correction_iterations=doc.get("correction_iterations", 0), label_names=names,
            scaler=None if scaler is None else ScalerParams(mean=scaler[0], scale=scaler[1]),
        )
    except ValueError as exc:
        raise MalformedModelError(f"malformed model document: {exc}") from exc
