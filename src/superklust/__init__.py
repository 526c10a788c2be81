"""Piecewise-linear classification with labeled Voronoi generator points.

Per-class k-means turns each class into a handful of cluster means;
those means become labeled generator points of a Voronoi tessellation,
one correction pass (already a fixed point) gives each its cell's
majority class and prunes empty cells, and inference is an argmax over
precomputed linear discriminants.

The benchmark harness and the dataset fetcher are not imported here;
import them by module name (superklust.bench, superklust.fetch)."""

from .clustering import KMeansConfig, KMeansResult, fit_kmeans, kmeans_pp_init, lloyd
from .datasets import (
    Dataset,
    ScalerParams,
    decision_grid,
    load_benchmark_dataset,
    load_csv,
    load_svmlight,
    make_circles,
    make_gaussian_blobs,
    make_moons,
    standardize_apply,
    standardize_fit,
    write_dataset_csv,
    write_grid_csv,
)
from .tessellation import (
    DiscriminantBank,
    Generator,
    MalformedModelError,
    Model,
    ModelFormatError,
    ModelVersionError,
    NonFiniteModelError,
    assemble,
    correct,
    evaluate,
    fit,
    load_model,
    predict,
    predict_oracle,
    save_model,
    to_discriminants,
)

__version__ = "0.1.0"
