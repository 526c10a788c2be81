"""Exact nearest-site search by one matrix product.

By the identity ||x - p||^2 = ||x||^2 - (2 p . x - ||p||^2), the sites
nearest to x are those with the largest discriminant 2 p . x - ||p||^2
(the linear forms of the paper), so a block of queries is scored
against all sites by one GEMM, higher meaning nearer. Rounding can
reorder sites whose scores are close; every answer is therefore checked
against a rigorous bound (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 3) and re-scored with explicit differences
((p - x)**2).sum() where the screen cannot decide. The results equal
those of the explicit-difference computation, ties going to the lowest
site index. Negating a score and doubling p are exact, so the bound
below holds for the discriminants as for ||p||^2 - 2 p . x.

Lloyd's assignment and the k-means++ weights screen in float64. predict,
correct and the KNN baseline share one float32 search: scan, the one
entry for query rows, which checks them, searches a DiscriminantBank
built from its sites alone and takes a path of its own for one row;
correct and the KNN baseline vote over its answers with majority.

Why the bound holds. Write u for the unit roundoff of a format (2^-53
in float64, 2^-24 in float32), gamma_n = n u / (1 - n u), r = ||x|| +
||p||, and tau for the smallest normal number of the screen's format.

- A float64 screen scores x and 2 p as they are. Each screen value is
  within gamma_{d+1} r^2 + 4d tau of 2 p . x - ||p||^2, for any order
  of summation the BLAS takes: each of the at most 4d - 1 products and
  sums of 2 p . x, of ||p||^2 and of their difference that underflows
  adds at most tau.
- A float32 screen (scan) first casts x, 2 p and -||p||^2 to float32;
  the last is computed in float64, with relative error gamma_d below
  the float32 u for d < 2^29. A cast errs by at most u |v| + tau; tau
  covers gradual underflow, and also a BLAS that flushes subnormal
  numbers to zero. Each of the d + 1 terms of the
  inner product so carries two more roundings, gamma_{d+3} in all, and
  the bias one more u. The tau parts of the casts enter multiplied by
  the other factor, 2 tau sqrt(d) r at most, and by AM-GM
  2 tau sqrt(d) r <= u r^2 + d tau^2 / u: one more u r^2 and an
  absolute term far below tau. Each operation of the GEMM that
  underflows adds at most tau. A float32 screen value is thus within
  gamma_{d+5} r^2 + (2d + 3) tau of the exact one.
- The reference, the explicit float64 distance ((p - x)**2).sum(), is
  within gamma_{d+2} r^2 (plus 3d float64 tau) of the exact distance.
- When two screen values differ by more than twice the sum of the
  screen's and the reference's errors, the exact distances differ by
  more than twice the reference's error. The explicit distances then
  order the two sites the same way, without a tie.

rounding_bound is 2 (gamma_screen + gamma_{d+2}) r^2 + 64 (d + 2) tau,
with gamma_screen = gamma_{d+2} in float64 and gamma_{d+5} in float32.
Its gammas take machine epsilon (2u) for u, which leaves room for the
rounding of the norms, of the bound and of the gap; the absolute term
covers twice the tau terms above, and leaves room for the underflow of
the norms. Beyond the safe reach an intermediate value of the screen,
or a gap between two, could overflow, so the bound is inf there and
such rows always take the exact path. The reach is 2^511 in float64,
where r^2 stays below a quarter of the largest double. It is 2^63 in
float32: there |2 p . x| + ||p||^2 <= r^2 <= 2^126, so no partial sum
and no gap reaches the largest float32, about 2^128. A norm that is inf
or nan gets inf too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .tessellation import ScalerParams

# Entries of one block of scores, 8 MB in float64. It bounds the memory
# of every search and keeps batches of a few thousand rows to one BLAS
# call: on a busy host, each call of a multi-threaded BLAS can wait a
# scheduler time slice for its worker threads.
BLOCK_ENTRIES = 1 << 20
# The reach r = ||x|| + ||p|| up to which a screen cannot overflow, in
# float64 and in float32; see the module docstring.
SAFE_REACH = 2.0**511
SAFE_REACH_32 = 2.0**63
# Per screen dtype: machine epsilon, smallest normal number, safe reach.
_FORMATS = {
    t: (float(np.finfo(t).eps), float(np.finfo(t).smallest_normal), reach)
    for t, reach in ((np.float64, SAFE_REACH), (np.float32, SAFE_REACH_32))
}
_EPS64 = _FORMATS[np.float64][0]


def block_rows(width: int) -> int:
    """Rows of a block of scores that is width entries wide."""
    return max(1, BLOCK_ENTRIES // max(1, width))


def sq_norms(A: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", A, A)


def _gamma(n: int, eps: float) -> float:
    return n * eps / (1.0 - n * eps)


def rounding_bound(x_norms, p_max, d: int, screen=np.float64) -> np.ndarray:
    """Per query norm (an array of them, or one float), the gap between
    two screen values computed in the screen dtype (np.float64 or
    np.float32) above which their order is the order of the sites'
    explicit float64 distances; inf where the screen can overflow or a
    norm is not finite. p_max, the largest site norm, may be a column
    of them, for one row of bounds each."""
    eps, tiny, safe_reach = _FORMATS[screen]
    explicit = _gamma(d + 2, _EPS64)
    screened = explicit if screen is np.float64 else _gamma(d + 5, eps)
    reach = x_norms + p_max
    bound = 2.0 * (screened + explicit) * reach * reach + 64.0 * (d + 2) * tiny
    if isinstance(reach, float):
        return bound if reach <= safe_reach else np.inf
    bound[~(reach <= safe_reach)] = np.inf
    return bound


def exact_sq_dists(x: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Explicit-difference squared distances from one query x to each
    row of P, or from each row of x to the paired row of P: the
    reference the screen is certified against."""
    return np.square(P - x).sum(axis=1)


def select(scores: np.ndarray, bound: np.ndarray, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Exact nearest row of P per row of X, from their (queries, sites)
    scores 2 p . x - ||p||^2 (float64 or float32, any layout; left as
    they were) and a rounding bound per query. A query whose top score
    leads its runner-up by more than the bound is certified; each other
    goes to nearest_among with the sites within the bound of its top.
    Scores that overflowed to inf can make it warn: Lloyd calls it under
    np.errstate, and the float32 screen zeroes rows beyond its reach."""
    rows = np.arange(scores.shape[0])
    best = scores.argmax(axis=1)
    top = scores[rows, best]
    scores[rows, best] = -np.inf
    gap = top - scores.max(axis=1)
    scores[rows, best] = top
    fail = np.flatnonzero(~(gap > bound))
    if fail.size:
        cand = ~(scores[fail] < (top[fail] - bound[fail])[:, None])  # all, where bound is inf
        best[fail] = nearest_among(X[fail], P, cand)[:, 0]
    return best


def nearest_among(X: np.ndarray, P: np.ndarray, cand: np.ndarray, k: int = 1) -> np.ndarray:
    """Per row of X, its k nearest rows of P by (exact_sq_dists, index)
    among those its row of the boolean (queries, sites) cand marks."""
    with np.errstate(over="ignore"):  # explicit distances may overflow to inf
        rows, sites = np.nonzero(cand)
        d2 = np.empty(rows.size)
        step = block_rows(P.shape[1])
        for start in range(0, rows.size, step):
            part = slice(start, start + step)
            d2[part] = exact_sq_dists(X[rows[part]], P[sites[part]])
    first = np.searchsorted(rows, np.arange(X.shape[0]))
    # by row, then distance; the stable sort keeps tied sites in index order
    return sites[np.lexsort((d2, rows))[first[:, None] + np.arange(k)]]


def linear_forms(points: np.ndarray) -> np.ndarray:
    """The (d+1, G) float32 matrix whose column j is the linear form
    [2 p_j; -||p_j||^2] of row j of points, rounded from float64; a form
    beyond the float32 range saturates at its largest finite value."""
    forms = np.empty((points.shape[1] + 1, points.shape[0]), dtype=np.float32)
    with np.errstate(over="ignore"):  # saturated below
        forms[:-1] = (2.0 * points).T
        forms[-1] = -sq_norms(points)
    np.nan_to_num(forms, copy=False)
    return forms


def check_finite(x: np.ndarray, raw: np.ndarray, start: int, what: str = "query") -> None:
    """Raise ValueError naming the first of the float64 rows x (rows
    start, start + 1, ... of the raw input raw, scaled) that is not
    finite, if any, as a what row."""
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        i = start + int(finite.argmin())
        if np.isfinite(raw[i]).all():
            raise ValueError(f"{what} row {i} overflows float64 when scaled")
        raise ValueError(f"non-finite feature in {what} row {i}")


@dataclass(eq=False)
class DiscriminantBank:
    """The sites of a search: points, the (G, d) float64 matrix itself,
    which the exact re-scoring reads, a label per site, and an optional
    scaler (a tessellation.ScalerParams) from raw rows to the sites'
    coordinates. forms, their (d+1, G) linear_forms, and p_max, their
    largest norm, derive from points; weights is a view of forms."""

    points: np.ndarray
    labels: np.ndarray
    scaler: ScalerParams | None = None
    forms: np.ndarray = field(init=False)
    p_max: float = field(init=False)

    def __post_init__(self):
        self.forms = linear_forms(self.points)
        self.p_max = float(np.sqrt(sq_norms(self.points).max()))

    @property
    def weights(self) -> np.ndarray:
        """The (G, d) weights w = 2 p."""
        return self.forms[:-1].T


def as_real(X, what: str) -> np.ndarray:
    """X as an array; ValueError unless it holds bools, integers or floats."""
    X = np.asarray(X)
    if X.dtype.kind not in "biuf":
        raise ValueError(f"{what} must hold real numbers, not {X.dtype}")
    return X


def scan(X, bank: DiscriminantBank, k: int | None = None, what: str = "query") -> np.ndarray:
    """Per raw row of X, a 2-D matrix of real numbers as wide as the sites
    (mapped by the bank's scaler), the index of its nearest site of bank
    by (exact_sq_dists, index), or with k those of its k nearest, shape
    (n, k), in no particular order. Other X, a row that is not finite,
    or a finite one that overflows when scaled, raises ValueError naming
    the what rows.

    One row without k runs on vectors and Python floats: at one row,
    each array operation of the block path costs about as much as the
    GEMM itself. Otherwise each block of rows, as float64 (cast, or
    scaled into a reused block), is cast to a float32 [x, 1] that one
    GEMM scores against forms. Without k, select decides the block. With
    k, sites within the rounding bound of the k-th largest score are the
    candidates: the answer when there are exactly k, else ordered by
    nearest_among. A call holds one block of scores and its query
    blocks, each of at most BLOCK_ENTRIES entries.
    """
    forms, points, p_max, scaler = bank.forms, bank.points, bank.p_max, bank.scaler
    d1, G = forms.shape
    X = as_real(X, f"{what} rows")
    if X.ndim != 2:
        raise ValueError(f"{what} rows must form a 2-D matrix, not shape {X.shape}")
    if X.shape[1] != d1 - 1:
        raise ValueError(
            f"dimension mismatch: {what} rows have {X.shape[1]} features, expected {d1 - 1}"
        )
    n = X.shape[0]
    if n == 1 and k is None:
        x = X[0].astype(np.float64, copy=False) if scaler is None else scaler.apply(X[0])
        x_norm = math.sqrt(np.vdot(x, x))  # inf, not a warning, on overflow
        q = np.empty(d1, dtype=np.float32)
        q[-1] = 1.0
        q[:-1] = x if x_norm <= SAFE_REACH_32 - p_max else 0.0
        s = q @ forms
        best = s.argmax(keepdims=True)
        i = int(best[0])
        top = s[i]
        s[i] = -np.inf
        gap = top - s[s.argmax()]  # the runner-up; argmax is the cheaper reduction
        bound = rounding_bound(x_norm, p_max, d1 - 1, np.float32)
        if gap > bound:
            return best
        s[i] = top
        check_finite(x[None], X, 0, what)
        return select(s[None], np.array([bound]), x[None], points)
    step = max(1, min(n, block_rows(max(G, d1))))
    rows = None if scaler is None else np.empty((step, d1 - 1))
    queries = np.empty((step, d1), dtype=np.float32)
    queries[:, -1] = 1.0
    scores = np.empty((step, G), dtype=np.float32)
    best = np.empty(n if k is None else (n, k), dtype=np.intp)
    # Rows beyond this norm could overflow the float32 screen or the
    # cast into it; they are screened as zeros, and never certified.
    x_reach = SAFE_REACH_32 - p_max
    for start in range(0, n, step):
        stop = min(start + step, n)
        m = stop - start
        q, s, raw = queries[:m], scores[:m], X[start:stop]
        x = raw.astype(np.float64, copy=False) if scaler is None else scaler.apply(raw, rows[:m])
        x_norms = np.sqrt(sq_norms(x))
        if x_norms.max() <= x_reach:
            q[:, :-1] = x
        else:  # a norm beyond reach, or not finite
            check_finite(x, X, start, what)
            q[:, :-1] = np.where((x_norms <= x_reach)[:, None], x, 0.0)
        np.matmul(q, forms, out=s)
        bound = rounding_bound(x_norms, p_max, d1 - 1, np.float32)
        if k is None:
            best[start:stop] = select(s, bound, x, points)
            continue
        kth = np.partition(s, G - k, axis=1)[:, G - k]
        cand = ~(s < (kth - bound)[:, None])  # all, where bound is inf
        counts = cand.sum(axis=1)
        sure = np.flatnonzero(counts == k)
        best[start + sure] = np.nonzero(cand[sure])[1].reshape(-1, k)
        rest = np.flatnonzero(counts != k)
        best[start + rest] = nearest_among(x[rest], points, cand[rest], k)
    return best


def majority(groups: np.ndarray, classes: np.ndarray, prefer=None):
    """Per group that occurs, in ascending order, the class it holds most
    often: prefer[group] when that ties for the most, else the lowest
    tied class. Returns (groups, classes). It counts only the (group,
    class) pairs that occur, so it costs the pairs, not groups x
    n_classes; it sorts them as pairs, as group * n_classes + class
    can pass int64."""
    order = np.lexsort((classes, groups))
    g, c = groups[order], classes[order]
    new = np.ones(g.size, dtype=bool)  # the first of each (group, class) pair
    new[1:] = (g[1:] != g[:-1]) | (c[1:] != c[:-1])
    start = np.flatnonzero(new)
    counts = np.diff(start, append=g.size)
    group, cls = g[start], c[start]
    if prefer is not None:
        counts = 2 * counts + (cls == prefer[group])  # the preferred class wins its tie
    order = np.lexsort((-counts, group))  # stable: the lowest class first among equal counts
    first = np.ones(group.size, dtype=bool)  # the first pair of each group
    first[1:] = group[1:] != group[:-1]
    win = order[first]
    return group[win], cls[win]
