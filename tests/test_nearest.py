import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from superklust import (
    Dataset,
    DiscriminantBank,
    KMeansConfig,
    Model,
    ScalerParams,
    correct,
    fit_kmeans,
    lloyd,
    predict,
    to_discriminants,
)
from superklust import _nearest, clustering, tessellation
from superklust.bench import knn_fit, knn_predict
from superklust._nearest import exact_sq_dists, rounding_bound, sq_norms
from conftest import predict_oracle, random_labeled_model

ROOT = Path(__file__).resolve().parent.parent


def explicit_argmin(X, P):
    """Per-query explicit-difference scan, ties to the lowest index."""
    return np.array([int(((P - x) ** 2).sum(axis=1).argmin()) for x in X], dtype=np.intp)


def explicit_k_sets(X, P, k):
    """Per query, the first k sites by (explicit distance, index)."""
    out = []
    for x in X:
        d2 = ((P - x) ** 2).sum(axis=1)
        out.append(sorted(np.lexsort((np.arange(len(P)), d2))[:k]))
    return out


def check_predict(X, P):
    """predict, through blocks and single rows, with and without a
    scaler, against the explicit argmin over a model whose labels are
    the generator indices; returns those indices. The reference may
    overflow at huge norms; predict itself must not warn."""
    X = np.asarray(X)
    P = np.asarray(P, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        want = explicit_argmin(X, P)
    G = P.shape[0]
    model = Model(points=P, labels=np.arange(G), source_classes=np.arange(G), n_classes=G, k=1)
    # halving the scaled rows is exact, so they are X again
    scaler = ScalerParams(mean=np.zeros(P.shape[1]), scale=np.full(P.shape[1], 0.5))
    for bank, Q in ((to_discriminants(model), X),
                    (to_discriminants(replace(model, scaler=scaler)), X * 0.5)):
        np.testing.assert_array_equal(predict(bank, Q), want)
        got = [predict(bank, Q[i : i + 1]) for i in range(Q.shape[0])]
        np.testing.assert_array_equal(np.concatenate(got) if got else [], want)
    return want


class TestNearest:
    def test_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 40))
            check_predict(rng.normal(size=(int(rng.integers(1, 300)), d)),
                          rng.normal(size=(int(rng.integers(1, 30)), d)))

    def test_queries_on_bisectors(self):
        # the midpoint of two sites is equidistant from both
        rng = np.random.default_rng(1)
        P = rng.normal(size=(12, 5))
        i, j = np.triu_indices(12, 1)
        got = check_predict((P[i] + P[j]) / 2, P)
        assert got.shape == (i.size,)

    def test_grid_ties_go_to_lowest_index(self):
        P = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        got = check_predict([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]], P)
        np.testing.assert_array_equal(got, [0, 0, 0, 1])

    def test_duplicate_sites_lowest_index_wins(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(6, 3))
        P = np.concatenate([base[3:], base, base[:3]])
        X = np.concatenate([base, rng.normal(size=(40, 3))])
        got = check_predict(X, P)
        np.testing.assert_array_equal(got[:6], [3, 4, 5, 0, 1, 2])

    def test_near_ties_below_rounding_force_the_exact_path(self):
        # sites an ulp apart: the screen cannot tell them apart
        rng = np.random.default_rng(3)
        P = rng.normal(size=(4, 8))
        P = np.concatenate([P, np.nextafter(P, np.inf)])
        check_predict(P + rng.normal(scale=1e-12, size=P.shape), P)
        check_predict(np.concatenate([P, P[::-1]]), P)

    # 1e39 lies beyond the float32 range, 1e200 beyond SAFE_REACH
    @pytest.mark.parametrize("scale", [1e6, 1e19, 1e39, 1e150, 1e153, 1e200])
    def test_huge_norms(self, scale):
        rng = np.random.default_rng(4)
        P = rng.normal(size=(10, 6)) * scale
        X = np.concatenate([rng.normal(size=(30, 6)) * scale, P, (P[:5] + P[5:]) / 2])
        check_predict(X, P)
        # far queries, sites of ordinary norms
        check_predict(X, P / scale)

    # float32 underflows below ~1e-38 (subnormal) and ~1e-45 (zero);
    # 1e-160 underflows the squares in float64 as well
    @pytest.mark.parametrize("scale", [1e-30, 1e-42, 1e-160])
    def test_tiny_norms(self, scale):
        rng = np.random.default_rng(17)
        P = rng.normal(size=(10, 6)) * scale
        X = np.concatenate([rng.normal(size=(30, 6)) * scale, P, (P[:5] + P[5:]) / 2])
        check_predict(X, P)
        check_predict(X, P / scale)

    def test_integer_queries_beyond_int64_squares(self):
        # squares of entries near 2**34 overflow int64; predict takes the
        # rows as float64, as the explicit reference does
        rng = np.random.default_rng(18)
        P = rng.integers(-(2**34), 2**34, size=(12, 3)).astype(np.float64)
        X = np.concatenate([rng.integers(-(2**34), 2**34, size=(40, 3)),
                            P.astype(np.int64), (P[:6] + P[6:]).astype(np.int64) // 2])
        assert X.dtype == np.int64
        check_predict(X, P)

    def test_huge_offset_small_spread(self):
        # large common offset: distances are tiny against the norms
        rng = np.random.default_rng(5)
        P = 1e6 + rng.normal(size=(10, 4))
        check_predict(1e6 + rng.normal(size=(100, 4)), P)

    def test_single_site(self):
        rng = np.random.default_rng(6)
        got = check_predict(rng.normal(size=(7, 3)), rng.normal(size=(1, 3)))
        np.testing.assert_array_equal(got, np.zeros(7))
        check_predict(np.empty((0, 3)), rng.normal(size=(1, 3)))

    def test_single_query(self):
        rng = np.random.default_rng(7)
        check_predict(rng.normal(size=(1, 9)), rng.normal(size=(20, 9)))
        check_predict(np.empty((0, 9)), rng.normal(size=(20, 9)))

    def test_many_blocks(self):
        rng = np.random.default_rng(8)
        P = rng.integers(-2, 3, size=(600, 2)).astype(float)
        X = rng.integers(-3, 4, size=(3000, 2)) / 2.0
        check_predict(X, P)


class TestSelect:
    """select's contract: from scores 2 p . x - ||p||^2, in float64 or
    float32, laid out (queries, sites) or as the transposed view of a
    (sites, queries) block as Lloyd keeps them, it returns the explicit
    argmin, ties to the lowest index, and leaves the scores bit for bit."""

    @staticmethod
    def instance():
        rng = np.random.default_rng(19)
        base = rng.normal(size=(6, 4))
        # duplicate sites, ulp-apart sites, and queries on and between them
        P = np.concatenate([base, base[:2], np.nextafter(base[2:4], np.inf)])
        X = np.concatenate([P, (P[:5] + P[5:]) / 2, rng.normal(size=(40, 4))])
        return X, P

    @staticmethod
    def scores(X, P, dtype, layout):
        exact = 2.0 * X @ P.T - sq_norms(P)
        if layout == "queries-sites":
            return np.ascontiguousarray(exact, dtype=dtype)
        return np.ascontiguousarray(exact.T, dtype=dtype).T

    @staticmethod
    def bound(X, P, dtype):
        p_max = float(np.sqrt(sq_norms(P).max()))
        return rounding_bound(np.sqrt(sq_norms(X)), p_max, P.shape[1], dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", ["queries-sites", "sites-queries"])
    def test_matches_explicit_argmin(self, dtype, layout):
        X, P = self.instance()
        scores = self.scores(X, P, dtype, layout)
        before = scores.tobytes()
        bound = self.bound(X, P, dtype)
        got = _nearest.select(scores, bound, X, P)
        np.testing.assert_array_equal(got, explicit_argmin(X, P))
        assert got[6] == 0 and got[7] == 1 and got[8] == 8 and got[9] == 9
        assert scores.tobytes() == before

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", ["queries-sites", "sites-queries"])
    def test_inf_bound_rows_take_every_site(self, monkeypatch, dtype, layout):
        X, P = self.instance()
        scores = self.scores(X, P, dtype, layout)
        before = scores.tobytes()
        bound = self.bound(X, P, dtype)
        bound[::3] = np.inf
        received = []
        exact = _nearest.nearest_among

        def recording(Q, S, cand):
            received.append((Q, cand))
            return exact(Q, S, cand)

        monkeypatch.setattr(_nearest, "nearest_among", recording)
        got = _nearest.select(scores, bound, X, P)
        np.testing.assert_array_equal(got, explicit_argmin(X, P))
        assert scores.tobytes() == before
        # with every bound inf, every row is re-scored against every site
        received.clear()
        got = _nearest.select(scores, np.full(X.shape[0], np.inf), X, P)
        np.testing.assert_array_equal(got, explicit_argmin(X, P))
        assert scores.tobytes() == before
        (Q, cand), = received
        np.testing.assert_array_equal(Q, X)
        assert cand.shape == (X.shape[0], P.shape[0]) and cand.all()


def gamma(n: int, u: Fraction) -> Fraction:
    return n * u / (1 - n * u)


class TestScreenError:
    """The float32 scan of predict and of the k nearest sites, the float64
    screen of Lloyd, and the explicit float64 reference, within the
    error bounds that the _nearest docstring derives, checked against
    exact rational arithmetic on their float64 inputs: a screen value
    against 2 p . x - ||p||^2, the reference against ||p - x||^2. r is
    ||x|| + ||p||, u the unit roundoff and tau the smallest normal
    number of each format."""

    U32, TAU32 = Fraction(2) ** -24, Fraction(2) ** -126
    U64, TAU64 = Fraction(2) ** -53, Fraction(2) ** -1022

    @staticmethod
    def screened(monkeypatch, model, X):
        """predict's float32 scores of the rows X, and the float64 rows
        it scored, as _nearest_rows hands them to select."""
        blocks, select = [], _nearest.select

        def capture(scores, bound, x, P):
            blocks.append((scores.copy(), x.copy()))
            return select(scores, bound, x, P)

        monkeypatch.setattr(_nearest, "select", capture)
        predict(to_discriminants(model), X)
        [(scores, rows)] = blocks
        return scores, rows

    @pytest.mark.parametrize(
        "d, n_rows, per_row", [(1, 200, 10), (2, 200, 10), (16, 40, 10), (617, 6, 8)]
    )
    def test_errors_within_the_derivation(self, monkeypatch, d, n_rows, per_row):
        rng = np.random.default_rng(d)
        model = random_labeled_model(rng, d, n_gen=40)
        scale = rng.choice([1e-3, 1.0, 1e3], (n_rows, 1))
        scores, X = self.screened(monkeypatch, model, rng.normal(0.0, 3.0, (n_rows, d)) * scale)
        P = model.points
        exact_P = [[Fraction(v) for v in p.tolist()] for p in P]
        for i, x in enumerate(X):
            exact_x = [Fraction(v) for v in x.tolist()]
            for j in rng.choice(len(P), per_row, replace=False):
                p = exact_P[j]
                r2 = Fraction(float(np.linalg.norm(x) + np.linalg.norm(P[j]))) ** 2
                form = 2 * sum(a * b for a, b in zip(p, exact_x)) - sum(a * a for a in p)
                error = abs(Fraction(float(scores[i, j])) - form)
                assert error <= gamma(d + 5, self.U32) * r2 + (2 * d + 3) * self.TAU32
                dist = sum((a - b) ** 2 for a, b in zip(p, exact_x))
                error = abs(Fraction(float(exact_sq_dists(x, P[j : j + 1])[0])) - dist)
                assert error <= gamma(d + 2, self.U64) * r2 + 3 * d * self.TAU64

    @pytest.mark.parametrize("d, n_rows, k, samples", [
        (1, 300, 12, 300), (2, 300, 12, 300), (16, 200, 10, 100), (617, 60, 6, 8),
    ])
    def test_lloyd_screen_within_the_derivation(self, monkeypatch, d, n_rows, k, samples):
        # Lloyd's float64 scores as it hands them to select: those of its
        # first step, and those of a later step that recomputed only the
        # rows of the centers that moved.
        calls, select = [], clustering.select

        def capture(scores, bound, x, P):
            calls.append((scores.copy(), P.copy()))
            return select(scores, bound, x, P)

        monkeypatch.setattr(clustering, "select", capture)
        rng = np.random.default_rng(100 + d)
        X = rng.normal(0.0, 3.0, (n_rows, d)) * rng.choice([1e-3, 1.0, 1e3], (n_rows, 1))
        lloyd(X, X[rng.choice(n_rows, k, replace=False)])
        partial = next(
            (scores, P, np.flatnonzero((P != before).any(axis=1)))
            for (_, before), (scores, P) in zip(calls, calls[1:])
            if P.shape == before.shape and 0 < (P != before).any(axis=1).sum() < len(P)
        )
        first = calls[0] + (np.arange(k),)
        for scores, P, moved in (first, partial):
            for i, j in zip(rng.integers(n_rows, size=samples), rng.choice(moved, samples)):
                r2 = Fraction(float(np.linalg.norm(X[i]) + np.linalg.norm(P[j]))) ** 2
                p, x = [Fraction(v) for v in P[j].tolist()], [Fraction(v) for v in X[i].tolist()]
                form = 2 * sum(a * b for a, b in zip(p, x)) - sum(a * a for a in p)
                error = abs(Fraction(float(scores[i, j])) - form)
                assert error <= gamma(d + 1, self.U64) * r2

    @pytest.mark.parametrize("d, n_rows, n_sites, samples", [
        (1, 300, 40, 300), (2, 300, 40, 300), (16, 200, 40, 100), (617, 30, 20, 8),
    ])
    def test_k_nearest_screen_within_the_derivation(self, monkeypatch, d, n_rows, n_sites,
                                                    samples):
        # the k-nearest scan's float32 scores [x, 1] . forms, as it hands
        # them to np.partition; rounding_bound covers twice the sum of
        # their error and the reference's
        calls, partition = [], np.partition

        def capture(scores, kth, axis):
            calls.append(scores.copy())
            return partition(scores, kth, axis=axis)

        monkeypatch.setattr(np, "partition", capture)
        rng = np.random.default_rng(200 + d)
        X = rng.normal(0.0, 3.0, (n_rows, d)) * rng.choice([1e-3, 1.0, 1e3], (n_rows, 1))
        P = rng.normal(0.0, 3.0, (n_sites, d)) * rng.choice([1e-3, 1.0, 1e3], (n_sites, 1))
        _nearest.scan(X, DiscriminantBank(P, np.arange(len(P))), k=3)
        [scores] = calls
        for i, j in zip(rng.integers(n_rows, size=samples), rng.integers(n_sites, size=samples)):
            r2 = Fraction(float(np.linalg.norm(X[i]) + np.linalg.norm(P[j]))) ** 2
            p, x = [Fraction(v) for v in P[j].tolist()], [Fraction(v) for v in X[i].tolist()]
            form = 2 * sum(a * b for a, b in zip(p, x)) - sum(a * a for a in p)
            error = abs(Fraction(float(scores[i, j])) - form)
            assert error <= gamma(d + 5, self.U32) * r2 + (2 * d + 3) * self.TAU32
            dist = sum((a - b) ** 2 for a, b in zip(p, x))
            ref_error = abs(Fraction(float(exact_sq_dists(X[i], P[j : j + 1])[0])) - dist)
            bound = rounding_bound(float(np.linalg.norm(X[i])), float(np.linalg.norm(P[j])), d,
                                   np.float32)
            assert 2 * (error + ref_error) <= Fraction(float(bound))

    @staticmethod
    def built_cases(d):
        """Query rows and sites built to approach the worst case of each
        computation, as (rows, sites); every row is checked against every
        site."""
        near = 1 + 2.0**-20  # "just above" a threshold

        def lead(first, rest=0.0):
            """A d-vector: first, then rest (one value, or d - 1)."""
            return np.r_[first, np.broadcast_to(rest, (d - 1,))]

        # Higham's recursive-summation construction: one dominant product
        # 2 x_1 p_1, then products just above half an ulp of the running
        # sum, so that each addition rounds up by almost half an ulp. The
        # float64 site's s^2 lies just below half an ulp of ||p||^2 ~ 1,
        # so its sum of squares rounds down at every term, the other way
        # from the products: the screen's errors add.
        s64, s32 = 2.0**-26.5 / near, 2.0**-12
        rows = [
            # Lloyd's screen; at a = 2^-8, the errors of ||p||^2 lead
            lead(0.25, np.spacing(0.5) / 2 * near / (2 * s64)),
            lead(2.0**-8, np.spacing(2.0**-7) / 2 * near / (2 * s64)),
            # the float32 scan of predict and of the k nearest sites
            lead(1.0, float(np.spacing(np.float32(2.0))) / 2 * near / (2 * s32)),
            # the reference: (p - x)^2 leads with 4, then terms just above
            # half an ulp of it
            lead(-1.0, s64 - np.sqrt(np.spacing(4.0) / 2) * near),
        ]
        sites = [lead(1.0, s64), lead(1.0, s32)]
        # At d = 1 there is no sum to build. The worst single terms come
        # from pairs on opposite sides of the origin, found by a search
        # over entries within 2^-22 of 1 and of 1/2, whose roundings
        # (products, squares, sums, casts) err by almost half an ulp: the
        # first pair's in float64, the second's in float32.
        rows += [lead(-1.0000000182468598), lead(-0.5000000298405941)]
        sites += [lead(1.0000000182410358), lead(1.0000002086977318)]
        # Casts that all round one way: every entry of x and of 2 p lies
        # just past a float32 rounding midpoint, so it rounds away from
        # zero, and x = -p/2, so that each product and the bias err the
        # same way and no cast's error cancels another's.
        up = 2.0 ** -np.ceil(np.log2(d) / 2) * (1 + 2.0**-24 * near)
        casts = up * np.where(np.arange(d) % 2, -1.0, 1.0)
        rows.append(-casts / 2)
        sites.append(casts)
        # Subnormal entries, for the tau terms: below the smallest normal
        # number of float32 (normal in float64), and of float64.
        ramp = 1 + np.arange(d) / d
        for tiny in (2.0**-130, 2.0**-1050):
            rows.append(-tiny * ramp)
            sites.append(tiny * ramp[::-1])
        return np.array(rows), np.array(sites)

    @pytest.mark.parametrize("d", [1, 2, 16, 617])
    def test_built_worst_cases_within_the_derivation(self, monkeypatch, d):
        # Every screen and the reference on the built rows, each value as
        # the code forms it, within its derivation; and rounding_bound
        # covers twice the sum of a screen's and the reference's errors,
        # as the certificate needs. 64 rows and 16 sites: large enough for
        # the BLAS's blocked kernels, which sum in another order than its
        # small-matrix ones.
        rows, sites = self.built_cases(d)
        X, P = np.resize(rows, (64, d)), np.resize(sites, (16, d))
        G = P.shape[0]
        model = Model(points=P, labels=np.arange(G), source_classes=np.arange(G),
                      n_classes=G, k=1)
        f32_scores, _ = self.screened(monkeypatch, model, X)
        lloyd_calls, knn_calls = [], []
        select, partition = clustering.select, np.partition

        def capture_lloyd(scores, bound, x, P):
            lloyd_calls.append(scores.copy())
            return select(scores, bound, x, P)

        def capture_knn(scores, kth, axis):
            knn_calls.append(scores.copy())
            return partition(scores, kth, axis=axis)

        monkeypatch.setattr(clustering, "select", capture_lloyd)
        monkeypatch.setattr(np, "partition", capture_knn)
        lloyd(X, P, max_iter=1)
        _nearest.scan(X, DiscriminantBank(P, np.arange(len(P))), k=1)
        screens = [
            (f32_scores, np.float32, gamma(d + 5, self.U32), (2 * d + 3) * self.TAU32),
            (lloyd_calls[0], np.float64, gamma(d + 1, self.U64), 4 * d * self.TAU64),
            (knn_calls[0], np.float32, gamma(d + 5, self.U32), (2 * d + 3) * self.TAU32),
        ]
        reference = np.array([exact_sq_dists(x, P) for x in X])
        exact = {}
        for a, b in np.ndindex(len(rows), len(sites)):
            x, p = ([Fraction(e) for e in v.tolist()] for v in (rows[a], sites[b]))
            exact[a, b] = (2 * sum(c * e for c, e in zip(p, x)) - sum(c * c for c in p),
                           sum((c - e) ** 2 for c, e in zip(p, x)))
        x_norms, p_norms = np.linalg.norm(X, axis=1), np.linalg.norm(P, axis=1)
        for i, j in np.ndindex(X.shape[0], G):
            form, dist = exact[i % len(rows), j % len(sites)]
            r2 = Fraction(float(x_norms[i] + p_norms[j])) ** 2
            ref_error = abs(Fraction(float(reference[i, j])) - dist)
            assert ref_error <= gamma(d + 2, self.U64) * r2 + 3 * d * self.TAU64
            for scores, dtype, screen_gamma, absolute in screens:
                error = abs(Fraction(float(scores[i, j])) - form)
                assert error <= screen_gamma * r2 + absolute
                bound = rounding_bound(float(x_norms[i]), float(p_norms[j]), d, dtype)
                assert 2 * (error + ref_error) <= Fraction(float(bound))


class TestKNearestSets:
    @pytest.mark.parametrize("k", [1, 2, 5, 80])  # 80: every site
    def test_matches_explicit_order(self, k):
        rng = np.random.default_rng(9)
        P = rng.integers(-2, 3, size=(80, 3)).astype(float)  # many exact ties
        X = np.concatenate([rng.integers(-2, 3, size=(50, 3)) / 2.0, rng.normal(size=(50, 3))])
        got = _nearest.scan(X, DiscriminantBank(P, np.arange(len(P))), k=k)
        assert [sorted(row) for row in got] == explicit_k_sets(X, P, k)
        # it is scan's answer for a bank of P, whatever the bank's labels
        bank = DiscriminantBank(P, rng.integers(5, size=len(P)))
        np.testing.assert_array_equal(_nearest.scan(X, bank, k=k), got)

    def test_huge_norms_take_every_site(self):
        rng = np.random.default_rng(10)
        P = rng.normal(size=(30, 4)) * 1e200
        X = rng.normal(size=(10, 4)) * 1e200
        got = _nearest.scan(X, DiscriminantBank(P, np.arange(len(P))), k=3)  # must not warn
        with np.errstate(over="ignore"):
            want = explicit_k_sets(X, P, 3)
        assert [sorted(row) for row in got] == want


class TestBank:
    def test_forms_and_reach_derived_from_points(self):
        rng = np.random.default_rng(1)
        P, labels = rng.normal(0.0, 3.0, (60, 3)), rng.integers(5, size=60)
        bank = DiscriminantBank(P, labels)
        want = _nearest.linear_forms(P)
        assert bank.forms.dtype == want.dtype and bank.forms.tobytes() == want.tobytes()
        assert bank.p_max == np.sqrt(sq_norms(P).max())
        assert bank.points is P and bank.labels is labels and bank.scaler is None
        with pytest.raises(TypeError):
            DiscriminantBank(P, labels, forms=want)
        assert DiscriminantBank is tessellation.DiscriminantBank is _nearest.DiscriminantBank


def rows_through(entry, X):
    """The labels that entry (predict, knn_predict, or correct, for the
    generators) gives on the rows X, against two sites of two features."""
    model = Model(points=[[0.0, 0.0], [1.0, 1.0]], labels=[0, 1], source_classes=[0, 1],
                  n_classes=2, k=1)
    if entry == "predict":
        return predict(to_discriminants(model), X)
    if entry == "knn_predict":
        return knn_predict(knn_fit(Dataset(model.points, model.labels, n_classes=2), 1), X)
    train = Dataset(X=np.zeros((len(X), 2)), y=np.zeros(len(X), dtype=np.int64), n_classes=2)
    train.X = X  # past Dataset's own checks
    return correct(model, train).labels


class TestQueryRows:
    """predict, knn_predict and correct leave their rows to _nearest.scan,
    which checks them on its one-row and block paths alike."""

    @pytest.mark.parametrize("n", [1, 5], ids=["one-row", "many-rows"])
    @pytest.mark.parametrize("entry, what", [
        ("predict", "query"), ("knn_predict", "query"), ("correct", "training"),
    ])
    def test_bad_rows_get_the_scan_messages(self, entry, what, n):
        for X, message in (
            (np.zeros(n), rf"^{what} rows must form a 2-D matrix, not shape \({n},\)$"),
            (np.zeros((n, 3)), f"^dimension mismatch: {what} rows have 3 features, expected 2$"),
            (np.full((n, 2), 1 + 5j), f"^{what} rows must hold real numbers, not complex128$"),
            (np.full((n, 2), None), f"^{what} rows must hold real numbers, not object$"),
        ):
            with pytest.raises(ValueError, match=message):
                rows_through(entry, X)
        # integer rows are cast to the float64 rows they equal
        np.testing.assert_array_equal(rows_through(entry, np.ones((n, 2), dtype=np.int32)),
                                      rows_through(entry, np.ones((n, 2))))


class TestRowsBeyondReach:
    """Finite rows whose explicit distances overflow float64 to inf: the
    searches behind knn_predict and correct do not warn, and answer like
    the explicit-difference reference, ties to the lowest index."""

    def test_knn_predict(self):
        train = Dataset(X=np.eye(3), y=np.array([2, 0, 1]), n_classes=3)
        X = np.array([[1e200, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with np.errstate(over="ignore"):
            want = train.y[explicit_argmin(X, train.X)]
        np.testing.assert_array_equal(want, [2, 1])
        np.testing.assert_array_equal(knn_predict(knn_fit(train, 1), X), want)

    def test_correct(self):
        model = Model(points=[[0.0, 0.0], [10.0, 10.0], [0.0, 2.0]], labels=[0, 1, 1],
                      source_classes=[0, 1, 1], n_classes=2, k=2)
        train = Dataset(X=np.array([[1e200, 0.0], [0.0, 1.5], [9.0, 9.0]]),
                        y=np.array([1, 0, 1]), n_classes=2)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(explicit_argmin(train.X, model.points), [0, 2, 1])
        # the overflowing row 0 lands in cell 0 and relabels it to its class
        got = correct(model, train)
        np.testing.assert_array_equal(got.points, model.points)
        np.testing.assert_array_equal(got.labels, [1, 1, 0])


class TestSmallBlocks:
    """Every search split into many blocks agrees with the references."""

    @pytest.fixture(autouse=True)
    def tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(_nearest, "BLOCK_ENTRIES", 64)

    def test_nearest(self):
        rng = np.random.default_rng(12)
        P = rng.integers(-2, 3, size=(30, 2)).astype(float)
        check_predict(rng.integers(-3, 4, size=(500, 2)) / 2.0, P)

    def test_k_nearest_sets(self):
        rng = np.random.default_rng(13)
        P = rng.integers(-2, 3, size=(40, 3)).astype(float)
        X = rng.integers(-3, 4, size=(200, 3)) / 2.0
        got = _nearest.scan(X, DiscriminantBank(P, np.arange(len(P))), k=4)
        assert [sorted(row) for row in got] == explicit_k_sets(X, P, 4)

    def test_predict(self):
        rng = np.random.default_rng(14)
        model = random_labeled_model(rng, d=4, n_gen=25)
        X = rng.normal(0.0, 3.0, size=(300, 4))
        np.testing.assert_array_equal(predict(to_discriminants(model), X), predict_oracle(model, X))

    def test_predict_batch_edges(self):
        # 0 rows, exactly one block, one row past it, and many blocks, for
        # a bank wider in G and one wider in d + 1: a block holds
        # max(G, d + 1) entries per row
        rng = np.random.default_rng(15)
        for d, n_gen in ((3, 20), (30, 5)):
            model = random_labeled_model(rng, d=d, n_gen=n_gen)
            bank = to_discriminants(model)
            step = _nearest.block_rows(max(n_gen, d + 1))
            for n in (0, 1, step, step + 1, 7 * step + 3):
                X = rng.normal(0.0, 3.0, size=(n, d))
                got = predict(bank, X)
                assert got.dtype == np.int64 and got.shape == (n,)
                np.testing.assert_array_equal(got, predict_oracle(model, X))

    def test_predict_query_layouts(self):
        rng = np.random.default_rng(16)
        # float64 rows are read where they lie and others are cast, with
        # and without a scaler, through the block path and the one-row path
        model = random_labeled_model(rng, d=3, n_gen=20)
        scaler = ScalerParams(mean=rng.normal(0.0, 1.0, 3), scale=rng.uniform(0.5, 2.0, 3))
        X = rng.normal(0.0, 3.0, size=(101, 3))
        layouts = (X, np.asfortranarray(X), X[::2], X[:, ::-1], X.astype(np.float32),
                   rng.integers(-4, 5, size=(57, 3)))
        for m in (model, replace(model, scaler=scaler)):
            bank = to_discriminants(m)
            for Q in layouts:
                for rows in (Q, Q[:1], Q[-1:], np.asfortranarray(Q[2:3])):
                    np.testing.assert_array_equal(predict(bank, rows), predict_oracle(m, rows))


class TestKnnTies:
    def test_equal_distances_keep_training_order(self):
        # four training points at distance 1 from the query; the first
        # three by index are the neighbors, classes 2, 2, 1 -> class 2
        train = Dataset(
            X=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
            y=np.array([2, 2, 1, 0]),
            n_classes=3,
        )
        model = knn_fit(train, n_neighbors=3)
        np.testing.assert_array_equal(knn_predict(model, [[0.0, 0.0]]), [2])

    def test_duplicate_training_rows(self):
        # duplicates tie exactly; the earlier copies are the neighbors
        train = Dataset(X=np.zeros((5, 2)), y=np.array([3, 1, 1, 0, 0]), n_classes=4)
        model = knn_fit(train, n_neighbors=3)
        np.testing.assert_array_equal(knn_predict(model, [[0.5, 0.5]]), [1])
        model = knn_fit(train, n_neighbors=1)
        np.testing.assert_array_equal(knn_predict(model, [[0.5, 0.5]]), [3])


class TestLloydCenters:
    def test_centers_bit_equal_member_means(self):
        rng = np.random.default_rng(11)
        for d in (1, 3, 16):
            data = rng.normal(size=(200, d)) * 10.0 + rng.integers(-50, 50, size=(200, 1))
            result = fit_kmeans(data, KMeansConfig(k=6, seed=d))
            assert result.centers.shape[0] > 1
            for j, center in enumerate(result.centers):
                np.testing.assert_array_equal(
                    center, data[result.assignments == j].mean(axis=0)
                )

    def test_empty_cluster_dropped_means_exact(self):
        data = np.array([[0.0, 0.1], [0.2, 0.0], [10.0, 10.3], [10.1, 9.9]])
        init = np.array([[0.0, 0.0], [100.0, 100.0], [10.0, 10.0]])
        result = lloyd(data, init)
        assert result.centers.shape == (2, 2)
        np.testing.assert_array_equal(result.centers[0], data[:2].mean(axis=0))
        np.testing.assert_array_equal(result.centers[1], data[2:].mean(axis=0))


class TestNoScipy:
    def test_import_loads_no_scipy(self):
        # Neither the package nor the CLI module loads scipy, the benchmark
        # harness or the network fetcher.
        code = (
            "import sys, superklust.cli; "
            "eager = {'superklust.bench', 'superklust.fetch', 'urllib.request', 'http.client'}; "
            "bad = [m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.') or m in eager]; "
            "print(bad); sys.exit(1 if bad else 0)"
        )
        env_path = str(ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": env_path, "PATH": ""},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_not_a_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            deps = tomllib.load(f)["project"]["dependencies"]
        assert not [dep for dep in deps if dep.lower().startswith("scipy")]
