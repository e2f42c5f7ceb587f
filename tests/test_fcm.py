import bisect
import dataclasses
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import goldens
from peak_memory import traced_peak_bytes
from fuzzydocs import fcm
from fuzzydocs.fcm import (
    FcmParams,
    FcmResult,
    FeatureMatrix,
    harden,
    init_partition,
    load_result,
    objective,
    run_fcm,
    save_result,
    squared_distances,
    update_centers,
    update_memberships,
    validate_partition,
)
from fuzzydocs.features import load_feature_set, save_feature_set
from fuzzydocs.jsonfile import write_json


def broadcast_squared_distances(x, v):
    """Cross-check: the c x n x m difference tensor reduced over features,
    in the order numpy's einsum picks."""
    diff = x[None, :, :] - v[:, None, :]
    return np.einsum("cnm,cnm->cn", diff, diff)


def sequential_squared_distances(x, v):
    """Reference: each squared distance summed feature by feature, left to
    right, in Python floats (d * d, not d ** 2, which libm's pow may round
    differently)."""
    return np.array([[sum((xi[k] - vj[k]) * (xi[k] - vj[k]) for k in range(len(xi)))
                      for xi in x.tolist()] for vj in v.tolist()])


def ratio_memberships(d, fuzzifier):
    """Reference for zero-free columns: 1 / sum_k (d_j / d_k)^(2/(m-1))
    from the c x c x n ratio tensor."""
    ratios = (d[:, None, :] / d[None, :, :]) ** (2.0 / (fuzzifier - 1.0))
    return 1.0 / np.einsum("jkn->jn", ratios)


def two_path_memberships(d, fuzzifier):
    """Reference: the zero-distance columns one-hot on their first zero,
    the others through the min-ratio form on a copy of those columns."""

    def regular(d, d_min):
        w = d_min / d
        w **= 2.0 / (fuzzifier - 1.0)
        total = w[0].copy()
        for row in w[1:]:
            total += row
        w /= total
        return w

    d_min = d.min(axis=0)
    singular = d_min == 0.0
    if not singular.any():
        return regular(d, d_min)
    u = np.zeros(d.shape)
    cols = np.flatnonzero(singular)
    u[np.argmax(d[:, cols] == 0.0, axis=0), cols] = 1.0
    if (~singular).any():
        u[:, ~singular] = regular(d[:, ~singular], d_min[~singular])
    return u


def random_instance(seed: int, n: int = 6, m: int = 2, c: int = 2):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 10000.0, size=(n, m))
    x = FeatureMatrix(tuple(f"d{i}" for i in range(n)), data)
    return x, dirichlet_partition(c, n, seed)


class TestFeatureMatrix:
    def test_basic(self, example_matrix):
        assert len(example_matrix.doc_ids) == 8
        assert example_matrix.data.shape == (8, 4)

    def test_rejects_mismatched_ids(self):
        with pytest.raises(ValueError):
            FeatureMatrix(("a",), np.zeros((2, 3)))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            FeatureMatrix(("a", "a"), np.zeros((2, 3)))

    @pytest.mark.parametrize("doc_ids", [(1, 2, 3), ("a", "", "c"), ("a", None, "c")])
    def test_doc_ids_pass_the_names_rule(self, doc_ids):
        with pytest.raises(ValueError, match="^doc_ids must be unique non-empty strings$"):
            FeatureMatrix(doc_ids, np.ones((3, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FeatureMatrix(("a",), np.array([[-1.0]]))
        with pytest.raises(ValueError):
            FeatureMatrix(("a",), np.array([[10001.0]]))
        with pytest.raises(ValueError):
            FeatureMatrix(("a",), np.array([[np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureMatrix((), np.zeros((0, 3)))


class IndexOnly:
    """An integer-like object that is no int: it only implements ``__index__``."""

    def __index__(self):
        return 2


class TestFcmParams:
    def test_defaults(self):
        params = FcmParams(c=2)
        assert params.fuzzifier == 2.0
        assert params.epsilon == 0.001
        assert params.max_iters == 100

    @pytest.mark.parametrize("kwargs", [
        {"c": 0},
        {"c": 2, "fuzzifier": 1.0},
        {"c": 2, "fuzzifier": 0.5},
        {"c": 2, "epsilon": 0.0},
        {"c": 2, "epsilon": 1.0},
        {"c": 2, "max_iters": 0},
        {"c": 2, "seed": -1},
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            FcmParams(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"c": 2.0}, "c must be an integer"),
        ({"c": True}, "c must be an integer"),
        ({"c": "2"}, "c must be an integer"),
        ({"c": np.float64(2.0)}, "c must be an integer"),
        ({"c": 2, "max_iters": 2.5}, "max_iters must be an integer"),
        ({"c": 2, "max_iters": np.True_}, "max_iters must be an integer"),
        ({"c": 2, "seed": 1.5}, "seed must be an integer"),
        ({"c": 2, "seed": False}, "seed must be an integer"),
        ({"c": 2, "seed": None}, "seed must be an integer"),
        ({"c": 2, "fuzzifier": math.inf}, "fuzzifier must be finite"),
        ({"c": 2, "fuzzifier": np.float64(np.inf)}, "fuzzifier must be finite"),
        ({"c": 2, "fuzzifier": math.nan}, "fuzzifier must be > 1"),
        ({"c": 2, "fuzzifier": "2"}, "fuzzifier must be a number"),
        ({"c": 2, "fuzzifier": True}, "fuzzifier must be a number"),
        ({"c": 2, "epsilon": "0.1"}, "epsilon must be a number"),
        ({"c": 2, "epsilon": None}, "epsilon must be a number"),
        ({"c": IndexOnly()}, "c must be an integer"),
    ])
    def test_rejects_wrong_typed_params_when_built(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FcmParams(**kwargs)

    def test_numpy_numbers_accepted(self, example_matrix):
        params = FcmParams(c=np.int64(2), max_iters=np.uint8(3), seed=np.int32(4),
                           fuzzifier=np.float64(2.0), epsilon=np.float64(1e-3))
        expected = run_fcm(example_matrix, FcmParams(c=2, max_iters=3, seed=4))
        assert run_fcm(example_matrix, params).partition.tobytes() == expected.partition.tobytes()

    def test_equality_and_hash_are_identity(self):
        # a field-wise comparison would ask numpy for the truth value of an array
        a, b = FcmParams(c=2, init=np.eye(2)), FcmParams(c=2, init=np.eye(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2


def d2_reference(rows, c, seed):
    """Reference for the D² draw, in Python floats: the documents chosen
    as centers, each squared distance summed feature by feature, the
    running sums by ``itertools.accumulate`` and the pick by ``bisect``."""
    rng = random.Random(seed)
    chosen = [rng.randrange(len(rows))]
    nearest = [math.inf] * len(rows)
    for _ in range(1, c):
        center = rows[chosen[-1]]
        nearest = [min(d, sum((a - b) * (a - b) for a, b in zip(row, center)))
                   for d, row in zip(nearest, rows)]
        cumulative = list(itertools.accumulate(nearest))
        i = bisect.bisect_right(cumulative, rng.random() * cumulative[-1])
        chosen.append(i if i < len(rows) else bisect.bisect_left(cumulative, cumulative[-1]))
    return chosen


def dirichlet_partition(c, n, seed):
    """A c x n partition whose columns are uniform on the simplex, drawn
    apart from the engine's own start."""
    return np.random.default_rng(seed).dirichlet(np.ones(c), size=n).T


class TestInitPartition:
    def test_explicit_accepted_verbatim(self, example_matrix, crisp_init):
        u = init_partition(example_matrix.data, 2, 2.0, init=crisp_init)
        np.testing.assert_array_equal(u, crisp_init)

    def test_single_cluster_is_all_ones(self):
        x = np.array([[1.0], [4.0], [4.0], [0.0], [9.0]])
        np.testing.assert_array_equal(init_partition(x, 1, 2.0), np.ones((1, 5)))

    def test_random_mode_is_valid_and_deterministic(self, example_matrix):
        a = init_partition(example_matrix.data, 2, 2.0, seed=42)
        b = init_partition(example_matrix.data, 2, 2.0, seed=42)
        np.testing.assert_array_equal(a, b)
        validate_partition(a, n=8, c=2)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)
        np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-9)

    def test_different_seeds_differ(self):
        x = np.random.default_rng(0).uniform(0.0, 10000.0, size=(200, 3))
        draws = {init_partition(x, 4, 2.0, seed=seed).tobytes() for seed in range(50)}
        assert len(draws) == 50

    def test_seeded_bits_are_pinned(self, example_matrix):
        """Seed 7 on the worked example at c = 3 draws documents 5, 6 and
        1, the first uniformly (the stdlib's ``randrange``); the partition
        is the memberships of the eight documents to those three, bit for
        bit. A change in the stdlib generator or in the draw moves them."""
        x = example_matrix.data
        u = init_partition(x, 3, 2.0, seed=7)
        assert u.flags.c_contiguous and u.dtype == np.float64
        assert d2_reference(x.tolist(), 3, 7) == [5, 6, 1]
        assert u.tobytes() == update_memberships(
            np.sqrt(sequential_squared_distances(x, x[[5, 6, 1]])), 2.0).tobytes()
        assert [u[j].tolist().index(1.0) for j in range(3)] == [5, 6, 1]

    @given(st.integers(1, 6), st.integers(0, 20), st.integers(0, 6), st.integers(1, 4),
           st.floats(1.05, 4.0), st.integers(0, 2**64))
    @settings(max_examples=200, deadline=None)
    def test_draws_follow_the_d2_rule(self, c, extra, duplicates, m, fuzzifier, seed):
        """The drawn documents are the reference's, among duplicates too,
        and the partition is their memberships at the fuzzifier."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 10000.0, size=(c + extra, m))
        x = np.vstack([x, x[rng.integers(0, len(x), size=duplicates)]])
        chosen = d2_reference(x.tolist(), c, seed)
        assert len({tuple(x[i]) for i in chosen}) == c  # never a coincident document
        u = init_partition(np.asfortranarray(x), c, fuzzifier, seed=seed)
        assert u.tobytes() == update_memberships(
            np.sqrt(sequential_squared_distances(x, x[chosen])), fuzzifier).tobytes()

    def test_draw_skips_zero_distances_when_the_pick_rounds_up(self, monkeypatch):
        """With a subnormal total, random() * total rounds up to the total,
        past every running sum; the pick is then the last document with
        weight, not one beyond the end or a copy of a drawn center."""

        class Top(random.Random):
            def random(self):
                return 1.0 - 2.0**-53

            def getrandbits(self, k):  # so randrange keeps drawing from the bits
                return super().getrandbits(k)

        x = np.array([[1e-160], [0.0], [0.0]])  # squared distance 1e-320
        total = 1e-320
        assert (1.0 - 2.0**-53) * total == total
        monkeypatch.setattr(fcm, "random", types.SimpleNamespace(Random=Top))
        first = Top(0).randrange(3)
        assert first in (1, 2)
        u = init_partition(x, 2, 2.0, seed=0)
        np.testing.assert_array_equal(u, [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("n,c", [(1, 1), (7, 2), (50, 3), (200, 17), (64, 64)])
    def test_columns_are_stochastic(self, n, c):
        """Every column sums to 1 within rounding, and each drawn document
        is one-hot in its own cluster, so no cluster starts empty."""
        x = np.random.default_rng(n * c).uniform(0.0, 10000.0, size=(n, 5))
        u = init_partition(x, c, 1.3, seed=n * c)
        validate_partition(u, n=n, c=c)
        assert np.all((u >= 0.0) & (u <= 1.0))
        assert np.all(np.count_nonzero(u == 1.0, axis=1) >= 1)

    def test_coincident_documents_fail_at_the_draw(self):
        """Draw j finds no document away from the j centers drawn, so the
        documents hold exactly j distinct vectors."""
        x = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]])
        for seed in range(5):
            with pytest.raises(ValueError) as excinfo:
                init_partition(x, 3, 2.0, seed=seed)
            assert str(excinfo.value) == ("empty cluster: cluster 2 has no membership weight;"
                                          " the 5 documents hold 2 distinct vector(s) for 3 clusters")
        with pytest.raises(ValueError, match="^empty cluster: cluster 1 has no membership weight;"
                                             " the 3 documents hold 1 distinct vector"):
            init_partition(np.zeros((3, 2)), 2, 2.0)
        validate_partition(init_partition(x, 2, 2.0, seed=1), n=5, c=2)

    def test_large_and_numpy_integer_seeds(self):
        x = np.random.default_rng(1).uniform(0.0, 10000.0, size=(9, 2))
        np.testing.assert_array_equal(init_partition(x, 4, 2.0, seed=np.int64(3)),
                                      init_partition(x, 4, 2.0, seed=3))
        big = init_partition(x, 4, 2.0, seed=2**100)
        validate_partition(big, n=9, c=4)
        assert d2_reference(x.tolist(), 4, 2**100) != d2_reference(x.tolist(), 4, 2**100 + 1)
        assert not np.array_equal(big, init_partition(x, 4, 2.0, seed=2**100 + 1))
        matrix = FeatureMatrix(tuple(f"d{i}" for i in range(9)), np.arange(18.0).reshape(9, 2))
        for seed in (np.int64(3), np.uint32(3), 2**100):
            assert run_fcm(matrix, FcmParams(c=2, seed=seed)).iterations >= 1

    def test_negative_seed_is_rejected(self):
        x = np.arange(12.0).reshape(6, 2)
        for seed in (-5, np.int64(-1)):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                init_partition(x, 2, 2.0, seed=seed)

    @pytest.mark.parametrize("n,c", [(1000, 1), (1000, 2), (1000, 8), (300, 300), (5000, 64)])
    def test_working_memory(self, n, c):
        """Beside the matrix: the c x n result, the one-byte zero mask of
        update_memberships, a few length-n vectors, the 64 KiB buffer
        numpy takes for update_memberships' broadcast division and the
        generator's fixed state."""
        x = np.asfortranarray(np.random.default_rng(0).uniform(0.0, 10000.0, size=(n, 20)))
        bound = 9 * c * n + 64 * n + 65536 + 4096
        assert traced_peak_bytes(init_partition, x, c, 1.3) <= bound

    def test_does_not_import_numpy_random(self):
        """numpy 2 loads numpy.random (and with it OpenSSL) on first use;
        a run from the seeded start partition leaves it unloaded, or
        loaded only where ``import numpy`` already loaded it."""
        code = (
            "import sys, numpy as np\n"
            "before = 'numpy.random' in sys.modules\n"
            "from fuzzydocs.fcm import FcmParams, FeatureMatrix, run_fcm\n"
            "x = FeatureMatrix(('a', 'b', 'c'), np.array([[1.0, 2.0], [3.0, 1.0], [9.0, 9.0]]))\n"
            "run_fcm(x, FcmParams(c=2, seed=4))\n"
            "print(before, 'numpy.random' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(fcm.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, encoding="utf-8", timeout=60)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before

    def test_rejects_invalid_explicit(self):
        x = np.array([[1.0], [2.0]])
        bad = np.array([[0.6, 0.6], [0.6, 0.6]])
        with pytest.raises(ValueError, match="invalid partition"):
            init_partition(x, 2, 2.0, init=bad)
        with pytest.raises(ValueError, match="invalid partition"):
            init_partition(x, 2, 2.0, init=np.array([[1.5, -0.5], [-0.5, 1.5]]))

    def test_rejects_more_clusters_than_docs(self):
        with pytest.raises(ValueError, match=re.escape("cluster count must lie in [1, 2]")):
            init_partition(np.array([[1.0], [2.0]]), 3, 2.0)


class TestUpdateCenters:
    def test_crisp_centers_are_exact_quarters(self, example_matrix, crisp_init):
        v = update_centers(crisp_init**2.0, example_matrix.data)
        np.testing.assert_allclose(v[0], goldens.CENTER_1, rtol=0, atol=1e-9)
        np.testing.assert_allclose(v[1], goldens.CENTER_2, rtol=0, atol=1e-9)

    def test_uniform_memberships_give_global_mean(self, example_matrix):
        u = np.full((2, 8), 0.5)
        v = update_centers(u**2.0, example_matrix.data)
        mean = example_matrix.data.mean(axis=0)
        np.testing.assert_allclose(v[0], mean, rtol=1e-12)
        np.testing.assert_allclose(v[1], mean, rtol=1e-12)

    def test_second_iteration_centers(self, example_matrix):
        u1 = np.array([goldens.U1_ROW1, [1.0 - x for x in goldens.U1_ROW1]])
        v = update_centers(u1**2.0, example_matrix.data)
        np.testing.assert_allclose(v[0], goldens.SECOND_CENTER_1, rtol=0, atol=1e-6)
        np.testing.assert_allclose(v[1], goldens.SECOND_CENTER_2, rtol=0, atol=1e-6)

    def test_empty_cluster_raises(self, example_matrix):
        u = np.vstack([np.zeros(8), np.ones(8)])
        with pytest.raises(ValueError, match="empty cluster"):
            update_centers(u**2.0, example_matrix.data)

    def test_centers_inside_data_hull(self, example_matrix):
        u = dirichlet_partition(3, 8, 5)
        v = update_centers(u**2.0, example_matrix.data)
        lo = example_matrix.data.min(axis=0) - 1e-9
        hi = example_matrix.data.max(axis=0) + 1e-9
        assert np.all(v >= lo) and np.all(v <= hi)

    def test_crisp_memberships_give_cluster_means_any_fuzzifier(self, example_matrix, crisp_init):
        for fuzzifier in (1.5, 2.0, 3.7):
            v = update_centers(crisp_init**fuzzifier, example_matrix.data)
            members1 = example_matrix.data[crisp_init[0] == 1.0]
            members2 = example_matrix.data[crisp_init[1] == 1.0]
            np.testing.assert_allclose(v[0], members1.mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(v[1], members2.mean(axis=0), rtol=1e-12)


class TestSquaredDistances:
    def test_golden_distances(self, example_matrix):
        v = np.array([goldens.CENTER_1, goldens.CENTER_2])
        sq = squared_distances(example_matrix.data, v)
        np.testing.assert_allclose(sq[0], np.square(goldens.D1), rtol=1e-14, atol=0)
        np.testing.assert_allclose(sq[1], np.square(goldens.D2), rtol=1e-14, atol=0)

    def test_point_at_center_is_zero(self):
        x = np.array([[3.0, 4.0]])
        v = np.array([[3.0, 4.0], [0.0, 0.0]])
        sq = squared_distances(x, v)
        assert sq[0, 0] == 0.0
        assert sq[1, 0] == 25.0

    def test_shape(self, example_matrix):
        v = np.array([goldens.CENTER_1, goldens.CENTER_2])
        assert squared_distances(example_matrix.data, v).shape == (2, 8)

    @given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 40), st.integers(0, 10_000))
    @example(c=5, n=40, m=40, seed=7220)  # the einsum form off by 4.6 eps
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_sequential_form(self, c, n, m, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 10000.0, size=(n, m))
        v = rng.uniform(0.0, 10000.0, size=(c, m))
        v[0] = x[0]  # one exact zero distance
        sq = squared_distances(x, v)
        np.testing.assert_array_equal(sq, sequential_squared_distances(x, v))
        np.testing.assert_array_equal(squared_distances(np.asfortranarray(x), v), sq)
        # einsum sums the m non-negative products in an order numpy picks;
        # two orders of such a sum differ by at most about (m - 1) * eps
        # relative, so the cross-check allows m * eps
        np.testing.assert_allclose(sq, broadcast_squared_distances(x, v), rtol=m * np.finfo(float).eps)

    def test_working_memory_is_one_difference(self):
        n, m, c = 5000, 20, 16
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 10000.0, size=(n, m))
        v = rng.uniform(0.0, 10000.0, size=(c, m))
        assert traced_peak_bytes(squared_distances, x, v) <= (3 * n * m + c * n) * 8


class TestUpdateMemberships:
    def test_golden_first_iteration(self, example_matrix):
        d = np.array([goldens.D1, goldens.D2])
        u = update_memberships(d, 2.0)
        np.testing.assert_allclose(u[0], goldens.U1_ROW1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(u.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_first_column_value(self):
        d = np.array([[goldens.D1[0]], [goldens.D2[0]]])
        u = update_memberships(d, 2.0)
        assert u[0, 0] == pytest.approx(goldens.U1_ROW1[0], abs=1e-12)
        assert u[0, 0] == pytest.approx(0.9057, abs=1e-4)

    def test_equidistant_column(self):
        u = update_memberships(np.array([[7.0], [7.0], [7.0]]), 2.0)
        np.testing.assert_array_equal(u, np.full((3, 1), 1.0 / 3.0))
        for c in (1, 2, 5, 6, 7):
            for dist in (1e-150, 7.0, 1e150):
                u = update_memberships(np.full((c, 1), dist), 1.3)
                np.testing.assert_array_equal(u, np.full((c, 1), 1.0 / c))

    @pytest.mark.parametrize("d, fuzzifier", [
        ([[1e-160], [1e160]], 1.5),
        ([[1.0], [1.0000001]], 1.0 + 1e-12),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_columns_are_quietly_one_hot(self, d, fuzzifier):
        u = update_memberships(np.array(d), fuzzifier)
        np.testing.assert_array_equal(u, [[1.0], [0.0]])

    @given(st.integers(1, 6), st.integers(1, 30), st.floats(1.02, 4.0), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_ratio_form(self, c, n, fuzzifier, seed):
        rng = np.random.default_rng(seed)
        d = np.sqrt(rng.uniform(1.0, 1e4, size=(c, n)))
        u = update_memberships(d, fuzzifier)
        # both forms raise a rounded distance ratio to p = 2/(m-1), which
        # multiplies its relative rounding error by p: 1e-15 up to p = 10
        # (m >= 1.2), p * 1e-16 nearer m = 1
        p = 2.0 / (fuzzifier - 1.0)
        np.testing.assert_allclose(u, ratio_memberships(d, fuzzifier), rtol=0,
                                   atol=1e-16 * max(10.0, p))

    @given(st.integers(1, 12), st.integers(2, 40), st.floats(1.02, 4.0), st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_column_does_not_depend_on_other_columns(self, c, n, fuzzifier, seed):
        rng = np.random.default_rng(seed)
        d = np.sqrt(rng.uniform(1.0, 1e4, size=(c, n)))
        planted = d.copy()
        zero_cols = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        planted[rng.integers(0, c, size=zero_cols.size), zero_cols] = 0.0
        clean = np.setdiff1d(np.arange(n), zero_cols)
        np.testing.assert_array_equal(update_memberships(planted, fuzzifier)[:, clean],
                                      update_memberships(d, fuzzifier)[:, clean])

    @given(st.integers(1, 8), st.integers(1, 30), st.floats(-300.0, 300.0),
           st.floats(1.01, 7.5), st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bit_identical_to_two_path_form(self, c, n, log_scale, fuzzifier, seed):
        """One expression for every column gives the bits of a separate
        zero-distance path: zeros in some columns, several in one, equal
        distances to two centers and equal columns, at any scale."""
        rng = np.random.default_rng(seed)
        d = np.sqrt(rng.uniform(0.0, 1.0, size=(c, n))) * 10.0**log_scale
        for col in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False):
            d[rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False), col] = 0.0
        if c > 1 and rng.random() < 0.5:
            d[-1] = d[0]
        if n > 1 and rng.random() < 0.5:
            d[:, -1] = d[:, 0]
        assert update_memberships(d, fuzzifier).tobytes() == \
            two_path_memberships(d, fuzzifier).tobytes()

    def test_working_memory_without_zeros(self):
        c, n = 16, 5000
        d = np.sqrt(np.random.default_rng(0).uniform(1.0, 1e4, size=(c, n)))
        assert traced_peak_bytes(update_memberships, d, 1.3) <= (3 * c * n + 4 * n) * 8

    def test_working_memory_is_a_few_partitions(self):
        c, n = 16, 5000
        d = np.sqrt(np.random.default_rng(0).uniform(1.0, 1e4, size=(c, n)))
        d[3, ::7] = 0.0  # some singular columns
        assert traced_peak_bytes(update_memberships, d, 1.3) <= 6 * c * n * 8

    def test_zero_distance_is_one_hot(self):
        u = update_memberships(np.array([[0.0], [7.0]]), 2.0)
        np.testing.assert_array_equal(u, [[1.0], [0.0]])

    def test_double_zero_takes_first(self):
        u = update_memberships(np.array([[5.0], [0.0], [0.0]]), 2.0)
        np.testing.assert_array_equal(u, [[0.0], [1.0], [0.0]])

    def test_fuzzifier_sharpens_toward_crisp(self):
        d = np.array([[1.0], [2.0]])
        soft = update_memberships(d, 3.0)[0, 0]
        hard = update_memberships(d, 1.5)[0, 0]
        assert hard > soft > 0.5


class TestObjective:
    def test_point_at_center_is_zero(self):
        x = np.array([[5.0, 5.0]])
        u = np.array([[1.0]])
        v = np.array([[5.0, 5.0]])
        assert objective(u**2.0, squared_distances(x, v)) == 0.0

    def test_crisp_init_objective_is_exact(self, example_matrix, crisp_init):
        v = np.array([goldens.CENTER_1, goldens.CENTER_2])
        j = objective(crisp_init**2.0, squared_distances(example_matrix.data, v))
        assert j == pytest.approx(goldens.OBJECTIVE_AT_INIT, abs=1e-9)

    def test_matches_brute_force(self, example_matrix, crisp_init):
        v = np.array([goldens.CENTER_1, goldens.CENTER_2])
        expected = 0.0
        for i in range(8):
            for j in range(2):
                dist_sq = sum(
                    (example_matrix.data[i, k] - v[j, k]) ** 2 for k in range(4)
                )
                expected += crisp_init[j, i] ** 2 * dist_sq
        sq = squared_distances(example_matrix.data, v)
        assert objective(crisp_init**2.0, sq) == pytest.approx(expected, rel=1e-12)


class TestRunFcm:
    def test_one_iteration_matches_golden(self, example_matrix, crisp_init):
        params = FcmParams(c=2, init=crisp_init, max_iters=1)
        res = run_fcm(example_matrix, params)
        assert res.iterations == 1
        assert not res.converged
        np.testing.assert_allclose(res.partition[0], goldens.U1_ROW1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.centers, [goldens.CENTER_1, goldens.CENTER_2])

    def test_convergence(self, example_matrix, crisp_init):
        res = run_fcm(example_matrix, FcmParams(c=2, init=crisp_init))
        assert res.converged
        assert res.iterations == goldens.CONVERGED_ITERATIONS
        assert res.max_change_history[-1] < 0.001
        np.testing.assert_allclose(
            res.objective_history, goldens.OBJECTIVE_HISTORY_2DP, rtol=0, atol=0.01
        )
        assert harden(res.partition).tolist() == goldens.HARDENED

    def test_objective_history_non_increasing(self, example_matrix, crisp_init):
        res = run_fcm(example_matrix, FcmParams(c=2, init=crisp_init))
        hist = res.objective_history
        for earlier, later in zip(hist, hist[1:]):
            assert later <= earlier * (1 + 1e-9)

    def test_converged_state_is_fixed_point(self, example_matrix, crisp_init):
        params = FcmParams(c=2, init=crisp_init)
        res = run_fcm(example_matrix, params)
        v = update_centers(res.partition**2.0, example_matrix.data)
        u = update_memberships(np.sqrt(squared_distances(example_matrix.data, v)), 2.0)
        assert np.max(np.abs(u - res.partition)) < params.epsilon

    @pytest.mark.parametrize("seed", range(5))
    def test_result_does_not_depend_on_memory_layout(self, tmp_path, seed):
        """Nor does a run given its own seeded start partition as init, as
        an --init-file run is given it, write other bytes."""
        n, m, c = 500, 20, 4
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 10000.0, size=(n, m))
        doc_ids = tuple(f"d{i}" for i in range(n))
        features = [f"t{k}" for k in range(m)]
        init = init_partition(data, c, 1.3, seed=seed)

        def result_bytes(order, init):
            x = FeatureMatrix(doc_ids, np.array(data, order=order))
            params = FcmParams(c=c, fuzzifier=1.3, max_iters=10, seed=seed, init=init)
            save_result(run_fcm(x, params), doc_ids, features, tmp_path / "result.json")
            return (tmp_path / "result.json").read_bytes()

        seeded = {result_bytes(order, None) for order in "CF"}
        given = {result_bytes(order, np.array(init, order=init_order))
                 for order in "CF" for init_order in "CF"}
        assert len(seeded | given) == 1

    def test_one_power_per_partition(self, example_matrix, monkeypatch):
        """The weights J_m reads at iteration k are the very array, with the
        same bytes, that the centers of iteration k + 1 read. run_fcm
        overwrites its arrays in place, so each call is recorded as the
        array's id and its bytes at that moment."""
        centers_w, objective_w = [], []
        update, weigh = fcm.update_centers, fcm.objective

        def recording_update(w, x):
            centers_w.append((id(w), w.tobytes()))
            return update(w, x)

        def recording_objective(w, sq):
            objective_w.append((id(w), w.tobytes()))
            return weigh(w, sq)

        monkeypatch.setattr(fcm, "update_centers", recording_update)
        monkeypatch.setattr(fcm, "objective", recording_objective)
        res = run_fcm(example_matrix, FcmParams(c=2, fuzzifier=1.7, epsilon=1e-12, max_iters=4,
                                                   seed=3))
        assert len(centers_w) == len(objective_w) == res.iterations == 4
        assert objective_w[:-1] == centers_w[1:]
        u0 = init_partition(example_matrix.data, 2, 1.7, seed=3)
        assert centers_w[0][1] == (u0**1.7).tobytes()
        assert objective_w[-1][1] == (res.partition**1.7).tobytes()

    @pytest.mark.parametrize("fuzzifier", [1.3, 2.0])
    def test_reused_arrays_give_the_bits_of_fresh_ones(self, fuzzifier):
        """Each iteration of run_fcm, which overwrites its arrays in place,
        gives the bits of the kernels called without out= on fresh arrays."""
        n, m, c, iters = 300, 5, 4, 6
        data = np.random.default_rng(3).uniform(0.0, 10000.0, size=(n, m))
        data[7] = data[3]
        x = FeatureMatrix(tuple(f"d{i}" for i in range(n)), data)
        res = run_fcm(x, FcmParams(c=c, fuzzifier=fuzzifier, epsilon=1e-12, max_iters=iters,
                                   seed=5))
        data = np.asfortranarray(data)  # the layout run_fcm works on
        u = init_partition(data, c, fuzzifier, seed=5)
        objectives, changes = [], []
        for _ in range(iters):
            # np.power as run_fcm calls it; `**` may take another path at 2.0
            v = update_centers(np.power(u, fuzzifier), data)
            sq = squared_distances(data, v)
            u_next = update_memberships(np.sqrt(sq), fuzzifier)
            objectives.append(objective(np.power(u_next, fuzzifier), sq))
            changes.append(float(np.max(np.abs(u_next - u))))
            u = u_next
        assert res.partition.tobytes() == u.tobytes()
        assert res.centers.tobytes() == v.tobytes()
        assert res.objective_history == tuple(objectives)
        assert res.max_change_history == tuple(changes)

    @pytest.mark.parametrize("c", [2, 16])
    def test_working_memory_is_four_partitions(self, c):
        """Four c x n arrays, the zero mask and O(n) vectors beside the
        feature-major copy of the matrix, the same at 1 and 5 iterations:
        no iteration allocates a c x n array."""
        n, m = 5000, 20
        data = np.random.default_rng(0).uniform(0.0, 10000.0, size=(n, m))
        x = FeatureMatrix(tuple(f"d{i}" for i in range(n)), data)
        peaks = [traced_peak_bytes(run_fcm, x, FcmParams(c=c, fuzzifier=1.3, epsilon=1e-12,
                                                         max_iters=iters, seed=1))
                 for iters in (1, 5)]
        assert max(peaks) <= 36 * c * n + 8 * n * m + 32 * n
        assert abs(peaks[1] - peaks[0]) <= 4096

    @pytest.mark.parametrize("name, data, init", [
        ("goldens", goldens.EXAMPLE_ROWS, goldens.CRISP_INIT),
        # a crisp cluster of one document puts its center on that document
        ("zero distance", [[1.0, 2.0], [30.0, 40.0], [31.0, 41.0], [32.0, 39.0]],
         [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0]]),
        ("duplicates", [[5.0, 5.0]] * 3 + [[90.0, 80.0]] * 3 + [[0.0, 0.0]] * 2, None),
    ])
    def test_no_floating_point_warnings(self, name, data, init):
        """Warnings are data: no kernel divides by 0 or takes an invalid
        value, so numpy has nothing to warn about."""
        x = FeatureMatrix(tuple(f"d{i}" for i in range(len(data))), np.array(data))
        params = FcmParams(c=2, fuzzifier=1.3, epsilon=1e-12, max_iters=20, seed=2,
                           init=None if init is None else np.array(init))
        with np.errstate(divide="raise", invalid="raise"):
            res = run_fcm(x, params)
        assert np.all(np.isfinite(res.partition)) and np.all(np.isfinite(res.centers))

    @pytest.mark.parametrize("seed", range(5))
    def test_topic_matrix_does_not_collapse_at_the_default_fuzzifier(self, seed):
        """Eight topics, each owning the features f with f % 8 == t (WF 250
        there, 25 elsewhere), times gamma noise of shape 16. The first
        centers of a random partition all sit near the grand mean, from
        which m = 2.0 falls to memberships of 1/c (0.125 here); the seeded
        start keeps the topics apart (about 0.80)."""
        n, m, c = 800, 20, 8
        rng = np.random.default_rng(0)
        owner = np.arange(m) % c
        topics = np.where(owner[None, :] == np.arange(c)[:, None], 250.0, 25.0)
        mean = topics[rng.integers(0, c, size=n)]
        data = np.clip(mean * rng.gamma(16.0, 1.0 / 16.0, size=mean.shape), 0.0, 10000.0)
        x = FeatureMatrix(tuple(f"d{i}" for i in range(n)), data)
        res = run_fcm(x, FcmParams(c=c, seed=seed))
        assert res.partition.max(axis=0).mean() >= 0.7

    def test_max_iters_reached_not_converged(self, example_matrix, crisp_init):
        res = run_fcm(example_matrix, FcmParams(c=2, init=crisp_init, max_iters=2))
        assert not res.converged
        assert res.iterations == 2

    def test_identical_rows_collapse_to_empty_cluster_error(self):
        # every weighted mean of identical rows is the row itself, so
        # all distances are zero, every column goes one-hot to the first
        # cluster, and the second center update finds cluster 2 empty
        data = np.tile([[100.0, 200.0]], (4, 1))
        x = FeatureMatrix(("a", "b", "c", "d"), data)
        init = np.full((2, 4), 0.5)
        with pytest.raises(ValueError) as excinfo:
            run_fcm(x, FcmParams(c=2, init=init))
        assert str(excinfo.value) == ("empty cluster: cluster 1 has no membership weight;"
                                      " the 4 documents hold 1 distinct vector(s) for 2 clusters")

    def test_underflow_empties_a_cluster_without_coincidence(self):
        # at a fuzzifier this close to 1, every membership in the third
        # cluster underflows to 0; the six rows are distinct, so the
        # message adds no distinct-vector clause
        x = FeatureMatrix(tuple("abcdef"), np.array([10.0, 11.0, 12.0, 90.0, 91.0, 92.0])[:, None])
        init = np.array([[0.9] * 3 + [0.0] * 3, [0.0] * 3 + [0.9] * 3, [0.1] * 6])
        with pytest.raises(ValueError) as excinfo:
            run_fcm(x, FcmParams(c=3, fuzzifier=1.001, init=init))
        assert str(excinfo.value) == "empty cluster: cluster 2 has no membership weight"

    def test_identical_rows_one_iteration_goes_one_hot(self):
        data = np.tile([[100.0, 200.0]], (4, 1))
        x = FeatureMatrix(("a", "b", "c", "d"), data)
        init = np.full((2, 4), 0.5)
        res = run_fcm(x, FcmParams(c=2, init=init, max_iters=1))
        np.testing.assert_array_equal(res.partition[0], np.ones(4))
        np.testing.assert_allclose(res.centers, np.tile([[100.0, 200.0]], (2, 1)))

    def test_single_cluster(self, example_matrix):
        res = run_fcm(example_matrix, FcmParams(c=1))
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_array_equal(res.partition, np.ones((1, 8)))

    def test_deterministic_with_seed(self, example_matrix):
        a = run_fcm(example_matrix, FcmParams(c=2, seed=11))
        b = run_fcm(example_matrix, FcmParams(c=2, seed=11))
        np.testing.assert_array_equal(a.partition, b.partition)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert a.objective_history == b.objective_history

    def test_propagates_empty_cluster(self, example_matrix):
        init = np.vstack([np.zeros(8), np.ones(8)])
        with pytest.raises(ValueError, match="empty cluster"):
            run_fcm(example_matrix, FcmParams(c=2, init=init))


class TestHarden:
    def test_final_state_grouping(self):
        row1 = np.array(goldens.FINAL_ROW1)
        u = np.vstack([row1, 1.0 - row1])
        assert harden(u).tolist() == goldens.HARDENED

    def test_tie_takes_lowest_index(self):
        assert harden(np.array([[0.5], [0.5]])).tolist() == [0]

    def test_single_cluster(self):
        assert harden(np.ones((1, 4))).tolist() == [0, 0, 0, 0]


class TestResultFiles:
    def test_round_trip(self, tmp_path, example_matrix, crisp_init):
        res = run_fcm(example_matrix, FcmParams(c=2, init=crisp_init))
        path = tmp_path / "result.json"
        save_result(res, example_matrix.doc_ids, ["stadium", "ball", "team", "democracy"], path)
        loaded = load_result(path)
        assert loaded["doc_ids"] == list(example_matrix.doc_ids)
        assert loaded["features"] == ["stadium", "ball", "team", "democracy"]
        assert loaded["iterations"] == res.iterations
        assert loaded["converged"] is True
        np.testing.assert_array_equal(loaded["memberships"], res.partition)
        np.testing.assert_array_equal(loaded["centers"], res.centers)
        assert loaded["objective_history"] == list(res.objective_history)
        assert loaded["max_change_history"] == list(res.max_change_history)

        # files written before max_change_history was persisted still load
        raw = json.loads(path.read_text(encoding="utf-8"))
        del raw["max_change_history"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert "max_change_history" not in load_result(path)

    @pytest.mark.parametrize("doc_ids,features,change,message", [
        pytest.param(goldens.DOC_IDS, ["f", "f", "g", "h"], {},
                     "features must be unique non-empty strings", id="repeated-feature"),
        pytest.param(goldens.DOC_IDS, ["f", "", "g", "h"], {},
                     "features must be unique non-empty strings", id="empty-feature"),
        pytest.param(range(8), ["f", "g", "h", "i"], {},
                     "doc_ids must be unique non-empty strings", id="doc_ids-not-a-list"),
        pytest.param(list(range(8)), ["f", "g", "h", "i"], {},
                     "doc_ids must be unique non-empty strings", id="doc_ids-numbers"),
        pytest.param(goldens.DOC_IDS[:7], ["f", "g", "h", "i"], {},
                     "invalid partition: expected 7 columns, got 8", id="fewer-doc-ids"),
        pytest.param(goldens.DOC_IDS, ["f", "g", "h"], {}, "centers must be 2 x 3",
                     id="fewer-features"),
        pytest.param(goldens.DOC_IDS, ["f", "g", "h", "i"], {"partition": np.full((2, 8), 0.4)},
                     "invalid partition: columns must sum to 1", id="not-a-partition"),
        pytest.param(goldens.DOC_IDS, ["f", "g", "h", "i"], {"centers": np.full((2, 4), np.nan)},
                     "centers must lie in [0, 10000]", id="nan-centers"),
    ])
    def test_writer_refuses_what_its_reader_refuses(self, tmp_path, example_matrix, crisp_init,
                                                      doc_ids, features, change, message):
        res = dataclasses.replace(
            run_fcm(example_matrix, FcmParams(c=2, init=crisp_init, max_iters=1)), **change)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_result(res, doc_ids, features, tmp_path / "result.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("c", [2, 16])
    def test_writer_holds_one_row_of_text(self, tmp_path, c):
        """The partition is streamed a row at a time: the writer's peak is
        its checked copy of the partition plus O(n), whatever c is."""
        n, m = 5000, 4
        u = dirichlet_partition(c, n, c)
        result = FcmResult(u, np.ones((c, m)), 1, (1.0,), (0.5,), False)
        doc_ids, features = tuple(f"d{i}" for i in range(n)), [f"t{k}" for k in range(m)]
        peak = traced_peak_bytes(save_result, result, doc_ids, features, tmp_path / "r.json")
        assert peak <= u.nbytes + 200 * n

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"doc_ids": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="invalid result file"):
            load_result(path)


class TestValidatePartition:
    def test_accepts_valid(self, crisp_init):
        validate_partition(crisp_init, n=8, c=2)

    def test_rejects_bad_column_sum(self):
        with pytest.raises(ValueError, match="invalid partition"):
            validate_partition(np.array([[0.7], [0.7]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="invalid partition"):
            validate_partition(np.array([[1.2], [-0.2]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="invalid partition"):
            validate_partition(np.ones(4))
        with pytest.raises(ValueError, match="invalid partition"):
            validate_partition(np.ones((2, 3)), n=4)
        with pytest.raises(ValueError, match="invalid partition"):
            validate_partition(np.full((3, 3), 1.0 / 3.0), c=2)


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_memberships_column_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        c, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        d = rng.uniform(0.0, 500.0, size=(c, n))
        # plant exact zeros in some columns
        for col in range(0, n, 3):
            d[int(rng.integers(0, c)), col] = 0.0
        u = update_memberships(d, float(rng.uniform(1.1, 4.0)))
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        np.testing.assert_allclose(u.sum(axis=0), 1.0, rtol=0, atol=1e-9)
        for col in range(n):
            zero_rows = np.flatnonzero(d[:, col] == 0.0)
            if zero_rows.size:
                expected = np.zeros(c)
                expected[zero_rows[0]] = 1.0
                np.testing.assert_array_equal(u[:, col], expected)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_objective_descent(self, seed):
        x, u0 = random_instance(seed, n=8, m=3, c=3)
        res = run_fcm(x, FcmParams(c=3, init=u0, max_iters=20))
        hist = res.objective_history
        for earlier, later in zip(hist, hist[1:]):
            assert later <= earlier * (1 + 1e-9) + 1e-12

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(5, 12), st.integers(0, 4),
           st.integers(0, 3), st.floats(1.05, 5.0), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_objective_descends_to_1e_12(self, c, m, distinct, duplicates, zeros, fuzzifier,
                                         seed):
        """J_m never rises from one iteration to the next (Bezdek 1980),
        to 1e-12 relative, with duplicate and all-zero documents."""
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 10000.0, size=(distinct, m))
        data = np.vstack([data, data[rng.integers(0, distinct, size=duplicates)],
                          np.zeros((zeros, m))])
        x = FeatureMatrix(tuple(f"d{i}" for i in range(len(data))), data)
        hist = run_fcm(x, FcmParams(c=c, fuzzifier=fuzzifier, epsilon=1e-9, max_iters=30,
                                    seed=seed)).objective_history
        for earlier, later in zip(hist, hist[1:]):
            assert later <= earlier * (1 + 1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_memberships_monotone_in_distance(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 5))
        d = rng.uniform(1.0, 400.0, size=(c, 1))
        u = update_memberships(d, 2.0)
        order_by_distance = np.argsort(d[:, 0])
        memberships = u[order_by_distance, 0]
        assert np.all(np.diff(memberships) < 0) or len(set(d[:, 0])) < c

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance_one_iteration(self, seed):
        rng = np.random.default_rng(seed)
        n, m, c = 10, 4, 3
        data = rng.uniform(0.0, 10000.0, size=(n, m))
        u0 = dirichlet_partition(c, n, seed)
        perm = rng.permutation(n)

        def one_iteration(matrix, u):
            v = update_centers(u**2.0, matrix)
            return update_memberships(np.sqrt(squared_distances(matrix, v)), 2.0), v

        u_plain, v_plain = one_iteration(data, u0)
        u_perm, v_perm = one_iteration(data[perm], u0[:, perm])
        np.testing.assert_allclose(u_perm, u_plain[:, perm], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(v_perm, v_plain, rtol=1e-9, atol=1e-9)

    @given(st.integers(0, 10_000))
    # converges at epsilon 1e-3 after a last change of 9.9e-4, and the next
    # iteration still moves a membership by 1.05e-3: a change under epsilon
    # does not bound the next one
    @example(2374)
    @settings(max_examples=100, deadline=None)
    def test_converged_runs_are_fixed_points(self, seed):
        # converged far below 1e-3, a run is a fixed point within 1e-3, and
        # one more iteration never raises J_m, converged or not
        x, u0 = random_instance(seed, n=7, m=2, c=2)
        res = run_fcm(x, FcmParams(c=2, init=u0, max_iters=1000, epsilon=1e-9))
        v = update_centers(res.partition**2.0, x.data)
        sq = squared_distances(x.data, v)
        u = update_memberships(np.sqrt(sq), 2.0)
        assert objective(u**2.0, sq) <= res.objective_history[-1] * (1 + 1e-12)
        if res.converged:
            assert np.max(np.abs(u - res.partition)) < 1e-3

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_crisp_centers_are_cluster_means(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 8, 3
        data = rng.uniform(0.0, 10000.0, size=(n, m))
        assignment = rng.integers(0, 2, size=n)
        assignment[0], assignment[1] = 0, 1  # keep both clusters non-empty
        u = np.zeros((2, n))
        u[assignment, np.arange(n)] = 1.0
        fuzzifier = float(rng.uniform(1.1, 4.0))
        v = update_centers(u**fuzzifier, data)
        for j in range(2):
            np.testing.assert_allclose(
                v[j], data[assignment == j].mean(axis=0), rtol=1e-12
            )


# names as a caller might pass them: strings that collide and may be
# empty, and values no name list holds
NAME = st.one_of(st.text("ab", max_size=2), st.text(max_size=3), st.integers(0, 2), st.none(),
                 st.booleans(), st.lists(st.text("a", max_size=1), max_size=1))
NAMES = st.one_of(st.lists(NAME, max_size=4), st.lists(NAME, max_size=4).map(tuple),
                  st.text(max_size=2), st.none())


def _feature_set_round_trip(doc_ids, features, path):
    save_feature_set(features, path)
    return load_feature_set(path), list(features)


def _result_round_trip(doc_ids, features, path):
    n, m = len(doc_ids or ()), len(features or ())
    save_result(FcmResult(np.ones((1, n)), np.zeros((1, m)), 1, (0.0,), (0.0,), True),
                doc_ids, features, path)
    loaded = load_result(path)
    return [loaded["doc_ids"], loaded["features"]], [list(doc_ids), list(features)]


def _clustered_matrix_round_trip(doc_ids, features, path):
    x = FeatureMatrix(doc_ids, np.ones((len(doc_ids or ()), max(len(features or ()), 1))))
    save_result(run_fcm(x, FcmParams(c=1, max_iters=1)), x.doc_ids, features, path)
    loaded = load_result(path)
    return [loaded["doc_ids"], loaded["features"]], [list(doc_ids), list(features)]


@pytest.mark.parametrize("round_trip", [_feature_set_round_trip, _result_round_trip,
                                        _clustered_matrix_round_trip])
@settings(max_examples=100, deadline=None)
@given(doc_ids=NAMES, features=NAMES)
def test_names_round_trip_or_nothing_is_written(round_trip, doc_ids, features):
    """Each writer of names either raises ValueError and leaves no file, or
    its reader returns the names it was given."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            read, written = round_trip(doc_ids, features, Path(tmp) / "out.json")
        except ValueError:
            assert list(Path(tmp).iterdir()) == []
        else:
            assert read == written


# memberships that stress the float text: 0 and -0, the least subnormal, a
# number json writes in exponent form, and 1
MEMBERSHIP = st.sampled_from([0.0, -0.0, 5e-324, 1e-05]) | st.floats(0.0, 0.25)


@st.composite
def partitions(draw):
    """A c x n partition whose columns sum to 1 within rounding: c - 1 drawn
    memberships and their complement, in a drawn row."""
    c, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    u = np.empty((c, n))
    for i in range(n):
        column = draw(st.lists(MEMBERSHIP, min_size=c - 1, max_size=c - 1))
        column.insert(draw(st.integers(0, c - 1)), 1.0 - math.fsum(column))
        u[:, i] = column
    return u


@settings(max_examples=200, deadline=None)
@given(partitions())
def test_streamed_memberships_write_the_bytes_of_the_whole_list(u):
    """save_result streams the partition a row at a time, and its file is
    the one write_json gives for the same payload with u.tolist()."""
    c, n = u.shape
    doc_ids, features = tuple(f"d{i}" for i in range(n)), ["t"]
    centers = np.full((c, 1), 0.5)
    result = FcmResult(u, centers, 2, (3.5, 1e-05), (0.25, 0.0), True)
    with tempfile.TemporaryDirectory() as tmp:
        streamed, whole = Path(tmp) / "streamed.json", Path(tmp) / "whole.json"
        save_result(result, doc_ids, features, streamed)
        write_json({"doc_ids": list(doc_ids), "features": features, "memberships": u.tolist(),
                    "centers": centers.tolist(), "iterations": 2, "converged": True,
                    "objective_history": [3.5, 1e-05], "max_change_history": [0.25, 0.0]},
                   whole)
        assert streamed.read_bytes() == whole.read_bytes()
