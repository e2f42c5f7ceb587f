import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import goldens
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


def traced_peak_bytes(f, *args):
    """Peak bytes allocated while f runs; numpy reports its buffers to
    tracemalloc."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_instance(seed: int, n: int = 6, m: int = 2, c: int = 2):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 10000.0, size=(n, m))
    x = FeatureMatrix(tuple(f"d{i}" for i in range(n)), data)
    u0 = init_partition(n, c, seed=seed)
    return x, u0


class TestFeatureMatrix:
    def test_basic(self, example_matrix):
        assert example_matrix.n_docs == 8
        assert example_matrix.n_features == 4

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


class TestInitPartition:
    def test_explicit_accepted_verbatim(self, crisp_init):
        u = init_partition(8, 2, init=crisp_init)
        np.testing.assert_array_equal(u, crisp_init)

    def test_single_cluster_is_all_ones(self):
        np.testing.assert_array_equal(init_partition(5, 1), np.ones((1, 5)))

    def test_random_mode_is_valid_and_deterministic(self):
        a = init_partition(8, 2, seed=42)
        b = init_partition(8, 2, seed=42)
        np.testing.assert_array_equal(a, b)
        validate_partition(a, n=8, c=2)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)
        np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-9)

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_partition(8, 2, seed=1), init_partition(8, 2, seed=2))

    def test_rejects_invalid_explicit(self):
        bad = np.array([[0.6, 0.6], [0.6, 0.6]])
        with pytest.raises(ValueError, match="invalid partition"):
            init_partition(2, 2, init=bad)
        with pytest.raises(ValueError, match="invalid partition"):
            init_partition(2, 2, init=np.array([[1.5, -0.5], [-0.5, 1.5]]))

    def test_rejects_more_clusters_than_docs(self):
        with pytest.raises(ValueError):
            init_partition(2, 3)


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
        u = init_partition(8, 3, seed=5)
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
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_broadcast_form(self, c, n, m, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 10000.0, size=(n, m))
        v = rng.uniform(0.0, 10000.0, size=(c, m))
        v[0] = x[0]  # one exact zero distance
        sq = squared_distances(x, v)
        np.testing.assert_array_equal(sq, sequential_squared_distances(x, v))
        np.testing.assert_array_equal(squared_distances(np.asfortranarray(x), v), sq)
        np.testing.assert_allclose(sq, broadcast_squared_distances(x, v), rtol=1e-15)

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
        n, m, c = 500, 20, 4
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 10000.0, size=(n, m))
        doc_ids = tuple(f"d{i}" for i in range(n))
        features = [f"t{k}" for k in range(m)]
        init = init_partition(n, c, seed=seed)

        def result_bytes(order, init):
            x = FeatureMatrix(doc_ids, np.array(data, order=order))
            params = FcmParams(c=c, fuzzifier=1.3, max_iters=10, seed=seed, init=init)
            save_result(run_fcm(x, params), doc_ids, features, tmp_path / "result.json")
            return (tmp_path / "result.json").read_bytes()

        assert len({result_bytes(order, None) for order in "CF"}) == 1
        given = {result_bytes(order, np.array(init, order=init_order))
                 for order in "CF" for init_order in "CF"}
        assert len(given) == 1

    def test_one_power_per_partition(self, example_matrix, monkeypatch):
        """The weights J_m reads at iteration k are the very array the
        centers of iteration k + 1 read."""
        centers_w, objective_w = [], []
        update, weigh = fcm.update_centers, fcm.objective

        def recording_update(w, x):
            centers_w.append(w)
            return update(w, x)

        def recording_objective(w, sq):
            objective_w.append(w)
            return weigh(w, sq)

        monkeypatch.setattr(fcm, "update_centers", recording_update)
        monkeypatch.setattr(fcm, "objective", recording_objective)
        res = run_fcm(example_matrix, FcmParams(c=2, fuzzifier=1.7, epsilon=1e-12, max_iters=6,
                                                   seed=3))
        assert len(centers_w) == len(objective_w) == res.iterations == 6
        assert all(a is b for a, b in zip(objective_w, centers_w[1:]))
        assert centers_w[0].tobytes() == (init_partition(8, 2, seed=3) ** 1.7).tobytes()
        assert objective_w[-1].tobytes() == (res.partition**1.7).tobytes()

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
        with pytest.raises(ValueError, match="empty cluster"):
            run_fcm(x, FcmParams(c=2, init=init))

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

    @pytest.mark.parametrize("doc_ids,features,what", [
        pytest.param(goldens.DOC_IDS, ["f", "f", "g", "h"], "features", id="repeated-feature"),
        pytest.param(goldens.DOC_IDS, ["f", "", "g", "h"], "features", id="empty-feature"),
        pytest.param(range(8), ["f", "g", "h", "i"], "doc_ids", id="doc_ids-not-a-list"),
        pytest.param(list(range(8)), ["f", "g", "h", "i"], "doc_ids", id="doc_ids-numbers"),
    ])
    def test_writer_refuses_what_its_reader_refuses(self, tmp_path, example_matrix, crisp_init,
                                                      doc_ids, features, what):
        res = run_fcm(example_matrix, FcmParams(c=2, init=crisp_init, max_iters=1))
        with pytest.raises(ValueError, match=f"^{what} must be unique non-empty strings$"):
            save_result(res, doc_ids, features, tmp_path / "result.json")
        assert list(tmp_path.iterdir()) == []

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
        u0 = init_partition(n, c, seed=seed)
        perm = rng.permutation(n)

        def one_iteration(matrix, u):
            v = update_centers(u**2.0, matrix)
            return update_memberships(np.sqrt(squared_distances(matrix, v)), 2.0), v

        u_plain, v_plain = one_iteration(data, u0)
        u_perm, v_perm = one_iteration(data[perm], u0[:, perm])
        np.testing.assert_allclose(u_perm, u_plain[:, perm], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(v_perm, v_plain, rtol=1e-9, atol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_converged_runs_are_fixed_points(self, seed):
        x, u0 = random_instance(seed, n=7, m=2, c=2)
        params = FcmParams(c=2, init=u0, max_iters=200)
        res = run_fcm(x, params)
        if not res.converged:
            return
        v = update_centers(res.partition**2.0, x.data)
        u = update_memberships(np.sqrt(squared_distances(x.data, v)), 2.0)
        assert np.max(np.abs(u - res.partition)) < params.epsilon

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
