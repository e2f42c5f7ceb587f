"""Acceptance suite: nine criteria, one test (and one verbose output
line) per criterion.

Reference values live in goldens.py; they were computed with exact
fraction arithmetic independently of the package. Criterion 8 codes its
own brute-force update rules inline so the engine is checked against a
second, independent formulation.
"""

import json
import math

import numpy as np

import goldens
from fuzzydocs.fcm import (
    FcmParams,
    FeatureMatrix,
    harden,
    init_partition,
    run_fcm,
    squared_distances,
    update_centers,
    update_memberships,
)
from fuzzydocs.features import LabeledProfile, select_features, word_frequency
from fuzzydocs.labeling import label_clusters
from fuzzydocs.cli import main


def worked_example():
    x = FeatureMatrix(goldens.DOC_IDS, np.array(goldens.EXAMPLE_ROWS))
    u0 = np.array(goldens.CRISP_INIT)
    return x, u0


def test_criterion_1_word_frequency_golden():
    assert abs(word_frequency(5, 44) - 1136.36) <= 0.01


def test_criterion_2_center_golden_exact_quarters():
    x, u0 = worked_example()
    v = update_centers(u0**2.0, x.data)
    for got, want in zip(v[0], goldens.CENTER_1):
        assert abs(got - want) <= 1e-9
    for got, want in zip(v[1], goldens.CENTER_2):
        assert abs(got - want) <= 1e-9


def test_criterion_3_distance_golden_both_bands():
    x, u0 = worked_example()
    v = update_centers(u0**2.0, x.data)
    d = np.sqrt(squared_distances(x.data, v))
    for j, (oracle, worksheet) in enumerate(
        [(goldens.D1, goldens.D1_WORKSHEET), (goldens.D2, goldens.D2_WORKSHEET)]
    ):
        for i in range(8):
            assert abs(d[j, i] - oracle[i]) <= 0.01
            assert abs(d[j, i] - worksheet[i]) <= 1.0


def test_criterion_4_membership_golden_first_iteration():
    x, u0 = worked_example()
    res = run_fcm(x, FcmParams(c=2, init=u0, max_iters=1))
    u = res.partition
    for i in range(8):
        assert abs(u[0, i] - goldens.U1_ROW1_WORKSHEET[i]) <= 0.01
        assert abs(u[1, i] - (1.0 - goldens.U1_ROW1_WORKSHEET[i])) <= 0.01
        # and tight agreement with the exact-arithmetic values
        assert abs(u[0, i] - goldens.U1_ROW1[i]) <= 1e-9


def test_criterion_5_convergence_grouping_and_labels():
    x, u0 = worked_example()
    res = run_fcm(x, FcmParams(c=2, init=u0, epsilon=0.001))
    assert res.converged
    assignment = harden(res.partition)
    groups = {j: {doc for doc, g in zip(goldens.DOC_IDS, assignment) if g == j}
              for j in (0, 1)}
    group_of_doc1 = groups[assignment[0]]
    other = groups[1 - assignment[0]]
    assert group_of_doc1 == {"doc1", "doc2", "doc5", "doc7"}
    assert other == {"doc3", "doc4", "doc6", "doc8"}

    profiles = [
        LabeledProfile("sports", dict(goldens.SPORTS_WF)),
        LabeledProfile("politics", dict(goldens.POLITICS_WF)),
    ]
    labels = label_clusters(res.centers, profiles, list(goldens.MATRIX_FEATURES))
    assert labels[assignment[0]] == "sports"
    assert labels[assignment[2]] == "politics"


def test_criterion_6_feature_selection_golden():
    profiles = [
        LabeledProfile("sports", dict(goldens.SPORTS_WF)),
        LabeledProfile("politics", dict(goldens.POLITICS_WF)),
    ]
    selected = select_features(profiles, top_k=4, min_ratio=2.0, min_wf=5.0)
    assert selected == ["democracy", "stadium", "ball", "team"]
    assert not set(selected) & {"win", "candidate", "campaign"}


def test_criterion_7_randomized_property_suite():
    rng = np.random.default_rng(20260819)
    cases = 0

    # membership update: column stochasticity, range, exact one-hot on
    # planted zero-distance columns (600 cases)
    for _ in range(600):
        c = int(rng.integers(1, 6))
        n = int(rng.integers(1, 13))
        d = rng.uniform(0.0, 800.0, size=(c, n))
        planted = []
        for col in range(n):
            if rng.random() < 0.3:
                row = int(rng.integers(0, c))
                d[row, col] = 0.0
                planted.append((row, col))
        u = update_memberships(d, float(rng.uniform(1.2, 4.0)))
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        assert np.max(np.abs(u.sum(axis=0) - 1.0)) <= 1e-9
        for _, col in planted:
            first_zero = int(np.flatnonzero(d[:, col] == 0.0)[0])
            expected = np.zeros(c)
            expected[first_zero] = 1.0
            assert np.array_equal(u[:, col], expected)
        cases += 1

    # objective descent over full runs (150 cases)
    for _ in range(150):
        n, m, c = 7, 3, int(rng.integers(2, 4))
        data = rng.uniform(0.0, 10000.0, size=(n, m))
        x = FeatureMatrix(tuple(f"d{i}" for i in range(n)), data)
        u0 = init_partition(n, c, seed=int(rng.integers(0, 2**31)))
        res = run_fcm(x, FcmParams(c=c, init=u0, max_iters=15))
        hist = res.objective_history
        for earlier, later in zip(hist, hist[1:]):
            assert later <= earlier * (1 + 1e-9) + 1e-12
        cases += 1

    # within-column membership order is the reverse of distance order
    # (150 cases)
    for _ in range(150):
        c = int(rng.integers(2, 6))
        d = rng.uniform(1.0, 500.0, size=(c, 1))
        if len(set(d[:, 0].tolist())) < c:
            continue
        u = update_memberships(d, 2.0)
        by_distance = np.argsort(d[:, 0])
        assert np.all(np.diff(u[by_distance, 0]) < 0.0)
        cases += 1

    # permutation equivariance on random 10x4 instances (100 cases)
    for _ in range(100):
        n, m, c = 10, 4, 3
        data = rng.uniform(0.0, 10000.0, size=(n, m))
        u0 = init_partition(n, c, seed=int(rng.integers(0, 2**31)))
        perm = rng.permutation(n)
        v_plain = update_centers(u0**2.0, data)
        u_plain = update_memberships(np.sqrt(squared_distances(data, v_plain)), 2.0)
        v_perm = update_centers(u0[:, perm]**2.0, data[perm])
        u_perm = update_memberships(np.sqrt(squared_distances(data[perm], v_perm)), 2.0)
        assert np.allclose(v_perm, v_plain, rtol=1e-9, atol=1e-9)
        assert np.allclose(u_perm, u_plain[:, perm], rtol=1e-9, atol=1e-12)
        cases += 1

    assert cases >= 1000


def test_criterion_8_oracle_equivalence_one_iteration():
    def brute_force(rows, u, fuzzifier):
        c, n, m = len(u), len(rows), len(rows[0])
        centers = []
        for j in range(c):
            weights = [u[j][i] ** fuzzifier for i in range(n)]
            denom = sum(weights)
            centers.append([
                sum(weights[i] * rows[i][k] for i in range(n)) / denom
                for k in range(m)
            ])
        dists = [
            [math.sqrt(sum((rows[i][k] - centers[j][k]) ** 2 for k in range(m)))
             for i in range(n)]
            for j in range(c)
        ]
        exponent = 2.0 / (fuzzifier - 1.0)
        new_u = [[0.0] * n for _ in range(c)]
        for i in range(n):
            zeros = [j for j in range(c) if dists[j][i] == 0.0]
            if zeros:
                new_u[zeros[0]][i] = 1.0
            else:
                for j in range(c):
                    total = sum(
                        (dists[j][i] / dists[k][i]) ** exponent for k in range(c)
                    )
                    new_u[j][i] = 1.0 / total
        return centers, dists, new_u

    rng = np.random.default_rng(8)
    for case in range(60):
        n, m = 6, 2
        c = 2 if case % 2 == 0 else 3
        fuzzifier = float(rng.uniform(1.3, 3.5))
        data = rng.uniform(0.0, 10000.0, size=(n, m))
        u0 = init_partition(n, c, seed=int(rng.integers(0, 2**31)))

        v_engine = update_centers(u0**fuzzifier, data)
        d_engine = np.sqrt(squared_distances(data, v_engine))
        u_engine = update_memberships(d_engine, fuzzifier)

        rows = data.tolist()
        v_ref, d_ref, u_ref = brute_force(rows, u0.tolist(), fuzzifier)
        assert np.allclose(v_engine, v_ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(d_engine, d_ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(u_engine, u_ref, rtol=1e-12, atol=1e-12)

        # the loop must compose exactly these kernels
        x = FeatureMatrix(tuple(f"d{i}" for i in range(n)), data)
        res = run_fcm(x, FcmParams(c=c, fuzzifier=fuzzifier, init=u0, max_iters=1))
        assert np.allclose(res.partition, u_ref, rtol=1e-12, atol=1e-12)


def test_criterion_9_cluster_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    texts = {
        "a.txt": "ball ball stadium team win over",
        "b.txt": "democracy vote candidate democracy",
        "c.txt": "ball stadium stadium goal",
        "d.txt": "vote democracy candidate campaign",
    }
    for name, text in texts.items():
        (corpus / name).write_text(text, encoding="utf-8")
    features = tmp_path / "features.json"
    features.write_text(json.dumps(["ball", "stadium", "democraci", "vote"]),
                        encoding="utf-8")
    payloads = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main([
            "cluster", "--corpus", str(corpus), "--features", str(features),
            "--clusters", "2", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
