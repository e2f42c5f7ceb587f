import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
from fuzzydocs.features import LabeledProfile
from fuzzydocs.labeling import (
    classify_strength,
    label_clusters,
    rank_documents,
    render_report_table,
    save_report,
)

FEATURES = list(goldens.MATRIX_FEATURES)

# converged-looking centers for the worked example, cluster 1 sporty
CENTERS = np.array([
    [195.0, 398.0, 199.0, 2.4],
    [6.7, 18.0, 32.6, 38.3],
])


def final_partition() -> np.ndarray:
    row1 = np.array(goldens.FINAL_ROW1)
    return np.vstack([row1, 1.0 - row1])


SPORTS_FIRST = ("sports", "politics")


def brute_force_labels(centers, profiles, features):
    """Reference search: every injective assignment in lexicographic label
    order, each distance computed afresh, the first strict minimum kept."""
    vectors = {p.label: np.array([p.wf.get(t, 0.0) for t in features], dtype=float)
               for p in profiles}
    best, best_total = None, np.inf
    for labels in itertools.permutations(sorted(vectors), len(centers)):
        total = sum(float(np.linalg.norm(centers[j] - vectors[lab]))
                    for j, lab in enumerate(labels))
        if total < best_total:
            best, best_total = labels, total
    return best


@st.composite
def labelling_problems(draw):
    """1 <= c <= L <= 6 on a coarse integer grid, so totals often tie, plus
    forced exact ties: repeated centers and one profile vector under two labels."""
    m = draw(st.integers(1, 3))
    n_labels = draw(st.integers(1, 6))
    c = draw(st.integers(1, n_labels))
    point = st.lists(st.integers(0, 3).map(float), min_size=m, max_size=m)
    centers = draw(st.lists(point, min_size=c, max_size=c))
    for j in range(1, c):
        if draw(st.booleans()):
            centers[j] = centers[draw(st.integers(0, j - 1))]
    vectors = draw(st.lists(point, min_size=n_labels, max_size=n_labels))
    for k in range(1, n_labels):
        if draw(st.booleans()):
            vectors[k] = vectors[draw(st.integers(0, k - 1))]
    labels = draw(st.lists(st.text("abc", min_size=1, max_size=2), min_size=n_labels,
                           max_size=n_labels, unique=True))
    features = [f"t{i}" for i in range(m)]
    profiles = [LabeledProfile(lab, dict(zip(features, vec))) for lab, vec in zip(labels, vectors)]
    return np.array(centers), draw(st.permutations(profiles)), features


class TestLabelClusters:
    def test_worked_example_assignment(self, profiles):
        assert label_clusters(CENTERS, profiles, FEATURES) == SPORTS_FIRST

    def test_single_cluster_single_profile(self, sports_profile):
        assert label_clusters(CENTERS[:1], [sports_profile], FEATURES) == ("sports",)

    def test_identical_centers_tie_lexicographic(self, profiles):
        centers = np.array([[100.0, 100.0, 100.0, 100.0]] * 2)
        assert label_clusters(centers, profiles, FEATURES) == ("politics", "sports")

    @settings(max_examples=300, deadline=None)
    @given(labelling_problems())
    def test_matches_brute_force(self, problem):
        centers, profiles, features = problem
        assert label_clusters(centers, profiles, features) == brute_force_labels(*problem)

    def test_one_norm_per_center_profile_pair(self, profiles, monkeypatch):
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda x: calls.append(1) or norm(x))
        extra = LabeledProfile("weather", {"stadium": 9000.0, "rain": 400.0})
        assert label_clusters(CENTERS, profiles + [extra], FEATURES) == SPORTS_FIRST
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_input_rejected(self, profiles, value):
        centers = CENTERS.copy()
        centers[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            label_clusters(centers, profiles, FEATURES)
        infinite = LabeledProfile("sports", {**profiles[0].wf, "ball": value})
        with pytest.raises(ValueError, match="finite"):
            label_clusters(CENTERS, [infinite, profiles[1]], FEATURES)

    def test_insufficient_profiles(self, sports_profile):
        with pytest.raises(ValueError, match="insufficient profiles"):
            label_clusters(CENTERS, [sports_profile], FEATURES)

    def test_duplicate_labels_rejected(self, sports_profile):
        with pytest.raises(ValueError, match="unique"):
            label_clusters(CENTERS, [sports_profile, sports_profile], FEATURES)

    def test_profile_order_invariance(self, profiles):
        forward = label_clusters(CENTERS, profiles, FEATURES)
        assert label_clusters(CENTERS, list(reversed(profiles)), FEATURES) == forward

    def test_centers_on_profiles(self, profiles):
        sports_vec = [profiles[0].wf.get(f, 0.0) for f in FEATURES]
        politics_vec = [profiles[1].wf.get(f, 0.0) for f in FEATURES]
        centers = np.array([politics_vec, sports_vec])
        assert label_clusters(centers, profiles, FEATURES) == ("politics", "sports")

    def test_extra_profiles_allowed(self, profiles):
        # remote in the selected dimensions, so it should never win
        extra = LabeledProfile("weather", {"stadium": 9000.0, "rain": 400.0})
        assert label_clusters(CENTERS, profiles + [extra], FEATURES) == SPORTS_FIRST


class TestClassifyStrength:
    def test_strong_document(self):
        u = np.array([[0.890], [0.110]])
        reports = classify_strength(u, ["doc1"], SPORTS_FIRST)
        assert reports[0].strength == "strong"
        assert reports[0].top_label == "sports"
        assert reports[0].memberships == {"sports": 0.890, "politics": 0.110}

    def test_small_spread_is_ambiguous(self):
        u = np.array([[0.35], [0.35], [0.30]])
        reports = classify_strength(u, ["d"], ("a", "b", "c"), ambiguity_margin=0.1)
        assert reports[0].strength == "ambiguous"

    def test_even_split_is_ambiguous(self):
        u = np.array([[0.5], [0.5]])
        reports = classify_strength(u, ["d"], SPORTS_FIRST)
        assert reports[0].strength == "ambiguous"

    def test_middling_document_is_moderate(self):
        u = np.array([[0.7], [0.3]])
        reports = classify_strength(u, ["d"], SPORTS_FIRST)
        assert reports[0].strength == "moderate"

    def test_final_state_classes(self):
        reports = classify_strength(final_partition(), goldens.DOC_IDS, SPORTS_FIRST)
        by_id = {r.doc_id: r for r in reports}
        assert by_id["doc1"].strength == "strong"
        assert by_id["doc5"].strength == "strong"
        assert by_id["doc3"].strength == "strong"
        assert by_id["doc2"].strength == "moderate"
        assert by_id["doc7"].strength == "moderate"
        for doc_id in ("doc1", "doc2", "doc5", "doc7"):
            assert by_id[doc_id].top_label == "sports"
        for doc_id in ("doc3", "doc4", "doc6", "doc8"):
            assert by_id[doc_id].top_label == "politics"

    def test_every_document_gets_exactly_one_class(self):
        reports = classify_strength(final_partition(), goldens.DOC_IDS, SPORTS_FIRST)
        assert len(reports) == 8
        assert all(r.strength in {"strong", "moderate", "ambiguous"} for r in reports)

    def test_degrees_sum_to_one(self):
        reports = classify_strength(final_partition(), goldens.DOC_IDS, SPORTS_FIRST)
        for r in reports:
            assert sum(r.memberships.values()) == pytest.approx(1.0, abs=1e-9)

    def test_relabeling_invariance(self):
        u = final_partition()
        direct = classify_strength(u, goldens.DOC_IDS, SPORTS_FIRST)
        flipped = classify_strength(u[::-1], goldens.DOC_IDS, SPORTS_FIRST[::-1])
        assert direct == flipped

    def test_threshold_validation(self):
        u = np.array([[0.9], [0.1]])
        with pytest.raises(ValueError):
            classify_strength(u, ["d"], SPORTS_FIRST, strong_threshold=1.5)
        with pytest.raises(ValueError):
            classify_strength(u, ["d"], SPORTS_FIRST, strong_threshold=0.4)
        with pytest.raises(ValueError):
            classify_strength(u, ["d"], SPORTS_FIRST, ambiguity_margin=0.0)

    def test_doc_id_count_must_match(self):
        with pytest.raises(ValueError):
            classify_strength(np.array([[0.9], [0.1]]), ["a", "b"], SPORTS_FIRST)

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="labels length"):
            classify_strength(np.array([[0.9], [0.1]]), ["d"], ("sports",))


class TestRankDocuments:
    def test_final_state_sports_order(self):
        ranked = rank_documents(final_partition(), goldens.DOC_IDS,
                                SPORTS_FIRST, "sports")
        ids = [doc_id for doc_id, _ in ranked]
        assert ids[:4] == ["doc1", "doc5", "doc7", "doc2"]
        assert ids == ["doc1", "doc5", "doc7", "doc2", "doc8", "doc6", "doc4", "doc3"]
        degrees = [degree for _, degree in ranked]
        assert degrees == sorted(degrees, reverse=True)
        assert len(ranked) == 8

    def test_all_equal_falls_back_to_doc_id(self):
        u = np.full((2, 3), 0.5)
        ranked = rank_documents(u, ("z", "a", "m"), SPORTS_FIRST, "sports")
        assert [doc_id for doc_id, _ in ranked] == ["a", "m", "z"]

    def test_single_document(self):
        ranked = rank_documents(np.array([[1.0], [0.0]]), ("only",),
                                SPORTS_FIRST, "sports")
        assert ranked == [("only", 1.0)]

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown label"):
            rank_documents(final_partition(), goldens.DOC_IDS,
                           SPORTS_FIRST, "weather")

    def test_doc_count_must_match(self):
        with pytest.raises(ValueError, match="doc_ids length"):
            rank_documents(np.array([[0.9], [0.1]]), ["a", "b"], SPORTS_FIRST, "sports")

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="labels length"):
            rank_documents(np.array([[0.9], [0.1]]), ["a"],
                           ("sports", "politics", "weather"), "weather")


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        reports = classify_strength(final_partition(), goldens.DOC_IDS,
                                    SPORTS_FIRST)
        path = tmp_path / "report.json"
        save_report(reports, path)
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
        assert raw == [
            {"doc_id": r.doc_id, "labels": r.memberships, "top_label": r.top_label,
             "strength": r.strength}
            for r in reports
        ]

    def test_render_table(self):
        reports = classify_strength(final_partition(), goldens.DOC_IDS,
                                    SPORTS_FIRST)
        table = render_report_table(reports)
        lines = table.splitlines()
        assert lines[0].split() == ["doc_id", "sports", "politics", "top_label", "strength"]
        assert len(lines) == 9
        doc1_line = next(line for line in lines if line.startswith("doc1"))
        assert "0.8900" in doc1_line and "strong" in doc1_line

    def test_render_empty(self):
        assert render_report_table([]) == ""
