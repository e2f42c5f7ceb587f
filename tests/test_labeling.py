import json

import numpy as np
import pytest

import goldens
from fuzzydocs.features import LabeledProfile
from fuzzydocs.labeling import (
    ClusterLabeling,
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


def sports_first_labeling() -> ClusterLabeling:
    return ClusterLabeling({0: "sports", 1: "politics"}, {0: 0.0, 1: 0.0})


class TestLabelClusters:
    def test_worked_example_assignment(self, profiles):
        labeling = label_clusters(CENTERS, profiles, FEATURES)
        assert labeling.assignment == {0: "sports", 1: "politics"}
        assert labeling.cluster_of("sports") == 0
        assert labeling.cluster_of("politics") == 1

    def test_single_cluster_single_profile(self, sports_profile):
        labeling = label_clusters(CENTERS[:1], [sports_profile], FEATURES)
        assert labeling.assignment == {0: "sports"}

    def test_identical_centers_tie_lexicographic(self, profiles):
        centers = np.array([[100.0, 100.0, 100.0, 100.0]] * 2)
        labeling = label_clusters(centers, profiles, FEATURES)
        assert labeling.assignment == {0: "politics", 1: "sports"}

    def test_insufficient_profiles(self, sports_profile):
        with pytest.raises(ValueError, match="insufficient profiles"):
            label_clusters(CENTERS, [sports_profile], FEATURES)

    def test_duplicate_labels_rejected(self, sports_profile):
        with pytest.raises(ValueError, match="unique"):
            label_clusters(CENTERS, [sports_profile, sports_profile], FEATURES)

    def test_profile_order_invariance(self, profiles):
        forward = label_clusters(CENTERS, profiles, FEATURES)
        backward = label_clusters(CENTERS, list(reversed(profiles)), FEATURES)
        assert forward.assignment == backward.assignment
        assert forward.score == backward.score

    def test_score_is_distance_to_matched_profile(self, profiles):
        labeling = label_clusters(CENTERS, profiles, FEATURES)
        sports_vec = np.array([profiles[0].wf.get(f, 0.0) for f in FEATURES])
        expected = float(np.sqrt(((CENTERS[0] - sports_vec) ** 2).sum()))
        assert labeling.score[0] == pytest.approx(expected, rel=1e-12)

    def test_center_on_profile_scores_zero(self, profiles):
        sports_vec = [profiles[0].wf.get(f, 0.0) for f in FEATURES]
        politics_vec = [profiles[1].wf.get(f, 0.0) for f in FEATURES]
        centers = np.array([politics_vec, sports_vec])
        labeling = label_clusters(centers, profiles, FEATURES)
        assert labeling.assignment == {0: "politics", 1: "sports"}
        assert labeling.score[0] == 0.0
        assert labeling.score[1] == 0.0

    def test_extra_profiles_allowed(self, profiles):
        # remote in the selected dimensions, so it should never win
        extra = LabeledProfile("weather", {"stadium": 9000.0, "rain": 400.0})
        labeling = label_clusters(CENTERS, profiles + [extra], FEATURES)
        assert labeling.assignment == {0: "sports", 1: "politics"}

    def test_unknown_label_lookup(self, profiles):
        labeling = label_clusters(CENTERS, profiles, FEATURES)
        with pytest.raises(ValueError, match="unknown label"):
            labeling.cluster_of("weather")


class TestClassifyStrength:
    def test_strong_document(self):
        u = np.array([[0.890], [0.110]])
        reports = classify_strength(u, ["doc1"], sports_first_labeling())
        assert reports[0].strength == "strong"
        assert reports[0].top_label == "sports"
        assert reports[0].memberships == {"sports": 0.890, "politics": 0.110}

    def test_small_spread_is_ambiguous(self):
        u = np.array([[0.35], [0.35], [0.30]])
        labeling = ClusterLabeling({0: "a", 1: "b", 2: "c"}, {0: 0.0, 1: 0.0, 2: 0.0})
        reports = classify_strength(u, ["d"], labeling, ambiguity_margin=0.1)
        assert reports[0].strength == "ambiguous"

    def test_even_split_is_ambiguous(self):
        u = np.array([[0.5], [0.5]])
        reports = classify_strength(u, ["d"], sports_first_labeling())
        assert reports[0].strength == "ambiguous"

    def test_middling_document_is_moderate(self):
        u = np.array([[0.7], [0.3]])
        reports = classify_strength(u, ["d"], sports_first_labeling())
        assert reports[0].strength == "moderate"

    def test_final_state_classes(self):
        reports = classify_strength(final_partition(), goldens.DOC_IDS, sports_first_labeling())
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
        reports = classify_strength(final_partition(), goldens.DOC_IDS, sports_first_labeling())
        assert len(reports) == 8
        assert all(r.strength in {"strong", "moderate", "ambiguous"} for r in reports)

    def test_degrees_sum_to_one(self):
        reports = classify_strength(final_partition(), goldens.DOC_IDS, sports_first_labeling())
        for r in reports:
            assert sum(r.memberships.values()) == pytest.approx(1.0, abs=1e-9)

    def test_relabeling_invariance(self):
        u = final_partition()
        direct = classify_strength(u, goldens.DOC_IDS, sports_first_labeling())
        flipped_labeling = ClusterLabeling({0: "politics", 1: "sports"}, {0: 0.0, 1: 0.0})
        flipped = classify_strength(u[::-1], goldens.DOC_IDS, flipped_labeling)
        assert direct == flipped

    def test_threshold_validation(self):
        u = np.array([[0.9], [0.1]])
        labeling = sports_first_labeling()
        with pytest.raises(ValueError):
            classify_strength(u, ["d"], labeling, strong_threshold=1.5)
        with pytest.raises(ValueError):
            classify_strength(u, ["d"], labeling, strong_threshold=0.4)
        with pytest.raises(ValueError):
            classify_strength(u, ["d"], labeling, ambiguity_margin=0.0)

    def test_doc_id_count_must_match(self):
        with pytest.raises(ValueError):
            classify_strength(np.array([[0.9], [0.1]]), ["a", "b"], sports_first_labeling())


class TestRankDocuments:
    def test_final_state_sports_order(self):
        ranked = rank_documents(final_partition(), goldens.DOC_IDS,
                                sports_first_labeling(), "sports")
        ids = [doc_id for doc_id, _ in ranked]
        assert ids[:4] == ["doc1", "doc5", "doc7", "doc2"]
        assert ids == ["doc1", "doc5", "doc7", "doc2", "doc8", "doc6", "doc4", "doc3"]
        degrees = [degree for _, degree in ranked]
        assert degrees == sorted(degrees, reverse=True)
        assert len(ranked) == 8

    def test_all_equal_falls_back_to_doc_id(self):
        u = np.full((2, 3), 0.5)
        ranked = rank_documents(u, ("z", "a", "m"), sports_first_labeling(), "sports")
        assert [doc_id for doc_id, _ in ranked] == ["a", "m", "z"]

    def test_single_document(self):
        ranked = rank_documents(np.array([[1.0], [0.0]]), ("only",),
                                sports_first_labeling(), "sports")
        assert ranked == [("only", 1.0)]

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown label"):
            rank_documents(final_partition(), goldens.DOC_IDS,
                           sports_first_labeling(), "weather")


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        reports = classify_strength(final_partition(), goldens.DOC_IDS,
                                    sports_first_labeling())
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
                                    sports_first_labeling())
        table = render_report_table(reports)
        lines = table.splitlines()
        assert lines[0].split() == ["doc_id", "sports", "politics", "top_label", "strength"]
        assert len(lines) == 9
        doc1_line = next(line for line in lines if line.startswith("doc1"))
        assert "0.8900" in doc1_line and "strong" in doc1_line

    def test_render_empty(self):
        assert render_report_table([]) == ""
