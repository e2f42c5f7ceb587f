import itertools
import json
import re
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
from peak_memory import traced_peak_bytes
from fuzzydocs.features import LabeledProfile
from fuzzydocs.labeling import (
    STRENGTHS,
    TIE_TOLERANCE,
    StrengthReport,
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


def make_report(doc_ids, labels, rows, top, strength):
    """A report built directly: rows holds each document's degrees, a
    row per doc id and a column per label, read as float64."""
    memberships = np.array(rows, dtype=float).reshape(len(doc_ids), len(labels)).T
    return StrengthReport(tuple(doc_ids), tuple(labels), memberships, np.array(top, dtype=int),
                          np.array(strength, dtype=int))


def entries(report):
    """The report.json entry of each document, as a plain dict: the oracle
    that save_report and the report table are checked against."""
    return [{"doc_id": doc_id, "labels": dict(zip(report.labels, column)),
             "top_label": report.labels[j], "strength": STRENGTHS[k]}
            for doc_id, column, j, k in zip(report.doc_ids, report.memberships.T.tolist(),
                                            report.top.tolist(), report.strength.tolist())]


def json_lines(rows):
    """A JSON array file of rows, each line as json.dumps writes it."""
    return "[\n  " + ",\n  ".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n]\n"


def strengths(report):
    return [STRENGTHS[k] for k in report.strength.tolist()]


def many_documents():
    """A seeded 8 x 20,000 partition, with its doc ids and labels."""
    u = np.random.default_rng(0).dirichlet(np.full(8, 0.3), size=20_000).T.copy()
    return u, [f"doc{i:05d}" for i in range(20_000)], [f"label{j}" for j in range(8)]


def reference_report_table(report):
    """The table padded one cell at a time with ljust, each character of a
    name that is not printable written as its escape: the reference that
    render_report_table must match byte for byte."""
    if not report.doc_ids:
        return ""

    def escaped(name):
        return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in name)

    header = ["doc_id"] + [escaped(lab) for lab in report.labels] + ["top_label", "strength"]
    rows = [header]
    for r in entries(report):
        rows.append(
            [escaped(r["doc_id"])]
            + [f"{r['labels'][lab]:.4f}" for lab in report.labels]
            + [escaped(r["top_label"]), r["strength"]]
        )
    widths = [max(len(row[k]) for row in rows) for k in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)


def old_rank_documents(u, doc_ids, labels, label):
    """rank_documents as a key sort of (doc id, degree) pairs."""
    j = list(labels).index(label)
    pairs = [(doc_id, float(u[j, i])) for i, doc_id in enumerate(doc_ids)]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs


def old_report_order(rows):
    """The report command's order as a key sort of entries."""
    return sorted(rows, key=lambda e: (e["top_label"], -e["labels"][e["top_label"]], e["doc_id"]))


@st.composite
def tied_partitions(draw):
    """A c x n partition of quarters, so degrees often tie, with some zeros
    written as -0.0, and unique doc ids and labels in any order."""
    c = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    columns = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.integers(0, 4), min_size=c - 1, max_size=c - 1)))
        columns.append([(b - a) / 4 for a, b in zip([0, *cuts], [*cuts, 4])])
    u = np.array(columns).T.copy()
    negative = draw(st.lists(st.booleans(), min_size=u.size, max_size=u.size))
    u[(u == 0) & np.array(negative, dtype=bool).reshape(u.shape)] = -0.0
    names = st.text("abAB", min_size=1, max_size=3)
    doc_ids = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(names, min_size=c, max_size=c, unique=True))
    return u, doc_ids, labels


def brute_force_labels(centers, profiles, features):
    """Reference search: every injective assignment in lexicographic label
    order, each distance computed afresh, and the first whose total is
    within the tie tolerance of the minimum kept."""
    vectors = {p.label: np.array([p.wf.get(t, 0.0) for t in features], dtype=float)
               for p in profiles}
    totals = [(labels, sum(float(np.linalg.norm(centers[j] - vectors[lab]))
                           for j, lab in enumerate(labels)))
              for labels in itertools.permutations(sorted(vectors), len(centers))]
    best = min(total for _, total in totals)
    return next(labels for labels, total in totals
                if total <= best + TIE_TOLERANCE * max(best, 1.0))


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
        with pytest.raises(ValueError, match=re.escape("centers must lie in [0, 10000]")):
            label_clusters(centers, profiles, FEATURES)
        # a profile refuses a non-finite WF when it is made, before any labelling
        with pytest.raises(ValueError,
                           match=re.escape("WFs of profile 'sports' must lie in [0, 10000]")):
            LabeledProfile("sports", {**profiles[0].wf, "ball": value})

    @pytest.mark.parametrize("wf,rule", [
        pytest.param("5", "must be numbers", id="str"),
        pytest.param(True, "must be numbers", id="bool"),
        pytest.param(-1, "must lie in [0, 10000]", id="negative"),
        pytest.param(10 ** 400, "must lie in [0, 10000]", id="int-past-float"),
    ])
    def test_bad_wf_names_its_profile(self, profiles, wf, rule):
        with pytest.raises(ValueError, match=re.escape(f"WFs of profile 'sports' {rule}")):
            LabeledProfile("sports", {**profiles[0].wf, "ball": wf})

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

    def test_totals_split_by_rounding_tie(self):
        # sqrt(2) + sqrt(8) and 0 + sqrt(18) are both 3 sqrt(2), but their
        # float sums differ in the last bit
        profiles = [LabeledProfile("a", {"x": 0.0, "y": 0.0}),
                    LabeledProfile("b", {"x": 1.0, "y": 1.0})]
        centers = np.array([[1.0, 1.0], [3.0, 3.0]])
        assert 2 ** 0.5 + 8 ** 0.5 != 18 ** 0.5
        assert label_clusters(centers, profiles, ["x", "y"]) == ("a", "b")

    @pytest.mark.parametrize("centers", [
        pytest.param(np.array([1.0, 9.0]), id="1-d"),
        pytest.param(np.ones((2, 4, 1)), id="3-d"),
        pytest.param(np.ones((2, 3)), id="narrow"),
        pytest.param(np.ones((2, 5)), id="wide"),
    ])
    def test_centers_shape_checked(self, profiles, centers):
        with pytest.raises(ValueError, match=r"centers must be a c x 4 array .*got shape"):
            label_clusters(centers, profiles, FEATURES)

    def test_many_labels_in_polynomial_time(self):
        # 20!/4! label sequences: a search over them would never finish
        rng = np.random.default_rng(5)
        features = [f"t{i}" for i in range(6)]
        profiles = [LabeledProfile(f"l{k:02d}", dict(zip(features, rng.integers(0, 3, 6) * 1.0)))
                    for k in range(20)]
        centers = rng.integers(0, 3, (16, 6)) * 1.0
        start = time.perf_counter()
        labels = label_clusters(centers, profiles, features)
        assert time.perf_counter() - start < 5.0
        assert len(set(labels)) == 16

    def test_total_matches_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_labels = int(rng.integers(1, 21))
            c = int(rng.integers(1, n_labels + 1))
            m = int(rng.integers(1, 6))
            features = [f"t{i}" for i in range(m)]
            vectors = rng.random((n_labels, m)) * 100
            centers = rng.random((c, m)) * 100
            profiles = [LabeledProfile(f"l{k:02d}", dict(zip(features, vec)))
                        for k, vec in enumerate(vectors.tolist())]
            dist = np.linalg.norm(centers[:, None, :] - vectors[None, :, :], axis=2)
            rows, cols = optimize.linear_sum_assignment(dist)
            labels = label_clusters(centers, profiles, features)
            total = dist[np.arange(c), [int(lab[1:]) for lab in labels]].sum()
            assert total == pytest.approx(dist[rows, cols].sum(), rel=1e-9)


class TestClassifyStrength:
    @pytest.mark.parametrize("u", [
        pytest.param([[0.5], [float("nan")]], id="nan"),
        pytest.param([[1.5], [-0.5]], id="outside-unit-interval"),
        pytest.param([[True], [False]], id="bool"),
    ])
    def test_memberships_are_numbers_in_unit_interval(self, u):
        with pytest.raises(ValueError, match="^invalid partition: memberships must "):
            classify_strength(u, ["d"], SPORTS_FIRST)
        with pytest.raises(ValueError, match="^invalid partition: memberships must "):
            rank_documents(u, ["d"], SPORTS_FIRST, "sports")

    @pytest.mark.parametrize("u,doc_ids,labels,message", [
        # the 0.9 would be dropped from {"a": ...}, leaving top_label "a" at 0.1
        pytest.param([[0.9], [0.1]], ["d"], ("a", "a"), "labels must be unique non-empty strings",
                     id="repeated-labels"),
        pytest.param([[0.9, 0.2], [0.1, 0.8]], ["d", "d"], SPORTS_FIRST,
                     "doc_ids must be unique non-empty strings", id="repeated-doc-ids"),
        pytest.param([[0.9], [0.1]], [""], SPORTS_FIRST, "doc_ids must be unique non-empty strings",
                     id="empty-doc-id"),
        pytest.param([[0.9], [0.1]], [7], SPORTS_FIRST, "doc_ids must be unique non-empty strings",
                     id="doc-id-not-a-string"),
        pytest.param([[0.9], [0.3]], ["d"], SPORTS_FIRST, "invalid partition: columns must sum to 1",
                     id="column-sum-above-one"),
        pytest.param([[0.5, 0.5], [0.1, 0.5]], ["d", "e"], SPORTS_FIRST,
                     "invalid partition: columns must sum to 1", id="column-sum-below-one"),
    ])
    def test_names_and_partition_pass_their_rules(self, u, doc_ids, labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify_strength(np.array(u), doc_ids, labels)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rank_documents(np.array(u), doc_ids, labels, labels[0])

    def test_strong_document(self):
        u = np.array([[0.890], [0.110]])
        report = classify_strength(u, ["doc1"], SPORTS_FIRST)
        assert strengths(report) == ["strong"]
        assert report.labels[report.top[0]] == "sports"
        assert entries(report)[0]["labels"] == {"sports": 0.890, "politics": 0.110}

    def test_small_spread_is_ambiguous(self):
        u = np.array([[0.35], [0.35], [0.30]])
        report = classify_strength(u, ["d"], ("a", "b", "c"), ambiguity_margin=0.1)
        assert strengths(report) == ["ambiguous"]

    def test_even_split_is_ambiguous(self):
        u = np.array([[0.5], [0.5]])
        report = classify_strength(u, ["d"], SPORTS_FIRST)
        assert strengths(report) == ["ambiguous"]

    def test_middling_document_is_moderate(self):
        u = np.array([[0.7], [0.3]])
        report = classify_strength(u, ["d"], SPORTS_FIRST)
        assert strengths(report) == ["moderate"]

    def test_final_state_classes(self):
        report = classify_strength(final_partition(), goldens.DOC_IDS, SPORTS_FIRST)
        by_id = {r["doc_id"]: r for r in entries(report)}
        assert by_id["doc1"]["strength"] == "strong"
        assert by_id["doc5"]["strength"] == "strong"
        assert by_id["doc3"]["strength"] == "strong"
        assert by_id["doc2"]["strength"] == "moderate"
        assert by_id["doc7"]["strength"] == "moderate"
        for doc_id in ("doc1", "doc2", "doc5", "doc7"):
            assert by_id[doc_id]["top_label"] == "sports"
        for doc_id in ("doc3", "doc4", "doc6", "doc8"):
            assert by_id[doc_id]["top_label"] == "politics"

    def test_every_document_gets_exactly_one_class(self):
        report = classify_strength(final_partition(), goldens.DOC_IDS, SPORTS_FIRST)
        assert report.doc_ids == tuple(goldens.DOC_IDS)
        assert report.top.shape == report.strength.shape == (8,)
        assert set(strengths(report)) <= {"strong", "moderate", "ambiguous"}

    def test_degrees_sum_to_one(self):
        report = classify_strength(final_partition(), goldens.DOC_IDS, SPORTS_FIRST)
        for r in entries(report):
            assert sum(r["labels"].values()) == pytest.approx(1.0, abs=1e-9)

    def test_relabeling_invariance(self):
        u = final_partition()
        direct = classify_strength(u, goldens.DOC_IDS, SPORTS_FIRST)
        flipped = classify_strength(u[::-1], goldens.DOC_IDS, SPORTS_FIRST[::-1])
        assert entries(direct) == entries(flipped)

    def test_single_cluster_is_strong(self):
        # every degree is 1, and any threshold in (0, 1) is accepted
        report = classify_strength(np.ones((1, 3)), ["a", "b", "c"], ("sports",),
                                   strong_threshold=0.3)
        assert strengths(report) == ["strong"] * 3
        assert entries(report)[0] == {"doc_id": "a", "labels": {"sports": 1.0},
                                      "top_label": "sports", "strength": "strong"}

    def test_holds_its_own_copy_of_the_partition(self):
        u = final_partition()
        report = classify_strength(u, goldens.DOC_IDS, SPORTS_FIRST)
        u[:] = 0.5
        assert report.memberships.tolist() == final_partition().tolist()

    def test_peak_is_two_partitions_and_a_few_rows(self):
        # the validated copy and the checks' temporaries, and a few n-long
        # arrays of 8-byte numbers: no Python object per document or degree
        u, doc_ids, labels = many_documents()
        n = len(doc_ids)
        assert traced_peak_bytes(classify_strength, u, doc_ids, labels) <= 2 * u.nbytes + 64 * n

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
        with pytest.raises(ValueError, match="^invalid partition: expected 1 rows, got 2$"):
            classify_strength(np.array([[0.9], [0.1]]), ["d"], ("sports",))


class TestRankDocuments:
    @settings(max_examples=200, deadline=None)
    @given(tied_partitions(), st.data())
    def test_matches_the_key_sort(self, partition, data):
        # ties, -0.0 beside 0.0 among them, break by doc id, and each
        # degree keeps its sign
        u, doc_ids, labels = partition
        label = data.draw(st.sampled_from(labels))
        ranked = rank_documents(u, doc_ids, labels, label)
        expected = old_rank_documents(u, doc_ids, labels, label)
        assert [(d, repr(x)) for d, x in ranked] == [(d, repr(x)) for d, x in expected]

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
        with pytest.raises(ValueError, match="^invalid partition: expected 2 columns, got 1$"):
            rank_documents(np.array([[0.9], [0.1]]), ["a", "b"], SPORTS_FIRST, "sports")

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="^invalid partition: expected 3 rows, got 2$"):
            rank_documents(np.array([[0.9], [0.1]]), ["a"],
                           ("sports", "politics", "weather"), "weather")


class TestReportOrder:
    @settings(max_examples=200, deadline=None)
    @given(tied_partitions())
    def test_by_top_label_matches_the_key_sort(self, partition):
        u, doc_ids, labels = partition
        report = classify_strength(u, doc_ids, labels)
        assert entries(report.by_top_label()) == old_report_order(entries(report))

    @pytest.mark.parametrize("ties", [False, True])
    def test_many_documents_match_the_key_sort(self, ties):
        u, doc_ids, labels = many_documents()
        rng = np.random.default_rng(3)
        if ties:  # degrees in hundredths, so top degrees tie across documents
            n = len(doc_ids)
            cuts = np.sort(rng.integers(0, 101, (7, n)), axis=0)
            u = np.diff(np.vstack([np.zeros(n), cuts, np.full(n, 100)]), axis=0) / 100
        doc_ids = [doc_ids[i] for i in rng.permutation(len(doc_ids))]
        report = classify_strength(u, doc_ids, labels[::-1])
        assert entries(report.by_top_label()) == old_report_order(entries(report))


WORKED_EXAMPLE = classify_strength(final_partition(), goldens.DOC_IDS, SPORTS_FIRST)

# the names and degrees the encoder treats specially: quotes, backslashes,
# control characters, U+2028, non-ASCII and % (the line template's own
# marker); the shortest repr of each degree, the subnormal and -0.0 among them
JSON_NAMES = st.text(st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029é☃\U0001f600%r ')
                     | st.characters(exclude_categories=("Cs",)),
                     min_size=1, max_size=6)
JSON_DEGREES = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-05, 0.1]) | st.floats(0.0, 1.0)


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(WORKED_EXAMPLE, path)
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
        assert raw == entries(WORKED_EXAMPLE)
        assert all(list(r) == ["doc_id", "labels", "top_label", "strength"] for r in raw)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda c: st.tuples(
        st.lists(JSON_NAMES, min_size=1, max_size=5, unique=True),
        st.lists(JSON_NAMES, min_size=c, max_size=c, unique=True),
        st.lists(st.tuples(st.lists(JSON_DEGREES, min_size=c, max_size=c), st.integers(0, c - 1),
                           st.integers(0, 2)), min_size=5, max_size=5))))
    def test_every_line_is_what_json_dumps_writes(self, drawn):
        doc_ids, labels, documents = drawn
        documents = documents[:len(doc_ids)]
        report = make_report(doc_ids, labels, [row for row, _, _ in documents],
                             [j for _, j, _ in documents], [k for _, _, k in documents])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            save_report(report, path)
            assert path.read_bytes() == json_lines(entries(report)).encode("utf-8")

    def test_many_documents_are_what_json_dumps_writes(self, tmp_path):
        # more documents than one block of converted degrees
        u, doc_ids, labels = many_documents()
        report = classify_strength(u[:, :3000], doc_ids[:3000], labels)
        save_report(report, tmp_path / "report.json")
        assert (tmp_path / "report.json").read_text("utf-8") == json_lines(entries(report))

    def test_save_peak_is_under_one_partition(self, tmp_path):
        # degrees are converted to Python floats a block of documents at a
        # time, not all n x c at once (32 bytes each, 5 MB here)
        u, doc_ids, labels = many_documents()
        report = classify_strength(u, doc_ids, labels)
        assert traced_peak_bytes(save_report, report, tmp_path / "report.json") <= u.nbytes

    def test_lone_surrogate_names_the_file(self, tmp_path):
        path = tmp_path / "report.json"
        report = classify_strength(final_partition(), ["ok", *goldens.DOC_IDS[1:-1], "\udcff"],
                                   SPORTS_FIRST)
        with pytest.raises(ValueError, match=re.escape(f"cannot write {path}")):
            save_report(report, path)
        assert list(tmp_path.iterdir()) == []

    def test_render_table(self):
        table = render_report_table(WORKED_EXAMPLE)
        lines = table.splitlines()
        assert lines[0].split() == ["doc_id", "sports", "politics", "top_label", "strength"]
        assert len(lines) == 9
        doc1_line = next(line for line in lines if line.startswith("doc1"))
        assert "0.8900" in doc1_line and "strong" in doc1_line

    def test_render_empty(self):
        assert render_report_table(make_report([], ["a", "b"], [], [], [])) == ""

    def test_render_escapes_names(self):
        # one line per document however its name reads; widths count the escapes
        report = make_report(["a\nerror: b"], ["s\tt"], [[1.0]], [0], [0])
        assert render_report_table(report) == (
            "doc_id       s\\tt    top_label  strength\n"
            "a\\nerror: b  1.0000  s\\tt       strong")

    @pytest.mark.parametrize("report", [
        pytest.param(WORKED_EXAMPLE, id="worked-example"),
        pytest.param(make_report(["d"], ["a-much-longer-label", "b"], [[0.25, 0.75]], [1], [2]),
                     id="long-label"),
        pytest.param(make_report(["doc-" + "x" * 40, "d2"], ["a", "b"], [[0.5, 0.5], [1.0, 0.0]],
                                 [0, 0], [1, 0]), id="long-doc-id"),
        pytest.param(make_report(["d1", "d2"], ["a", "b"], [[0.0, 1.0], [1.0, 0.0]], [1, 0],
                                 [0, 0]), id="zero-and-one"),
        pytest.param(make_report(["d1", "d2"], ["only"], [[1.0], [1.0]], [0, 0], [0, 0]),
                     id="one-cluster"),
        pytest.param(make_report(["d1", "d2", "d3"], ["a", "b"],
                                 [[-0.0, 12.5], [float("nan"), -3.25], [float("inf"), 0.99999]],
                                 [1, 0, 0], [0, 1, 2]), id="outside-unit-interval"),
        pytest.param(make_report(["d1"], ["a", "b"], [[float("nan"), float("-inf")]], [0], [2]),
                     id="no-finite-degree"),
        pytest.param(make_report(["a\nerror: b", "d\x1b[2J"], ["x\ty", "é"],
                                 [[0.25, 0.75], [1.0, 0.0]], [0, 1], [2, 0]),
                     id="unprintable-names"),
        pytest.param(make_report(["d1", "d2"], ["a", "b", "c"],
                                 [[0.03125, 0.00005, 0.99995], [0.12345, 0.5, 0.00015]], [2, 1],
                                 [2, 1]), id="near-tie"),
        pytest.param(make_report([], ["a", "b"], [], [], []), id="empty"),
    ])
    def test_render_matches_cell_by_cell_table(self, report):
        assert render_report_table(report) == reference_report_table(report)

    def test_render_peak_is_the_lines_and_one_partition(self):
        # each row's cells are sliced as it is formatted: no list of n cell
        # strings beside the lines, and no n x c array once they are built
        u, doc_ids, labels = many_documents()
        report = classify_strength(u, doc_ids, labels)
        table = render_report_table(report)
        lines = table.split("\n")
        kept = sys.getsizeof(table) + sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
        assert traced_peak_bytes(render_report_table, report) <= kept + u.nbytes

    def test_render_every_four_decimal_value_and_near_tie(self):
        # every k / 10000, and every tie (2k + 1) / 20000 nudged by up to
        # 4 ulps each way: the cells computed in numpy against format()
        ties = (2 * np.arange(10000) + 1) / 20000
        columns = [np.arange(10000) / 10000, ties]
        for direction in (0.0, 1.0):
            nudged = ties
            for _ in range(4):
                nudged = np.nextafter(nudged, direction)
                columns.append(nudged)
        rows = [*np.column_stack(columns).tolist(), [1.0] * len(columns)]
        report = make_report([f"d{i}" for i in range(len(rows))],
                             [f"x{j}" for j in range(len(columns))], rows, [0] * len(rows),
                             [2] * (len(rows) - 1) + [0])
        assert render_report_table(report) == reference_report_table(report)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 8]).flatmap(lambda c: st.lists(st.tuples(
        st.lists(st.one_of(
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0).map(np.float64),
            st.floats(0.0, 1.0, width=32).map(np.float32),
            st.integers(0, 9_999).map(lambda k: (2 * k + 1) / 20_000),  # ties
            st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 0.00005]),
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-10**6, 10**6),
            st.integers(-10**6, 10**6).map(np.int64),
            st.booleans(),
            st.booleans().map(np.bool_),
        ), min_size=c, max_size=c),
        st.integers(0, c - 1), st.integers(0, 2)),
        min_size=1, max_size=12)))
    def test_render_any_degrees_as_format_does(self, documents):
        rows = [row for row, _, _ in documents]
        # the report holds float64: every drawn number prints as its float does
        assert all(format(x, ".4f") == format(float(x), ".4f") for row in rows for x in row)
        report = make_report([f"d{i}" for i in range(len(rows))],
                             [f"label{j}" for j in range(len(rows[0]))], rows,
                             [j for _, j, _ in documents], [k for _, _, k in documents])
        assert render_report_table(report) == reference_report_table(report)
