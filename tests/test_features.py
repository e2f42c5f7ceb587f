import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import goldens
from fuzzydocs.features import (
    WF_SCALE,
    LabeledProfile,
    build_profile,
    discrimination_ratio,
    load_feature_set,
    load_profile,
    save_feature_set,
    save_profile,
    score_terms,
    select_features,
    vectorize,
    word_frequency,
)
from fuzzydocs.preprocess import preprocess_document


def reference_score_terms(profiles):
    """The per-term scoring that the one-table :func:`score_terms`
    replaced: one ``max / (min + 1)`` in Python per term, sorted by
    ``(-ratio, term)``."""
    universe = sorted({t for p in profiles for t in p.wf})
    scored = []
    for term in universe:
        wfs = [p.wf.get(term, 0.0) for p in profiles]
        scored.append((term, max(wfs) / (min(wfs) + 1.0)))
    scored.sort(key=lambda tr: (-tr[1], tr[0]))
    return scored


def reference_select_features(profiles, top_k, min_ratio, min_wf):
    """Filter the whole reference ranking, then truncate to top_k."""
    scored = [(term, ratio) for term, ratio in reference_score_terms(profiles)
              if ratio >= min_ratio]
    selected = [term for term, ratio in scored
                if max(p.wf.get(term, 0.0) for p in profiles) >= min_wf]
    if not selected:
        raise ValueError("no discriminative features")
    return selected[:top_k]


def selection_or_error(select, *args):
    try:
        return select(*args)
    except ValueError as e:
        return str(e)


# Few distinct values, so that ratios tie; integers as well as floats;
# terms that are non-ASCII, hold NUL, or are missing from some profiles.
wf_values = st.one_of(st.sampled_from([0.0, 1.0, 19.0, 40.0, 10000.0]),
                      st.integers(0, int(WF_SCALE)), st.floats(0.0, WF_SCALE))
profile_lists = st.lists(
    st.dictionaries(st.text("ab\x00\xe9\u65e5", max_size=3), wf_values, max_size=6),
    min_size=2, max_size=4,
).map(lambda wfs: [LabeledProfile(f"l{i}", wf) for i, wf in enumerate(wfs)])

# A clustering-explainer paragraph; after stemming, "observation" maps
# to "observ" (twice) and "centre" to "centr" (once).
EXPLAINER = (
    "It is a variation of the Hard C-Means clustering algorithm. Each "
    "observation here has a membership value associated with each of "
    "the clusters which is related inversely to the distance of that "
    "observation from the centre of the cluster."
)


class TestWordFrequency:
    def test_five_in_fortyfour(self):
        assert word_frequency(5, 44) == pytest.approx(1136.36, abs=0.01)

    def test_absent_term(self):
        assert word_frequency(0, 100) == 0.0

    def test_single_term_document(self):
        assert word_frequency(100, 100) == 10000.0

    def test_empty_document(self):
        with pytest.raises(ValueError, match="empty document"):
            word_frequency(0, 0)

    def test_unrounded(self):
        assert word_frequency(1, 3) == pytest.approx(10000.0 / 3.0, rel=1e-15)


class TestBuildProfile:
    def test_single_document(self):
        profile = build_profile("sports", [("ball", "ball", "win", "team")])
        assert profile.label == "sports"
        assert profile.wf == {"ball": 5000.0, "win": 2500.0, "team": 2500.0}

    def test_pooled_counts(self):
        profile = build_profile("x", [("ball",), ("win",)])
        assert profile.wf == {"ball": 5000.0, "win": 5000.0}

    def test_pooling_is_corpus_level_not_mean_of_docs(self):
        # doc1: ball at 5000 WF; doc2: ball at 0 WF. Mean of per-doc WFs
        # would be 2500; pooled counts give 1/5 of the corpus = 2000.
        docs = [("ball", "win"), ("win", "win", "win")]
        assert build_profile("x", docs).wf["ball"] == 2000.0

    def test_reconstructs_profile_precision(self):
        # 2773 occurrences in 55277 terms lands on the profile's printed
        # ball value at four decimals.
        seq = ("ball",) * 2773 + ("run",) * (55277 - 2773)
        profile = build_profile("sports", [seq])
        assert round(profile.wf["ball"], 4) == 501.6553

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match=r"empty corpus \(label 'x'\)"):
            build_profile("x", [(), ()])

    def test_no_documents(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_profile("x", [])


class TestSelectFeatures:
    def test_worked_example_selection(self, profiles):
        selected = select_features(profiles, top_k=4, min_ratio=2.0, min_wf=5.0)
        assert selected == goldens.SELECTED_FEATURES

    def test_worked_example_ratios(self, profiles):
        got = dict(score_terms(profiles))
        for term, ratio in goldens.RATIOS.items():
            assert got[term] == pytest.approx(ratio, abs=1e-6)

    def test_ranking_order(self, profiles):
        ranked = [t for t, _ in score_terms(profiles)]
        assert ranked == [
            "democracy", "stadium", "ball", "team", "win", "candidate", "campaign",
        ]

    def test_identical_profiles_rejected(self):
        p = LabeledProfile("a", {"x": 10.0, "y": 20.0})
        q = LabeledProfile("b", {"x": 10.0, "y": 20.0})
        with pytest.raises(ValueError, match="no discriminative features"):
            select_features([p, q])

    def test_single_label_presence(self):
        p = LabeledProfile("a", {"only": 100.0})
        q = LabeledProfile("b", {"other": 100.0})
        ranked = dict(score_terms([p, q]))
        assert ranked["only"] == pytest.approx(100.0)
        assert "only" in select_features([p, q])

    def test_needs_two_profiles(self):
        with pytest.raises(ValueError, match="two labeled profiles"):
            select_features([LabeledProfile("a", {"x": 10.0})])

    def test_top_k_must_be_positive(self, profiles):
        with pytest.raises(ValueError, match="top_k must be positive"):
            select_features(profiles, top_k=0)

    def test_discrimination_ratio(self):
        # the +1 keeps a term absent from one label finitely ranked
        assert discrimination_ratio([100.0, 0.0]) == 100.0
        assert discrimination_ratio([19.0, 40.0, 29.0]) == 2.0
        # a profiles x terms table gives one ratio per term
        table = [[100.0, 19.0, 0.0], [0.0, 40.0, 0.0], [50.0, 29.0, 0.0]]
        assert discrimination_ratio(table).tolist() == [100.0, 2.0, 0.0]

    def test_top_k_truncates(self, profiles):
        assert select_features(profiles, top_k=2) == ["democracy", "stadium"]

    def test_min_wf_excludes_rare_terms(self):
        p = LabeledProfile("a", {"rare": 4.0, "common": 400.0})
        q = LabeledProfile("b", {"common": 40.0})
        assert select_features([p, q], min_wf=5.0) == ["common"]

    def test_lexicographic_tie_break(self):
        p = LabeledProfile("a", {"bb": 40.0, "aa": 40.0})
        q = LabeledProfile("b", {"bb": 19.0, "aa": 19.0})
        assert select_features([p, q]) == ["aa", "bb"]

    def test_profile_order_invariance(self, profiles):
        forward = select_features(profiles, top_k=4)
        backward = select_features(list(reversed(profiles)), top_k=4)
        assert forward == backward

    def test_selected_features_have_support(self, profiles):
        for term in select_features(profiles, top_k=4):
            assert any(p.wf.get(term, 0.0) > 0.0 for p in profiles)

    def test_tie_break_is_python_string_order(self):
        # a numpy string array would drop the trailing NUL and see one term
        p = LabeledProfile("a", {"a\0": 40.0, "a": 40.0})
        q = LabeledProfile("b", {"a": 19.0, "a\0": 19.0})
        assert score_terms([p, q]) == [("a", 2.0), ("a\0", 2.0)]
        assert select_features([p, q]) == ["a", "a\0"]

    @pytest.mark.parametrize("wf", [math.nan, -1, -0.5, 10000.5, math.inf])
    @pytest.mark.parametrize("bad_first", [True, False])
    def test_wf_outside_range_names_its_profile(self, wf, bad_first):
        # the profile refuses itself, so no bad WF reaches score_terms or select_features
        good = ("good", {"x": 5.0, "y": 40.0})
        bad = ("bad", {"x": wf, "y": 1.0})
        message = re.escape("WFs of profile 'bad' must lie in [0, 10000]")
        with pytest.raises(ValueError, match=message):
            [LabeledProfile(*args) for args in ([bad, good] if bad_first else [good, bad])]

    @pytest.mark.parametrize("wf,rule", [
        pytest.param(True, "must be numbers", id="bool"),
        # an int, so a number, but one past the float range
        pytest.param(10 ** 400, "must lie in [0, 10000]", id="int-past-float"),
        pytest.param("5", "must be numbers", id="str"),
    ])
    def test_wf_not_a_number_names_its_profile(self, wf, rule):
        # the rule load_profile applies to a file
        good = ("good", {"x": 5.0, "y": 40.0})
        bad = ("bad", {"x": 1.0, "y": wf})
        message = re.escape(f"WFs of profile 'bad' {rule}")
        for profiles in ([bad, good], [good, bad]):
            with pytest.raises(ValueError, match=message):
                [LabeledProfile(*args) for args in profiles]

    def test_numpy_scalar_wfs_are_numbers(self):
        # a library profile built from an array holds numpy scalars
        plain = [LabeledProfile("a", {"x": 40.0, "y": 2.0}), LabeledProfile("b", {"x": 1.0})]
        scalars = [LabeledProfile(p.label, {t: np.float64(wf) for t, wf in p.wf.items()})
                   for p in plain]
        assert score_terms(scalars) == score_terms(plain)

    def test_wf_range_bounds_are_accepted(self):
        p = LabeledProfile("a", {"x": 0, "y": 10000})
        q = LabeledProfile("b", {"x": 0.0, "y": 10000.0})
        assert score_terms([p, q]) == [("y", 10000.0 / 10001.0), ("x", 0.0)]


class TestVectorize:
    def test_worked_example_row(self):
        counts = {"stadium": 180, "ball": 400, "team": 200, "democracy": 1}
        counts["other"] = 10000 - sum(counts.values())
        seq = tuple(t for t, k in counts.items() for _ in range(k))
        row = vectorize(seq, ["stadium", "ball", "team", "democracy"])
        assert row == (180.0, 400.0, 200.0, 1.0)

    def test_stemmed_paragraph_counts(self):
        seq = preprocess_document(EXPLAINER)
        row = vectorize(seq, ["observ", "centr"])
        assert row == (word_frequency(2, len(seq)), word_frequency(1, len(seq)))

    def test_disjoint_features_all_zero(self):
        assert vectorize(("ball",) * 3, ["win", "cup"]) == (0.0, 0.0)

    def test_absent_features_keep_the_whole_total(self):
        # only "ball" is counted, but every term is in the total
        row = vectorize(("ball", "bat", "ball", "pitch"), ["cup", "ball", "win"])
        assert row == (0.0, word_frequency(2, 4), 0.0)

    def test_no_features_at_all(self):
        assert vectorize(("ball", "bat"), []) == ()

    def test_single_feature_full_mass(self):
        assert vectorize(("ball",), ["ball"]) == (10000.0,)

    def test_empty_document(self):
        with pytest.raises(ValueError, match="empty document"):
            vectorize((), ["ball"])

    def test_monotone_in_added_occurrence(self):
        before = vectorize(("f", "f", "g", "g"), ["f"])[0]
        after = vectorize(("f", "f", "f", "g", "g"), ["f"])[0]
        assert after > before


class TestRoundTrips:
    def test_feature_set(self, tmp_path):
        path = tmp_path / "features.json"
        save_feature_set(["democracy", "stadium"], path)
        assert load_feature_set(path) == ["democracy", "stadium"]

    def test_feature_set_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}', encoding="utf-8")
        with pytest.raises(ValueError, match="invalid feature set"):
            load_feature_set(path)
        path.write_text('["dup", "dup"]', encoding="utf-8")
        with pytest.raises(ValueError, match="invalid feature set"):
            load_feature_set(path)

    @pytest.mark.parametrize("features", [
        pytest.param(["a", "a"], id="repeated"),
        pytest.param([], id="empty"),
        pytest.param([""], id="empty-term"),
        pytest.param([1], id="number"),
    ])
    def test_feature_set_writer_refuses_what_its_reader_refuses(self, tmp_path, features):
        path = tmp_path / "features.json"
        with pytest.raises(ValueError, match="^features must be unique non-empty strings$"):
            save_feature_set(features, path)
        assert list(tmp_path.iterdir()) == []
        path.write_text(json.dumps(features), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"invalid feature set file: {path}: features must be unique non-empty strings")):
            load_feature_set(path)

    def test_profile(self, tmp_path, sports_profile):
        path = tmp_path / "sports.profile.json"
        save_profile(sports_profile, path)
        loaded = load_profile(path)
        assert loaded.label == "sports"
        assert loaded.wf == sports_profile.wf

    def test_profile_with_numpy_scalar_wfs(self, tmp_path):
        """numpy scalars, which the number rule accepts, are held and
        written as the floats they are."""
        path = tmp_path / "x.profile.json"
        wf = {"a": np.float32(1.5), "b": np.int64(3), "c": np.float64(0.1), "d": np.uint8(7)}
        save_profile(LabeledProfile("x", wf), path)
        assert path.read_text(encoding="utf-8").splitlines()[2] == (
            '  "wf": {"a": 1.5, "b": 3.0, "c": 0.1, "d": 7.0}')
        assert load_profile(path).wf == {"a": 1.5, "b": 3.0, "c": 0.1, "d": 7.0}

    @pytest.mark.parametrize("label,wf,message", [
        pytest.param("", {"ball": 2.5},
                     "invalid profile: the label must be a non-empty string, the WFs a dict",
                     id="empty-label"),
        pytest.param(None, {"ball": 2.5},
                     "invalid profile: the label must be a non-empty string, the WFs a dict",
                     id="label-not-a-string"),
        pytest.param("x", [2.5],
                     "invalid profile: the label must be a non-empty string, the WFs a dict",
                     id="wfs-not-a-dict"),
        pytest.param("x", {"ball": 2.5, "team": math.nan},
                     "WFs of profile 'x' must lie in [0, 10000]", id="nan-wf"),
        pytest.param("x", {"ball": 10000.5}, "WFs of profile 'x' must lie in [0, 10000]",
                     id="wf-above-scale"),
        pytest.param("x", {"ball": True}, "WFs of profile 'x' must be numbers", id="bool-wf"),
    ])
    def test_profile_writer_refuses_what_its_reader_refuses(self, tmp_path, label, wf, message):
        path = tmp_path / "x.profile.json"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_profile(LabeledProfile(label, wf), path)
        assert list(tmp_path.iterdir()) == []
        # the reader refuses the same profile written as JSON
        path.write_text(json.dumps({"label": label, "wf": wf}), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"invalid profile file: {path}")):
            load_profile(path)

    def test_loaded_profiles_share_term_strings(self, tmp_path):
        # terms built at run time, so no two are the same object to begin with
        terms = [f"term{i}" for i in range(200)]
        for label in ("a", "b"):
            wf = {term: float(i) for i, term in enumerate(terms)}
            save_profile(LabeledProfile(label, wf), tmp_path / f"{label}.profile.json")
        a, b = (load_profile(tmp_path / f"{label}.profile.json") for label in ("a", "b"))
        assert list(a.wf) == list(b.wf) == terms
        assert all(x is y for x, y in zip(a.wf, b.wf))
        # profiles built apart, each from its own parse of the JSON, share them too
        c, d = (LabeledProfile(raw["label"], raw["wf"]) for raw in
                (json.loads((tmp_path / f"{label}.profile.json").read_text("utf-8"))
                 for label in ("a", "b")))
        assert all(x is y is z is w for x, y, z, w in zip(a.wf, b.wf, c.wf, d.wf))

    @pytest.mark.parametrize("kind", [int, float, np.float64, np.float32, np.int64, np.uint8])
    def test_profile_holds_python_floats(self, kind):
        profile = LabeledProfile("x", {"a": kind(3), "b": kind(0), "c": kind(200)})
        assert profile.wf == {"a": 3.0, "b": 0.0, "c": 200.0}
        assert all(type(v) is float for v in profile.wf.values())

    @pytest.mark.parametrize("kind", [int, float, np.float64, np.float32, np.int64, np.uint8])
    def test_profile_file_round_trips_byte_for_byte(self, tmp_path, kind):
        first, second = tmp_path / "first.profile.json", tmp_path / "second.profile.json"
        save_profile(LabeledProfile("x", {"a": kind(3), "b": kind(0), "c": kind(200)}), first)
        save_profile(load_profile(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert all(type(v) is float for v in json.loads(first.read_text("utf-8"))["wf"].values())

    @pytest.mark.parametrize("term", [1, None, ("a",)])
    def test_profile_terms_must_be_strings(self, term):
        with pytest.raises(ValueError, match="^terms of profile 'x' must be strings$"):
            LabeledProfile("x", {"a": 1.0, term: 2.0})

    def test_numpy_string_terms_are_held_as_str(self):
        profile = LabeledProfile("x", dict(zip(np.array(["a", "b"]), [1.0, 2.0])))
        assert profile.wf == {"a": 1.0, "b": 2.0}
        assert all(type(t) is str for t in profile.wf)

    def test_profile_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('["nope"]', encoding="utf-8")
        with pytest.raises(ValueError, match="invalid profile"):
            load_profile(path)

    @pytest.mark.parametrize("wf", ["true", '"5"', "null", "NaN", "Infinity", "-1", "10000.5",
                                    "1" + "0" * 400])
    def test_profile_rejects_wf_outside_json_numbers_in_range(self, tmp_path, wf):
        path = tmp_path / "bad.profile.json"
        path.write_text(f'{{"label": "x", "wf": {{"ball": 2.5, "team": {wf}}}}}', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"invalid profile file: {path}")):
            load_profile(path)

    @pytest.mark.parametrize("wf,rule", [
        pytest.param("true", "must be numbers", id="bool"),
        pytest.param("[2.5]", "must be numbers", id="list"),
        pytest.param("1e999", "must lie in [0, 10000]", id="infinite"),
    ])
    def test_profile_says_which_rule_a_wf_breaks(self, tmp_path, wf, rule):
        path = tmp_path / "bad.profile.json"
        path.write_text(f'{{"label": "x", "wf": {{"ball": 2.5, "team": {wf}}}}}', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"invalid profile file: {path}: WFs of profile 'x' {rule}")):
            load_profile(path)

    def test_profile_keeps_bounds_and_converts_ints(self, tmp_path):
        path = tmp_path / "ok.profile.json"
        path.write_text('{"label": "x", "wf": {"a": 0, "b": 10000, "c": 0.5}}', encoding="utf-8")
        loaded = load_profile(path)
        assert loaded.wf == {"a": 0.0, "b": 10000.0, "c": 0.5}
        assert all(type(v) is float for v in loaded.wf.values())

    @pytest.mark.parametrize("wf", ['{"a": 0, "b": 2.5}', '{"a": 1e4, "b": -0.0, "c": 3}'])
    def test_profile_reads_an_int_wf_as_a_float(self, tmp_path, wf):
        path = tmp_path / "ok.profile.json"
        path.write_text(f'{{"label": "x", "wf": {wf}}}', encoding="utf-8")
        loaded = load_profile(path)
        assert list(loaded.wf.items()) == list(json.loads(wf).items())
        assert all(type(v) is float for v in loaded.wf.values())

    def test_profile_of_float_wfs_loads_unchanged(self, tmp_path):
        wf = {"ball": 2.5, "team": 0.0, "cup": -0.0, "goal": 10000.0, "win": 1 / 3}
        path = tmp_path / "ok.profile.json"
        path.write_text(json.dumps({"label": "x", "wf": wf}), encoding="utf-8")
        loaded = load_profile(path)
        assert list(loaded.wf.items()) == list(wf.items())
        assert all(type(v) is float for v in loaded.wf.values())
        assert str(loaded.wf["cup"]) == "-0.0"


class TestProperties:
    @given(st.lists(st.sampled_from(["ball", "win", "team", "cup", "goal"]),
                    min_size=1, max_size=60))
    def test_wf_sums_to_scale(self, seq):
        total_wf = sum(vectorize(seq, sorted(set(seq))))
        assert math.isclose(total_wf, 10000.0, rel_tol=1e-6)

    @given(st.lists(st.sampled_from(["ball", "win", "team", "cup", "goal"]), min_size=1, max_size=60),
           st.lists(st.sampled_from(["ball", "win", "bat", "cup"]), unique=True, max_size=4))
    def test_row_equals_counting_every_term(self, seq, features):
        counts = Counter(seq)
        assert vectorize(seq, features) == tuple(word_frequency(counts[t], len(seq))
                                                 for t in features)

    @given(st.lists(st.sampled_from(["ball", "win", "team", "cup", "goal"]),
                    min_size=1, max_size=60))
    def test_one_document_profile_equals_its_row(self, seq):
        terms = sorted(set(seq))
        assert tuple(build_profile("x", [seq]).wf[t] for t in terms) == vectorize(seq, terms)

    @given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                           st.floats(0.0, 10000.0), min_size=1, max_size=4),
           st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                           st.floats(0.0, 10000.0), min_size=1, max_size=4))
    def test_score_terms_profile_order_invariant(self, wf1, wf2):
        p = LabeledProfile("p", wf1)
        q = LabeledProfile("q", wf2)
        assert score_terms([p, q]) == score_terms([q, p])

    @given(profile_lists)
    def test_score_terms_equals_reference(self, profiles):
        scored = score_terms(profiles)
        assert scored == reference_score_terms(profiles)  # ratios compared with ==
        assert all(type(ratio) is float for _, ratio in scored)

    @given(profile_lists, st.sampled_from([0.0, 0.5, 2.0, 100.0]),
           st.sampled_from([0.0, 5.0, 100.0]))
    def test_select_features_equals_reference(self, profiles, min_ratio, min_wf):
        qualifying = selection_or_error(reference_select_features, profiles, 10**9,
                                        min_ratio, min_wf)
        n = len(qualifying) if isinstance(qualifying, list) else 0
        # top_k below, at and above the number of qualifying terms
        for top_k in {1, max(n - 1, 1), max(n, 1), n + 1}:
            args = (profiles, top_k, min_ratio, min_wf)
            assert (selection_or_error(select_features, *args)
                    == selection_or_error(reference_select_features, *args))

    @given(st.lists(st.lists(st.sampled_from(["ball", "win", "team", "cup"]), min_size=1,
                             max_size=30), min_size=1, max_size=3),
           st.lists(st.sampled_from(["ball", "vote", "cup"]), min_size=1, max_size=30))
    def test_built_profiles_are_in_wf_range(self, docs, other):
        # the CLI scores only build_profile's output, so the range check
        # never stops it
        profiles = [build_profile("a", docs), build_profile("b", [other])]
        assert score_terms(profiles) == reference_score_terms(profiles)
