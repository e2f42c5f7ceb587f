import json
import os
from pathlib import Path

import numpy as np
import pytest

import goldens
from fuzzydocs.features import LabeledProfile, save_feature_set, save_profile
from fuzzydocs.cli import main

FEATURES = list(goldens.MATRIX_FEATURES)


def write_corpus(root):
    """Eight documents of exactly 10000 terms whose WF vectors equal the
    worked-example rows over (stadium, ball, team, democracy)."""
    corpus = root / "corpus"
    corpus.mkdir()
    for idx, row in enumerate(goldens.EXAMPLE_ROWS, start=1):
        counts = {feature: int(value) for feature, value in zip(FEATURES, row)}
        words = []
        for feature, count in counts.items():
            words += [feature] * count
        words += ["xfill"] * (10000 - len(words))
        (corpus / f"doc{idx}.txt").write_text(" ".join(words), encoding="utf-8")
    return corpus


def write_plain_config(root):
    config = root / "config.json"
    config.write_text(json.dumps({"preprocess": {"stemming": False}}), encoding="utf-8")
    return config


def write_features_file(root):
    path = root / "features.json"
    save_feature_set(FEATURES, path)
    return path


def write_init_file(root):
    path = root / "init.json"
    path.write_text(json.dumps(goldens.CRISP_INIT), encoding="utf-8")
    return path


def write_profiles(root):
    paths = []
    for label, wf in (("sports", goldens.SPORTS_WF), ("politics", goldens.POLITICS_WF)):
        path = root / f"{label}.profile.json"
        save_profile(LabeledProfile(label, dict(wf)), path)
        paths.append(str(path))
    return paths


def write_result(root):
    """Cluster the worked-example corpus from the crisp start; returns
    the result file."""
    corpus = write_corpus(root)
    config = write_plain_config(root)
    features = write_features_file(root)
    init = write_init_file(root)
    result = root / "result.json"
    code = main([
        "cluster", "--corpus", str(corpus), "--features", str(features),
        "--clusters", "2", "--init-file", str(init),
        "--config", str(config), "--out", str(result),
    ])
    assert code == 0
    return result


def make_sample_dirs(root):
    """Two labeled sample corpora with clearly split vocabularies."""
    sports = root / "sports"
    politics = root / "politics"
    sports.mkdir()
    politics.mkdir()
    sports_words = (
        ["ball"] * 400 + ["stadium"] * 150 + ["team"] * 200 + ["win"] * 30
    )
    sports_words += ["xfill"] * (10000 - len(sports_words))
    politics_words = (
        ["democracy"] * 140 + ["candidate"] * 40 + ["team"] * 80
        + ["win"] * 30 + ["ball"] * 30
    )
    politics_words += ["xfill"] * (10000 - len(politics_words))
    (sports / "s1.txt").write_text(" ".join(sports_words), encoding="utf-8")
    (politics / "p1.txt").write_text(" ".join(politics_words), encoding="utf-8")
    return sports, politics


class TestFeaturesCommand:
    def test_selection_and_outputs(self, tmp_path, capsys):
        sports, politics = make_sample_dirs(tmp_path)
        config = write_plain_config(tmp_path)
        out = tmp_path / "out" / "features.json"
        code = main([
            "features",
            "--samples", f"sports={sports}",
            "--samples", f"politics={politics}",
            "--config", str(config),
            "--out", str(out),
        ])
        assert code == 0
        selected = json.loads(out.read_text(encoding="utf-8"))
        assert selected == ["stadium", "democracy", "candidate", "ball", "team"]
        sports_profile = json.loads((out.parent / "sports.profile.json").read_text(encoding="utf-8"))
        assert sports_profile["label"] == "sports"
        assert sports_profile["wf"]["ball"] == 400.0
        assert (out.parent / "politics.profile.json").is_file()

        # header, the selected rows in selection order, then the summary;
        # the unselected terms (win, xfill) are only in the profiles
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[0] == "term"
        assert [line.split()[0] for line in lines[1:-1]] == selected
        assert lines[-1].startswith("---- selected 5 feature(s): top_k=50 ")

    def test_single_sample_is_usage_error(self, tmp_path):
        sports, _ = make_sample_dirs(tmp_path)
        assert main(["features", "--samples", f"sports={sports}"]) == 2

    def test_malformed_samples_pair(self, tmp_path):
        assert main(["features", "--samples", "nodirhere", "--samples", "b=x"]) == 2

    @pytest.mark.parametrize("label", ["a/b", "\udcffpol"], ids=["slash", "not-utf8"])
    def test_bad_label_writes_nothing(self, tmp_path, capsys, label):
        """A label names a profile file, so a bad one is refused before the
        feature file is replaced."""
        sports, politics = make_sample_dirs(tmp_path)
        out = tmp_path / "out" / "features.json"
        out.parent.mkdir()
        out.write_bytes(b'[\n  "team"\n]\n')
        code = main(["features", "--samples", f"{label}={sports}",
                     "--samples", f"politics={politics}", "--out", str(out)])
        assert code == 2
        assert "--samples label must be valid UTF-8 without '/'" in capsys.readouterr().err
        assert out.read_bytes() == b'[\n  "team"\n]\n'
        assert list(out.parent.iterdir()) == [out]

    def test_identical_corpora_is_data_error(self, tmp_path, capsys):
        sports, _ = make_sample_dirs(tmp_path)
        code = main([
            "features",
            "--samples", f"a={sports}",
            "--samples", f"b={sports}",
            "--out", str(tmp_path / "f.json"),
        ])
        assert code == 1
        assert "no discriminative features" in capsys.readouterr().err

    def test_missing_sample_dir(self, tmp_path):
        sports, _ = make_sample_dirs(tmp_path)
        code = main([
            "features",
            "--samples", f"sports={sports}",
            "--samples", f"politics={tmp_path / 'nope'}",
        ])
        assert code == 2


class TestClusterCommand:
    def run_cluster(self, tmp_path, *extra):
        corpus = write_corpus(tmp_path)
        config = write_plain_config(tmp_path)
        features = write_features_file(tmp_path)
        out = tmp_path / "result.json"
        code = main([
            "cluster",
            "--corpus", str(corpus),
            "--features", str(features),
            "--clusters", "2",
            "--config", str(config),
            "--out", str(out),
            *extra,
        ])
        return code, out

    def test_worked_example_first_iteration(self, tmp_path, capsys):
        init = write_init_file(tmp_path)
        code, out = self.run_cluster(tmp_path, "--init-file", str(init), "--max-iters", "1")
        assert code == 0
        first = json.loads(out.read_text(encoding="utf-8"))
        assert first["doc_ids"] == [f"doc{i}.txt" for i in range(1, 9)]
        assert first["features"] == FEATURES
        assert first["iterations"] == 1
        np.testing.assert_allclose(first["memberships"][0], goldens.U1_ROW1, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            first["centers"], [goldens.CENTER_1, goldens.CENTER_2], rtol=0, atol=1e-9
        )
        capsys.readouterr()

        code = main([
            "cluster", "--corpus", str(tmp_path / "corpus"),
            "--features", str(tmp_path / "features.json"),
            "--clusters", "2", "--init-file", str(init),
            "--config", str(tmp_path / "config.json"), "--out", str(out),
        ])
        assert code == 0
        result = json.loads(out.read_text(encoding="utf-8"))
        assert result["converged"] is True
        assert result["iterations"] == goldens.CONVERGED_ITERATIONS
        hardened = np.argmax(np.array(result["memberships"]), axis=0)
        assert hardened.tolist() == goldens.HARDENED
        stdout = capsys.readouterr().out
        assert "iterations: 4" in stdout
        assert "converged: true" in stdout

    def test_byte_identical_reruns(self, tmp_path):
        corpus = write_corpus(tmp_path)
        config = write_plain_config(tmp_path)
        features = write_features_file(tmp_path)
        outputs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = main([
                "cluster", "--corpus", str(corpus), "--features", str(features),
                "--clusters", "2", "--seed", "11",
                "--config", str(config), "--out", str(out),
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_single_cluster(self, tmp_path):
        code, out = self.run_cluster(tmp_path)
        assert code == 0
        one = tmp_path / "one.json"
        code = main([
            "cluster", "--corpus", str(tmp_path / "corpus"),
            "--features", str(tmp_path / "features.json"),
            "--clusters", "1",
            "--config", str(tmp_path / "config.json"), "--out", str(one),
        ])
        assert code == 0
        result = json.loads(one.read_text(encoding="utf-8"))
        assert result["iterations"] == 1
        assert result["converged"] is True
        assert all(v == 1.0 for v in result["memberships"][0])

    def test_empty_document_skipped_with_warning(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        (corpus / "blank.txt").write_text("the and of a", encoding="utf-8")
        config = write_plain_config(tmp_path)
        features = write_features_file(tmp_path)
        out = tmp_path / "result.json"
        code = main([
            "cluster", "--corpus", str(corpus), "--features", str(features),
            "--clusters", "2", "--config", str(config), "--out", str(out),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "blank.txt" in err
        assert "skipping empty document" in err
        result = json.loads(out.read_text(encoding="utf-8"))
        assert "blank.txt" not in result["doc_ids"]
        assert len(result["doc_ids"]) == 8

    def test_too_many_clusters_is_data_error(self, tmp_path):
        corpus = write_corpus(tmp_path)
        features = write_features_file(tmp_path)
        code = main([
            "cluster", "--corpus", str(corpus), "--features", str(features),
            "--clusters", "9", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fuzzifier_near_one_is_quiet(self, tmp_path, capsys):
        # at m = 1.01 the membership weights (d_min / d)^200 underflow to
        # 0, their exact limit, which needs no warning
        code, out = self.run_cluster(tmp_path, "--fuzzifier", "1.01")
        assert code == 0
        assert capsys.readouterr().err == f"wrote {out}\n"
        hardened = np.argmax(json.loads(out.read_text(encoding="utf-8"))["memberships"], axis=0)
        assert hardened.tolist() in (goldens.HARDENED, [1 - k for k in goldens.HARDENED])

    def test_long_y_token_is_stemmed(self, tmp_path):
        corpus = write_corpus(tmp_path)
        (corpus / "yyy.txt").write_text("stadium ball " + "y" * 1200, encoding="utf-8")
        features = write_features_file(tmp_path)
        code = main([
            "cluster", "--corpus", str(corpus), "--features", str(features),
            "--clusters", "2", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 0

    def test_zero_feature_documents_warn_on_stderr(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        (corpus / "off_topic.txt").write_text("xfill weather " * 20, encoding="utf-8")
        features = write_features_file(tmp_path)
        out = tmp_path / "result.json"
        code = main([
            "cluster", "--corpus", str(corpus), "--features", str(features),
            "--clusters", "2", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: 1 document(s) contain none of the selected features",
            f"wrote {out}",
        ]
        assert [line.split(":")[0] for line in captured.out.splitlines()] == [
            "iterations", "converged", "objective",
        ]
        assert "off_topic.txt" in json.loads(out.read_text(encoding="utf-8"))["doc_ids"]

    @pytest.mark.parametrize("existing", [None, b"previous result\n"],
                             ids=["no-out-file", "existing-out-file"])
    def test_non_utf8_file_name_is_data_error(self, tmp_path, capsys, existing):
        corpus = write_corpus(tmp_path)
        name = os.fsdecode(b"\xff\xfe.html")
        (corpus / name).write_text("stadium ball team", encoding="utf-8")
        features = write_features_file(tmp_path)
        out = tmp_path / "result.json"
        if existing is not None:
            out.write_bytes(existing)
        code = main([
            "cluster", "--corpus", str(corpus), "--features", str(features),
            "--clusters", "2", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err
        assert repr(name)[1:-1] in err
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    @pytest.mark.parametrize("init", [
        pytest.param({"a": 1}, id="object"),
        pytest.param([[1.0] * 8, [0.0] * 7], id="ragged"),
        pytest.param([["0.5"] * 8, [0.5] * 8], id="numeric-strings"),
        pytest.param([[True, False] * 4, [False, True] * 4], id="booleans"),
    ])
    def test_bad_init_file_is_data_error(self, tmp_path, capsys, init):
        path = tmp_path / "init.json"
        path.write_text(json.dumps(init), encoding="utf-8")
        code, out = self.run_cluster(tmp_path, "--init-file", str(path))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: invalid init file {path}: invalid partition: ")
        assert not out.exists()

    def test_missing_features_file_is_usage_error(self, tmp_path):
        corpus = write_corpus(tmp_path)
        code = main([
            "cluster", "--corpus", str(corpus),
            "--features", str(tmp_path / "nope.json"), "--clusters", "2",
        ])
        assert code == 2

    def test_missing_corpus_is_usage_error(self, tmp_path):
        features = write_features_file(tmp_path)
        code = main([
            "cluster", "--corpus", str(tmp_path / "nope"),
            "--features", str(features), "--clusters", "2",
        ])
        assert code == 2

    def test_config_supplies_values_flags_override(self, tmp_path):
        corpus = write_corpus(tmp_path)
        features = write_features_file(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "clusters": 3,
            "seed": 5,
            # null means the default stopword list, as in the README example
            "preprocess": {"stemming": False, "stopwords_file": None},
        }), encoding="utf-8")
        from_config = tmp_path / "from_config.json"
        code = main([
            "cluster", "--corpus", str(corpus), "--features", str(features),
            "--config", str(config), "--out", str(from_config),
        ])
        assert code == 0
        assert len(json.loads(from_config.read_text(encoding="utf-8"))["memberships"]) == 3

        overridden = tmp_path / "overridden.json"
        code = main([
            "cluster", "--corpus", str(corpus), "--features", str(features),
            "--clusters", "2", "--config", str(config), "--out", str(overridden),
        ])
        assert code == 0
        assert len(json.loads(overridden.read_text(encoding="utf-8"))["memberships"]) == 2


class TestReportCommand:
    def test_report_labels_and_order(self, tmp_path, capsys):
        result = write_result(tmp_path)
        profiles = write_profiles(tmp_path)
        out = tmp_path / "report.json"
        code = main([
            "report", "--result", str(result),
            "--profiles", profiles[0], "--profiles", profiles[1],
            "--out", str(out),
        ])
        assert code == 0
        top_label = {r["doc_id"]: r["top_label"]
                     for r in json.loads(out.read_text(encoding="utf-8"))}
        for doc_id in ("doc1.txt", "doc2.txt", "doc5.txt", "doc7.txt"):
            assert top_label[doc_id] == "sports"
        for doc_id in ("doc3.txt", "doc4.txt", "doc6.txt", "doc8.txt"):
            assert top_label[doc_id] == "politics"

        # stdout table: politics block first (label order), each block in
        # descending top-label degree
        lines = capsys.readouterr().out.splitlines()
        data = [
            line.split() for line in lines
            if line.startswith("doc") and not line.startswith("doc_id")
        ]
        assert len(data) == 8
        top_labels = [row[3] for row in data]
        assert top_labels == ["politics"] * 4 + ["sports"] * 4
        politics_degrees = [float(row[2]) for row in data[:4]]
        sports_degrees = [float(row[1]) for row in data[4:]]
        assert politics_degrees == sorted(politics_degrees, reverse=True)
        assert sports_degrees == sorted(sports_degrees, reverse=True)

    def test_missing_result_is_usage_error(self, tmp_path):
        profiles = write_profiles(tmp_path)
        code = main([
            "report", "--result", str(tmp_path / "nope.json"),
            "--profiles", profiles[0], "--profiles", profiles[1],
        ])
        assert code == 2

    def test_no_profiles_is_usage_error(self, tmp_path):
        result = write_result(tmp_path)
        assert main(["report", "--result", str(result)]) == 2

    def test_too_few_profiles_is_data_error(self, tmp_path, capsys):
        result = write_result(tmp_path)
        profiles = write_profiles(tmp_path)
        code = main(["report", "--result", str(result), "--profiles", profiles[0]])
        assert code == 1
        assert "insufficient profiles" in capsys.readouterr().err

    def test_report_file_deterministic(self, tmp_path):
        result = write_result(tmp_path)
        profiles = write_profiles(tmp_path)
        payloads = []
        for name in ("rep1.json", "rep2.json"):
            out = tmp_path / name
            code = main([
                "report", "--result", str(result),
                "--profiles", profiles[0], "--profiles", profiles[1],
                "--out", str(out),
            ])
            assert code == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]


def command_argv(tmp_path, command):
    """A valid invocation of one subcommand, without its --config."""
    if command == "features":
        sports, politics = make_sample_dirs(tmp_path)
        return ["features", "--samples", f"sports={sports}", "--samples", f"politics={politics}",
                "--out", str(tmp_path / "features.json")]
    if command == "cluster":
        return ["cluster", "--corpus", str(write_corpus(tmp_path)),
                "--features", str(write_features_file(tmp_path)),
                "--out", str(tmp_path / "result.json")]
    result = write_result(tmp_path)
    profiles = write_profiles(tmp_path)
    return ["report", "--result", str(result), "--profiles", profiles[0],
            "--profiles", profiles[1], "--out", str(tmp_path / "report.json")]


@pytest.mark.parametrize("command,flags,config", [
    pytest.param("features", ["--top-k", "0"], {}, id="top_k-zero"),
    pytest.param("features", [], {"top_k": "many"}, id="top_k-string"),
    pytest.param("features", [], {"min_wf": [5]}, id="min_wf-list"),
    pytest.param("features", [], {"preprocess": ["stemming"]}, id="preprocess-list"),
    pytest.param("features", [], {"preprocess": {"stemming": "no"}}, id="stemming-string"),
    pytest.param("features", [], {"preprocess": {"stopwords_file": 5}}, id="stopwords_file-number"),
    pytest.param("cluster", [], {"clusters": "two"}, id="clusters-string"),
    pytest.param("cluster", ["--clusters", "0"], {}, id="clusters-zero"),
    pytest.param("cluster", ["--clusters", "2", "--fuzzifier", "1.0"], {}, id="fuzzifier-one"),
    pytest.param("cluster", ["--clusters", "2", "--epsilon", "1.5"], {}, id="epsilon-above-one"),
    pytest.param("cluster", ["--clusters", "2", "--max-iters", "0"], {}, id="max_iters-zero"),
    pytest.param("cluster", ["--clusters", "2", "--seed", "-1"], {}, id="seed-negative"),
    pytest.param("report", ["--strong-threshold", "1.5"], {}, id="strong-above-one"),
    # two clusters: a strong threshold must exceed 1/2
    pytest.param("report", ["--strong-threshold", "0.4"], {}, id="strong-not-above-half"),
    pytest.param("report", [], {"ambiguity_margin": "wide"}, id="margin-string"),
    pytest.param("cluster", [], {"clusters": True}, id="clusters-bool"),
    pytest.param("cluster", [], {"clusters": 2.9}, id="clusters-fraction"),
    pytest.param("features", [], {"top_k": 2.5}, id="top_k-fraction"),
    pytest.param("cluster", [], {"clusters": 2, "seeds": 9}, id="unknown-key"),
    # checked although the --samples flags override it
    pytest.param("features", [], {"samples": "sports=corpora/sports"}, id="samples-string"),
])
def test_bad_value_is_usage_error(tmp_path, capsys, command, flags, config):
    argv = command_argv(tmp_path, command)
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"preprocess": {"stemming": False}, **config}),
                           encoding="utf-8")
    capsys.readouterr()
    assert main([*argv, *flags, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_supplies_samples_and_profiles(tmp_path):
    """One settings file serves both commands: each ignores the other's
    key, and the files equal those of the same run by flags."""
    sports, politics = make_sample_dirs(tmp_path)
    result = write_result(tmp_path)
    by_flags, by_config = tmp_path / "by_flags", tmp_path / "by_config"
    for out in (by_flags, by_config):
        out.mkdir()
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({
        "samples": [f"sports={sports}", f"politics={politics}"],
        "profiles": [str(by_config / "sports.profile.json"),
                     str(by_config / "politics.profile.json")],
        "preprocess": {"stemming": False},
    }), encoding="utf-8")
    flags = tmp_path / "flags.json"
    flags.write_text(json.dumps({"preprocess": {"stemming": False}}), encoding="utf-8")

    assert main(["features", "--samples", f"sports={sports}", "--samples", f"politics={politics}",
                 "--config", str(flags), "--out", str(by_flags / "features.json")]) == 0
    assert main(["report", "--result", str(result),
                 "--profiles", str(by_flags / "sports.profile.json"),
                 "--profiles", str(by_flags / "politics.profile.json"),
                 "--out", str(by_flags / "report.json")]) == 0
    assert main(["features", "--config", str(config),
                 "--out", str(by_config / "features.json")]) == 0
    assert main(["report", "--result", str(result), "--config", str(config),
                 "--out", str(by_config / "report.json")]) == 0

    names = ["features.json", "sports.profile.json", "politics.profile.json", "report.json"]
    assert sorted(p.name for p in by_config.iterdir()) == sorted(names)
    for name in names:
        assert (by_config / name).read_bytes() == (by_flags / name).read_bytes()


@pytest.mark.parametrize("command", ["features", "cluster", "report"])
@pytest.mark.parametrize("text", [
    pytest.param("{bad", id="malformed"),
    pytest.param('["clusters", 2]', id="list"),
])
def test_unreadable_config_is_usage_error(tmp_path, capsys, command, text):
    argv = command_argv(tmp_path, command)
    config_path = tmp_path / "bad.json"
    config_path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main([*argv, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name,edit", [
    pytest.param("result.json", lambda raw: [raw], id="result-list"),
    pytest.param("result.json", lambda raw: {**raw, "centers": 5}, id="centers-number"),
    pytest.param("result.json", lambda raw: {**raw, "centers": raw["centers"][:1]},
                 id="centers-one-row"),
    pytest.param("result.json", lambda raw: {**raw, "doc_ids": list(range(8))},
                 id="doc_ids-numbers"),
    pytest.param("result.json", lambda raw: {**raw, "memberships": [[0.7] * 8, [0.7] * 8]},
                 id="memberships-not-stochastic"),
    pytest.param("result.json", lambda raw: {**raw, "centers": [[float("nan")] * 4] * 2},
                 id="centers-nan"),
    pytest.param("sports.profile.json", lambda raw: {"label": "sports", "wf": []},
                 id="profile-wf-list"),
    pytest.param("sports.profile.json",
                 lambda raw: {**raw, "wf": {**raw["wf"], "ball": float("inf")}},
                 id="profile-wf-infinite"),
    pytest.param("sports.profile.json", lambda raw: {**raw, "wf": {"appl": -5}},
                 id="profile-wf-negative"),
    pytest.param("sports.profile.json", lambda raw: {**raw, "wf": {**raw["wf"], "ball": "5"}},
                 id="profile-wf-string"),
    pytest.param("sports.profile.json", lambda raw: {**raw, "wf": {**raw["wf"], "ball": True}},
                 id="profile-wf-boolean"),
    pytest.param("result.json",
                 lambda raw: {**raw, "memberships": [[str(v) for v in row] for row in raw["memberships"]]},
                 id="memberships-strings"),
])
def test_malformed_input_file_is_data_error(tmp_path, capsys, name, edit):
    argv = command_argv(tmp_path, "report")
    path = tmp_path / name
    path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))),
                    encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err


@pytest.mark.parametrize("command,name,code", [
    ("cluster", "features.json", 1),
    ("cluster", "init.json", 1),
    ("report", "result.json", 1),
    ("report", "sports.profile.json", 1),
    ("report", "config.json", 2),
])
def test_unparsable_input_file_is_named(tmp_path, capsys, command, name, code):
    argv = command_argv(tmp_path, command) + ["--config", str(write_plain_config(tmp_path))]
    if command == "cluster":
        argv += ["--clusters", "2", "--init-file", str(write_init_file(tmp_path))]
    path = tmp_path / name
    path.write_text('{"label": "sports",\n', encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(f"error: cannot parse {path}: Expecting ")
    assert not Path(argv[argv.index("--out") + 1]).exists()


@pytest.mark.parametrize("command", ["cluster", "report"])
def test_unencodable_output_keeps_previous_file(tmp_path, capsys, command):
    """A lone surrogate read from a JSON escape fails the write after the
    work is done: the previous output stays, and no temporary file is left."""
    argv = command_argv(tmp_path, command) + ["--clusters", "2"] * (command == "cluster")
    out = Path(argv[argv.index("--out") + 1])
    assert main(argv) == 0
    previous = out.read_bytes()
    if command == "cluster":  # result.json lists the features
        bad, payload = tmp_path / "features.json", FEATURES + ["\ud800x"]
    else:  # report.json keys degrees by label
        bad, payload = tmp_path / "politics.profile.json", {"label": "\udcff", "wf": {"team": 1.0}}
    bad.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "surrogates not allowed" in err
    assert out.read_bytes() == previous
    assert not list(tmp_path.glob(".*.tmp"))


HOSTILE_FILES = [
    pytest.param("empty.txt", b"", id="empty"),
    pytest.param("blob.bin", bytes(range(256)) * 4, id="binary"),
    pytest.param("latin1.txt", "caf\xe9 au lait".encode("latin-1"), id="non-utf8"),
    pytest.param("long.txt", b"a" * 100_000, id="long-token"),
    pytest.param("yyy.txt", b"y" * 5_000 + b" sy" + b"y" * 5_000, id="y-run"),
    pytest.param("entities.html", b"&#99999999999; &#55296; " * 2_000 + b"&#" + b"9" * 5_000 + b";",
                 id="entity-flood"),
    pytest.param("off_topic.txt", b"weather xfill " * 20, id="zero-feature"),
]


@pytest.mark.parametrize("mixed", [False, True], ids=["alone", "with-good-documents"])
@pytest.mark.parametrize("command", ["features", "cluster"])
@pytest.mark.parametrize("name,data", HOSTILE_FILES)
def test_hostile_corpus_files(tmp_path, capsys, name, data, command, mixed):
    """A hostile corpus file, alone or among good documents, ends in a
    documented exit code with no traceback, and a failed run writes no file."""
    good = make_sample_dirs(tmp_path)[0] if command == "features" else write_corpus(tmp_path)
    corpus = good if mixed else tmp_path / "hostile"
    corpus.mkdir(exist_ok=True)
    (corpus / name).write_bytes(data)
    out = tmp_path / "out"
    out.mkdir()
    if command == "features":
        argv = ["features", "--samples", f"sports={corpus}",
                "--samples", f"politics={tmp_path / 'politics'}", "--out", str(out / "features.json")]
    else:
        argv = ["cluster", "--corpus", str(corpus), "--features", str(write_features_file(tmp_path)),
                "--clusters", "2", "--out", str(out / "result.json")]
    code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    written = sorted(out.iterdir())
    if code:
        assert written == []
    else:
        assert written
        for path in written:
            json.loads(path.read_text(encoding="utf-8"))


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--nonsense"])
        assert exc.value.code == 2
