import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fuzzydocs
import goldens
from peak_memory import traced_peak_bytes
from fuzzydocs import cli
from fuzzydocs.fcm import FcmResult, save_result
from fuzzydocs.features import LabeledProfile, build_profile, save_feature_set, save_profile
from fuzzydocs.preprocess import PreprocessConfig, preprocess_document
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


def _straddling_characters(kib):
    """UTF-8 bytes with a 2-, 3- or 4-byte character across each 1 KiB
    boundary up to ``kib`` KiB, starting 1 to 3 bytes before it: every
    chunk size a reader might use, 8 KiB and 64 KiB among them, splits one."""
    data = bytearray()
    for k in range(1, kib + 1):
        char = ("é", "ह", "𝄞")[k % 3].encode("utf-8")
        shift = 1 + k // 3 % (len(char) - 1)
        data += b"a" * (k * 1024 - shift - len(data)) + char
    return bytes(data)


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
        # the unselected terms (win, xfill) are in neither the table nor
        # the profiles
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[0] == "term"
        assert [line.split()[0] for line in lines[1:-1]] == selected
        assert lines[-1].startswith("---- selected 5 feature(s): top_k=50 ")

    def test_ratio_table_golden(self, tmp_path, capsys):
        sports, politics = make_sample_dirs(tmp_path)
        code = main([
            "features", "--samples", f"sports={sports}", "--samples", f"politics={politics}",
            "--config", str(write_plain_config(tmp_path)), "--out", str(tmp_path / "features.json"),
        ])
        assert code == 0
        assert capsys.readouterr().out == (
            "term       wf[politics]  wf[sports]     ratio\n"
            "stadium          0.0000    150.0000  150.0000\n"
            "democracy      140.0000      0.0000  140.0000\n"
            "candidate       40.0000      0.0000   40.0000\n"
            "ball            30.0000    400.0000   12.9032\n"
            "team            80.0000    200.0000    2.4691\n"
            "---- selected 5 feature(s): top_k=50 min_ratio=2 min_wf=5 ----\n"
        )

    def test_one_term_corpus_has_the_largest_wf(self, tmp_path, capsys):
        # a profile built from a corpus of one repeated term holds WF
        # 10000, the top of the range select_features accepts; its file
        # holds the one selected term, which that corpus never saw
        sports, politics = tmp_path / "sports", tmp_path / "politics"
        sports.mkdir()
        politics.mkdir()
        (sports / "s1.txt").write_text("ball ball ball", encoding="utf-8")
        (politics / "p1.txt").write_text("vote ball", encoding="utf-8")
        code = main([
            "features", "--samples", f"sports={sports}", "--samples", f"politics={politics}",
            "--config", str(write_plain_config(tmp_path)), "--out", str(tmp_path / "features.json"),
        ])
        assert code == 0
        assert json.loads((tmp_path / "sports.profile.json").read_text(encoding="utf-8"))["wf"] == {
            "vote": 0.0}
        assert json.loads((tmp_path / "features.json").read_text(encoding="utf-8")) == ["vote"]
        assert capsys.readouterr().out.splitlines()[1].split() == [
            "vote", "5000.0000", "0.0000", "5000.0000"]

    def test_profiles_hold_the_selected_features(self, tmp_path):
        """Each profile file holds a float WF for each selected feature, in
        the feature file's order, 0.0 where its label never saw the term."""
        sports, politics = make_sample_dirs(tmp_path)
        out = tmp_path / "features.json"
        assert main(["features", "--samples", f"sports={sports}", "--samples", f"politics={politics}",
                     "--config", str(write_plain_config(tmp_path)), "--out", str(out)]) == 0
        selected = json.loads(out.read_text(encoding="utf-8"))
        wfs = {label: json.loads((tmp_path / f"{label}.profile.json").read_text(encoding="utf-8"))["wf"]
               for label in ("sports", "politics")}
        for wf in wfs.values():
            assert list(wf) == selected
            assert all(type(value) is float for value in wf.values())
        assert [t for t in selected if wfs["sports"][t] == 0.0] == ["democracy", "candidate"]
        assert [t for t in selected if wfs["politics"][t] == 0.0] == ["stadium"]

    def test_profile_size_follows_top_k_not_the_vocabulary(self, tmp_path, capsys):
        """Over samples of 22,004 distinct terms, each profile file holds
        the --top-k selected WFs, and the ratio table is the one that was
        printed when the profile files held the whole vocabulary."""
        letters = "abcdefghijklmnopqrstuvwxyz"

        def term(i):  # distinct letters-only terms, which the tokenizer keeps whole
            return "v" + "".join(letters[i // 26 ** k % 26] for k in range(4))

        words = {"sports": [term(i) for i in range(12000)] + ["stadium"] * 300 + ["ball"] * 200,
                 "politics": [term(i) for i in range(10000, 22000)] + ["democracy"] * 300
                 + ["ballot"] * 100}
        for label, sample in words.items():
            (tmp_path / label).mkdir()
            (tmp_path / label / "s1.txt").write_text(" ".join(sample), encoding="utf-8")
        out = tmp_path / "features.json"
        assert main(["features", *[a for label in words for a in ("--samples", f"{label}={tmp_path / label}")],
                     "--top-k", "3", "--config", str(write_plain_config(tmp_path)),
                     "--out", str(out)]) == 0
        selected = json.loads(out.read_text(encoding="utf-8"))
        assert selected == ["democracy", "stadium", "ball"]
        for label in words:
            path = tmp_path / f"{label}.profile.json"
            assert list(json.loads(path.read_text(encoding="utf-8"))["wf"]) == selected
            assert path.stat().st_size < 150  # the vocabulary alone is 110 KB of text
        assert capsys.readouterr().out == (
            "term       wf[politics]  wf[sports]     ratio\n"
            "democracy      241.9355      0.0000  241.9355\n"
            "stadium          0.0000    240.0000  240.0000\n"
            "ball             0.0000    160.0000  160.0000\n"
            "---- selected 3 feature(s): top_k=3 min_ratio=2 min_wf=5 ----\n"
        )

    def test_single_sample_is_usage_error(self, tmp_path):
        sports, _ = make_sample_dirs(tmp_path)
        assert main(["features", "--samples", f"sports={sports}"]) == 2

    def test_malformed_samples_pair(self, tmp_path):
        assert main(["features", "--samples", "nodirhere", "--samples", "b=x"]) == 2

    BAD_CHARACTERS = "--samples label must be valid UTF-8 without '/' or NUL"

    @pytest.mark.parametrize("label,out_name,message", [
        pytest.param("a/b", "features.json", BAD_CHARACTERS, id="slash"),
        pytest.param("\udcffpol", "features.json", BAD_CHARACTERS, id="not-utf8"),
        pytest.param("a\0b", "features.json", BAD_CHARACTERS, id="nul"),
        # the profile would replace the feature file
        pytest.param("x", "x.profile.json", "names its profile file", id="names-out"),
        # the profile's temporary file would truncate the feature file
        pytest.param("x", ".x.profile.json.tmp", "names its profile file", id="names-out-tmp"),
        # the profile's name fits in 255 bytes, its .NAME.tmp does not
        pytest.param("a" * 238, "features.json", "too long for its profile file name",
                     id="tmp-name-too-long"),
        pytest.param("a" * 300, "features.json", "too long for its profile file name",
                     id="too-long"),
    ])
    def test_bad_label_writes_nothing(self, tmp_path, capsys, label, out_name, message):
        """A label names a profile file, so a bad one is refused before the
        feature file is replaced."""
        sports, politics = make_sample_dirs(tmp_path)
        out = tmp_path / "out" / out_name
        out.parent.mkdir()
        out.write_bytes(b'[\n  "team"\n]\n')
        code = main(["features", "--samples", f"{label}={sports}",
                     "--samples", f"politics={politics}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert out.read_bytes() == b'[\n  "team"\n]\n'
        assert list(out.parent.iterdir()) == [out]

    def test_longest_label_names_its_profile(self, tmp_path):
        # .NAME.tmp takes the whole 255-byte name limit
        sports, politics = make_sample_dirs(tmp_path)
        label = "a" * 237
        out = tmp_path / "out" / "features.json"
        assert main(["features", "--samples", f"{label}={sports}",
                     "--samples", f"politics={politics}", "--out", str(out)]) == 0
        assert json.loads((out.parent / f"{label}.profile.json").read_text("utf-8"))["label"] == label

    def test_duplicate_label_is_usage_error(self, tmp_path, capsys):
        sports, politics = make_sample_dirs(tmp_path)
        out = tmp_path / "features.json"
        code = main(["features", "--samples", f"sports={sports}",
                     "--samples", f"sports={politics}", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: duplicate sample label: sports\n"
        assert not out.exists()

    def test_written_path_is_escaped(self, tmp_path, capsys):
        """A line break in a label, so in its profile's path, cannot forge
        a line on a run that succeeds."""
        sports, politics = make_sample_dirs(tmp_path)
        out = tmp_path / "features.json"
        code = main(["features", "--samples", f"a\nerror: x={sports}",
                     "--samples", f"b={politics}", "--min-ratio", "1", "--min-wf", "0",
                     "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"wrote {out}", f"wrote {tmp_path}/a\\nerror: x.profile.json",
                         f"wrote {tmp_path}/b.profile.json"]
        assert all(line.startswith("wrote ") for line in lines)
        assert not [line for line in lines if line.startswith("error:")]

    def test_stopwords_file_drops_terms(self, tmp_path):
        sports, politics = make_sample_dirs(tmp_path)
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("# sports words\nStadium\n\nball  # and its kit\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preprocess": {"stemming": False,
                                                     "stopwords_file": str(stopwords)}}),
                          encoding="utf-8")
        out = tmp_path / "features.json"
        code = main(["features", "--samples", f"sports={sports}",
                     "--samples", f"politics={politics}",
                     "--config", str(config), "--out", str(out)])
        assert code == 0
        # without the file: stadium, democracy, candidate, ball, team
        assert json.loads(out.read_text(encoding="utf-8")) == ["democracy", "candidate", "team"]
        wf = json.loads((tmp_path / "sports.profile.json").read_text(encoding="utf-8"))["wf"]
        assert "stadium" not in wf and "ball" not in wf

    @pytest.mark.parametrize("data,reason", [
        pytest.param(b"the\n\xff\n", "'utf-8' codec can't decode byte 0xff", id="not-utf8"),
        pytest.param(b"the\nfoo bar\n", "invalid stopword: 'foo bar'", id="two-words"),
    ])
    def test_bad_stopwords_file_is_named(self, tmp_path, capsys, data, reason):
        sports, politics = make_sample_dirs(tmp_path)
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_bytes(data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preprocess": {"stopwords_file": str(stopwords)}}),
                          encoding="utf-8")
        out = tmp_path / "features.json"
        code = main(["features", "--samples", f"sports={sports}",
                     "--samples", f"politics={politics}",
                     "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid stopwords file {stopwords}: ")
        assert reason in err
        assert not out.exists()

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
        # with one cluster every degree is 1, so every document is strong
        report = tmp_path / "one-report.json"
        code = main(["report", "--result", str(one), "--profiles", write_profiles(tmp_path)[0],
                     "--out", str(report)])
        assert code == 0
        entries = json.loads(report.read_text(encoding="utf-8"))
        assert len(entries) == len(result["doc_ids"])
        assert all(e["strength"] == "strong" for e in entries)

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

    @pytest.mark.parametrize("texts,warning", [
        (["ball team", "ball team"], None),
        (["cup final", "league cup", "final whistle"],
         "warning: 3 document(s) contain none of the selected features"),
    ], ids=["identical-documents", "no-selected-features"])
    def test_coincident_documents_name_the_cause(self, tmp_path, capsys, texts, warning):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i, text in enumerate(texts):
            (corpus / f"d{i}.txt").write_text(text, encoding="utf-8")
        out = tmp_path / "result.json"
        code = main(["cluster", "--corpus", str(corpus),
                     "--features", str(write_features_file(tmp_path)),
                     "--clusters", "2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("error: empty cluster: cluster 1 has no membership weight;"
                           f" the {len(texts)} documents hold 1 distinct vector(s) for 2 clusters")
        assert warning is None or warning in err
        assert not out.exists()

    def test_zero_row_init_names_the_empty_cluster(self, tmp_path, capsys):
        # the eight documents are distinct, so coincidence is not the cause
        path = tmp_path / "init.json"
        path.write_text(json.dumps([[0.0] * 8, [1.0] * 8]), encoding="utf-8")
        code, out = self.run_cluster(tmp_path, "--init-file", str(path))
        assert code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "error: empty cluster: cluster 0 has no membership weight"
        assert not out.exists()

    def test_dot_files_and_subdirectories_skipped(self, tmp_path):
        corpus = write_corpus(tmp_path)
        (corpus / ".hidden.txt").write_text("stadium " * 50, encoding="utf-8")
        (corpus / "sub").mkdir()
        (corpus / "sub" / "doc9.txt").write_text("democracy " * 50, encoding="utf-8")
        out = tmp_path / "result.json"
        code = main(["cluster", "--corpus", str(corpus),
                     "--features", str(write_features_file(tmp_path)),
                     "--clusters", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["doc_ids"] == [
            f"doc{i}.txt" for i in range(1, 9)]

    def test_load_corpus_order_and_skips(self, tmp_path):
        """Documents in code point order of their names; dot files,
        directories and symlinks to anything but a file are skipped, a
        symlink to a file is read under its own name, and line endings
        are kept as written."""
        corpus = tmp_path / "corpus"
        (corpus / "sub").mkdir(parents=True)
        (corpus / "sub" / "inner.txt").write_text("inner", encoding="utf-8")
        for name, text in [("b.txt", "lower b"), ("B.txt", "upper b"), ("a10.txt", "a ten"),
                           ("a9.txt", "a nine"), ("2.txt", "two"), ("_u.txt", "underscore"),
                           ("été.txt", "summer"), ("Z", "zed"), (".hidden.txt", "dot"),
                           ("crlf.txt", "one\r\ntwo\r")]:
            (corpus / name).write_bytes(text.encode("utf-8"))
        (tmp_path / "outside.txt").write_text("linked", encoding="utf-8")
        (corpus / "link.txt").symlink_to(tmp_path / "outside.txt")
        (corpus / "dirlink").symlink_to(corpus / "sub")
        (corpus / "broken").symlink_to(tmp_path / "missing.txt")
        (corpus / "loop").symlink_to(corpus / "loop")
        assert list(cli.load_corpus(corpus)) == [
            ("2.txt", "two"),
            ("B.txt", "upper b"),
            ("Z", "zed"),
            ("_u.txt", "underscore"),
            ("a10.txt", "a ten"),
            ("a9.txt", "a nine"),
            ("b.txt", "lower b"),
            ("crlf.txt", "one\r\ntwo\r"),
            ("link.txt", "linked"),
            ("été.txt", "summer"),
        ]

    @pytest.mark.parametrize("data", [
        pytest.param(_straddling_characters(192), id="multibyte-across-boundaries"),
        pytest.param(b"a\r\nb\rc\nd\r\r\ne\n\rf\r\n\r\ng\r", id="mixed-line-endings"),
        pytest.param(b"a\rb\r\rc\r", id="lone-cr"),
        pytest.param(b"x" * 8191 + b"\r\n" + b"y" * 8190 + b"\r\r\n", id="crlf-across-8k"),
        pytest.param(b"\xef\xbb\xbfbom first\r\nline", id="utf8-bom"),
        pytest.param(b"", id="empty"),
    ])
    def test_load_corpus_reads_as_text_mode(self, tmp_path, data):
        """Each text is what text mode's UTF-8 read without newline
        translation gives: the bytes decoded as written."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "doc.txt").write_bytes(data)
        with open(corpus / "doc.txt", encoding="utf-8", newline="") as f:
            expected = f.read()
        assert dict(cli.load_corpus(corpus)) == {"doc.txt": expected}

    def test_load_corpus_holds_one_document_at_a_time(self, tmp_path):
        """Reading N equal documents one by one peaks near one document's
        text (its bytes, its text and the text before it), not N."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        size, count = 100_000, 16
        for k in range(count):
            (corpus / f"d{k:02}.txt").write_bytes(b"word " * (size // 5))

        def read_all():
            for _, text in cli.load_corpus(corpus):
                assert len(text) == size

        assert traced_peak_bytes(read_all) < 4 * size

    def test_invalid_byte_late_in_file_names_it(self, tmp_path, capsys):
        """The decode error's position counts from the start of the file."""
        corpus = write_corpus(tmp_path)
        bad = corpus / "late.txt"
        bad.write_bytes(b"ball " * 20_480 + b"\xff tail")
        out = tmp_path / "result.json"
        code = main(["cluster", "--corpus", str(corpus),
                     "--features", str(write_features_file(tmp_path)),
                     "--clusters", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 102400: "
            "invalid start byte")
        assert not out.exists()

    def test_documents_are_read_as_they_are_clustered(self, tmp_path, capsys):
        """A warning about a document before an unreadable one comes first;
        the error line stays last and nothing is written."""
        corpus = write_corpus(tmp_path)
        (corpus / "a_empty.txt").write_bytes(b"")
        (corpus / "z_bad.txt").write_bytes(b"\xff")
        out = tmp_path / "result.json"
        code = main(["cluster", "--corpus", str(corpus),
                     "--features", str(write_features_file(tmp_path)),
                     "--clusters", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "warning: skipping empty document: a_empty.txt",
            f"error: cannot read {corpus / 'z_bad.txt'}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte",
        ]
        assert not out.exists()

    @pytest.mark.parametrize("exc,line", [
        pytest.param(MemoryError("Unable to allocate 7.45 GiB for an array"),
                     "error: out of memory (Unable to allocate 7.45 GiB for an array)",
                     id="numpy-message"),
        pytest.param(MemoryError(), "error: out of memory", id="no-message"),
    ])
    def test_out_of_memory_is_data_error(self, tmp_path, capsys, monkeypatch, exc, line):
        def run_fcm(matrix, params):
            raise exc

        monkeypatch.setattr(cli, "run_fcm", run_fcm)
        code, out = self.run_cluster(tmp_path)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    def test_skipped_document_id_is_escaped(self, tmp_path, capsys):
        """A line break in a skipped document's name cannot forge a line."""
        corpus = write_corpus(tmp_path)
        (corpus / "a\nerror: b").write_text("", encoding="utf-8")
        code = main(["cluster", "--corpus", str(corpus),
                     "--features", str(write_features_file(tmp_path)),
                     "--clusters", "2", "--out", str(tmp_path / "result.json")])
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if line.startswith("warning:")] == [
            "warning: skipping empty document: a\\nerror: b"]
        assert not [line for line in lines if line.startswith("error:")]

    def test_no_documents_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        (corpus / "sub").mkdir(parents=True)
        (corpus / ".hidden.txt").write_text("stadium ball", encoding="utf-8")
        out = tmp_path / "result.json"
        code = main(["cluster", "--corpus", str(corpus),
                     "--features", str(write_features_file(tmp_path)),
                     "--clusters", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: no documents in {corpus}\n"
        assert not out.exists()

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
        pytest.param(None, id="null"),
        pytest.param([[10 ** 400] * 8, [0] * 8], id="int-past-float"),
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

    def test_report_order_is_the_key_sort(self, tmp_path, capsys):
        # cluster 0 is sports, so the labels sort in the other order; the
        # degrees are in quarters, so top degrees tie and doc ids decide
        degrees = [1.0, 0.75, 0.5, 0.25, 0.0, 0.75, 0.5, 0.25, 0.75, 0.0, 1.0, 0.5]
        doc_ids = ["m", "B", "a", "Z", "k", "b", "A", "z", "c", "D", "é", "d"]
        u = np.array([degrees, [1.0 - x for x in degrees]])
        centers = np.array([[195.0, 398.0, 199.0, 2.4], [6.7, 18.0, 32.6, 38.3]])
        save_result(FcmResult(u, centers, 1, (1.0,), (0.0,), True), doc_ids,
                    list(goldens.MATRIX_FEATURES), tmp_path / "result.json")
        profiles = write_profiles(tmp_path)
        out = tmp_path / "report.json"
        code = main(["report", "--result", str(tmp_path / "result.json"),
                     "--profiles", profiles[0], "--profiles", profiles[1], "--out", str(out)])
        assert code == 0
        entries = json.loads(out.read_text(encoding="utf-8"))
        assert [list(e["labels"]) for e in entries] == [["sports", "politics"]] * len(doc_ids)
        expected = sorted(entries, key=lambda e: (e["top_label"], -e["labels"][e["top_label"]],
                                                  e["doc_id"]))
        assert [e["doc_id"] for e in entries] == [e["doc_id"] for e in expected]
        assert entries[0]["top_label"] == "politics"
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == [e["doc_id"] for e in expected]

    @staticmethod
    def features_and_result(tmp_path, capsys):
        """features, then cluster on its feature file from the crisp start;
        returns the sample arguments, the config file and the result file."""
        sports, politics = make_sample_dirs(tmp_path)
        samples = ["--samples", f"sports={sports}", "--samples", f"politics={politics}"]
        config = str(write_plain_config(tmp_path))
        features, result = tmp_path / "features.json", tmp_path / "result.json"
        assert main(["features", *samples, "--config", config, "--out", str(features)]) == 0
        assert main(["cluster", "--corpus", str(write_corpus(tmp_path)), "--features", str(features),
                     "--clusters", "2", "--init-file", str(write_init_file(tmp_path)),
                     "--config", config, "--out", str(result)]) == 0
        capsys.readouterr()
        return samples, config, result

    def test_profile_for_another_feature_set_is_refused(self, tmp_path, capsys):
        """Two features runs in one directory write the same profile files:
        a report on the first run's result, given the second run's
        profiles, exits 1 naming the file and the first feature it lacks,
        and writes nothing."""
        samples, config, result = self.features_and_result(tmp_path, capsys)
        assert main(["features", *samples, "--top-k", "2", "--config", config,
                     "--out", str(tmp_path / "features2.json")]) == 0
        capsys.readouterr()
        politics = tmp_path / "politics.profile.json"
        out = tmp_path / "out" / "report.json"
        code = main(["report", "--result", str(result), "--profiles", str(politics),
                     "--profiles", str(tmp_path / "sports.profile.json"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: profile file {politics} has no WF for feature 'candidate' of {result}: "
            "it was written for another feature set; run features again")
        assert not out.exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_whole_vocabulary_profiles_give_the_same_report(self, tmp_path, capsys):
        """Profile files over each label's whole vocabulary, as features
        wrote them before each held the selected features alone, give the
        same report file and table as the files features writes now, once
        they hold a WF for every feature."""
        _, _, result = self.features_and_result(tmp_path, capsys)
        selected = json.loads((tmp_path / "features.json").read_text(encoding="utf-8"))
        pre = PreprocessConfig(stemming=False)
        labels = ("politics", "sports")
        whole = tmp_path / "whole"
        for label in labels:
            wf = build_profile(label, (preprocess_document(text, pre)
                                       for _, text in cli.load_corpus(tmp_path / label))).wf
            # a feature the label never saw, as the WF 0 it is read as
            save_profile(LabeledProfile(label, {**dict.fromkeys(selected, 0.0), **wf}),
                         whole / f"{label}.profile.json")
        assert "win" in json.loads((whole / "sports.profile.json").read_text(encoding="utf-8"))["wf"]
        outputs = []
        for directory in (tmp_path, whole):
            out = directory / "report.json"
            assert main(["report", "--result", str(result),
                         *[a for label in labels
                           for a in ("--profiles", str(directory / f"{label}.profile.json"))],
                         "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

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
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "error: insufficient profiles: 2 clusters, 1 profiles"

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

    def test_many_profiles_finish_in_time(self, tmp_path):
        # 13! label sequences for 12 clusters: a search over them ran for
        # over an hour; the process gets 60 s, start-up included
        rng = np.random.default_rng(2)
        features = [f"t{i}" for i in range(5)]
        u = rng.random((12, 30))
        result = FcmResult(u / u.sum(axis=0), rng.integers(0, 3, (12, 5)) * 1.0, 1, (1.0,),
                           (0.0,), True)
        save_result(result, [f"d{i:02d}" for i in range(30)], features, tmp_path / "result.json")
        argv = ["report", "--result", "result.json", "--out", "report.json"]
        for k in range(13):
            wf = dict(zip(features, rng.integers(0, 3, 5) * 1.0))
            save_profile(LabeledProfile(f"l{k:02d}", wf), tmp_path / f"l{k:02d}.profile.json")
            argv += ["--profiles", f"l{k:02d}.profile.json"]
        env = {**os.environ, "PYTHONPATH": str(Path(fuzzydocs.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "fuzzydocs.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reports = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert len({r["top_label"] for r in reports}) > 1
        assert len(reports[0]["labels"]) == 12


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
    pytest.param("features", [], {"preprocess": {"steming": False, "bigram": True}},
                 id="preprocess-unknown-key"),
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
    # argparse's float() takes these; a flag obeys the config's finite rule
    pytest.param("features", ["--min-ratio", "nan"], {}, id="min_ratio-nan-flag"),
    pytest.param("features", ["--min-wf", "inf"], {}, id="min_wf-inf-flag"),
    pytest.param("cluster", ["--clusters", "2", "--fuzzifier", "inf"], {}, id="fuzzifier-inf-flag"),
])
def test_bad_value_is_usage_error(tmp_path, capsys, command, flags, config):
    argv = command_argv(tmp_path, command)
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"preprocess": {"stemming": False}, **config}),
                           encoding="utf-8")
    capsys.readouterr()
    assert main([*argv, *flags, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["features", "cluster", "report"])
def test_nul_in_output_path_is_usage_error(tmp_path, capsys, command):
    argv = command_argv(tmp_path, command) + ["--clusters", "2"] * (command == "cluster")
    out = argv.index("--out")
    del argv[out:out + 2]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"preprocess": {"stemming": False},
                                       "out": str(tmp_path / "out" / "r\0.json")}),
                           encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([*argv, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: config key out must be a string without NUL")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["features", "cluster", "report"])
def test_out_name_too_long_is_usage_error(tmp_path, capsys, command):
    """The name fits the 255-byte limit, its .NAME.tmp does not."""
    argv = command_argv(tmp_path, command) + ["--clusters", "2"] * (command == "cluster")
    argv[argv.index("--out") + 1] = str(tmp_path / "out" / ("f" * 246 + ".json"))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --out: file name too long to write: ")
    assert sorted(tmp_path.rglob("*")) == before


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


THREE_TOPICS = {
    "arts": "painting gallery sculpture museum canvas",
    "sports": "stadium football league goalkeeper referee",
    "politics": "democracy election parliament senator ballot",
}


def test_pipeline_identical_across_hash_seeds(tmp_path):
    """features -> cluster -> report in fresh processes under two string
    hash seeds write the same files and print the same lines."""
    shared = "people city report week "
    for label, words in THREE_TOPICS.items():
        sample = tmp_path / "samples" / label
        sample.mkdir(parents=True)
        for k in range(3):
            (sample / f"{label}{k}.txt").write_text((words + " " + shared * (k + 1)) * 20,
                                                    encoding="utf-8")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for k, (a, b) in enumerate([("arts", "arts"), ("arts", "sports"), ("sports", "sports"),
                                ("politics", "politics"), ("politics", "arts"),
                                ("sports", "politics")]):
        text = f"<p>{THREE_TOPICS[a]} {THREE_TOPICS[b]} {shared}</p>" * (k + 2)
        (corpus / f"d{k}.html").write_text(text, encoding="utf-8")
    labels = sorted(THREE_TOPICS)
    commands = [
        ["features", *[a for lab in labels for a in ("--samples", f"{lab}=../samples/{lab}")],
         "--top-k", "9", "--out", "out/features.json"],
        ["cluster", "--corpus", "../corpus", "--features", "out/features.json",
         "--clusters", "3", "--seed", "3", "--out", "out/result.json"],
        ["report", "--result", "out/result.json",
         *[a for lab in labels for a in ("--profiles", f"out/{lab}.profile.json")],
         "--out", "out/report.json"],
    ]
    src = str(Path(fuzzydocs.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("1", "4242"):
        cwd = tmp_path / f"hash{hash_seed}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        printed = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "fuzzydocs.cli", *argv], cwd=cwd,
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            printed.append((proc.stdout, proc.stderr))
        files = {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}
        runs.append((printed, files))
    assert sorted(runs[0][1]) == sorted(
        ["features.json", "result.json", "report.json"] + [f"{lab}.profile.json" for lab in labels])
    assert runs[0] == runs[1]


# y-heavy and suffix-heavy forms that every Porter step reads, per label
TEXT_PATH_TOPICS = {
    "arts": ("painting", "galleries", "sculptural", "museums", "relational", "happy",
             "sensitiviti", "formalize", "triplicate", "sky"),
    "politics": ("democracy", "elections", "parliamentary", "yyyy", "syzygy", "decisiveness",
                 "ballots", "agreed", "conditional", "adoption"),
    "sports": ("stadiums", "footballer", "playing", "hopping", "dying", "goalkeepers",
               "effective", "sized", "rationally", "allowance"),
}
TEXT_PATH_SHARED = ("report", "city", "people", "probate", "controll", "electrical",
                    "hopefulness", "y", "yy", "says")
# tags, named entities in mixed case, numeric ones in and out of range, one
# entity that decodes to another's text, and every line ending
TEXT_PATH_PIECES = ("<p>", "</p>", '<a href="x&amp;y.html">', "</a>", '<img alt="&lt;&#97;&gt;">',
                    "<br\r\n/>", "&amp;", "&AMP;", "&lt;", "&Gt;", "&qUOt;", "&#97;", "&#66;",
                    "&#1114112;", "&nbsp;", "&amp;lt;", "\r\n", "\r", "\n", "café",
                    "straße", "x < y", "5 > 3")
# SHA-256 of each file the pipeline below writes and of each command's
# stdout, recorded before the text path was rewritten. The four cluster
# and report entries were recorded again when the random start partition
# left numpy.random, once the earlier code had written the same bytes
# given that partition through --init-file. The three profile entries were
# recorded again when each profile file came to hold the selected features
# alone: each holds the earlier file's WFs of those features, 0.0 where the
# label never saw one. The four cluster and report entries ("cluster
# stdout", "report stdout", "report.json", "result.json") were recorded
# again when the seeded start became D² seeding, once the earlier code had
# written the same bytes given the D² partition through --init-file; the
# two entries of the run at 2.0 were first recorded then, and the earlier
# code given that run's start partition writes them too.
TEXT_PATH_DIGESTS = {
    "arts.profile.json": "1fb75b0513b36509e8cb91e163bc088cdc8e89676b4b54f39ab507b73e280316",
    "cluster at 2.0 stdout": "4d9c9539404cc9741cd82eb7fd57c26413d7cf01d1c8469a492bfa9c8ff82b96",
    "cluster stdout": "0b1fe0c141c0b7ed7b16260959a92a52f823f367acee50161b7a8951496a602a",
    "features stdout": "eda32448ced8599b98361618f867762a55ff0f0157916106fdd991663ae45084",
    "features.json": "5aae6f1017bffe23a7485195c6f76fd14f2dfb68156e7c3ba60d042775f75904",
    "politics.profile.json": "7c1904cf80b936e90a0a54e91210a520f4053bbef590d395e92507711d3b7e86",
    "report stdout": "0349a7373be3460bd0f648734251b44635ceb2209b092b29adc1698f956e9ccb",
    "report.json": "e12401042561e398e6dff170d51398898658b7fd6744cf7efea8bda66e581b53",
    "result-2.0.json": "1d30849b1f7e0df3ed2dff1581e879b2abe00d54a54d02f79e1de4980a542f00",
    "result.json": "4c7f20d12d11b3a9725794a41cc0af303a2af25acca64a63f6551655711ee939",
    "sports.profile.json": "99221ded32db9647f217cfcf63e241ac69796ce416af3e2ae103354ffd8a1e6e",
}


def _text_path_document(rng, words):
    parts = [rng.choice(words) if rng.random() < 0.75 else rng.choice(TEXT_PATH_PIECES)
             for _ in range(rng.randrange(60, 140))]
    text = " ".join(parts)
    if rng.random() < 0.3:
        text = text.replace("\n", "\r\n")
    return ("\ufeff" if rng.random() < 0.1 else "") + text


def test_text_path_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    """features -> cluster -> report over a seeded HTML corpus of 40 files
    (tags, entities, CRLF and lone CR, BOMs, y-heavy and suffix-heavy
    words) write the same bytes and print the same lines as recorded; so
    does a second cluster run at the default fuzzifier 2.0, whose u**m
    numpy may compute by another path than at 1.5."""
    rng = random.Random(23)
    labels = sorted(TEXT_PATH_TOPICS)
    for label in labels:
        for k in range(8):
            path = tmp_path / "samples" / label / f"{label}{k}.html"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(_text_path_document(rng, TEXT_PATH_TOPICS[label] + TEXT_PATH_SHARED)
                             .encode("utf-8"))
    (tmp_path / "corpus").mkdir()
    for k in range(16):
        words = TEXT_PATH_TOPICS[rng.choice(labels)] + TEXT_PATH_TOPICS[rng.choice(labels)]
        (tmp_path / "corpus" / f"d{k:02}.html").write_bytes(
            _text_path_document(rng, words + TEXT_PATH_SHARED).encode("utf-8"))
    monkeypatch.chdir(tmp_path)
    commands = {
        "features": ["features", *[a for lab in labels for a in ("--samples", f"{lab}=samples/{lab}")],
                     "--top-k", "12", "--out", "out/features.json"],
        "cluster": ["cluster", "--corpus", "corpus", "--features", "out/features.json",
                    "--clusters", "3", "--fuzzifier", "1.5", "--seed", "5", "--out", "out/result.json"],
        "report": ["report", "--result", "out/result.json",
                   *[a for lab in labels for a in ("--profiles", f"out/{lab}.profile.json")],
                   "--out", "out/report.json"],
        "cluster at 2.0": ["cluster", "--corpus", "corpus", "--features", "out/features.json",
                           "--clusters", "3", "--seed", "5", "--out", "out/result-2.0.json"],
    }
    digests = {}
    for name, argv in commands.items():
        assert main(argv) == 0
        digests[f"{name} stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for path in sorted((tmp_path / "out").iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == TEXT_PATH_DIGESTS


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


def test_error_line_escapes_line_breaks(tmp_path, capsys):
    """A config key holding line breaks is quoted in one error line."""
    argv = command_argv(tmp_path, "report")
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"a\nerror: b\x1e": 1}), encoding="utf-8")
    capsys.readouterr()
    assert main([*argv, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == "error: unknown config key(s): a\\nerror: b\\x1e\n"


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
    pytest.param("sports.profile.json", lambda raw: {**raw, "wf": {**raw["wf"], "ball": None}},
                 id="profile-wf-null"),
    pytest.param("sports.profile.json",
                 lambda raw: {**raw, "wf": {**raw["wf"], "ball": float("nan")}},
                 id="profile-wf-nan"),
    pytest.param("sports.profile.json", lambda raw: {**raw, "wf": {**raw["wf"], "ball": 10000.5}},
                 id="profile-wf-above-scale"),
    pytest.param("sports.profile.json", lambda raw: {**raw, "wf": {**raw["wf"], "ball": 10**400}},
                 id="profile-wf-int-past-float-range"),
    pytest.param("result.json",
                 lambda raw: {**raw, "memberships": [[str(v) for v in row] for row in raw["memberships"]]},
                 id="memberships-strings"),
    # as save_result never writes it: report would print eight rows named "same"
    pytest.param("result.json", lambda raw: {**raw, "doc_ids": ["same"] * 8,
                                             "features": raw["features"][:3] + raw["features"][:1]},
                 id="doc_ids-and-features-repeated"),
    pytest.param("result.json", lambda raw: {**raw, "doc_ids": ["same"] * 8},
                 id="doc_ids-repeated"),
    pytest.param("result.json", lambda raw: {**raw, "features": raw["features"][:3] + [""]},
                 id="features-empty-string"),
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


@pytest.mark.parametrize("command,name,key", [
    pytest.param("cluster", "init.json", None, id="init-file"),
    pytest.param("report", "result.json", "memberships", id="memberships"),
    pytest.param("report", "result.json", "centers", id="centers"),
])
def test_int_past_float_range_is_one_error_line(tmp_path, capsys, command, name, key):
    argv = command_argv(tmp_path, command)
    path = tmp_path / name
    if key is None:
        path.write_text(json.dumps([[10 ** 400] * 8, [0] * 8]), encoding="utf-8")
        argv += ["--clusters", "2", "--init-file", str(path)]
    else:
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw[key][0][0] = 10 ** 400
        path.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert str(path) in err[0]


# JSON texts that are no number in range, 1e999 among them, which json.dumps
# cannot write
HOSTILE_TOKENS = ["1" + "0" * 400, "null", '"5"', "true", "1e999"]
HOSTILE_SLOT = "\0hostile"


def hostile_json(value) -> str:
    """The JSON text of a token or of a (nested, maybe ragged) list of them."""
    return f"[{', '.join(map(hostile_json, value))}]" if isinstance(value, list) else value


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """Two sample corpora and a valid corpus, feature file, init file,
    result and two profiles."""
    root = tmp_path_factory.mktemp("pipeline")
    make_sample_dirs(root)
    write_result(root)
    write_profiles(root)
    return root


def run_with_hostile_file(base, name, raw, text, command="report"):
    """Run ``command`` on the pipeline files with ``name`` replaced by
    ``raw`` as JSON, its hostile slot written as ``text``; returns the exit
    code, after checking that a failed run ends in an error line and that
    no run leaves a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        (run / name).write_text(json.dumps(raw).replace(json.dumps(HOSTILE_SLOT), text),
                                encoding="utf-8")
        files = {n: run / n if n == name else base / n
                 for n in ("features.json", "init.json", "result.json", "sports.profile.json")}
        if command == "cluster":
            argv = ["cluster", "--corpus", str(base / "corpus"), "--features",
                    str(files["features.json"]), "--clusters", "2", "--init-file",
                    str(files["init.json"]), "--config", str(base / "config.json")]
        else:
            argv = ["report", "--result", str(files["result.json"]),
                    "--profiles", str(files["sports.profile.json"]),
                    "--profiles", str(base / "politics.profile.json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(run / "out.json")])
        if code:
            assert stderr.getvalue().splitlines()[-1].startswith("error: ")
        assert not list(run.rglob(".*.tmp"))
        return code


@settings(max_examples=100, deadline=None)
@given(
    target=st.sampled_from(["init.json", "memberships", "centers", "sports.profile.json"]),
    where=st.sampled_from(["whole", "row", "cell"]),
    value=st.recursive(st.sampled_from(HOSTILE_TOKENS), lambda kids: st.lists(kids, max_size=3),
                       max_leaves=6),
)
def test_hostile_numbers_end_in_an_error_line(pipeline_files, target, where, value):
    """A hostile value in an --init-file, a result's memberships or centers,
    or a profile's WFs: exit 1 or 2, an error line last, no temporary file."""
    base = pipeline_files
    name = target if target.endswith(".json") else "result.json"
    raw = json.loads((base / name).read_text(encoding="utf-8"))
    if target == "sports.profile.json":
        slots = {"whole": (raw, "wf"), "row": (raw["wf"], "zzz"), "cell": (raw["wf"], "ball")}
    else:
        matrix = raw if target == "init.json" else raw[target]
        slots = {"whole": (raw, target), "row": (matrix, 1), "cell": (matrix[1], 2)}
    if (target, where) == ("init.json", "whole"):
        raw = HOSTILE_SLOT  # the init file holds the matrix alone
    else:
        parent, key = slots[where]
        parent[key] = HOSTILE_SLOT
    command = "cluster" if target == "init.json" else "report"
    assert run_with_hostile_file(base, name, raw, hostile_json(value), command) in (1, 2)


@pytest.mark.parametrize("value", [[1], ["a", "a"], [""], None, "x", [["a"]]],
                         ids=["number", "repeated", "empty-string", "null", "string", "nested"])
@pytest.mark.parametrize("name,key", [
    pytest.param("result.json", "doc_ids", id="doc_ids"),
    pytest.param("result.json", "features", id="features"),
    pytest.param("features.json", None, id="features-file"),
    pytest.param("sports.profile.json", "label", id="profile-label"),
])
def test_hostile_names_end_in_an_error_line(pipeline_files, name, key, value):
    """A hostile value where names belong: a result's doc_ids or features,
    the --features file, or a profile's label, which is one name, so the
    string "x" is the one value it takes."""
    raw = json.loads((pipeline_files / name).read_text(encoding="utf-8"))
    if key is None:
        raw = HOSTILE_SLOT  # the feature file holds the list alone
    else:
        raw[key] = HOSTILE_SLOT
    command = "cluster" if name == "features.json" else "report"
    code = run_with_hostile_file(pipeline_files, name, raw, json.dumps(value), command)
    assert code == 0 if (key, value) == ("label", "x") else code in (1, 2)


# any JSON value; a string holds no "/", so a path read from it stays in
# the directory the run starts in
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10), st.sampled_from([2 ** 63, 10 ** 400]),
              st.floats(), st.text(st.characters(exclude_characters="/"), max_size=6)),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=5,
)
PREPROCESS_KEYS = ["strip_markup", "stemming", "bigrams", "stopwords_file"]


def config_keys(command):
    """The config keys the parser declares: each option's dest, plus
    ``preprocess``; every subcommand accepts all of them."""
    return sorted(cli._build_parser().parse_args([command]).config_keys)


def valid_config(base, command):
    """Settings that run ``command`` on the pipeline files, writing to the
    current directory."""
    return {"preprocess": {"stemming": False}, **{
        "features": {"samples": [f"sports={base / 'sports'}", f"politics={base / 'politics'}"]},
        "cluster": {"corpus": str(base / "corpus"), "features": str(base / "features.json"),
                    "clusters": 2},
        "report": {"result": str(base / "result.json"),
                   "profiles": [str(base / "sports.profile.json"),
                                str(base / "politics.profile.json")]},
    }[command]}


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["features", "cluster", "report"]), data=st.data())
def test_random_config_values_end_in_an_exit_code(pipeline_files, command, data):
    """Random JSON values under declared config keys and preprocess keys:
    exit 0, 1 or 2, a failed run's stderr ending in its one error line,
    and no temporary file left. --max-iters on the command line bounds a
    cluster run, while the config's max_iters value is still checked."""
    keys = config_keys(command)
    config = {**valid_config(pipeline_files, command),
              **data.draw(st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=3))}
    preprocess = data.draw(st.dictionaries(st.sampled_from(PREPROCESS_KEYS), JSON_VALUES,
                                           max_size=2))
    if isinstance(config["preprocess"], dict):
        config["preprocess"] = {**config["preprocess"], **preprocess}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(config), encoding="utf-8")
            argv = [command, "--config", "config.json"] + ["--max-iters", "50"] * (command == "cluster")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            leftovers = list(Path(tmp).rglob(".*.tmp"))
        finally:
            os.chdir(home)
    assert code in (0, 1, 2)
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error: ")]
    assert errors == (stderr.getvalue().splitlines()[-1:] if code else [])
    assert not leftovers


# the pipeline fuzz: documents on two topics, so that a features run
# can succeed, and the hostile kinds below, so that runs can fail. Each
# example allows a subset of the hostile kinds (swarm testing: Groce et
# al., ISSTA 2012), so that some examples run all three stages. The
# "identical" kind gives every document of the clustered corpus one text
TOPIC_WORDS = (["ball", "team", "goal", "stadium"], ["vote", "law", "senate", "democracy"])
HOSTILE_DOCUMENTS = {
    "markup": st.lists(st.sampled_from([
        "<p>", "</div>", "<!--", "-->", "<script>x</script>", "&amp;", "&#99999999999;",
        "&#55296;", "&#x41;", "&nbsp;", "&", ";", "<", ">", "\u00e9t\u00e9", "\x00", "\n", " ",
        "sses", "y" * 40]), max_size=30).map("".join),
    "bytes": st.binary(max_size=200),
    "empty": st.just(""),
}
HOSTILE_KINDS = sorted([*HOSTILE_DOCUMENTS, "identical"])


def fuzz_corpus(topic, hostile, min_size=1):
    words = st.lists(st.sampled_from(TOPIC_WORDS[topic] + ["the", "xfill"]), min_size=1,
                     max_size=40).map(" ".join)
    one_term = st.sampled_from(TOPIC_WORDS[topic])
    documents = st.one_of(words, words, one_term,
                          *map(HOSTILE_DOCUMENTS.get, sorted(hostile & HOSTILE_DOCUMENTS.keys())))
    names = st.sampled_from(["d0.txt", "d1.html", "d2", "a\nerror: b", "\u00e9.txt", " sp"])
    return st.dictionaries(names, documents, min_size=min_size, max_size=min_size + 3)


def flag_values(kind, low, high, wide=True):
    """A flag's values: mostly in range (an int in [low, high], a float in
    (low, high)), some anywhere (only in range when not ``wide``, so that
    --max-iters keeps each run short), some that argparse cannot read."""
    fit = (st.integers(low, high) if kind is int else
           st.floats(low, high, exclude_min=True, exclude_max=True))
    anywhere = (fit if not wide else st.integers(-2 ** 70, 2 ** 70) if kind is int else
                st.floats() | st.sampled_from(["inf", "-inf", "1e999", "-0"]))
    return st.one_of(*[fit.map(str)] * 3, anywhere.map(str), st.sampled_from(["", "x", "0x1"]))


FUZZ_FLAGS = {
    "features": {"--top-k": flag_values(int, 1, 6), "--min-ratio": flag_values(float, 1, 5),
                 "--min-wf": flag_values(float, 0, 50)},
    "cluster": {"--clusters": flag_values(int, 1, 3), "--fuzzifier": flag_values(float, 1, 4),
                "--epsilon": flag_values(float, 0, 1), "--max-iters": flag_values(int, -1, 40, False),
                "--seed": flag_values(int, 0, 9)},
    "report": {"--strong-threshold": flag_values(float, 0, 1),
               "--ambiguity-margin": flag_values(float, 0, 1)},
}


def run_main(argv):
    """main's exit code and output; argparse exits 2 by SystemExit."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pipeline_on_generated_corpora(data):
    """features, cluster and report on generated corpora, each with at most
    one random flag value: each run exits 0, 1 or 2, a failed run's stderr
    ends in its one error line, no temporary file is left, and every output
    file present parses; a result's memberships are column-stochastic, and
    the report table has a row per report entry. Each stage runs once the
    stage before it has succeeded."""
    hostile = data.draw(st.sets(st.sampled_from(HOSTILE_KINDS)), label="hostile")
    sports, politics = (data.draw(fuzz_corpus(topic, hostile), label=name)
                        for topic, name in enumerate(["sports", "politics"]))
    corpus = {**data.draw(fuzz_corpus(0, hostile, 2), label="corpus"),
              **{f"p{name}": text for name, text in
                 data.draw(fuzz_corpus(1, hostile, 1), label="corpus, topic 1").items()}}
    if "identical" in hostile:
        corpus = dict.fromkeys(corpus, next(iter(corpus.values())))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, docs in (("sports", sports), ("politics", politics), ("corpus", corpus)):
            (root / name).mkdir()
            for doc, text in docs.items():
                path = root / name / doc
                path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text, "utf-8")
        out = root / "out"
        profiles = [str(out / "politics.profile.json"), str(out / "sports.profile.json")]
        stages = {
            "features": ["--samples", f"sports={root / 'sports'}",
                         "--samples", f"politics={root / 'politics'}",
                         "--out", str(out / "features.json")],
            "cluster": ["--corpus", str(root / "corpus"), "--features", str(out / "features.json"),
                        "--clusters", "2", "--out", str(out / "result.json")],
            "report": ["--result", str(out / "result.json"), "--profiles", profiles[0],
                       "--profiles", profiles[1], "--out", str(out / "report.json")],
        }
        for command, argv in stages.items():
            flags = FUZZ_FLAGS[command]
            flag = data.draw(st.none() | st.sampled_from(sorted(flags)), label=command)
            if flag:  # --flag=value, so that a value such as -inf reads as a value
                argv = [*argv, f"{flag}={data.draw(flags[flag], label=flag)}"]
            code, stdout, stderr = run_main([command, *argv])
            event(f"{command} exit {code}")
            assert code in (0, 1, 2)
            # argparse's own message names the program and the command
            errors = [line for line in stderr.splitlines()
                      if line.startswith(("error: ", f"fuzzydocs {command}: error: "))]
            assert errors == (stderr.splitlines()[-1:] if code else [])
            if "error: empty cluster" in stderr:  # the empty cluster is named
                assert errors[0].startswith("error: empty cluster: cluster ")
            assert not list(root.rglob(".*.tmp"))
            written = {path.name: json.loads(path.read_text(encoding="utf-8"))
                       for path in out.glob("*.json")} if out.exists() else {}
            if code:
                break
            if command == "cluster":
                u = np.array(written["result.json"]["memberships"])
                assert np.abs(u.sum(axis=0) - 1.0).max() <= 1e-9
            if command == "report":
                assert len(stdout.splitlines()) == 1 + len(written["report.json"])


@pytest.mark.parametrize("command,name,code,text,reason", [
    pytest.param(command, name, code, text, reason, id=f"{command}-{name}-{code}{suffix}")
    for text, reason, suffix in [
        ('{"label": "sports",\n', "Expecting ", ""),
        # deeper than the parser's recursion limit
        ("[" * 200_000, "", "-deeply-nested"),
    ]
    for command, name, code in [
        ("cluster", "features.json", 1),
        ("cluster", "init.json", 1),
        ("report", "result.json", 1),
        ("report", "sports.profile.json", 1),
        ("report", "config.json", 2),
    ]
])
def test_unparsable_input_file_is_named(tmp_path, capsys, command, name, code, text, reason):
    argv = command_argv(tmp_path, command) + ["--config", str(write_plain_config(tmp_path))]
    if command == "cluster":
        argv += ["--clusters", "2", "--init-file", str(write_init_file(tmp_path))]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(f"error: cannot parse {path}: {reason}")
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
        bad = tmp_path / "politics.profile.json"
        payload = {"label": "\udcff", "wf": dict.fromkeys(FEATURES, 1.0)}
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
