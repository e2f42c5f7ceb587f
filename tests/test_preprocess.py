import importlib.resources
import itertools
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydocs import preprocess
from fuzzydocs.preprocess import (
    PreprocessConfig,
    default_stopwords,
    load_stopwords,
    preprocess_document,
    remove_stopwords,
    strip_markup,
    tokenize,
)
from fuzzydocs.porter import stem

# A short cricket commentary snippet; with hyphen splitting, "ball"
# occurs exactly five times.
COMMENTARY = (
    "The captain has handed over the ball to Player A for the final "
    "over. He runs in to bowl the first ball. It's a short ball outside "
    "the off stump. It's a no-ball! The batsman smashes the ball and it "
    "goes for a sixer"
)

RAW = PreprocessConfig(stopwords=frozenset(), stemming=False)


def _strip_markup_by_callback(text):
    # the two-regex composition with one callback per entity that
    # strip_markup replaced, kept as its oracle
    def decode(match):
        name = match.group(1)
        if name.startswith("#"):
            try:
                return chr(int(name[1:]))
            except (ValueError, OverflowError):
                return match.group(0)
        return {"amp": "&", "lt": "<", "gt": ">", "quot": '"'}[name.lower()]

    tags = re.sub(r"<[^>]*>", " ", text)
    return re.sub(r"&(amp|lt|gt|quot|#[0-9]+);", decode, tags, flags=re.IGNORECASE)


# entity names in mixed case, unknown ones among them, and numbers
_ENTITY_NAMES = st.one_of(
    st.sampled_from(["amp", "lt", "gt", "quot", "nbsp"]).flatmap(
        lambda name: st.sets(st.integers(0, len(name) - 1)).map(
            lambda upper: "".join(c.upper() if k in upper else c for k, c in enumerate(name)))),
    st.text("0123456789", min_size=1, max_size=8).map("#".__add__),
)


class TestStripMarkup:
    def test_tag_becomes_space(self):
        assert strip_markup("<p>ball</p>") == " ball "

    def test_plain_text_identity(self):
        assert strip_markup("election win") == "election win"

    def test_entities_decoded(self):
        assert strip_markup("a &lt; b") == "a < b"
        assert strip_markup("x &amp; y &gt; z &quot;q&quot;") == 'x & y > z "q"'
        assert strip_markup("&#97;&#98;") == "ab"

    def test_entities_case_insensitive(self):
        assert strip_markup("&AMP; &Lt;") == "& <"

    def test_decoding_is_one_pass(self):
        # "&amp;lt;" decodes to the literal text "&lt;", not to "<"
        assert strip_markup("&amp;lt;") == "&lt;"

    def test_unterminated_tag_is_literal(self):
        assert strip_markup("a < b") == "a < b"
        assert strip_markup("broken <tag") == "broken <tag"

    def test_unknown_entity_kept(self):
        assert strip_markup("&nbsp;") == "&nbsp;"

    def test_tag_with_attributes(self):
        assert strip_markup('<a href="x.html">win</a>') == " win "

    @pytest.mark.parametrize("text", [
        "&#1114111; &#1114112; &#0; &#00097;",
        "&#" + "9" * 5_000 + "; &#" + "1" * 4_300 + ";",
        "&amp;lt; &AMP;amp; &amp;#97;",
        "a < b &amp; <c",
        '<a title="&lt;&#97;&gt;">x &Quot;y&QUOT;</a> &lt;p&gt;',
        "&amp &lt ;&gt;; &;&#;&#x41;&nbsp;",
    ], ids=["numeric-range", "numeric-digits", "one-pass", "unclosed-tag", "inside-tags", "near-misses"])
    def test_matches_callback_composition(self, text):
        assert strip_markup(text) == _strip_markup_by_callback(text)

    @settings(max_examples=300)
    @given(st.lists(st.one_of(
        st.sampled_from(["<", ">", "&", ";", "#", "&#", "<p>", "</a>", "1114112", "99"]),
        _ENTITY_NAMES,
        _ENTITY_NAMES.map("&{};".format),
        st.text("0123456789", min_size=1, max_size=8),
        st.text("abcXYZ é", min_size=1, max_size=4),
    ), max_size=40).map("".join))
    def test_matches_callback_composition_on_generated_markup(self, text):
        assert strip_markup(text) == _strip_markup_by_callback(text)

    @settings(max_examples=300)
    @given(st.lists(st.one_of(
        st.sampled_from(["<", "<", "<", ">", "&", ";", "#", "&#", "<p", "b>", "&lt", "&#6", "5;", " "]),
        _ENTITY_NAMES,
        _ENTITY_NAMES.map("&{};".format),
    ), max_size=60).map("".join))
    def test_matches_callback_composition_around_the_last_close(self, text):
        # dense in "<", so most texts hold unclosed tags after their last
        # ">", and entities there are decoded all the same
        assert strip_markup(text) == _strip_markup_by_callback(text)

    @pytest.mark.parametrize("text", [
        "<" * 100_000,
        "".join(c if k % 27 else "<" for k, c in enumerate("the ball over the bowler ran " * 7_000, 1)),
    ], ids=["only-open", "prose"])
    def test_unclosed_tags_strip_in_linear_time(self, text):
        # a "<" with no ">" after it must not rescan the rest of the text
        start = time.process_time()
        assert strip_markup(text) == text
        assert time.process_time() - start < 1.0


class TestTokenize:
    def test_hyphen_splits(self):
        assert tokenize("The no-ball!") == ["the", "no", "ball"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_digits_kept(self):
        assert tokenize("over 20 runs") == ["over", "20", "runs"]

    def test_non_ascii_letters_split(self):
        assert tokenize("naïve fan") == ["na", "ve", "fan"]

    @pytest.mark.parametrize("text,expected", [
        ("\u212a", ["k"]),  # the Kelvin sign lowercases to an ASCII k
        ("\u0130x", ["i", "x"]),  # dotted capital I lowercases to i and a combining dot
        ("\ud800ab", ["ab"]),  # a lone surrogate separates
        ("\uff11\uff12", []),  # full-width digits are not ASCII digits
        ("\x1c", []),  # an ASCII control character
    ])
    def test_unicode_edge_cases(self, text, expected):
        assert tokenize(text) == expected == re.findall("[a-z0-9]+", text.lower())

    @settings(max_examples=300)
    @given(st.text(st.one_of(st.characters(exclude_categories=()),
                             st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
                             st.sampled_from("aZ09 -_\u212a\u0130")), max_size=80))
    def test_matches_regex_oracle(self, text):
        # the token rule: maximal [a-z0-9] runs of the lowercased text
        assert tokenize(text) == re.findall("[a-z0-9]+", text.lower())


class TestRemoveStopwords:
    def test_basic(self):
        assert remove_stopwords(["the", "ball"], frozenset({"the", "a", "an"})) == ["ball"]

    def test_empty_set_identity(self):
        assert remove_stopwords(["ball"], frozenset()) == ["ball"]

    def test_all_removed(self):
        assert remove_stopwords(["a", "an", "the"], frozenset({"the", "a", "an"})) == []

    def test_order_preserved(self):
        terms = ["win", "the", "cup", "a", "game"]
        assert remove_stopwords(terms, frozenset({"the", "a"})) == ["win", "cup", "game"]


class TestPreprocessDocument:
    def test_full_pipeline(self):
        config = PreprocessConfig(stopwords=frozenset({"the"}), stemming=True)
        assert preprocess_document("<b>The balls</b>", config) == ("ball",)

    def test_empty_document(self):
        assert preprocess_document("", RAW) == ()

    def test_commentary_ball_count(self):
        out = preprocess_document(COMMENTARY, RAW)
        assert Counter(out)["ball"] == 5

    def test_bigrams_over_stemmed_terms(self):
        config = PreprocessConfig(stopwords=frozenset(), stemming=True, bigrams=True)
        out = preprocess_document("gold medals won", config)
        assert out == ("gold", "medal", "won", "gold_medal", "medal_won")

    def test_bigrams_pair_across_removed_stopwords(self):
        config = PreprocessConfig(stopwords=frozenset({"of"}), stemming=False, bigrams=True)
        assert preprocess_document("gold of medal", config) == ("gold", "medal", "gold_medal")

    def test_default_config_drops_stopwords(self):
        out = preprocess_document("the ball and the bat")
        assert "the" not in out
        assert "and" not in out
        assert "ball" in out

    def test_deterministic(self):
        assert preprocess_document(COMMENTARY) == preprocess_document(COMMENTARY)

    def test_default_config_reads_stopwords_once(self, monkeypatch):
        expected = preprocess_document(COMMENTARY, PreprocessConfig())
        reads = []
        read = importlib.resources.files

        def files(package):
            reads.append(package)
            return read(package)

        monkeypatch.setattr(preprocess.resources, "files", files)
        assert preprocess_document(COMMENTARY) == expected
        assert preprocess_document(COMMENTARY) == expected
        assert len(reads) <= 1


def reference_terms(text, config):
    """The pipeline as the composition of its public stages, without the
    term memo."""
    if config.strip_markup:
        text = strip_markup(text)
    terms = remove_stopwords(tokenize(text), config.stopwords)
    if config.stemming:
        terms = [stem(term) for term in terms]
    if config.bigrams:
        terms += [f"{a}_{b}" for a, b in zip(terms, terms[1:])]
    return tuple(terms)


# "the" is a default stopword and "ball" is not; the custom set swaps them
CUSTOM_STOPWORDS = frozenset({"ball", "balls", "running"})
MEMO_WORDS = ["the", "The", "ball", "balls", "running", "runs", "teams", "of", "<b>", "</b>",
              "&amp;", "&lt;b&gt;", "no-ball", "2024", "\u00e9t\u00e9", " ", "\n"]


class TestTermMemo:
    @pytest.mark.parametrize("strip, stemming, bigrams", [
        pytest.param(*switches, id="-".join(f"{name}{int(on)}" for name, on in
                                            zip(("strip", "stem", "bigrams"), switches)))
        for switches in itertools.product((False, True), repeat=3)
    ])
    @settings(max_examples=40, deadline=None)
    @given(text=st.lists(st.sampled_from(MEMO_WORDS) | st.text(max_size=8), max_size=30).map(" ".join))
    def test_matches_reference_composition(self, strip, stemming, bigrams, text):
        # both stopword sets on the same text, each config built anew, so
        # each reads a memo that earlier examples have filled
        for stopwords in (default_stopwords(), CUSTOM_STOPWORDS):
            config = PreprocessConfig(strip_markup=strip, stopwords=stopwords,
                                      stemming=stemming, bigrams=bigrams)
            assert preprocess_document(text, config) == reference_terms(text, config)

    def test_equal_configs_stem_each_form_once(self, monkeypatch):
        calls = Counter()

        def counting_stem(word):
            calls[word] += 1
            return stem(word)

        monkeypatch.setattr(preprocess, "stem", counting_stem)
        # a stopword set no other test uses, so its memo starts empty
        stopwords = frozenset({"the", "memoprobe"})
        text = "The balls, the ball; running runs ran balls memoprobe ball"
        first = preprocess_document(text, PreprocessConfig(stopwords=stopwords))
        second = preprocess_document(text, PreprocessConfig(stopwords=stopwords))
        assert first == second == ("ball", "ball", "run", "run", "ran", "ball", "ball")
        assert calls == Counter(dict.fromkeys(["balls", "ball", "running", "runs", "ran"], 1))

    def test_stopwords_follow_the_config(self):
        text = "the ball"
        assert preprocess_document(text, PreprocessConfig()) == ("ball",)
        assert preprocess_document(text, PreprocessConfig(stopwords=CUSTOM_STOPWORDS)) == ("the",)


class TestStopwordFiles:
    def test_default_list_sane(self):
        words = default_stopwords()
        assert {"the", "a", "an"} <= words
        assert all(w == w.lower() and not re.search(r"\s", w) for w in words)

    def test_load_stopwords(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("# comment line\nthe\n\nA   \nan # trailing note\n", encoding="utf-8")
        assert load_stopwords(p) == {"the", "a", "an"}


# line breaks, also inside a tag, an entity and a token, with stopwords
LINE_END_PIECES = ["\r\n", "\r", "\n", "\r\r\n", "<br\r\n/>", "<p\r>", "&am\r\np;", "&#13;", "&amp;",
                   "the", "of", "ball", "s", "ing", "a", "z", "7", "42", " "]


class TestInvariants:
    def test_config_rejects_bad_stopwords(self):
        with pytest.raises(ValueError):
            PreprocessConfig(stopwords=frozenset({"The"}))
        with pytest.raises(ValueError):
            PreprocessConfig(stopwords=frozenset({"two words"}))

    @given(st.text(max_size=200))
    def test_term_alphabet(self, text):
        config = PreprocessConfig(stopwords=frozenset(), stemming=True, bigrams=True)
        for term in preprocess_document(text, config):
            assert re.fullmatch(r"[a-z0-9_]+", term)

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), max_size=30))
    def test_remove_stopwords_idempotent(self, terms):
        stops = frozenset({"a", "ab", "abc"})
        once = remove_stopwords(terms, stops)
        assert remove_stopwords(once, stops) == once

    @given(st.text(max_size=120))
    def test_markup_strip_commutes_with_lowercasing(self, text):
        before = Counter(tokenize(strip_markup(text)))
        after = Counter(tokenize(strip_markup(text.lower())))
        assert before == after

    @given(st.text(max_size=120))
    def test_strip_markup_leaves_no_complete_tags(self, text):
        assert not re.search(r"<[^>]*>", strip_markup(text))

    @pytest.mark.parametrize("strip, stemming, bigrams", [
        pytest.param(*switches, id="-".join(f"{name}{int(on)}" for name, on in
                                            zip(("strip", "stem", "bigrams"), switches)))
        for switches in itertools.product((False, True), repeat=3)
    ])
    @settings(max_examples=40, deadline=None)
    @given(text=st.lists(st.sampled_from(LINE_END_PIECES), max_size=40).map("".join))
    def test_terms_ignore_line_endings(self, strip, stemming, bigrams, text):
        config = PreprocessConfig(strip_markup=strip, stemming=stemming, bigrams=bigrams)
        unix = text.replace("\r\n", "\n").replace("\r", "\n")
        assert preprocess_document(text, config) == preprocess_document(unix, config)
