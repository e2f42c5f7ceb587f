import hashlib
import random
import time

import pytest
from hypothesis import given, strategies as st

from fuzzydocs import preprocess
from fuzzydocs.porter import _mask, stem
from fuzzydocs.preprocess import _MEMO_SIZE, PreprocessConfig, preprocess_document

# every token a term: stemming through the term memo, nothing dropped
NO_STOPWORDS = PreprocessConfig(stopwords=frozenset())

# Each pair was traced by hand against the algorithm's rule tables
# before the implementation existed. Where a rule table's illustration
# shows a single step, the expectation here is the full pipeline (for
# example "relational" passes through "relate" but ends at "relat").
KNOWN_PAIRS = [
    ("driving", "drive"),
    ("cluster", "cluster"),
    ("drove", "drove"),
    ("balls", "ball"),
    ("observation", "observ"),
    ("observations", "observ"),
    ("centre", "centr"),
    ("democracy", "democraci"),
    # plural and -es handling
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    # -ed / -ing with restoration rules
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("hopping", "hop"),
    ("falling", "fall"),
    ("filing", "file"),
    ("failing", "fail"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    # terminal y
    ("happy", "happi"),
    ("sky", "sky"),
    ("dying", "dy"),
    ("say", "sai"),
    # suffix cascades
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("digitizer", "digit"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("homologous", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    # final -e and double -l
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    # words too short to touch
    ("a", "a"),
    ("be", "be"),
    ("ion", "ion"),
    # stemming may land on a stopword-shaped root; that is by design
    ("willing", "will"),
    ("winning", "win"),
    ("teams", "team"),
]


@pytest.mark.parametrize("word,expected", KNOWN_PAIRS)
def test_known_pairs(word, expected):
    assert stem(word) == expected
    assert preprocess_document(word, NO_STOPWORDS) == (expected,)
    assert preprocess_document(word, NO_STOPWORDS) == (expected,)  # now certainly a memo hit


def test_short_words_untouched():
    for word in ["a", "i", "is", "as", "by", "s"]:
        assert stem(word) == word


def test_digits_pass_through():
    assert stem("2024") == "2024"
    assert stem("ball2") == "ball2"


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_deterministic_and_never_longer(word):
    out = stem(word)
    assert out == stem(word)
    assert len(out) <= len(word)
    assert out
    assert out.islower() or not out.isalpha()


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=20))
def test_output_stays_in_term_alphabet(word):
    out = stem(word)
    assert set(out) <= set("abcdefghijklmnopqrstuvwxyz0123456789")


def _is_consonant_recursive(word: str, i: int) -> bool:
    # The rule as Porter states it, kept as the oracle for the one-pass mask:
    # y is a vowel exactly when preceded by a consonant.
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return i == 0 or not _is_consonant_recursive(word, i - 1)
    return True


# vowels and y weighted up, beside consonants, digits and non-ASCII letters
# and digits, which are all consonants
@given(st.text(st.one_of(st.sampled_from("aeiouyybcd09"),
                         st.characters(categories=("Lu", "Ll", "Lo", "Nd"))),
               max_size=40))
def test_consonant_mask_matches_recursive_definition(word):
    assert _mask(word) == "".join("c" if _is_consonant_recursive(word, i) else "v"
                                  for i in range(len(word)))


def test_long_y_run_does_not_recurse():
    # one frame per preceding y used to exceed the recursion limit
    assert stem("y" * 5000)


@pytest.mark.parametrize("word", ["y" * 10**6, "a" + "y" * 10**6, "b" + "y" * 10**6 + "ing"],
                         ids=["y-run", "vowel-then-y-run", "consonant-then-y-run-ing"])
def test_long_y_run_stems_in_linear_time(word):
    # a loop that re-read the run for each y would take hours here
    start = time.process_time()
    assert len(stem(word)) >= 10**6 - 1
    assert time.process_time() - start < 2.0


def _check_against_uncached(word):
    # the term memo against the rules alone
    out = stem(word)
    assert preprocess_document(word, NO_STOPWORDS) == (out,)
    assert len(out) <= len(word)


# a text strategy neither repeats letters nor grows long on its own, so both
# cases build their tokens from pieces
_SUFFIXES = ("", "s", "ed", "ing", "ational", "iveness", "ement", "ly")


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1000, max_size=1990),
       st.sampled_from(_SUFFIXES))
def test_long_tokens_match_uncached(body, suffix):
    _check_against_uncached(body + suffix)


@given(st.lists(st.sampled_from(("y", "yy", "yyyy", "a", "e", "b", "l", "s") + _SUFFIXES),
                min_size=1, max_size=30).map("".join).filter(bool))
def test_y_heavy_tokens_match_uncached(word):
    _check_against_uncached(word)


def test_memo_stays_within_its_bound():
    config = PreprocessConfig(stopwords=frozenset({"form1s"}))
    memo = preprocess._term_memo(config.stopwords, config.stemming)
    memo.clear()
    forms = [f"form{i}s" for i in range(_MEMO_SIZE + 500)]
    expected = tuple(stem(form) for form in forms if form != "form1s")
    assert preprocess_document(" ".join(forms), config) == expected
    assert len(memo) == len(forms) - _MEMO_SIZE  # emptied once, when full
    # the emptied forms, the stopword among them, are resolved again
    assert preprocess_document(" ".join(forms), config) == expected
    assert len(memo) <= _MEMO_SIZE


# every suffix a step tests, the 1b restoration endings and the letters
# the y, double-consonant and cvc conditions read
_DIGEST_SUFFIXES = (
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "y",
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli", "eli", "ousli",
    "ization", "ation", "ator", "alism", "iveness", "fulness", "ousness", "aliti", "iviti", "biliti",
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ion", "sion",
    "tion", "ou", "ism", "ate", "iti", "ous", "ive", "ize", "e", "ll", "at", "bl", "iz",
)
_DIGEST_PIECES = tuple("abcdefghijklmnopqrstuvwxyz") + ("y", "yy", "e", "ll", "ss", "tt", "ing", "ed")
# SHA-256 of the stems of the vocabulary below, one per line in sorted word
# order: a change to any rule's output changes it
_STEMS_DIGEST = "b4b108812197fb10f273b42d58e3c92985aad9a07735f8d0bc0b6f1b84b420ee"


def test_stems_of_generated_vocabulary_are_pinned():
    rng = random.Random(1980)
    words = set()
    while len(words) < 60_000:
        body = "".join(rng.choice(_DIGEST_PIECES) for _ in range(rng.choice(range(1, 7))))
        words.add(body + "".join(rng.choice(_DIGEST_SUFFIXES) for _ in range(rng.choice(range(4)))))
    stems = "\n".join(stem(word) for word in sorted(words))
    assert hashlib.sha256(stems.encode()).hexdigest() == _STEMS_DIGEST
