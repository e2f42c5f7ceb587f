"""Porter suffix-stripping stemmer, original 1980 rule set.

No later extensions (no logi/bli rules, no special-case pool); words of
one or two characters are returned unchanged, as in the reference
implementation. Input must already be lowercase.

``stem`` is memoized per process: text repeats its word forms, so each
distinct surface form runs the rules once. The memo is a
``functools.lru_cache`` bounded at 16,384 forms (``_STEM_CACHE_SIZE``),
so a wide vocabulary evicts the least recently used forms rather than
growing without limit. The output is the same as without it;
``stem.__wrapped__`` is the uncached function.
"""

from functools import lru_cache

__all__ = ["stem"]

_VOWELS = frozenset("aeiou")
_STEM_CACHE_SIZE = 1 << 14


def _consonants(word: str) -> list[bool]:
    """C/V mask of a word in one pass: a, e, i, o and u are vowels, y is a
    vowel exactly when preceded by a consonant, anything else is a
    consonant. A leading y is a consonant."""
    mask = []
    cons = False
    for ch in word:
        cons = ch not in _VOWELS and (ch != "y" or not cons)
        mask.append(cons)
    return mask


def _measure(stem_part: str) -> int:
    """Count VC sequences: the m in the [C](VC)^m[V] decomposition."""
    m = 0
    prev_cons = True
    for cons in _consonants(stem_part):
        if cons and not prev_cons:
            m += 1
        prev_cons = cons
    return m


def _has_vowel(stem_part: str) -> bool:
    return not all(_consonants(stem_part))


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _consonants(word)[-1]


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(word) < 3:
        return False
    mask = _consonants(word)
    return mask[-3] and not mask[-2] and mask[-1] and word[-1] not in "wxy"


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        return w[:-1] if _measure(w[:-3]) > 0 else w
    if w.endswith("ed"):
        base = w[:-2]
        return _step1b_adjust(base) if _has_vowel(base) else w
    if w.endswith("ing"):
        base = w[:-3]
        return _step1b_adjust(base) if _has_vowel(base) else w
    return w


def _step1b_adjust(w: str) -> str:
    # only reached when -ed or -ing was removed
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    if _ends_double_consonant(w) and w[-1] not in "lsz":
        return w[:-1]
    if _measure(w) == 1 and _ends_cvc(w):
        return w + "e"
    return w


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


# Longest matching suffix is attempted first; once a suffix matches, no
# other rule in the step is tried, even if the condition fails.
_STEP2_RULES = (
    ("ational", "ate"),
    ("ization", "ize"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("ousli", "ous"),
    ("entli", "ent"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("ator", "ate"),
    ("eli", "e"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
)

_STEP4_SUFFIXES = (
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ion",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "er",
    "ic",
    "ou",
    "al",
)


def _apply_rules(w: str, rules, min_measure: int) -> str:
    for suf, rep in rules:
        if w.endswith(suf):
            base = w[: -len(suf)]
            if _measure(base) > min_measure:
                return base + rep
            return w
    return w


def _step2(w: str) -> str:
    return _apply_rules(w, _STEP2_RULES, 0)


def _step3(w: str) -> str:
    return _apply_rules(w, _STEP3_RULES, 0)


def _step4(w: str) -> str:
    for suf in _STEP4_SUFFIXES:
        if w.endswith(suf):
            base = w[: -len(suf)]
            if _measure(base) > 1:
                if suf == "ion" and not base.endswith(("s", "t")):
                    return w
                return base
            return w
    return w


def _step5a(w: str) -> str:
    if w.endswith("e"):
        base = w[:-1]
        m = _measure(base)
        if m > 1 or (m == 1 and not _ends_cvc(base)):
            return base
    return w


def _step5b(w: str) -> str:
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        return w[:-1]
    return w


@lru_cache(maxsize=_STEM_CACHE_SIZE)
def stem(term: str) -> str:
    """Stem a single lowercase term.

    Deterministic; not idempotent in general (e.g. stemming can expose
    a new strippable suffix).
    """
    if len(term) <= 2:
        return term
    w = _step1a(term)
    w = _step1b(w)
    w = _step1c(w)
    w = _step2(w)
    w = _step3(w)
    w = _step4(w)
    w = _step5a(w)
    return _step5b(w)
