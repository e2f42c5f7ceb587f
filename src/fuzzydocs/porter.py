"""Porter suffix-stripping stemmer, original 1980 rule set.

No later extensions (no logi/bli rules, no special-case pool); words of
one or two characters are returned unchanged, as in the reference
implementation. Input must already be lowercase.

The rules are Porter's tables, held as data: ``_STEPS`` lists steps 1a
to 5b in the order they run, each a tuple of ``(suffix, replacement,
condition)`` rows whose condition tests the stem left once the suffix is
removed. In each step the first row whose suffix the word ends with
decides: the suffix is replaced if the condition holds, and the word is
kept otherwise. Step 1b's restoration, which follows only the removal of
-ed or -ing, is the one rule written as code.

As in Porter's reference implementation, a step picks its rules by the
word's last letter: ``_DISPATCH`` holds each step's rows grouped by the
last letter of their suffix, in row order, so one dict lookup skips a
step that no row can match and leaves only a few rows to test.

The conditions read the word's C/V mask, a string of ``c`` and ``v``
built by one ``str.translate`` and, where the word holds a y, one
regular-expression pass over its runs of y; m is the count of ``vc`` in
the mask. Every step is linear in the word's length.

``stem`` runs the rules on every call and keeps no memo: the caller
decides what to remember. ``preprocess_document`` stems each distinct
surface form once per process through its term memo.
"""

import re

__all__ = ["stem"]


class _Letters(dict):
    """``str.translate`` table to the C/V mask: a, e, i, o and u map to
    ``v``, y to ``y`` until its run is resolved, and every other character,
    non-ASCII ones too, to ``c``."""

    __slots__ = ()

    def __missing__(self, code: int) -> str:
        return "c"


_LETTERS = _Letters({code: "v" if chr(code) in "aeiou" else "y" if chr(code) == "y" else "c"
                     for code in range(128)})
# a run of y with the consonant before it, if there is one
_Y_RUN = re.compile("(c?)(y+)")


def _resolve_y_run(run: re.Match) -> str:
    # a y is a vowel exactly when preceded by a consonant, so a run
    # alternates: vowel first after a consonant, consonant first otherwise
    before, ys = run.groups()
    pair = "vc" if before else "cv"
    return before + pair * (len(ys) // 2) + pair[: len(ys) % 2]


def _mask(word: str) -> str:
    """C/V mask of a word, one ``c`` or ``v`` per character: a, e, i, o
    and u are vowels, y is a vowel exactly when preceded by a consonant,
    anything else is a consonant. A leading y is a consonant."""
    mask = word.translate(_LETTERS)
    return _Y_RUN.sub(_resolve_y_run, mask) if "y" in mask else mask


def _measure(stem_part: str) -> int:
    """Count VC sequences: the m in the [C](VC)^m[V] decomposition."""
    return _mask(stem_part).count("vc")


def _has_vowel(stem_part: str) -> bool:
    return "v" in _mask(stem_part)


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    return _mask(word).endswith("cvc") and word[-1] not in "wxy"


def _step1b_adjust(w: str) -> str:
    # only reached when -ed or -ing was removed
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    # a double consonant other than ll, ss or zz loses one letter
    if len(w) >= 2 and w[-1] == w[-2] and w[-1] not in "lsz" and _mask(w)[-1] == "c":
        return w[:-1]
    if _measure(w) == 1 and _ends_cvc(w):
        return w + "e"
    return w


def _m_above_0(base: str) -> bool:
    return _measure(base) > 0


def _m_above_1(base: str) -> bool:
    return _measure(base) > 1


def _step5a_condition(base: str) -> bool:
    m = _measure(base)
    return m > 1 or (m == 1 and not _ends_cvc(base))


# A longer suffix precedes the shorter ones it ends with. A condition of None
# always holds; a callable replacement is applied to the stem, not appended.
_STEPS = (
    (  # 1a
        ("sses", "ss", None),
        ("ies", "i", None),
        ("ss", "ss", None),
        ("s", "", None),
    ),
    (  # 1b
        ("eed", "ee", _m_above_0),
        ("ed", _step1b_adjust, _has_vowel),
        ("ing", _step1b_adjust, _has_vowel),
    ),
    (("y", "i", _has_vowel),),  # 1c
    (  # 2
        ("ational", "ate", _m_above_0),
        ("ization", "ize", _m_above_0),
        ("iveness", "ive", _m_above_0),
        ("fulness", "ful", _m_above_0),
        ("ousness", "ous", _m_above_0),
        ("tional", "tion", _m_above_0),
        ("biliti", "ble", _m_above_0),
        ("ation", "ate", _m_above_0),
        ("alism", "al", _m_above_0),
        ("aliti", "al", _m_above_0),
        ("iviti", "ive", _m_above_0),
        ("ousli", "ous", _m_above_0),
        ("entli", "ent", _m_above_0),
        ("enci", "ence", _m_above_0),
        ("anci", "ance", _m_above_0),
        ("izer", "ize", _m_above_0),
        ("abli", "able", _m_above_0),
        ("alli", "al", _m_above_0),
        ("ator", "ate", _m_above_0),
        ("eli", "e", _m_above_0),
    ),
    (  # 3
        ("icate", "ic", _m_above_0),
        ("ative", "", _m_above_0),
        ("alize", "al", _m_above_0),
        ("iciti", "ic", _m_above_0),
        ("ical", "ic", _m_above_0),
        ("ness", "", _m_above_0),
        ("ful", "", _m_above_0),
    ),
    (  # 4
        ("ement", "", _m_above_1),
        ("ance", "", _m_above_1),
        ("ence", "", _m_above_1),
        ("able", "", _m_above_1),
        ("ible", "", _m_above_1),
        ("ment", "", _m_above_1),
        ("ant", "", _m_above_1),
        ("ent", "", _m_above_1),
        ("ion", "", lambda base: base.endswith(("s", "t")) and _m_above_1(base)),
        ("ism", "", _m_above_1),
        ("ate", "", _m_above_1),
        ("iti", "", _m_above_1),
        ("ous", "", _m_above_1),
        ("ive", "", _m_above_1),
        ("ize", "", _m_above_1),
        ("er", "", _m_above_1),
        ("ic", "", _m_above_1),
        ("ou", "", _m_above_1),
        ("al", "", _m_above_1),
    ),
    (("e", "", _step5a_condition),),  # 5a
    # 5b: m > 1 of the whole word, which a second trailing l leaves unchanged
    (("ll", "l", lambda base: _m_above_1(base + "l")),),
)
# each step's rows grouped by the last letter of their suffix, in row order,
# so a step reads only the rows that can match the word's last letter
_DISPATCH = tuple(
    {last: tuple(row for row in rows if row[0][-1] == last)
     for last in dict.fromkeys(suffix[-1] for suffix, _, _ in rows)}
    for rows in _STEPS
)


def stem(term: str) -> str:
    """Stem a single lowercase term.

    Deterministic; not idempotent in general (e.g. stemming can expose
    a new strippable suffix).
    """
    if len(term) <= 2:
        return term
    w = term
    # no rule empties a word, so w[-1] always exists
    for table in _DISPATCH:
        rows = table.get(w[-1])
        if rows is None:
            continue
        for suffix, replacement, condition in rows:
            if w.endswith(suffix):
                base = w[: -len(suffix)]
                if condition is None or condition(base):
                    w = replacement(base) if callable(replacement) else base + replacement
                break
    return w
