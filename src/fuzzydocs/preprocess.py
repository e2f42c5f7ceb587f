"""Text cleanup and term extraction: markup stripping, tokenization,
stopword removal, and stemming.

All functions are pure. :func:`preprocess_document` strips markup,
tokenizes, and resolves each token through a term memo: a dict from a
surface form to its final term (the stem, the form itself when stemming
is off, or ``None`` for a stopword), filled on first sight. One lookup
per token thus does the work of ``remove_stopwords`` and ``stem``, and
each distinct form is tested against the stopwords and stemmed once;
bigrams come last. A document's terms are a plain tuple of strings; the
caller keeps the document id.

The memo is found by ``(stopwords, stemming)``, so configs with equal
values share one memo and every command in a process reuses it. A memo
holds at most 16,384 forms (``_MEMO_SIZE``) and is emptied when full; at
most ``_MEMO_COUNT`` memos are kept for configs that are gone. The
output is the same as without the memo.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cache, lru_cache
from importlib import resources
from itertools import filterfalse
from pathlib import Path

from .porter import stem

__all__ = [
    "PreprocessConfig",
    "strip_markup",
    "tokenize",
    "remove_stopwords",
    "stem",
    "preprocess_document",
    "load_stopwords",
    "default_stopwords",
]

_TAG_RE = re.compile(r"<[^>]*>")
_ENTITY_RE = re.compile(r"&(amp|lt|gt|quot|#[0-9]+);", re.IGNORECASE)
# every byte other than [a-z0-9] becomes a space
_SEPARATORS = bytes(b if b in b"0123456789abcdefghijklmnopqrstuvwxyz" else 0x20 for b in range(256))
_MEMO_SIZE = 1 << 14
_MEMO_COUNT = 8


class _Entities(dict):
    """Entity name -> its text. Holds the four lowercase named entities;
    ``__missing__`` decodes another case of them and ``#NN``, and stores
    nothing, so no input grows the table."""

    __slots__ = ()

    def __missing__(self, name: str) -> str:
        if name[0] != "#":
            return self[name.lower()]
        try:
            return chr(int(name[1:]))
        except (ValueError, OverflowError):  # past chr's range or int's digit limit
            return f"&{name};"


_ENTITIES = _Entities(amp="&", lt="<", gt=">", quot='"')


def strip_markup(text: str) -> str:
    """Replace every ``<...>`` tag span with a single space and decode the
    entities &amp; &lt; &gt; &quot; &#NN;.

    A ``<`` that is never closed is kept as a literal character: tags are
    matched only before the last ``>``, where every match attempt consumes
    what it scans, so stripping is linear. Decoding is one pass over the
    tag-stripped text, so decoded text is never read again: ``&amp;lt;``
    gives ``&lt;``.
    """
    end = text.rfind(">") + 1
    # split with the one group alternates text and entity names
    parts = _ENTITY_RE.split(_TAG_RE.sub(" ", text[:end]) + text[end:])
    parts[1::2] = map(_ENTITIES.__getitem__, parts[1::2])
    return "".join(parts)


@cache
def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package (~170 English terms),
    read once per process."""
    text = resources.files("fuzzydocs.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return _parse_stopwords(text.splitlines())


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one term per line, ``#`` comments, blank lines ignored."""
    with open(path, encoding="utf-8") as f:
        return _parse_stopwords(f)


def _parse_stopwords(lines: Iterable[str]) -> frozenset[str]:
    terms = set()
    for line in lines:
        term = line.split("#", 1)[0].strip().lower()
        if term:
            terms.add(term)
    return frozenset(terms)


class _TermMemo(dict):
    """Surface form -> final term: its stem, the form itself when stemming
    is off, or ``None`` for a stopword. A miss calls ``stem`` through this
    module's global, and a full memo is emptied before it takes a form."""

    __slots__ = ("stopwords", "stemming")

    def __init__(self, stopwords: frozenset[str], stemming: bool):
        super().__init__()
        self.stopwords = stopwords
        self.stemming = stemming

    def __missing__(self, form: str) -> str | None:
        if len(self) >= _MEMO_SIZE:
            self.clear()
        term = None if form in self.stopwords else stem(form) if self.stemming else form
        self[form] = term
        return term


@lru_cache(maxsize=_MEMO_COUNT)
def _term_memo(stopwords: frozenset[str], stemming: bool) -> _TermMemo:
    return _TermMemo(stopwords, stemming)


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for the preprocessing pipeline.

    ``bigrams`` additionally emits ``t1_t2`` phrase tokens for adjacent
    surviving terms, after the unigrams.
    """

    strip_markup: bool = True
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    stemming: bool = True
    bigrams: bool = False

    def __post_init__(self):
        for w in self.stopwords:
            if w != w.lower() or not w or any(ch.isspace() for ch in w):
                raise ValueError(f"invalid stopword: {w!r}")


@cache
def _default_config() -> PreprocessConfig:
    # built once: each construction checks every stopword
    return PreprocessConfig()


def tokenize(text: str) -> list[str]:
    """Lowercase and split into terms: the tokenize stage of
    :func:`preprocess_document`."""
    # maximal [a-z0-9] runs after Unicode-aware lowercasing; anything
    # else (hyphens included) is a separator. Each non-ASCII character,
    # a lone surrogate too, encodes as "?", so it separates as well.
    return text.lower().encode("ascii", "replace").translate(_SEPARATORS).decode("ascii").split()


# the name preprocess_document calls and perfbench/worker.py wraps
_split_terms = tokenize


def _bigram_tokens(terms: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"{a}_{b}" for a, b in zip(terms, terms[1:]))


def remove_stopwords(terms: Sequence[str], stopwords: frozenset[str]) -> list[str]:
    """Keep, in order, the terms not in the stopword set."""
    return list(filterfalse(stopwords.__contains__, terms))


def preprocess_document(text: str, config: PreprocessConfig | None = None) -> tuple[str, ...]:
    """Run the full pipeline on one document's text and return its terms.

    Stage order: markup strip, tokenize, stopword removal, stemming,
    bigram emission. Stemming runs after stopword removal so inflected
    forms are filtered by their surface form, and bigrams pair the final
    content roots. Without a config, the default ``PreprocessConfig()``
    applies, built once per process. The stopword and stem stages read
    the memo of the config's stopwords and stemming, one dict lookup per
    token; a term is never empty, so ``filter`` drops exactly the stopwords.
    """
    if config is None:
        config = _default_config()
    if config.strip_markup:
        text = strip_markup(text)
    memo = _term_memo(config.stopwords, config.stemming)
    terms = tuple(filter(None, map(memo.__getitem__, _split_terms(text))))
    if config.bigrams:
        terms += _bigram_tokens(terms)
    return terms
