"""Normalized word frequencies, labeled corpus profiles, discriminative
feature selection, and document vectorization.

A word frequency (WF) is ``count / total * 10000`` -- occurrences per ten
thousand terms, kept as a real number throughout. Profiles and document
rows count terms the same way, a ``Counter`` over the term sequence,
except that a row counts only the terms that are features; its total is
still every term, so each WF is the same number.
Feature sets and profiles are saved with :mod:`fuzzydocs.jsonfile`, so
each file is replaced whole or left as it was.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .jsonfile import checked_names, checked_numbers, read_json, write_json

__all__ = [
    "WF_SCALE",
    "LabeledProfile",
    "word_frequency",
    "build_profile",
    "select_features",
    "discrimination_ratio",
    "vectorize",
    "save_feature_set",
    "load_feature_set",
    "save_profile",
    "load_profile",
]

WF_SCALE = 10000.0

TOP_K_DEFAULT = 50
MIN_RATIO_DEFAULT = 2.0
MIN_WF_DEFAULT = 5.0

# A feature set is an ordered list of unique terms; the order defines the
# vector dimensions.
FeatureSet = list[str]


@dataclass(frozen=True)
class LabeledProfile:
    """Corpus-level WF per term for one known document category.

    A profile checks itself when it is made, whether by
    :func:`build_profile`, :func:`load_profile` or a caller: the label
    must be a non-empty string and the WFs a dict of string terms whose
    values pass :func:`fuzzydocs.jsonfile.checked_numbers` in
    [0, WF_SCALE]; otherwise ``ValueError`` (naming the label for a bad
    term or WF). ``wf`` is then a new dict of Python floats over terms
    passed through ``sys.intern``, so the profiles of one process share
    one string per distinct term; on Python 3.12 interned strings are
    immortal, so the process keeps each for its lifetime. Like
    ``FeatureMatrix.data``, a ``wf`` dict mutated after construction is
    not checked again."""

    label: str
    wf: dict[str, float]

    def __post_init__(self):
        label, wf = self.label, self.wf
        if not (isinstance(label, str) and label and isinstance(wf, dict)):
            raise ValueError("invalid profile: the label must be a non-empty string, the WFs a dict")
        kinds = set(map(type, wf))
        if not all(issubclass(kind, str) for kind in kinds):
            raise ValueError(f"terms of profile {label!r} must be strings")
        values = checked_numbers(list(wf.values()), f"WFs of profile {label!r}", WF_SCALE, 1)
        # sys.intern takes a str, not a subclass such as numpy.str_
        terms = wf if kinds <= {str} else map(str, wf)
        object.__setattr__(self, "wf", dict(zip(map(sys.intern, terms), values.tolist())))


def word_frequency(count: int, total: int) -> float:
    """Occurrences per 10000 terms, unrounded."""
    if total <= 0:
        raise ValueError("empty document")
    return count / total * WF_SCALE


def build_profile(label: str, term_seqs: Iterable[Sequence[str]]) -> LabeledProfile:
    """Pool term counts over a labeled sample corpus and normalize once.

    Pooling is corpus-level: one WF per term from the summed counts over
    the summed document lengths, not an average of per-document WFs.
    """
    pooled: Counter[str] = Counter()
    total = 0
    for terms in term_seqs:
        pooled.update(terms)
        total += len(terms)
    if total == 0:
        raise ValueError(f"empty corpus (label {label!r})")
    wf = {t: word_frequency(pooled[t], total) for t in sorted(pooled)}
    return LabeledProfile(label, wf)


def select_features(
    profiles: Sequence[LabeledProfile],
    top_k: int = TOP_K_DEFAULT,
    min_ratio: float = MIN_RATIO_DEFAULT,
    min_wf: float = MIN_WF_DEFAULT,
) -> FeatureSet:
    """Pick the terms whose WF differs most between labeled profiles.

    Walks :func:`score_terms`' ranking, descending score with ties
    broken lexicographically, and stops at the first score below
    min_ratio or once it has top_k terms. A term it visits is kept when
    its best-label WF is >= min_wf.
    """
    if len(profiles) < 2:
        raise ValueError("need at least two labeled profiles")
    if top_k < 1:
        raise ValueError("top_k must be positive")
    selected = []
    for term, ratio in score_terms(profiles):
        if not ratio >= min_ratio or len(selected) == top_k:
            break
        if max(p.wf.get(term, 0.0) for p in profiles) >= min_wf:
            selected.append(term)
    if not selected:
        raise ValueError("no discriminative features")
    return selected


def score_terms(profiles: Sequence[LabeledProfile]) -> list[tuple[str, float]]:
    """Discrimination ratio of every term seen in any profile, sorted by
    descending ratio (ties lexicographic).

    The ratios come from one L x V table of WFs, a row per profile and a
    column per term, a term missing from a profile counting as WF 0.
    """
    if not profiles:
        return []
    terms = list(dict.fromkeys(chain.from_iterable(p.wf for p in profiles)))
    table = _wf_table(profiles, terms)
    # Python orders the terms: a numpy string array would be as wide as
    # the longest term and would drop trailing NULs
    by_term = np.array(sorted(range(len(terms)), key=terms.__getitem__), dtype=np.intp)
    ratios = discrimination_ratio(table)[by_term]
    ranked = np.argsort(-ratios, kind="stable")
    return list(zip(map(terms.__getitem__, by_term[ranked].tolist()), ratios[ranked].tolist()))


def _wf_table(profiles: Sequence[LabeledProfile], terms: Sequence[str]) -> np.ndarray:
    """The WF of each term (a column) in each profile (a row), 0 where a
    profile lacks the term."""
    return np.array([list(map(p.wf.get, terms, repeat(0.0))) for p in profiles], dtype=float)


def discrimination_ratio(wfs) -> float | np.ndarray:
    """How much a term's WF differs between labels: ``max / (min + 1)``
    over its WF in each profile, reduced over axis 0, so a list of one
    term's WFs gives one ratio and an L x V table a ratio per column. The
    +1 keeps a term absent from one label finitely ranked."""
    wfs = np.asarray(wfs, dtype=float)
    return wfs.max(axis=0) / (wfs.min(axis=0) + 1.0)


def vectorize(terms: Sequence[str], features: Sequence[str]) -> tuple[float, ...]:
    """WF of each feature in one document's terms, zero where absent.
    Only the terms that are features are counted; the total is every
    term."""
    total = len(terms)
    if total <= 0:
        raise ValueError("empty document")
    counts = Counter(filter(frozenset(features).__contains__, terms))
    # word_frequency's expression, inline: no call per feature
    return tuple([count / total * WF_SCALE for count in map(counts.get, features, repeat(0))])


def save_feature_set(features: Sequence[str], path: str | Path) -> None:
    """Write a feature set, which must pass
    :func:`fuzzydocs.jsonfile.checked_names` as ``load_feature_set``
    requires; a refused one writes nothing."""
    write_json(checked_names(features, "features"), path)


def load_feature_set(path: str | Path) -> FeatureSet:
    features = read_json(path)
    checked_names(features, f"invalid feature set file: {path}: features")
    return features


def save_profile(profile: LabeledProfile, path: str | Path) -> None:
    """Write a profile as ``load_profile`` reads it back: every WF a
    float, so a saved, loaded and saved again profile is the same bytes."""
    write_json({"label": profile.label, "wf": profile.wf}, path)


def load_profile(path: str | Path) -> LabeledProfile:
    """The profile a file holds, as :class:`LabeledProfile` checks it;
    otherwise ``ValueError`` naming the file."""
    raw = read_json(path)
    label, wf = (raw.get("label"), raw.get("wf")) if isinstance(raw, dict) else (None, None)
    try:
        return LabeledProfile(label, wf)
    except ValueError as exc:
        raise ValueError(f"invalid profile file: {path}: {exc}") from exc
