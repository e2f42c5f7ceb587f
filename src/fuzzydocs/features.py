"""Normalized word frequencies, labeled corpus profiles, discriminative
feature selection, and document vectorization.

A word frequency (WF) is ``count / total * 10000`` -- occurrences per ten
thousand terms, kept as a real number throughout. Profiles and document
rows count terms the same way: a ``Counter`` over the term sequence.
Feature sets and profiles are saved with :mod:`fuzzydocs.jsonfile`, so
each file is replaced whole or left as it was.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsonfile import read_json, write_json

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
    """Corpus-level WF per term for one known document category."""

    label: str
    wf: dict[str, float]


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

    Each term is scored by :func:`discrimination_ratio` over the
    profiles, a term missing from a profile counting as WF 0. Terms with
    score >= min_ratio and best-label WF >= min_wf qualify; the top_k
    qualifiers are returned in descending score order, ties broken
    lexicographically.
    """
    if len(profiles) < 2:
        raise ValueError("need at least two labeled profiles")
    if top_k < 1:
        raise ValueError("top_k must be positive")
    scored = [(term, ratio) for term, ratio in score_terms(profiles) if ratio >= min_ratio]
    selected = [term for term, ratio in scored
                if max(p.wf.get(term, 0.0) for p in profiles) >= min_wf]
    if not selected:
        raise ValueError("no discriminative features")
    return selected[:top_k]


def score_terms(profiles: Sequence[LabeledProfile]) -> list[tuple[str, float]]:
    """Discrimination ratio of every term seen in any profile, sorted by
    descending ratio (ties lexicographic)."""
    universe = sorted({t for p in profiles for t in p.wf})
    scored = [(term, discrimination_ratio([p.wf.get(term, 0.0) for p in profiles]))
              for term in universe]
    scored.sort(key=lambda tr: (-tr[1], tr[0]))
    return scored


def discrimination_ratio(wfs: Sequence[float]) -> float:
    """How much one term's WF differs between labels: ``max(wfs) /
    (min(wfs) + 1)`` over its WF in each profile; the +1 keeps a term
    absent from one label finitely ranked."""
    return max(wfs) / (min(wfs) + 1.0)


def vectorize(terms: Sequence[str], features: Sequence[str]) -> tuple[float, ...]:
    """WF of each feature in one document's terms, zero where absent."""
    total = len(terms)
    if total <= 0:
        raise ValueError("empty document")
    counts = Counter(terms)
    return tuple(word_frequency(counts[t], total) for t in features)


def save_feature_set(features: Sequence[str], path: str | Path) -> None:
    write_json(list(features), path)


def load_feature_set(path: str | Path) -> FeatureSet:
    features = read_json(path)
    if (
        not isinstance(features, list)
        or not features
        or not all(isinstance(t, str) and t for t in features)
        or len(set(features)) != len(features)
    ):
        raise ValueError(f"invalid feature set file: {path}")
    return features


def save_profile(profile: LabeledProfile, path: str | Path) -> None:
    write_json({"label": profile.label, "wf": profile.wf}, path)


def load_profile(path: str | Path) -> LabeledProfile:
    raw = read_json(path)
    label, wf = (raw.get("label"), raw.get("wf")) if isinstance(raw, dict) else (None, None)
    values = _wf_values(wf) if isinstance(label, str) and label and isinstance(wf, dict) else None
    if values is None:
        raise ValueError(f"invalid profile file: {path}")
    return LabeledProfile(label, dict(zip(wf, values.tolist())))


def _wf_values(wf: dict) -> np.ndarray | None:
    """The WFs as floats, or None unless each is a JSON number in [0, WF_SCALE]."""
    # by type, since ``true`` loads as a bool, a subclass of int
    if not {type(v) for v in wf.values()} <= {int, float}:
        return None
    try:
        a = np.fromiter(wf.values(), dtype=float, count=len(wf))
    except OverflowError:  # an integer past the float range
        return None
    return a if np.all((a >= 0) & (a <= WF_SCALE)) else None  # NaN fails both
