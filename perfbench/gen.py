"""Seeded input generators for the fuzzydocs benchmark.

Every generator takes the benchmark seed and returns the same bytes for
the same seed, as a dict of file name -> bytes, which ``write_files``
writes out. The program under test only ever sees those files:
corpus directories of HTML-ish text files for the CLI workloads, and a
``.npy`` WF matrix plus profile JSON for the library workload. The
ground truth (each document's dominant topic) stays with the benchmark.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

# Labels of the CLI corpora (4 topics) and of the matrix workload (8).
CLI_LABELS = ("arts", "health", "science", "sports")
MATRIX_LABELS = ("arts", "business", "health", "law", "science", "sports", "travel", "weather")

# All of these are in the package's default stopword list, so the
# stopword stage removes them; the generator does not read that list.
STOPWORDS = (
    "the", "of", "and", "to", "in", "is", "that", "for", "it", "with", "as", "was",
    "on", "be", "at", "by", "this", "from", "or", "an", "are", "which", "but", "not",
    "have", "had", "they", "were", "their", "there", "been", "has", "more", "can",
)

_STOPWORD_ARRAY = np.array(STOPWORDS)
_STOPWORD_SET = frozenset(STOPWORDS)

# Inflections the Porter stemmer folds back to the root (mostly).
SUFFIXES = ("", "s", "ed", "ing", "er", "ers", "ly", "ness", "ation", "ations", "ment", "ful")

_ONSETS = ("b", "br", "c", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "l", "m",
           "n", "p", "pl", "r", "s", "st", "t", "tr", "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "n", "r", "l", "m", "t", "nd", "st")

DOC_TERMS = 300         # tokens per document, stopwords included
STOPWORD_SHARE = 0.25   # share of a document's tokens that are stopwords
TOPIC_SHARE = 0.15      # share drawn from the document's own topic roots
TOPIC_ROOTS = 12        # roots reserved for each topic
MIX_SHARE = 0.3         # share of unlabelled documents mixing two topics

# name -> (background roots, suffixes used per root, Zipf exponent)
CORPUS_SHAPES = {
    "zipf": (500, len(SUFFIXES), 1.0),
    "wide": (120000, 4, 0.4),
}


def _roots(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct pronounceable [a-z] roots of two or three syllables."""
    syllables = np.array([o + v + c for o in _ONSETS for v in _VOWELS for c in _CODAS] + [""],
                         dtype=object)
    roots: dict[str, None] = {}
    while len(roots) < count:
        picks = rng.integers(0, len(syllables) - 1, size=(3, count))
        picks[2, rng.random(count) < 0.5] = len(syllables) - 1  # two syllables: empty third
        words = syllables[picks[0]] + syllables[picks[1]] + syllables[picks[2]]
        roots.update((w, None) for w in words.tolist() if w not in _STOPWORD_SET)
    return list(roots)[:count]


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    cdf = np.cumsum(np.arange(1, n + 1, dtype=float) ** -exponent)
    return cdf / cdf[-1]


def _draw(rng: np.random.Generator, items: np.ndarray, cdf: np.ndarray, k: int) -> np.ndarray:
    idx = np.searchsorted(cdf, rng.random(k), side="right")
    return items[np.minimum(idx, len(items) - 1)]


class _CorpusModel:
    """Background Zipf vocabulary plus a few reserved roots per topic."""

    def __init__(self, rng: np.random.Generator, shape: str, labels: tuple[str, ...]):
        n_roots, n_suffixes, exponent = CORPUS_SHAPES[shape]
        roots = _roots(rng, n_roots + TOPIC_ROOTS * len(labels))
        background = [r + s for r in roots[:n_roots] for s in SUFFIXES[:n_suffixes]]
        rng.shuffle(background)  # Zipf rank order independent of spelling
        self.background = np.array(background)
        self.background_cdf = _zipf_cdf(len(background), exponent)
        self.topic_forms = {}
        for t, label in enumerate(labels):
            mine = roots[n_roots + TOPIC_ROOTS * t : n_roots + TOPIC_ROOTS * (t + 1)]
            self.topic_forms[label] = np.array([r + s for r in mine for s in SUFFIXES[:4]])
        self.topic_cdf = _zipf_cdf(TOPIC_ROOTS * 4, 0.5)

    def document(self, rng: np.random.Generator, topics: dict[str, float]) -> str:
        n_stop = int(DOC_TERMS * STOPWORD_SHARE)
        n_topic = int(DOC_TERMS * TOPIC_SHARE)
        parts = [
            _STOPWORD_ARRAY[rng.integers(0, len(STOPWORDS), size=n_stop)],
            _draw(rng, self.background, self.background_cdf, DOC_TERMS - n_stop - n_topic),
        ]
        labels = list(topics)
        counts = rng.multinomial(n_topic, [topics[lab] for lab in labels])
        for label, k in zip(labels, counts):
            parts.append(_draw(rng, self.topic_forms[label], self.topic_cdf, k))
        tokens = np.concatenate(parts)
        rng.shuffle(tokens)
        return _render(rng, tokens.tolist())


def _render(rng: np.random.Generator, tokens: list[str]) -> str:
    """Light HTML: paragraphs, a few inline tags, entities, capitalised
    sentence starts and punctuation."""
    marks = rng.random(len(tokens))
    out = ["<html><body><p>"]
    sentence_start = True
    for tok, r in zip(tokens, marks):
        if sentence_start:
            tok = tok.capitalize()
            sentence_start = False
        if r < 0.03:
            tok = f"<b>{tok}</b>"
        elif r < 0.05:
            tok = f'<a href="/t/{tok}">{tok}</a>'
        elif r < 0.07:
            tok = f"&quot;{tok}&quot;"
        elif r < 0.08:
            tok = f"{tok} &amp;"
        if r > 0.985:
            tok += ".</p>\n<p>"
            sentence_start = True
        elif r > 0.92:
            tok += "."
            sentence_start = True
        elif r > 0.88:
            tok += ","
        out.append(tok)
    out.append("</p></body></html>\n")
    return " ".join(out)


def _unlabelled_topics(rng: np.random.Generator,
                       labels: tuple[str, ...]) -> tuple[str, dict[str, float]]:
    """A pure document, or with MIX_SHARE a two-topic mixture; returns the
    dominant topic as ground truth."""
    main = labels[rng.integers(len(labels))]
    if rng.random() >= MIX_SHARE:
        return main, {main: 1.0}
    other = labels[(labels.index(main) + rng.integers(1, len(labels))) % len(labels)]
    w = rng.uniform(0.6, 0.8)
    return main, {main: w, other: 1.0 - w}


def corpus_files(shape: str, seed: int, n_labelled: int,
                 n_unlabelled: int) -> tuple[dict[str, bytes], dict[str, str]]:
    """The files of ``samples/<label>/`` (pure documents per topic) and
    ``corpus/`` (unlabelled, some mixed), by relative path; and doc id ->
    dominant topic of the unlabelled documents."""
    rng = np.random.default_rng([seed, 1 if shape == "zipf" else 2])
    model = _CorpusModel(rng, shape, CLI_LABELS)
    files = {}
    for label in CLI_LABELS:
        for i in range(n_labelled):
            files[f"samples/{label}/{label}{i:04d}.html"] = model.document(rng, {label: 1.0})
    truth = {}
    for i in range(n_unlabelled):
        doc_id = f"doc{i:05d}.html"
        truth[doc_id], topics = _unlabelled_topics(rng, CLI_LABELS)
        files[f"corpus/{doc_id}"] = model.document(rng, topics)
    return {path: text.encode("utf-8") for path, text in files.items()}, truth


# Matrix workload: topic t owns the features f with f % 8 == t.
MATRIX_FEATURES = 20
HIGH_WF = 250.0         # a topic's WF on the features it owns
LOW_WF = 25.0           # its WF on every other feature
NOISE_SHAPE = 16.0      # gamma shape of the multiplicative noise (cv 0.25)
BACKGROUND_TERMS = 20000  # non-discriminative terms in every profile


def matrix_files(seed: int, n_docs: int) -> tuple[dict[str, bytes], dict[str, str], list[str]]:
    """The files ``matrix.npy`` (n_docs x 20 WF values), ``columns.json``
    (the feature term of each column), ``doc_ids.json`` and one profile
    JSON per label, by name; doc id -> dominant topic; and the feature
    terms."""
    rng = np.random.default_rng([seed, 3])
    c = len(MATRIX_LABELS)
    words = _roots(rng, MATRIX_FEATURES + BACKGROUND_TERMS)
    features, background = words[:MATRIX_FEATURES], words[MATRIX_FEATURES:]
    owner = np.arange(MATRIX_FEATURES) % c
    centers = np.where(owner[None, :] == np.arange(c)[:, None], HIGH_WF, LOW_WF)

    main = rng.integers(0, c, size=n_docs)
    other = (main + rng.integers(1, c, size=n_docs)) % c
    w = np.where(rng.random(n_docs) < MIX_SHARE, rng.uniform(0.6, 0.8, size=n_docs), 1.0)
    mean = w[:, None] * centers[main] + (1.0 - w)[:, None] * centers[other]
    noise = rng.gamma(NOISE_SHAPE, 1.0 / NOISE_SHAPE, size=mean.shape)
    matrix = np.clip(mean * noise, 0.0, 10000.0)

    npy = io.BytesIO()
    np.save(npy, matrix)
    doc_ids = [f"doc{i:06d}" for i in range(n_docs)]
    files = {
        "matrix.npy": npy.getvalue(),
        "doc_ids.json": json.dumps(doc_ids).encode("utf-8"),
        "columns.json": json.dumps(features).encode("utf-8"),
    }
    # Background WF in [1, 2.5) everywhere: ratio max/(min+1) < 2, never selected.
    bg = rng.uniform(1.0, 2.5, size=(c, len(background)))
    for t, label in enumerate(MATRIX_LABELS):
        wf = dict(zip(features, centers[t].tolist()))
        wf.update(zip(background, bg[t].tolist()))
        files[f"{label}.input.json"] = json.dumps({"label": label, "wf": wf}).encode("utf-8")
    truth = {doc_ids[i]: MATRIX_LABELS[k] for i, k in enumerate(main.tolist())}
    return files, truth, features


def write_files(root: Path, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
