"""Attach category names to clusters and turn the membership matrix into
per-document strength reports.

A labelling is a tuple of profile labels indexed by cluster: ``labels[j]``
names cluster j. It is chosen jointly: each center-to-profile Euclidean
distance is computed once, and over all injective cluster-to-label
assignments the one with the smallest total distance wins; among equal
totals, the lexicographically smallest label sequence. Membership
strength is read off the partition column: a dominant degree is "strong",
a flat column is "ambiguous", everything else "moderate".

A report is the list ``report.json`` holds, one plain dict per document:
``{"doc_id", "labels": {label: degree}, "top_label", "strength"}``. It is
saved as is with :mod:`fuzzydocs.jsonfile`, so the file is replaced whole
or left as it was.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .features import LabeledProfile
from .jsonfile import write_json

__all__ = [
    "label_clusters",
    "classify_strength",
    "rank_documents",
    "save_report",
    "render_report_table",
    "validate_thresholds",
]

STRONG_THRESHOLD_DEFAULT = 0.85
AMBIGUITY_MARGIN_DEFAULT = 0.1


def label_clusters(
    centers: np.ndarray,
    profiles: Sequence[LabeledProfile],
    features: Sequence[str],
) -> tuple[str, ...]:
    """The label of each cluster, matched by minimum total center-to-profile
    distance over injective assignments; ties resolve to the
    lexicographically smallest label sequence.
    """
    centers = np.asarray(centers, dtype=float)
    c = centers.shape[0]
    if len(profiles) < c:
        raise ValueError("insufficient profiles")
    profiles = sorted(profiles, key=lambda p: p.label)
    labels = [p.label for p in profiles]
    if len(set(labels)) != len(labels):
        raise ValueError("profile labels must be unique")
    vectors = [np.array([p.wf.get(t, 0.0) for t in features], dtype=float) for p in profiles]
    dist = [[float(np.linalg.norm(center - vector)) for vector in vectors] for center in centers]
    if not np.all(np.isfinite(dist)):
        raise ValueError("centers and profile WFs must be finite")
    # permutations come in lexicographic order and min keeps the first minimum
    best = min(itertools.permutations(range(len(labels)), c),
               key=lambda ks: sum(row[k] for row, k in zip(dist, ks)))
    return tuple(labels[k] for k in best)


def classify_strength(
    u: np.ndarray,
    doc_ids: Sequence[str],
    labels: Sequence[str],
    strong_threshold: float = STRONG_THRESHOLD_DEFAULT,
    ambiguity_margin: float = AMBIGUITY_MARGIN_DEFAULT,
) -> list[dict]:
    """One report entry per document, its labeled degrees and a strength
    class; ``labels[j]`` names row j of the c x n partition u.

    strong: top degree >= strong_threshold; ambiguous: degree spread
    (max - min) < ambiguity_margin; moderate otherwise. Strong wins when
    both conditions hold (only possible with a single cluster).
    """
    u = np.asarray(u, dtype=float)
    c, n = u.shape
    validate_thresholds(strong_threshold, ambiguity_margin, c)
    _check_names(doc_ids, labels, c, n)
    high = u.max(axis=0)
    strength = np.where(high >= strong_threshold, "strong",
                        np.where(high - u.min(axis=0) < ambiguity_margin, "ambiguous", "moderate"))
    return [
        {"doc_id": doc_id, "labels": dict(zip(labels, degrees)), "top_label": labels[j],
         "strength": s}
        for doc_id, degrees, j, s in zip(
            doc_ids, u.T.tolist(), u.argmax(axis=0).tolist(), strength.tolist())
    ]


def _check_names(doc_ids: Sequence[str], labels: Sequence[str], c: int, n: int) -> None:
    """doc_ids must name the n columns and labels the c rows of a partition."""
    if len(doc_ids) != n:
        raise ValueError("doc_ids length must match partition columns")
    if len(labels) != c:
        raise ValueError("labels length must match partition rows")


def validate_thresholds(strong_threshold: float, ambiguity_margin: float, c: int) -> None:
    """Both thresholds must lie in (0, 1), and with two or more clusters
    strong_threshold must exceed 1/c, the top degree of a flat column. A
    single cluster's degrees are all 1, so each of its documents is strong."""
    if not 0.0 < strong_threshold < 1.0 or not 0.0 < ambiguity_margin < 1.0:
        raise ValueError("thresholds must lie in (0, 1)")
    if c >= 2 and strong_threshold <= 1.0 / c:
        raise ValueError("strong_threshold must exceed 1/c")


def rank_documents(
    u: np.ndarray,
    doc_ids: Sequence[str],
    labels: Sequence[str],
    label: str,
) -> list[tuple[str, float]]:
    """Documents ordered by descending membership in one labeled cluster,
    ties by ascending doc_id."""
    u = np.asarray(u, dtype=float)
    _check_names(doc_ids, labels, *u.shape)
    if label not in labels:
        raise ValueError(f"unknown label: {label}")
    j = labels.index(label)
    pairs = [(doc_id, float(u[j, i])) for i, doc_id in enumerate(doc_ids)]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs


def save_report(reports: Sequence[dict], path: str | Path) -> None:
    write_json(reports, path)


def render_report_table(reports: Sequence[dict]) -> str:
    """Aligned plain-text table, one row per document, in the given order;
    degrees to four decimals, in the first entry's label order."""
    if not reports:
        return ""
    labels = list(reports[0]["labels"])
    degrees = [[r["labels"][lab] for lab in labels] for r in reports]
    widths = [_width("doc_id", [r["doc_id"] for r in reports]),
              *map(_degree_width, labels, np.array(degrees, dtype=float).T),
              _width("top_label", [r["top_label"] for r in reports]),
              _width("strength", [r["strength"] for r in reports])]
    cells = [f"{{:<{w}}}" for w in widths]
    header = "  ".join(cells).format("doc_id", *labels, "top_label", "strength").rstrip()
    cells[1:-2] = [f"{{:<{w}.4f}}" for w in widths[1:-2]]
    row = "  ".join(cells)
    lines = [row.format(r["doc_id"], *ds, r["top_label"], r["strength"]).rstrip()
             for r, ds in zip(reports, degrees)]
    return "\n".join([header, *lines])


def _width(name: str, cells: Sequence[str]) -> int:
    return max(len(name), *map(len, cells))


def _degree_width(label: str, degrees: np.ndarray) -> int:
    """The widest of a label and its degrees printed to four decimals. A
    degree in [0, 1] prints as six characters, "0.1234" or "1.0000"; only
    the others (-0.0 among them) are printed to be measured."""
    unit = (degrees >= 0) & (degrees <= 1) & ~np.signbit(degrees)
    return max(len(label), 6 if unit.any() else 0, *(len(f"{d:.4f}") for d in degrees[~unit]))
