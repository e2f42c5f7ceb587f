"""Attach category names to clusters and turn the membership matrix into
per-document strength reports.

A labelling is a tuple of profile labels indexed by cluster: ``labels[j]``
names cluster j. It is chosen jointly: each center-to-profile Euclidean
distance is computed once, and over all injective cluster-to-label
assignments the one with the smallest total distance wins; among equal
totals, the lexicographically smallest label sequence. Membership
strength is read off the partition column: a dominant degree is "strong",
a flat column is "ambiguous", everything else "moderate". A report is
saved with :mod:`fuzzydocs.jsonfile`, so the file is replaced whole or
left as it was.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import LabeledProfile
from .jsonfile import write_json

__all__ = [
    "DocumentReport",
    "label_clusters",
    "classify_strength",
    "rank_documents",
    "save_report",
    "render_report_table",
    "validate_thresholds",
]

STRONG_THRESHOLD_DEFAULT = 0.85
AMBIGUITY_MARGIN_DEFAULT = 0.1


@dataclass(frozen=True)
class DocumentReport:
    doc_id: str
    memberships: dict[str, float]  # label -> degree, one entry per cluster
    top_label: str
    strength: str  # strong | moderate | ambiguous


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
) -> list[DocumentReport]:
    """Per-document labeled degrees and a strength class for each;
    ``labels[j]`` names row j of the c x n partition u.

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
        DocumentReport(doc_id, dict(zip(labels, degrees)), labels[j], s)
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
    """Both thresholds must lie in (0, 1), and strong_threshold must
    exceed 1/c, the top degree of a flat column."""
    if not 0.0 < strong_threshold < 1.0 or not 0.0 < ambiguity_margin < 1.0:
        raise ValueError("thresholds must lie in (0, 1)")
    if strong_threshold <= 1.0 / c:
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


def save_report(reports: Sequence[DocumentReport], path: str | Path) -> None:
    payload = [
        {
            "doc_id": r.doc_id,
            "labels": r.memberships,
            "top_label": r.top_label,
            "strength": r.strength,
        }
        for r in reports
    ]
    write_json(payload, path)


def render_report_table(reports: Sequence[DocumentReport]) -> str:
    """Aligned plain-text table, one row per document, in the given order."""
    if not reports:
        return ""
    labels = list(reports[0].memberships)
    header = ["doc_id"] + labels + ["top_label", "strength"]
    rows = [header]
    for r in reports:
        rows.append(
            [r.doc_id]
            + [f"{r.memberships[lab]:.4f}" for lab in labels]
            + [r.top_label, r.strength]
        )
    widths = [max(len(row[k]) for row in rows) for k in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)
