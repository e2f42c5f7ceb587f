"""Attach category names to clusters and turn the membership matrix into
per-document strength reports.

A cluster gets the label of the profile its center sits closest to, chosen
jointly: over all injective cluster-to-label assignments the one with the
smallest total Euclidean distance wins. Membership strength is read off
the partition column: a dominant degree is "strong", a flat column is
"ambiguous", everything else "moderate".
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import LabeledProfile

__all__ = [
    "ClusterLabeling",
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
class ClusterLabeling:
    """Injective cluster-index-to-label map with match distances."""

    assignment: dict[int, str]
    score: dict[int, float]

    def cluster_of(self, label: str) -> int:
        for j, lab in self.assignment.items():
            if lab == label:
                return j
        raise ValueError(f"unknown label: {label}")


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
) -> ClusterLabeling:
    """Match clusters to profile labels by minimum total center-to-profile
    distance over injective assignments; ties resolve to the
    lexicographically smallest label sequence.
    """
    centers = np.asarray(centers, dtype=float)
    c = centers.shape[0]
    if len(profiles) < c:
        raise ValueError("insufficient profiles")
    vectors = {
        p.label: np.array([p.wf.get(t, 0.0) for t in features], dtype=float)
        for p in profiles
    }
    if len(vectors) != len(profiles):
        raise ValueError("profile labels must be unique")
    best: tuple[str, ...] | None = None
    best_total = np.inf
    best_dists: tuple[float, ...] = ()
    for labels in itertools.permutations(sorted(vectors), c):
        dists = tuple(
            float(np.linalg.norm(centers[j] - vectors[lab])) for j, lab in enumerate(labels)
        )
        total = sum(dists)
        if total < best_total:
            best, best_total, best_dists = labels, total, dists
    assert best is not None
    return ClusterLabeling(
        assignment={j: lab for j, lab in enumerate(best)},
        score={j: dist for j, dist in enumerate(best_dists)},
    )


def classify_strength(
    u: np.ndarray,
    doc_ids: Sequence[str],
    labeling: ClusterLabeling,
    strong_threshold: float = STRONG_THRESHOLD_DEFAULT,
    ambiguity_margin: float = AMBIGUITY_MARGIN_DEFAULT,
) -> list[DocumentReport]:
    """Per-document labeled degrees and a strength class for each.

    strong: top degree >= strong_threshold; ambiguous: degree spread
    (max - min) < ambiguity_margin; moderate otherwise. Strong wins when
    both conditions hold (only possible with a single cluster).
    """
    u = np.asarray(u, dtype=float)
    c, n = u.shape
    validate_thresholds(strong_threshold, ambiguity_margin, c)
    if len(doc_ids) != n:
        raise ValueError("doc_ids length must match partition columns")
    reports = []
    for i, doc_id in enumerate(doc_ids):
        degrees = {labeling.assignment[j]: float(u[j, i]) for j in range(c)}
        top = labeling.assignment[int(np.argmax(u[:, i]))]
        spread = float(u[:, i].max() - u[:, i].min())
        if u[:, i].max() >= strong_threshold:
            strength = "strong"
        elif spread < ambiguity_margin:
            strength = "ambiguous"
        else:
            strength = "moderate"
        reports.append(DocumentReport(doc_id, degrees, top, strength))
    return reports


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
    labeling: ClusterLabeling,
    label: str,
) -> list[tuple[str, float]]:
    """Documents ordered by descending membership in one labeled cluster,
    ties by ascending doc_id."""
    u = np.asarray(u, dtype=float)
    j = labeling.cluster_of(label)
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
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, ensure_ascii=False, indent=2)
        f.write("\n")


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
