"""Attach category names to clusters and turn the membership matrix into
per-document strength reports.

A labelling is a tuple of profile labels indexed by cluster: ``labels[j]``
names cluster j. It is chosen jointly: each center-to-profile Euclidean
distance is computed once, and over all injective cluster-to-label
assignments the one with the smallest total distance wins; totals within
``TIE_TOLERANCE * max(T*, 1)`` of the smallest total T* count as equal,
and among those the lexicographically smallest label sequence wins. The
optimum is found as a rectangular linear assignment by shortest
augmenting paths (Jonker & Volgenant 1987; Crouse 2016), in O(c^2 L)
for c clusters and L labels, and the tie rule re-solves at most c L
residual problems, so the cost is polynomial, not the L!/(L-c)! label
sequences of a search. Membership
strength is read off the partition column: a dominant degree is "strong",
a flat column is "ambiguous", everything else "moderate".

A report is the list ``report.json`` holds, one plain dict per document:
``{"doc_id", "labels": {label: degree}, "top_label", "strength"}``. It is
saved as is with :mod:`fuzzydocs.jsonfile`, so the file is replaced whole
or left as it was.

The report table prints each degree to four decimals, and each degree
cell equals ``format(x, ".4f")`` of the degree read as a float. The cells
of a column are computed in numpy, from the nearest integer to
``x * 1e4``, for every degree in [0, 1] away from a rounding tie; -0.0, a
degree outside [0, 1] (NaN and the infinities among them) and a degree
whose ``x * 1e4`` lies within 1e-9 of a half-integer go through
``format``.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, count
from operator import itemgetter
from pathlib import Path

import numpy as np

from .fcm import validate_partition
from .features import WF_SCALE, LabeledProfile, _wf_table
from .jsonfile import checked_names, checked_numbers, write_json

__all__ = [
    "label_clusters",
    "classify_strength",
    "printable",
    "rank_documents",
    "save_report",
    "render_report_table",
    "validate_thresholds",
]

STRONG_THRESHOLD_DEFAULT = 0.85
AMBIGUITY_MARGIN_DEFAULT = 0.1
# labelling totals this close to the optimum, relative to max(optimum, 1),
# are ties: rounding can split equal sums of distances by an ulp or two
TIE_TOLERANCE = 1e-9
STRENGTHS = ("strong", "ambiguous", "moderate")


def label_clusters(
    centers: np.ndarray,
    profiles: Sequence[LabeledProfile],
    features: Sequence[str],
) -> tuple[str, ...]:
    """The label of each cluster, matched by minimum total center-to-profile
    distance over injective assignments.

    centers is c x len(features), a row per cluster. Totals within
    ``TIE_TOLERANCE * max(T*, 1)`` of the optimum T* tie, and ties resolve
    to the lexicographically smallest label sequence. The optimum comes
    from an assignment solver in O(c^2 L) for L profiles, and the tie rule
    adds at most c L solves of the residual problem, skipping each label
    whose reduced cost alone already exceeds the tolerance. The centers,
    and each profile's WFs of ``features``, must pass
    :func:`fuzzydocs.jsonfile.checked_numbers` (``ValueError`` naming the
    profile's label for a bad WF), and the profile labels
    :func:`fuzzydocs.jsonfile.checked_names`.
    """
    centers = checked_numbers(centers, "centers", WF_SCALE, 2)  # weighted means of WF rows
    if centers.ndim != 2 or centers.shape[1] != len(features):
        raise ValueError(f"centers must be a c x {len(features)} array (a row per cluster, "
                         f"a column per feature), got shape {centers.shape}")
    c = centers.shape[0]
    if len(profiles) < c:
        raise ValueError(f"insufficient profiles: {c} clusters, {len(profiles)} profiles")
    checked_names([p.label for p in profiles], "profile labels")
    profiles = sorted(profiles, key=lambda p: p.label)
    labels = [p.label for p in profiles]
    vectors = _wf_table(profiles, features)
    dist = np.array([[float(np.linalg.norm(center - vector)) for vector in vectors]
                     for center in centers]).reshape(c, len(labels))
    return tuple(labels[k] for k in _first_best_assignment(dist).tolist())


def _first_best_assignment(cost: np.ndarray) -> np.ndarray:
    """The lexicographically smallest column sequence, one distinct column
    per row of the c x L table, whose total is within the tie tolerance of
    the optimum: each row in turn takes the smallest free column that the
    optimum of the rows after it can still complete within the tolerance."""
    c, n_cols = cost.shape
    rows = np.arange(c)
    cols, u, v = _assign(cost)
    best = cost[rows, cols].sum()
    slack = TIE_TOLERANCE * max(best, 1.0)
    # an assignment through (i, k) totals at least best + reduced[i, k]
    reduced = cost - u[:, None] - v
    free = np.ones(n_cols, dtype=bool)
    for i in range(c):
        for k in np.flatnonzero(free[:cols[i]] & (reduced[i, :cols[i]] <= slack)).tolist():
            free[k] = False
            rest = np.flatnonzero(free)
            trial = np.concatenate([cols[:i], [k], rest[_assign(cost[i + 1:, rest])[0]]])
            if cost[rows, trial].sum() <= best + slack:
                cols = trial
                break
            free[k] = True
        free[cols[i]] = False
    return cols


def _assign(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A minimum-total assignment of the rows of a c x L table, c <= L, to
    distinct columns, as ``(col of each row, u, v)``: shortest augmenting
    paths adding one row at a time (Crouse, IEEE Trans. AES 52(4), 2016).
    The duals satisfy ``cost - u[:, None] - v >= 0``, with equality on the
    assignment, and ``v <= 0``, zero on the columns left free."""
    c, n_cols = cost.shape
    u, v = np.zeros(c), np.zeros(n_cols)
    col_of = np.full(c, -1)
    row_of = np.full(n_cols, -1)
    for start in range(c):
        shortest = np.full(n_cols, np.inf)
        via = np.full(n_cols, -1)
        seen_rows = np.zeros(c, dtype=bool)
        seen_cols = np.zeros(n_cols, dtype=bool)
        i, low = start, 0.0
        while True:  # grow the shortest-path tree until it reaches a free column
            seen_rows[i] = True
            reach = low + cost[i] - u[i] - v
            closer = ~seen_cols & (reach < shortest)
            shortest[closer] = reach[closer]
            via[closer] = i
            j = int(np.argmin(np.where(seen_cols, np.inf, shortest)))
            low = shortest[j]
            seen_cols[j] = True
            if row_of[j] < 0:
                break
            i = row_of[j]
        u[start] += low
        seen_rows[start] = False
        u[seen_rows] += low - shortest[col_of[seen_rows]]
        v[seen_cols] -= low - shortest[seen_cols]
        while True:  # flip the path back to the start row
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of, u, v


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
    both conditions hold (only possible with a single cluster). doc_ids
    and labels must pass :func:`fuzzydocs.jsonfile.checked_names`, and u
    :func:`fuzzydocs.fcm.validate_partition` with a column per doc id and
    a row per label.
    """
    doc_ids, labels = checked_names(doc_ids, "doc_ids"), checked_names(labels, "labels")
    u = validate_partition(u, n=len(doc_ids), c=len(labels))
    validate_thresholds(strong_threshold, ambiguity_margin, len(labels))
    high = u.max(axis=0)
    kind = np.where(high >= strong_threshold, 0,
                    np.where(high - u.min(axis=0) < ambiguity_margin, 1, 2))
    # a column converted as its entry is built, and one of three shared
    # strength strings: no list of n degree rows or n strings beside the
    # entries
    return [
        {"doc_id": doc_id, "labels": dict(zip(labels, column.tolist())), "top_label": labels[j],
         "strength": STRENGTHS[k]}
        for doc_id, column, j, k in zip(
            doc_ids, u.T, u.argmax(axis=0).tolist(), kind.tolist())
    ]


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
    ties by ascending doc_id. doc_ids, labels and u must pass the rules
    :func:`classify_strength` names."""
    doc_ids, labels = checked_names(doc_ids, "doc_ids"), checked_names(labels, "labels")
    u = validate_partition(u, n=len(doc_ids), c=len(labels))
    if label not in labels:
        raise ValueError(f"unknown label: {label}")
    j = labels.index(label)
    pairs = [(doc_id, float(u[j, i])) for i, doc_id in enumerate(doc_ids)]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs


def save_report(reports: Sequence[dict], path: str | Path) -> None:
    write_json(reports, path)


def printable(text: str) -> str:
    """``text`` with each character that is not printable written as its
    escape (a line break as ``\\n``), so that a name prints on one line
    and cannot forge another; a printable text is returned as is."""
    if text.isprintable():
        return text
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in text)


def render_report_table(reports: Sequence[dict]) -> str:
    """Aligned plain-text table, one row per document, in the given order;
    degrees to four decimals, in the first entry's label order. Doc ids
    and labels are written through :func:`printable`, and each column is
    as wide as its widest escaped cell. Each degree is read as a float
    and each cell equals ``format(x, ".4f")`` padded to its column;
    :func:`_degree_blocks` writes them all as one ASCII block."""
    if not reports:
        return ""
    labels = list(reports[0]["labels"])
    names = list(map(printable, labels))
    degrees = _degree_table(reports, labels)
    widths = [_width("doc_id", [printable(r["doc_id"]) for r in reports]),
              *map(_degree_width, names, degrees.T),
              _width("top_label", [printable(r["top_label"]) for r in reports]),
              _width("strength", [r["strength"] for r in reports])]
    header = "  ".join(f"{{:<{w}}}" for w in widths).format(
        "doc_id", *names, "top_label", "strength").rstrip()
    # the block carries the separator after each degree column, so no
    # labels (c = 0) leave one separator between doc id and top label
    row = f"{{:<{widths[0]}}}  {{}}{{:<{widths[-2]}}}  {{:<{widths[-1]}}}"
    text, stride = _degree_blocks(degrees, widths[1:-2])
    # names escaped again, not kept from above, and each row's cells
    # sliced as it is formatted: no list of n names or n cell strings,
    # and no n x c array, is alive while the lines are built, nor the
    # block text while they are joined
    del degrees
    lines = [row.format(printable(r["doc_id"]), text[at:at + stride], printable(r["top_label"]),
                        r["strength"]).rstrip()
             for r, at in zip(reports, count(0, stride))]
    del text
    return "\n".join([header, *lines])


def _degree_table(reports: Sequence[dict], labels: Sequence[str]) -> np.ndarray:
    """The degrees as an n x c float array, a row per report, a column per
    label in the order of ``labels``."""
    n, c = len(reports), len(labels)
    if c < 2:  # itemgetter needs a key, and of one key returns the value, not a 1-tuple
        values = (r["labels"][label] for r in reports for label in labels)
    else:
        values = chain.from_iterable(map(itemgetter(*labels), map(itemgetter("labels"), reports)))
    return np.fromiter(values, float, n * c).reshape(n, c)


def _degree_blocks(degrees: np.ndarray, widths: Sequence[int]) -> tuple[str, int]:
    """Every row's degree cells, each padded to its column's width and
    followed by two spaces, as one ASCII text and the stride of a row in
    it: row i is ``text[i * stride:(i + 1) * stride]`` (empty, with stride
    0, when there are no columns).

    A degree x in [0, 1], not -0.0, whose y = x * 1e4 lies more than 1e-9
    from a half-integer is written from k = rint(y) as ``k // 10000``,
    ``.`` and the four digits of ``k % 10000``. This is what
    ``format(x, ".4f")`` prints: 1e4 is exact, so y is within 2**-40 of
    the true product, which is then no tie and rounds to the same
    integer. Every other degree -- NaN, an infinity, one outside [0, 1],
    -0.0 or a near-tie -- is padded through ``format``. The columns are
    written one at a time, so each temporary is n long."""
    n = len(degrees)
    stride = sum(widths) + 2 * len(widths)
    block = np.full((n, stride), ord(" "), dtype=np.uint8)
    at = 0
    for x, w in zip(degrees.T, widths):
        unit = (x >= 0) & (x <= 1) & ~np.signbit(x)
        y = np.where(unit, x, 0.0) * 1e4  # no NaN or infinity goes on
        k = np.rint(y)
        fast = unit & (np.abs(y - k) < 0.5 - 1e-9)
        if fast.any():  # so the column is at least six wide
            k = k.astype(np.uint16)  # at most 10000
            block[:, at] = k // 10000 + ord("0")
            block[:, at + 1] = ord(".")
            for place, power in enumerate((1000, 100, 10, 1), at + 2):
                block[:, place] = k // power % 10 + ord("0")
        slow = np.flatnonzero(~fast)
        for i, d in zip(slow.tolist(), x[slow].tolist()):
            block[i, at:at + w] = np.frombuffer(format(d, f"<{w}.4f").encode(), np.uint8)
        at += w + 2
    return block.tobytes().decode("ascii"), stride


def _width(name: str, cells: Sequence[str]) -> int:
    return max(len(name), *map(len, cells))


def _degree_width(label: str, degrees: np.ndarray) -> int:
    """The widest of a label and its degrees printed to four decimals. A
    degree in [0, 1] prints as six characters, "0.1234" or "1.0000"; only
    the others (-0.0 among them) are printed to be measured."""
    unit = (degrees >= 0) & (degrees <= 1) & ~np.signbit(degrees)
    return max(len(label), 6 if unit.any() else 0, *(len(f"{d:.4f}") for d in degrees[~unit]))
