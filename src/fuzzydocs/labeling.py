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

A report is a :class:`StrengthReport`: the doc ids, the labels, the
validated c x n partition and, per document, the index of its top
cluster and of its strength class, as arrays. ``report.json`` holds one
entry per document, ``{"doc_id", "labels": {label: degree}, "top_label",
"strength"}``; ``save_report`` formats the lines of a block of documents
at a time from one template, each byte for byte as ``json.dumps`` writes
the entry, and streams the blocks through :mod:`fuzzydocs.jsonfile`, so
the file is replaced whole or left as it was. The report command's order
(top label, then descending top degree, then doc id) and
:func:`rank_documents`' order are one ``np.lexsort`` over the degrees
and the ranks of the names.

The report table prints each degree to four decimals, and each degree
cell equals ``format(x, ".4f")`` of the degree read as a float. The cells
of a column are computed in numpy, from the nearest integer to
``x * 1e4``, for every degree in [0, 1] away from a rounding tie; -0.0, a
degree outside [0, 1] (NaN and the infinities among them) and a degree
whose ``x * 1e4`` lies within 1e-9 of a half-integer go through
``format``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import count
from json.encoder import ESCAPE, encode_basestring
from pathlib import Path

import numpy as np

from .fcm import validate_partition
from .features import WF_SCALE, LabeledProfile, _wf_table
from .jsonfile import SEPARATOR, checked_matrix, checked_names, write_json_array

__all__ = [
    "StrengthReport",
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
    whose reduced cost alone already exceeds the tolerance. The centers
    must pass :func:`fuzzydocs.jsonfile.checked_matrix`, and the profile
    labels :func:`fuzzydocs.jsonfile.checked_names`; each profile checked
    its WFs when it was made.
    """
    centers = checked_matrix(centers, "centers", WF_SCALE)  # weighted means of WF rows
    if centers.shape[1] != len(features):
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
                     for center in centers])
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


@dataclass(frozen=True)
class StrengthReport:
    """Each document's degrees, top cluster and strength class, in arrays.

    ``labels[j]`` names row j of the c x n partition ``memberships`` and
    ``doc_ids[i]`` names column i. ``top[i]`` is the row of column i's
    largest degree (the first, on a tie), so its top label is
    ``labels[top[i]]``, and ``strength[i]`` indexes ``STRENGTHS``. The
    ``report.json`` entry of document i is ``{"doc_id", "labels": {label:
    degree}, "top_label", "strength"}``, with the degrees in row order.
    """

    doc_ids: tuple[str, ...]
    labels: tuple[str, ...]
    memberships: np.ndarray
    top: np.ndarray
    strength: np.ndarray

    def by_top_label(self) -> StrengthReport:
        """The report with its documents ordered by top label, then by
        descending degree in the top label, then by doc id: the order the
        ``report`` command writes and prints."""
        n = len(self.doc_ids)
        order = _descending(self.memberships[self.top, np.arange(n)], self.doc_ids,
                            _ranks(self.labels)[self.top])
        return StrengthReport(tuple(map(self.doc_ids.__getitem__, order.tolist())), self.labels,
                              self.memberships[:, order], self.top[order], self.strength[order])


def classify_strength(
    u: np.ndarray,
    doc_ids: Sequence[str],
    labels: Sequence[str],
    strong_threshold: float = STRONG_THRESHOLD_DEFAULT,
    ambiguity_margin: float = AMBIGUITY_MARGIN_DEFAULT,
) -> StrengthReport:
    """The strength report of the c x n partition u, whose row j
    ``labels[j]`` names, in the order of ``doc_ids``.

    strong: top degree >= strong_threshold; ambiguous: degree spread
    (max - min) < ambiguity_margin; moderate otherwise. Strong wins when
    both conditions hold (only possible with a single cluster). doc_ids
    and labels must pass :func:`fuzzydocs.jsonfile.checked_names`, and u
    :func:`fuzzydocs.fcm.validate_partition` with a column per doc id and
    a row per label; the report holds the validated copy of u.
    """
    u, doc_ids, labels = _checked_partition(u, doc_ids, labels)
    validate_thresholds(strong_threshold, ambiguity_margin, len(labels))
    high = u.max(axis=0)
    strength = np.where(high >= strong_threshold, 0,
                        np.where(high - u.min(axis=0) < ambiguity_margin, 1, 2))
    return StrengthReport(doc_ids, labels, u, u.argmax(axis=0), strength)


def _checked_partition(u, doc_ids, labels) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """u, doc_ids and labels, checked as :func:`classify_strength` says."""
    doc_ids, labels = checked_names(doc_ids, "doc_ids"), checked_names(labels, "labels")
    return validate_partition(u, n=len(doc_ids), c=len(labels)), doc_ids, labels


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
    u, doc_ids, labels = _checked_partition(u, doc_ids, labels)
    if label not in labels:
        raise ValueError(f"unknown label: {label}")
    degrees = u[labels.index(label)]
    order = _descending(degrees, doc_ids)
    return list(zip(map(doc_ids.__getitem__, order.tolist()), degrees[order].tolist()))


def _descending(degrees: np.ndarray, doc_ids: Sequence[str], *major: np.ndarray) -> np.ndarray:
    """The indices of the documents ordered by the ``major`` keys, the last
    one first, then by descending degree, then by doc id. Degrees compare
    as floats (-0.0 ties 0.0), and doc ids as Python strings do."""
    return np.lexsort((_ranks(doc_ids), -degrees, *major))


def _ranks(names: Sequence[str]) -> np.ndarray:
    """The place of each name among the names sorted."""
    ranks = np.empty(len(names), dtype=np.intp)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return ranks


# the documents whose entries are formatted, and whose degrees are
# converted to Python floats, at a time
_SAVE_BLOCK = 1024


def save_report(report: StrengthReport, path: str | Path) -> None:
    """Write ``report.json``: the entry of each document, in the report's
    order, one per line. Each line is ``json.dumps(entry,
    ensure_ascii=False)`` of the entry :class:`StrengthReport` names, byte
    for byte: its names go through the encoder's string function and its
    degrees through ``float.__repr__``, the two the encoder calls. Written
    through :func:`fuzzydocs.jsonfile.write_json_array`, a block of
    ``_SAVE_BLOCK`` entries per member."""
    write_json_array(_entry_blocks(report), path)


def _entry_blocks(report: StrengthReport) -> Iterator[str]:
    """The JSON text of each ``_SAVE_BLOCK`` documents' entries, joined as
    the array joins its elements, from one ``%`` over the entry template
    repeated for the block. Labels are escaped once, into the template.
    Degrees are converted to Python floats a block at a time, as ``%r`` of
    a numpy float is not the float's repr under numpy 2."""
    name = encode_basestring
    degrees = ", ".join(name(label).replace("%", "%%") + ": %r" for label in report.labels)
    entry = '{"doc_id": "%s", "labels": {' + degrees + "%s"
    tails = [f'}}, "top_label": {name(label)}, "strength": {name(strength)}}}'
             for label in report.labels for strength in STRENGTHS]
    n = len(report.doc_ids)
    template = SEPARATOR.join([entry] * _SAVE_BLOCK)
    for at in range(0, n, _SAVE_BLOCK):
        if n - at < _SAVE_BLOCK:  # the last block
            template = SEPARATOR.join([entry] * (n - at))
        # the arguments are freed before the text is written
        yield template % _entry_arguments(report, slice(at, at + _SAVE_BLOCK), tails)


def _entry_arguments(report: StrengthReport, block: slice, tails: Sequence[str]) -> tuple:
    """The arguments of the entry template for a block of documents, in
    one flat tuple, entry by entry: the doc id, its c degrees, its tail.
    Doc ids in which ``json.encoder.ESCAPE`` finds nothing, which the
    encoder writes as they are, fill their ``"%s"`` slots unchanged; the
    ids of any other block are escaped one by one."""
    doc_ids = report.doc_ids[block]
    if ESCAPE.search("".join(doc_ids)):
        doc_ids = [encode_basestring(doc_id)[1:-1] for doc_id in doc_ids]
    stride = len(report.labels) + 2
    args = [None] * (len(doc_ids) * stride)
    args[::stride] = doc_ids
    for j, row in enumerate(report.memberships[:, block].tolist(), 1):
        args[j::stride] = row
    tail = report.top[block] * len(STRENGTHS) + report.strength[block]
    args[stride - 1::stride] = map(tails.__getitem__, tail.tolist())
    return tuple(args)


def printable(text: str) -> str:
    """``text`` with each character that is not printable written as its
    escape (a line break as ``\\n``), so that a name prints on one line
    and cannot forge another; a printable text is returned as is."""
    if text.isprintable():
        return text
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in text)


def render_report_table(report: StrengthReport) -> str:
    """Aligned plain-text table, one row per document, in the report's
    order; degrees to four decimals, in row order. Doc ids and labels are
    written through :func:`printable`, and each column is as wide as its
    widest escaped cell. Each cell of a degree x equals ``format(x,
    ".4f")`` padded to its column; :func:`_degree_blocks` writes them all
    as one ASCII block. A report of no documents is the empty text."""
    if not report.doc_ids:
        return ""
    names = list(map(printable, report.labels))
    u = report.memberships
    doc_ids = report.doc_ids
    # a printable text is its own escape, so the ids are escaped one by one
    # only when one of them needs it
    escaped = not "".join(doc_ids).isprintable()
    widths = [_width("doc_id", map(printable, doc_ids) if escaped else doc_ids),
              *map(_degree_width, names, u),
              # sets, not np.unique, which imports numpy.ma on first use in numpy 2
              _width("top_label", (names[j] for j in set(report.top.tolist()))),
              _width("strength", (STRENGTHS[k] for k in set(report.strength.tolist())))]
    header = "  ".join(f"{{:<{w}}}" for w in widths).format(
        "doc_id", *names, "top_label", "strength").rstrip()
    # the top label and strength cells of each pair, as tail indexes them
    tails = [f"{name:<{widths[-2]}}  {strength}" for name in names for strength in STRENGTHS]
    tail = (report.top * len(STRENGTHS) + report.strength).tolist()
    row = f"{{:<{widths[0]}}}  {{}}{{}}"
    text, stride = _degree_blocks(u, widths[1:-2])
    # doc ids escaped again, not kept from above, and each row's cells
    # sliced as it is formatted: no list of n names or n cell strings is
    # alive while the lines are built, nor the block text while they are
    # joined
    lines = [row.format(doc_id, text[at:at + stride], tails[k])
             for doc_id, at, k in zip(map(printable, doc_ids) if escaped else doc_ids,
                                      count(0, stride), tail)]
    del text
    return "\n".join([header, *lines])


def _degree_blocks(u: np.ndarray, widths: Sequence[int]) -> tuple[str, int]:
    """Every column's degree cells, each padded to its row's width and
    followed by two spaces, as one ASCII text and the stride of a document
    in it: column i of u is ``text[i * stride:(i + 1) * stride]``.

    A degree x in [0, 1], not -0.0, whose y = x * 1e4 lies more than 1e-9
    from a half-integer is written from k = rint(y) as ``k // 10000``,
    ``.`` and the four digits of ``k % 10000``. This is what
    ``format(x, ".4f")`` prints: 1e4 is exact, so y is within 2**-40 of
    the true product, which is then no tie and rounds to the same
    integer. Every other degree -- NaN, an infinity, one outside [0, 1],
    -0.0 or a near-tie -- is padded through ``format``. The rows of u are
    written one at a time, so each temporary is n long."""
    stride = sum(widths) + 2 * len(widths)
    block = np.full((u.shape[1], stride), ord(" "), dtype=np.uint8)
    at = 0
    for x, w in zip(u, widths):
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


def _width(name: str, cells: Iterable[str]) -> int:
    """The widest of a column's name and its cells, of which there is one at least."""
    return max(len(name), max(map(len, cells)))


def _degree_width(label: str, degrees: np.ndarray) -> int:
    """The widest of a label and its degrees printed to four decimals. A
    degree in [0, 1] prints as six characters, "0.1234" or "1.0000"; only
    the others (-0.0 among them) are printed to be measured."""
    unit = (degrees >= 0) & (degrees <= 1) & ~np.signbit(degrees)
    return max(len(label), 6 if unit.any() else 0, *(len(f"{d:.4f}") for d in degrees[~unit]))
