"""Fuzzy c-means over document feature matrices.

The engine alternates the weighted-mean center update

    v_j = sum_i u_ji^m x_i / sum_i u_ji^m

with the inverse-distance membership update, in min-ratio form

    w_ji = (min_k d_ki / d_ji)^(2/(m-1)),    u_ji = w_ji / sum_k w_ki,

which equals the textbook 1 / sum_k (d_ji / d_ki)^(2/(m-1)) but keeps
every w in [0, 1], so no fuzzifier near 1 overflows it. The engine
stops when the largest entrywise membership change drops below
epsilon. The objective it descends is

    J_m = sum_i sum_j u_ji^m ||x_i - v_j||^2.

Each iteration raises its new partition to m once: those weights
w = u^m give J_m for that partition and the centers of the next
iteration, so ``update_centers`` and ``objective`` take w, not u. It
builds the c x n squared distances once, in ``squared_distances``, one
center at a time, each row summed feature by feature over a
feature-major copy of the matrix; the memberships read their square
roots and J_m reads them directly. One expression gives every
membership column, a column with a zero distance included.

``run_fcm`` allocates four c x n float64 arrays once -- the partition,
the next partition, the weights w and the squared distances -- and every
iteration writes into them through the kernels' ``out=`` arguments: the
memberships overwrite the square roots in place, and the max change is
taken from the difference written over the old partition. Beside the
n x m feature-major copy, a run's working memory is those 32 bytes per
cluster and document, a one-byte zero mask and a few length-n vectors;
no iteration allocates a c x n array.

Without an explicit start, ``init_partition`` draws c documents by D²
seeding, as k-means++ draws its centers (Arthur & Vassilvitskii 2007),
and starts from the memberships of every document to them. A random
partition would put every first center, a weighted mean of all n
documents, near the data's grand mean, which is a stable fixed point of
the iteration once m >= 1/(1 - 2 lambda), lambda being the largest
eigenvalue of the data's covariance over its trace (Yu, Cheng & Huang
2004): from there, well-separated topics end at memberships of 1/c. The
draw builds its distance rows in the c x n array that becomes the
partition, so beyond it the draw needs the one-byte zero mask and O(n).

The distances and the membership column sums are elementwise
accumulations in a fixed order (feature by feature, cluster by
cluster), not numpy
reductions, whose summation order numpy picks from the array's shape and
memory layout. The centers and J_m stay einsum reductions over arrays
whose layout ``run_fcm`` fixes: it works on one feature-major copy of
the matrix, and ``validate_partition`` returns a C-ordered copy. So the
caller's memory layout does not change a bit of the result, repeated
runs are bit-identical, and iteration k of a run leaves exactly the
partition and centers of a run with max_iters=k.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import WF_SCALE
from .jsonfile import checked_names, checked_numbers, is_number, read_json, write_json

__all__ = [
    "FeatureMatrix",
    "FcmParams",
    "FcmResult",
    "validate_partition",
    "init_partition",
    "update_centers",
    "squared_distances",
    "update_memberships",
    "objective",
    "run_fcm",
    "harden",
    "save_result",
    "load_result",
]

PARTITION_COLUMN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """n documents as rows of WF values over m features; the doc ids must
    pass :func:`fuzzydocs.jsonfile.checked_names`."""

    doc_ids: tuple[str, ...]
    data: np.ndarray  # n x m float64

    def __post_init__(self):
        data = _checked_matrix(self.data, "feature values", WF_SCALE)
        object.__setattr__(self, "doc_ids", checked_names(self.doc_ids, "doc_ids"))
        if len(self.doc_ids) != data.shape[0]:
            raise ValueError("doc_ids length must match the number of rows")
        object.__setattr__(self, "data", data)

    @property
    def n_docs(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]


def _checked_matrix(value, what: str, high: float) -> np.ndarray:
    """value as a non-empty 2-d float64 array that passes ``checked_numbers``."""
    a = checked_numbers(value, what, high, 2)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{what} must be a 2-d non-empty matrix")
    return a


@dataclass(frozen=True, eq=False)
class FcmParams:
    """Clustering parameters.

    c, max_iters and seed are Python or numpy integers, and fuzzifier and
    epsilon Python or numpy numbers, never bools.
    fuzzifier is the membership exponent m and must be finite and > 1 (at
    m = 1 the membership update degenerates to the hard assignment rule,
    which this engine does not implement). A field that breaks one of
    these rules, or the bounds below, raises ValueError when the params
    are built. init, when given, is an explicit c x n
    starting partition; otherwise the start is the memberships of c
    documents drawn by D² seeding from the seed, a non-negative Python or
    numpy integer, as :func:`init_partition` says. That draw is the
    stdlib's Mersenne Twister, not numpy.random. A seeded run gives other
    numbers than versions that drew a random start partition; a run given
    init gives the numbers it gave before.
    """

    c: int
    fuzzifier: float = 2.0
    epsilon: float = 1e-3
    max_iters: int = 100
    init: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("c", "max_iters", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        for name in ("fuzzifier", "epsilon"):
            if not is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number")
        if self.c < 1:
            raise ValueError("cluster count must be >= 1")
        if not self.fuzzifier > 1.0:
            raise ValueError("fuzzifier must be > 1")
        if not math.isfinite(self.fuzzifier):
            raise ValueError("fuzzifier must be finite")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer, never a bool."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class FcmResult:
    """Final state plus per-iteration history of one engine run."""

    partition: np.ndarray  # c x n
    centers: np.ndarray  # c x m
    iterations: int
    objective_history: tuple[float, ...]
    max_change_history: tuple[float, ...]
    converged: bool


def validate_partition(u: np.ndarray, n: int | None = None, c: int | None = None) -> np.ndarray:
    """The one partition rule, for every reader: u is a non-empty c x n
    matrix that passes :func:`fuzzydocs.jsonfile.checked_numbers` in
    [0, 1], with n columns and c rows where given, and each column sums to
    1 within ``PARTITION_COLUMN_TOL`` (a fuzzy partition, Bezdek 1981).
    Returns a C-ordered float64 copy; otherwise ValueError, ``invalid
    partition: ...``."""
    u = _checked_matrix(u, "invalid partition: memberships", 1.0)
    if c is not None and u.shape[0] != c:
        raise ValueError(f"invalid partition: expected {c} rows, got {u.shape[0]}")
    if n is not None and u.shape[1] != n:
        raise ValueError(f"invalid partition: expected {n} columns, got {u.shape[1]}")
    col_sums = np.einsum("cn->n", u)
    if np.max(np.abs(col_sums - 1.0)) > PARTITION_COLUMN_TOL:
        raise ValueError("invalid partition: columns must sum to 1")
    return np.array(u, order="C")


def init_partition(
    data: np.ndarray,
    c: int,
    fuzzifier: float,
    init: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Explicit starting partition (validated) or the memberships of c
    documents drawn by D² seeding, as k-means++ draws its centers
    (Arthur & Vassilvitskii 2007), for the n x m matrix ``data``, which
    ``squared_distances`` reads without a copy when it is feature-major
    (Fortran-ordered), as ``run_fcm`` passes it.

    The draws come from the stdlib's ``random.Random(seed)`` (any
    non-negative integer seed, numpy's included; a negative one is a
    ValueError), so numpy.random is never imported. The first center is a
    document drawn uniformly; each later one is drawn with probability
    proportional to its squared distance to the nearest center chosen so
    far, by ``searchsorted`` over the sequential ``cumsum`` of those
    distances, so a document at distance 0 is never drawn, even when
    ``random() * total`` rounds up to the total. When that total is 0 at
    draw j, the documents hold exactly j distinct vectors, and the draw
    raises ValueError ``empty cluster: cluster j has no membership weight;
    the N documents hold j distinct vector(s) for C clusters``.

    Row j of the result is first the ``squared_distances`` of every
    document to center j, and then the whole array becomes
    ``update_memberships`` of their square roots at ``fuzzifier``, as an
    iteration of ``run_fcm`` would give from those centers: each drawn
    document is one-hot in its own cluster, so no cluster starts empty.
    That takes c distance rows, as one iteration does, and c cumulative
    sums of n; on a 2-vCPU host, 4.8 ms at n = 20000, c = 8, and 90 ms at
    n = 2000, c = 1000 (m = 20). Beside the c x n result, the working
    memory is the zero mask of ``update_memberships`` (one byte per entry)
    and a few length-n vectors."""
    n = data.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"cluster count must lie in [1, {n}]")
    if init is not None:
        return validate_partition(init, n=n, c=c)
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = random.Random(seed)
    u = np.empty((c, n))
    chosen = rng.randrange(n)
    squared_distances(data, data[chosen:chosen + 1], out=u[:1])
    nearest = u[0].copy()  # squared distance to the nearest center drawn so far
    cumulative = np.empty(n)
    for j in range(1, c):
        np.cumsum(nearest, out=cumulative)
        total = cumulative[-1]
        if total == 0.0:
            raise ValueError(f"empty cluster: cluster {j} has no membership weight; the {n}"
                             f" documents hold {j} distinct vector(s) for {c} clusters")
        chosen = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
        if chosen == n:  # random() * total rounded up to total
            chosen = int(np.searchsorted(cumulative, total))
        squared_distances(data, data[chosen:chosen + 1], out=u[j:j + 1])
        np.minimum(nearest, u[j], out=nearest)
    np.sqrt(u, out=u)
    return update_memberships(u, fuzzifier, out=u)


def update_centers(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fuzzily weighted document means, one row per cluster, from the
    c x n weights w = u^m of a partition u. A cluster whose weights are all
    0 raises ValueError ``empty cluster: cluster J has no membership
    weight`` for the lowest such J, adding ``; the N documents hold K
    distinct vector(s) for C clusters`` when x has fewer distinct rows than
    clusters, the one case in which coincident documents can be the cause
    (from an explicit start: a seeded one fails at the draw instead)."""
    weight_sums = np.einsum("cn->c", w)
    empty = np.flatnonzero(weight_sums == 0.0)
    if empty.size:
        distinct = len(np.unique(x, axis=0))  # counted on this failure path only
        hint = f"; the {len(x)} documents hold {distinct} distinct vector(s) for {len(w)} clusters"
        raise ValueError(f"empty cluster: cluster {empty[0]} has no membership weight"
                         f"{hint if distinct < len(w) else ''}")
    return np.einsum("cn,nm->cm", w, x) / weight_sums[:, None]


def squared_distances(x: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distance of every document to every center, c x n,
    written into ``out`` when given.

    Row j is built one center at a time over the feature-major (m x n)
    view of x, which is a copy unless x is Fortran-ordered: it is set to
    (x_i0 - v_j0) * (x_i0 - v_j0), and then (x_ik - v_jk) * (x_ik - v_jk)
    is added one feature k at a time, left to right. The one other
    temporary is a length-n difference.
    """
    xt = np.ascontiguousarray(x.T)
    sq = np.empty((v.shape[0], x.shape[0])) if out is None else out
    diff = np.empty(x.shape[0])
    for row, center in zip(sq, v):
        np.subtract(xt[0], center[0], out=row)
        row *= row
        for feature, value in zip(xt[1:], center[1:]):
            np.subtract(feature, value, out=diff)
            diff *= diff
            row += diff
    return sq


def update_memberships(d: np.ndarray, fuzzifier: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Inverse-distance memberships from the c x n distances d, written
    into ``out`` when given, which may be d itself; a zero-distance
    document becomes a one-hot column on the first such cluster.

    Each column is scaled by its smallest distance:
    w_j = (d_min / d_j)^(2/(m-1)) lies in [0, 1] and is exactly 1 at the
    nearest center, so u_j = w_j / sum_k w_k cannot overflow or divide 0
    by 0, and a ratio that underflows to 0 is its exact limit. A zero
    distance is divided as if it were 1, so a column whose d_min is 0 has
    every w_j = 0 until its first zero is set to 1, in the same pass over
    the clusters that sums the column; nothing is divided by 0. That sum
    runs in cluster order, one elementwise add per cluster, so a column's
    bits do not depend on the other columns. Working memory beyond
    ``out`` is the c x n zero mask, one byte per entry, and a few
    length-n vectors.
    """
    d_min = d.min(axis=0)
    zero = d == 0.0
    w = np.empty_like(d) if out is None else out
    if w is not d:
        np.copyto(w, d)
    np.copyto(w, 1.0, where=zero)
    np.divide(d_min, w, out=w)
    w **= 2.0 / (fuzzifier - 1.0)
    total = np.zeros(d.shape[1])
    unclaimed = np.ones(d.shape[1], dtype=bool)  # no zero distance in the column yet
    for row, first in zip(w, zero):
        first &= unclaimed
        row += first
        unclaimed ^= first
        total += row
    w /= total
    return w


def objective(w: np.ndarray, sq: np.ndarray) -> float:
    """J_m: the squared document-center distances ``sq`` (c x n, from
    ``squared_distances``) summed with the weights w = u^m of the
    partition u."""
    return float(np.einsum("cn,cn->", w, sq))


def run_fcm(x: FeatureMatrix, params: FcmParams) -> FcmResult:
    """Iterate centers -> distances -> memberships from the starting
    partition until the max membership change drops below epsilon or
    max_iters is hit. Deterministic for a given matrix and params.

    Besides the feature-major copy of the matrix, a run holds four c x n
    arrays, allocated once and overwritten by every iteration: the
    partition u, the next partition, the weights w = u^m and the squared
    distances.
    """
    data = np.asfortranarray(x.data)  # feature-major, as squared_distances reads it
    m = params.fuzzifier
    u = init_partition(data, params.c, m, params.init, params.seed)
    objective_history: list[float] = []
    max_change_history: list[float] = []
    converged = False
    iterations = 0
    v = None
    w = np.power(u, m)
    u_next = np.empty_like(u)
    sq = np.empty_like(u)
    for iterations in range(1, params.max_iters + 1):
        v = update_centers(w, data)
        squared_distances(data, v, out=sq)
        np.sqrt(sq, out=u_next)
        update_memberships(u_next, m, out=u_next)
        np.power(u_next, m, out=w)
        jm = objective(w, sq)
        diff = np.subtract(u_next, u, out=u)  # u is not read again
        change = float(max(diff.max(), -diff.min()))
        objective_history.append(jm)
        max_change_history.append(change)
        u, u_next = u_next, u
        if change < params.epsilon:
            converged = True
            break
    return FcmResult(
        partition=u,
        centers=v,
        iterations=iterations,
        objective_history=tuple(objective_history),
        max_change_history=tuple(max_change_history),
        converged=converged,
    )


def harden(u: np.ndarray) -> np.ndarray:
    """Crisp assignment: per-column argmax, ties to the lowest cluster index."""
    return np.argmax(u, axis=0)


def save_result(
    result: FcmResult,
    doc_ids: tuple[str, ...] | list[str],
    features: list[str],
    path: str | Path,
) -> None:
    """Write a result file whole; floats keep their shortest round-trip form.
    The result must pass the rules ``load_result`` applies: doc ids and
    features that pass :func:`fuzzydocs.jsonfile.checked_names`, a
    partition that passes ``validate_partition`` with a column per doc
    id, and centers that pass ``checked_numbers`` with a row per cluster
    and a column per feature. A refused result raises ValueError and
    writes nothing."""
    u, v = _checked_result(doc_ids, features, result.partition, result.centers)
    payload = {
        "doc_ids": list(doc_ids),
        "features": list(features),
        "memberships": (row.tolist() for row in u),  # streamed a row at a time
        "centers": v.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "objective_history": list(result.objective_history),
        "max_change_history": list(result.max_change_history),
    }
    write_json(payload, path)


def load_result(path: str | Path) -> dict:
    """A result file with memberships and centers as arrays. Its doc_ids
    and features, kept as lists, must pass
    :func:`fuzzydocs.jsonfile.checked_names`, its memberships
    ``validate_partition`` over the doc ids, and its centers
    ``checked_numbers`` in a clusters x features matrix; a file that fails
    one of these, or lacks a key ``save_result`` writes, raises ValueError
    naming the file. The one exception is max_change_history, which is
    optional: files written before it was saved still load."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"invalid result file {path}: not a JSON object")
    required = {"doc_ids", "features", "memberships", "centers", "iterations",
                "converged", "objective_history"}
    missing = required - raw.keys()
    if missing:
        raise ValueError(f"invalid result file {path}: missing {sorted(missing)}")
    try:
        u, v = _checked_result(raw["doc_ids"], raw["features"], raw["memberships"], raw["centers"])
    except ValueError as exc:
        raise ValueError(f"invalid result file {path}: {exc}") from exc
    raw["memberships"] = u
    raw["centers"] = v
    return raw


def _checked_result(doc_ids, features, memberships, centers) -> tuple[np.ndarray, np.ndarray]:
    """The partition and centers of a result, as ``validate_partition``
    and ``checked_numbers`` return them, if the doc ids and features pass
    :func:`fuzzydocs.jsonfile.checked_names`, the partition has a column
    per doc id and the centers are a clusters x features matrix;
    otherwise ValueError."""
    n = len(checked_names(doc_ids, "doc_ids"))
    m = len(checked_names(features, "features"))
    u = validate_partition(memberships, n=n)
    v = _checked_matrix(centers, "centers", WF_SCALE)  # weighted means of WF rows
    if v.shape != (u.shape[0], m):
        raise ValueError(f"centers must be {u.shape[0]} x {m}")
    return u, v
