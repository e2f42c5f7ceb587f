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

Each iteration builds the c x n squared distances once, in
``squared_distances``, one feature at a time over a feature-major copy of
the matrix, so an iteration works in O(n*m + c*n) memory; the memberships
read their square roots and J_m reads them directly. The distances and
the membership column sums are elementwise accumulations in a fixed
order (feature by feature, cluster by cluster), not numpy reductions,
whose summation order numpy picks from the array's shape and memory
layout. The centers and J_m stay einsum reductions over arrays whose
layout ``run_fcm`` fixes: it works on one feature-major copy of the
matrix, and ``validate_partition`` returns a C-ordered copy. So the
caller's memory layout does not change a bit of the result, repeated
runs are bit-identical, and iteration k of a run leaves exactly the
partition and centers of a run with max_iters=k.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import WF_SCALE
from .jsonfile import checked_names, checked_numbers, read_json, write_json

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


@dataclass(frozen=True)
class FcmParams:
    """Clustering parameters.

    fuzzifier is the membership exponent m and must be > 1 (at m = 1 the
    membership update degenerates to the hard assignment rule, which this
    engine does not implement). init, when given, is an explicit c x n
    starting partition; otherwise each column of the starting partition is
    drawn uniformly from the probability simplex using the seed.
    """

    c: int
    fuzzifier: float = 2.0
    epsilon: float = 1e-3
    max_iters: int = 100
    init: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("cluster count must be >= 1")
        if not self.fuzzifier > 1.0:
            raise ValueError("fuzzifier must be > 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
    n: int,
    c: int,
    init: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Explicit starting partition (validated) or a seeded random one with
    each column uniform on the simplex."""
    if not 1 <= c <= n:
        raise ValueError(f"cluster count must lie in [1, {n}]")
    if init is not None:
        return validate_partition(init, n=n, c=c)
    rng = np.random.default_rng(seed)
    u = rng.exponential(scale=1.0, size=(c, n))
    return u / np.einsum("cn->n", u)


def update_centers(u: np.ndarray, x: np.ndarray, fuzzifier: float) -> np.ndarray:
    """Fuzzily weighted document means, one row per cluster."""
    w = u**fuzzifier
    weight_sums = np.einsum("cn->c", w)
    if np.any(weight_sums == 0.0):
        raise ValueError("empty cluster")
    return np.einsum("cn,nm->cm", w, x) / weight_sums[:, None]


def squared_distances(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every document to every center, c x n.

    sq_ji adds (x_ik - v_jk) * (x_ik - v_jk) one feature k at a time, left
    to right, over the feature-major (m x n) view of x, which is a copy
    unless x is Fortran-ordered; the other temporary is one c x n
    difference.
    """
    xt = np.ascontiguousarray(x.T)
    sq = np.zeros((v.shape[0], x.shape[0]))
    diff = np.empty_like(sq)
    for k, feature in enumerate(xt):
        np.subtract(feature, v[:, k, None], out=diff)
        diff *= diff
        sq += diff
    return sq


def update_memberships(d: np.ndarray, fuzzifier: float) -> np.ndarray:
    """Inverse-distance memberships from the c x n distances d; a
    zero-distance document becomes a one-hot column on the first such
    cluster.

    A regular column is scaled by its smallest distance:
    w_j = (d_min / d_j)^(2/(m-1)) lies in [0, 1] and is exactly 1 at the
    nearest center, so u_j = w_j / sum_k w_k cannot overflow or divide 0
    by 0, and a ratio that underflows to 0 is its exact limit. The sum
    runs in cluster order, one elementwise add per cluster, so a column's
    bits do not depend on the other columns. Working memory is a few
    c x n arrays; without a zero distance, one.
    """
    d_min = d.min(axis=0)
    singular = d_min == 0.0
    if not singular.any():
        return _regular_memberships(d, d_min, fuzzifier)
    u = np.zeros(d.shape)
    cols = np.flatnonzero(singular)
    u[np.argmax(d[:, cols] == 0.0, axis=0), cols] = 1.0
    regular = ~singular
    if regular.any():
        u[:, regular] = _regular_memberships(d[:, regular], d_min[regular], fuzzifier)
    return u


def _regular_memberships(d: np.ndarray, d_min: np.ndarray, fuzzifier: float) -> np.ndarray:
    """Memberships of zero-free columns d with column minima d_min."""
    w = d_min / d
    w **= 2.0 / (fuzzifier - 1.0)
    total = w[0].copy()
    for row in w[1:]:
        total += row
    w /= total
    return w


def objective(u: np.ndarray, sq: np.ndarray, fuzzifier: float) -> float:
    """J_m: fuzzily weighted sum of the squared document-center distances
    ``sq`` (c x n, from ``squared_distances``)."""
    return float(np.einsum("cn,cn->", u**fuzzifier, sq))


def run_fcm(x: FeatureMatrix, params: FcmParams) -> FcmResult:
    """Iterate centers -> distances -> memberships from the starting
    partition until the max membership change drops below epsilon or
    max_iters is hit. Deterministic for a given matrix and params.
    """
    u = init_partition(x.n_docs, params.c, params.init, params.seed)
    data = np.asfortranarray(x.data)  # feature-major, as squared_distances reads it
    m = params.fuzzifier
    objective_history: list[float] = []
    max_change_history: list[float] = []
    converged = False
    iterations = 0
    v = None
    for iterations in range(1, params.max_iters + 1):
        v = update_centers(u, data, m)
        sq = squared_distances(data, v)
        u_next = update_memberships(np.sqrt(sq), m)
        jm = objective(u_next, sq, m)
        change = float(np.max(np.abs(u_next - u)))
        objective_history.append(jm)
        max_change_history.append(change)
        u = u_next
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
    The doc ids and features must pass
    :func:`fuzzydocs.jsonfile.checked_names`, as ``load_result`` requires;
    refused ones write nothing."""
    payload = {
        "doc_ids": checked_names(doc_ids, "doc_ids"),
        "features": checked_names(features, "features"),
        "memberships": result.partition.tolist(),
        "centers": result.centers.tolist(),
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
    naming the file."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"invalid result file {path}: not a JSON object")
    required = {"doc_ids", "features", "memberships", "centers", "iterations",
                "converged", "objective_history"}
    missing = required - raw.keys()
    if missing:
        raise ValueError(f"invalid result file {path}: missing {sorted(missing)}")
    try:
        n = len(checked_names(raw["doc_ids"], "doc_ids"))
        m = len(checked_names(raw["features"], "features"))
        u = validate_partition(raw["memberships"], n=n)
        v = _checked_matrix(raw["centers"], "centers", WF_SCALE)  # weighted means of WF rows
    except ValueError as exc:
        raise ValueError(f"invalid result file {path}: {exc}") from exc
    if v.shape != (u.shape[0], m):
        raise ValueError(f"invalid result file {path}: centers must be {u.shape[0]} x {m}")
    raw["memberships"] = u
    raw["centers"] = v
    return raw
