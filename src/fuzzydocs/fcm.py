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
``squared_distances``, one center at a time, so an iteration works in
O(n*m + c*n) memory; the memberships read their square roots and J_m
reads them directly. All reductions are evaluated in fixed
document-index order (einsum without optimization), so repeated runs are
bit-identical, and iteration k of a run leaves exactly the partition and
centers of a run with max_iters=k.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsonfile import read_json, write_json

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
WF_MAX = 10000.0


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """n documents as rows of WF values over m features."""

    doc_ids: tuple[str, ...]
    data: np.ndarray  # n x m float64

    def __post_init__(self):
        object.__setattr__(self, "doc_ids", tuple(self.doc_ids))
        data = _checked_matrix(self.data, "feature values", WF_MAX)
        if len(self.doc_ids) != data.shape[0]:
            raise ValueError("doc_ids length must match the number of rows")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError("doc_ids must be unique")
        object.__setattr__(self, "data", data)

    @property
    def n_docs(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]


def _checked_matrix(value, what: str, high: float) -> np.ndarray:
    """value as a non-empty 2-d float64 array of numbers in [0, high]."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:  # not numbers, or ragged rows
        raise ValueError(f"{what} must be numbers: {exc}") from exc
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{what} must be a 2-d non-empty matrix")
    # the conversion reads "0.5" and true as numbers; JSON rows may hold them
    if isinstance(value, list) and {type(v) for row in value for v in row} & {bool, str}:
        raise ValueError(f"{what} must be numbers")
    if not np.all(np.isfinite(a)) or a.min() < 0.0 or a.max() > high:
        raise ValueError(f"{what} must lie in [0, {high:g}]")
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
    """Check membership range and column stochasticity; returns float64 copy."""
    u = _checked_matrix(u, "invalid partition: memberships", 1.0)
    if c is not None and u.shape[0] != c:
        raise ValueError(f"invalid partition: expected {c} rows, got {u.shape[0]}")
    if n is not None and u.shape[1] != n:
        raise ValueError(f"invalid partition: expected {n} columns, got {u.shape[1]}")
    col_sums = np.einsum("cn->n", u)
    if np.max(np.abs(col_sums - 1.0)) > PARTITION_COLUMN_TOL:
        raise ValueError("invalid partition: columns must sum to 1")
    return u


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
    """Squared Euclidean distance of every document to every center, c x n,
    built one center at a time, so the only temporary is one n x m
    difference."""
    sq = np.empty((v.shape[0], x.shape[0]))
    for j, center in enumerate(v):
        diff = x - center
        np.einsum("nm,nm->n", diff, diff, out=sq[j])
    return sq


def update_memberships(d: np.ndarray, fuzzifier: float) -> np.ndarray:
    """Inverse-distance memberships from the c x n distances d; a
    zero-distance document becomes a one-hot column on the first such
    cluster.

    A regular column is scaled by its smallest distance:
    w_j = (d_min / d_j)^(2/(m-1)) lies in [0, 1] and is exactly 1 at the
    nearest center, so u_j = w_j / sum_k w_k cannot overflow or divide 0
    by 0, and a ratio that underflows to 0 is its exact limit. Working
    memory is a few c x n arrays.
    """
    c, n = d.shape
    u = np.zeros((c, n))
    zero = d == 0.0
    singular = zero.any(axis=0)
    if np.any(singular):
        cols = np.flatnonzero(singular)
        u[np.argmax(zero[:, cols], axis=0), cols] = 1.0
    regular = ~singular
    if np.any(regular):
        dr = d[:, regular]
        w = dr.min(axis=0) / dr
        w **= 2.0 / (fuzzifier - 1.0)
        u[:, regular] = w / np.einsum("cn->n", w)
    return u


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
    data = x.data
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
    u = np.asarray(u)
    return np.argmax(u, axis=0)


def save_result(
    result: FcmResult,
    doc_ids: tuple[str, ...] | list[str],
    features: list[str],
    path: str | Path,
) -> None:
    """Write a result file whole; floats keep their shortest round-trip form."""
    payload = {
        "doc_ids": list(doc_ids),
        "features": list(features),
        "memberships": result.partition.tolist(),
        "centers": result.centers.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "objective_history": list(result.objective_history),
        "max_change_history": list(result.max_change_history),
    }
    write_json(payload, path)


def load_result(path: str | Path) -> dict:
    """A result file with memberships and centers as arrays; a file whose
    keys, types, shapes or ranges do not match ``save_result`` raises ValueError."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"invalid result file {path}: not a JSON object")
    required = {"doc_ids", "features", "memberships", "centers", "iterations",
                "converged", "objective_history"}
    missing = required - raw.keys()
    if missing:
        raise ValueError(f"invalid result file {path}: missing {sorted(missing)}")
    for key in ("doc_ids", "features"):
        if not isinstance(raw[key], list) or not all(isinstance(s, str) for s in raw[key]):
            raise ValueError(f"invalid result file {path}: {key} must be a list of strings")
    try:
        u = validate_partition(raw["memberships"], n=len(raw["doc_ids"]))
        v = _checked_matrix(raw["centers"], "centers", WF_MAX)  # weighted means of WF rows
    except ValueError as exc:
        raise ValueError(f"invalid result file {path}: {exc}") from exc
    shape = (u.shape[0], len(raw["features"]))
    if v.shape != shape:
        raise ValueError(f"invalid result file {path}: centers must be {shape[0]} x {shape[1]}")
    raw["memberships"] = u
    raw["centers"] = v
    return raw
