"""Host-speed sampling: fixed work that shares no code with fuzzydocs.

The benchmark host is a few cores of a shared machine whose speed changes
by up to about 1.8x within seconds and drifts over minutes (CPU time
changes with wall time, so the cause is contention for the core or clock
changes, not stolen time). A median over one run cannot remove a drift
that lasts longer than the run. So while a stage runs, a ``Sampler``
times a small fixed probe every ``INTERVAL_S`` seconds from a SIGALRM
handler, and a stage's time is reported scaled to a reference host speed:

    scaled_s = (stage_s - time spent in probes) * reference_probe_s / mean probe_s

The probes touch none of the program's code, so a change to the program
moves the scaled time as it moves the raw time; only the host's speed
while the stage ran is divided out. The raw times are printed next to
them. A handler runs between bytecodes, so a sample waits for a long
numpy call to return; that shifts when samples fall, not what they time.

Two probes, for the two kinds of work the workloads do:

* ``python`` -- interpreter-bound string, dict and loop work, like
  preprocessing, stemming, JSON and the labelling loops;
* ``numpy`` -- the broadcasting of the c-means kernels (8 centres x
  ``NUMPY_ROWS`` rows x 20 features, float64).

A stage is scaled by the geometric mean of the speeds its probes give
(``STAGE_PROBES``).
"""

from __future__ import annotations

import math
import random
import signal
import string
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
EDGE_SAMPLES = 5  # a stage shorter than INTERVAL_S still gets 10 samples
NUMPY_ROWS = 3000  # a 3.8 MB difference tensor: beyond L2, like the program's

# The probes that scale each stage of each workload. matrix_lib's cluster
# stage is the c-means loop (numpy) plus writing the result JSON (Python),
# so it is scaled by both.
STAGE_PROBES = {
    "zipf_cli": {"features": ("python",), "cluster": ("python",), "report": ("python",)},
    "wide_cli": {"features": ("python",), "cluster": ("python",), "report": ("python",)},
    "matrix_lib": {"features": ("python",), "cluster": ("python", "numpy"),
                   "report": ("python",)},
}

# Mean probe times on the reference host (2-vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4 with one BLAS thread), so scaled times read as seconds
# there.
REFERENCE_S = {"python": 0.0007, "numpy": 0.003}

_SUFFIXES = ("ations", "ation", "ness", "ment", "ing", "ers", "ed", "er", "ly", "s")
_rng = random.Random(12345)
_WORDS = ["".join(_rng.choices(string.ascii_letters, k=_rng.randint(3, 10)))
          for _ in range(250)]
_ARRAYS: list[np.ndarray] = []


def _python_work() -> int:
    counts: dict[str, int] = {}
    for word in _WORDS:
        word = word.lower()
        for suffix in _SUFFIXES:
            if word.endswith(suffix) and len(word) > len(suffix) + 2:
                word = word[: -len(suffix)]
                break
        vowels = sum(1 for ch in word if ch in "aeiou")
        counts[word] = counts.get(word, 0) + vowels
    return len(counts)


def _numpy_work() -> float:
    if not _ARRAYS:
        x = 1.0 + (np.arange(NUMPY_ROWS * 20, dtype=float) * 0.618034 % 29.0).reshape(-1, 20)
        _ARRAYS.extend([x, x[:: NUMPY_ROWS // 8][:8] + 0.5])
    x, v = _ARRAYS
    diff = x[None, :, :] - v[:, None, :]
    d = np.sqrt(np.einsum("cnm,cnm->cn", diff, diff))
    ratio = (d[:, None, :] / d[None, :, :]) ** 2
    return float((1.0 / ratio.sum(axis=1)).sum())


_WORK = {"python": _python_work, "numpy": _numpy_work}


class Sampler:
    """Times the probes of ``kinds`` ``EDGE_SAMPLES`` times on entry and on
    exit, and once every ``INTERVAL_S`` seconds inside the ``with`` block.

    ``spent`` is the time the handler has taken so far; subtract its
    growth over a timed interval from that interval.
    """

    def __init__(self, kinds):
        self.kinds = tuple(kinds)
        self.samples: dict[str, list[float]] = {kind: [] for kind in self.kinds}
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        for kind in self.kinds:
            t = perf_counter()
            _WORK[kind]()
            self.samples[kind].append(perf_counter() - t)
        self.spent += perf_counter() - start

    def __enter__(self) -> Sampler:
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return False

    def mean_s(self) -> dict[str, float]:
        return {kind: sum(ts) / len(ts) for kind, ts in self.samples.items()}


def speed(kinds, mean_s: dict[str, float]) -> float:
    """Host speed relative to the reference host: the geometric mean over
    ``kinds`` of reference probe time / mean probe time."""
    return math.prod(REFERENCE_S[kind] / mean_s[kind] for kind in kinds) ** (1.0 / len(kinds))
