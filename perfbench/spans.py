"""In-memory span tracer for the traced benchmark run.

Functions are wrapped at the module attribute their caller resolves at
call time (``fuzzydocs.cli.preprocess_document`` for the CLI loop,
``fuzzydocs.preprocess.stem`` for the stemmer, ``fuzzydocs.fcm.update_centers``
for the c-means loop, ...), so nothing under ``src/`` changes. A span is
``(id, parent id, name, start, end)``; spans stay in a list until the
chain ends. The layer of a span is the part of its name before the first
dot, and a span's self time is its duration minus its children's. Self
times are also summed per layer within each top-level span (a benchmark
stage), which shows which layer a stage's wall time goes to.

The stemmer runs once per term, so its calls are aggregated (count,
seconds, distinct input forms) instead of kept as spans. A function the
program no longer has is skipped and listed in ``missing``, so a rename
shows as a gap in the trace rather than a failed run.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stage_layer_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.total_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.leaf_calls = 0
        self.leaf_repeats = 0
        self.leaf_s = 0.0
        self.leaf_forms: set = set()
        self._stack: list[list] = [[-1, 0.0]]  # [span id, child seconds]; sentinel root
        self._stage = ""
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        if len(self._stack) == 1:
            self._stage = name
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            parent[1] += duration
            self.stage_layer_s[self._stage][name.split(".", 1)[0]] += duration - frame[1]
            self.total_s[name] += duration
            self.durations[name].append(duration)
            self.spans.append((span_id, parent[0], name, start, end))

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` by a traced version; ``observe(result)``
        runs after the span closes and may update ``self.counters``."""
        fn = self._original(module, attr)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        self._patch(module, attr, traced)

    def wrap_leaf(self, module, attr: str, leaf_layer: str) -> None:
        """Aggregate a one-argument hot leaf function: calls, seconds, and
        how many calls repeat an input already seen."""
        fn = self._original(module, attr)
        if fn is None:
            return
        stack, forms = self._stack, self.leaf_forms

        @functools.wraps(fn)
        def traced(arg):
            start = perf_counter()
            result = fn(arg)
            duration = perf_counter() - start
            stack[-1][1] += duration
            self.leaf_calls += 1
            self.leaf_s += duration
            self.stage_layer_s[self._stage][leaf_layer] += duration
            if arg in forms:
                self.leaf_repeats += 1
            else:
                forms.add(arg)
            return result

        self._patch(module, attr, traced)

    def _original(self, module, attr: str):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
        return fn

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def child_start_gaps(self, parent_name: str, child_name: str) -> list[float]:
        """Per parent span, the time from each ``child_name`` start to the
        next one (the last runs to the parent's end): one loop iteration
        each when the child opens every iteration."""
        parents = {sid: end for sid, _, name, _, end in self.spans if name == parent_name}
        starts: dict[int, list[float]] = defaultdict(list)
        for _, pid, name, start, _ in self.spans:
            if name == child_name and pid in parents:
                starts[pid].append(start)
        gaps = []
        for pid, ts in starts.items():
            ts.sort()
            ts.append(parents[pid])
            gaps.extend(b - a for a, b in zip(ts, ts[1:]))
        return gaps
