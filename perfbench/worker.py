"""Run one benchmark chain in a fresh process and write its record.

    python3 perfbench/worker.py WORKLOAD INPUT_DIR OUT_DIR TRACE SEED

``run.py`` starts one worker per chain, so every chain starts cold, as a
command-line user's process would: no cache of the program survives from
one chain to the next. The worker times each stage from outside with
``perf_counter`` around calls into the public ``fuzzydocs`` API (less the
time the host-speed sampler of ``calibrate.py`` takes inside a stage),
records the mean probe times of each stage, counts operations and their
failures, and writes ``OUT_DIR/record.json``. With
TRACE=1 it first wraps the program's functions (see ``spans.py``) and also
writes the spans to ``OUT_DIR/spans.json``. Output checks run in
``run.py``, outside the timed part.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import environment  # noqa: E402

environment.pin_threads()

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from fuzzydocs import cli, fcm, features, labeling, preprocess  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import calibrate  # noqa: E402
from spans import Tracer  # noqa: E402

TOP_K = 20
FUZZIFIER = 1.3  # the default 2.0 collapses these inputs to memberships of 1/c
MATRIX_CLUSTERS = 8
# matrix_lib runs a fixed number of c-means iterations. At the default
# epsilon (1e-3) the count moves with the seed (21 to 31 over seeds 1-40 at
# 20k docs), and at epsilon 1e-12 too (29 to 33), which would make
# cluster_s vary with the seed by more than the host's noise. With epsilon
# 1e-12 and 28 iterations, every seed from 1 to 40 runs all 28 and
# reaches topic purity >= 0.995.
MATRIX_ITERATIONS = 28
MATRIX_EPSILON = 1e-12


class _Abort(Exception):
    """An operation failed; the rest of the chain depends on it."""


class Ops:
    """Counts program operations (one subcommand or library call each)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (Exception, SystemExit):
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=4))
            raise _Abort from None


def _cli_main(argv: list[str], out: Path, stage: str) -> None:
    """One subcommand, with stdout and stderr captured in files as a
    shell redirect would."""
    with open(out / f"stdout-{stage}.txt", "w", encoding="utf-8") as so, \
            open(out / f"stderr-{stage}.txt", "w", encoding="utf-8") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fuzzydocs {stage} exited with {code}")


def cli_stages(inputs: Path, out: Path, seed: int):
    labels = sorted(p.name for p in (inputs / "samples").iterdir())
    samples = [a for lab in labels for a in ("--samples", f"{lab}={inputs / 'samples' / lab}")]
    profiles = [a for lab in labels for a in ("--profiles", str(out / f"{lab}.profile.json"))]
    argvs = {
        "features": ["features", *samples, "--top-k", str(TOP_K),
                     "--out", str(out / "features.json")],
        "cluster": ["cluster", "--corpus", str(inputs / "corpus"),
                    "--features", str(out / "features.json"), "--clusters", str(len(labels)),
                    "--fuzzifier", str(FUZZIFIER), "--seed", str(seed),
                    "--out", str(out / "result.json")],
        "report": ["report", "--result", str(out / "result.json"), *profiles,
                   "--out", str(out / "report.json")],
    }
    return [(stage, lambda ops, argv=argv, stage=stage: ops(_cli_main, argv, out, stage))
            for stage, argv in argvs.items()]


def matrix_stages(inputs: Path, out: Path, seed: int):
    """Library path: profiles -> features -> run_fcm -> labelled report."""
    x = np.load(inputs / "matrix.npy")
    doc_ids = json.loads((inputs / "doc_ids.json").read_text("utf-8"))
    column = {t: i for i, t in enumerate(json.loads((inputs / "columns.json").read_text("utf-8")))}
    inputs_profiles = []
    for path in sorted(inputs.glob("*.input.json")):
        raw = json.loads(path.read_text("utf-8"))
        inputs_profiles.append(features.LabeledProfile(raw["label"], raw["wf"]))
    labels = [p.label for p in inputs_profiles]
    state: dict = {}

    def features_stage(ops):
        selected = ops(features.select_features, inputs_profiles, top_k=TOP_K)
        ops(features.save_feature_set, selected, out / "features.json")
        for p in inputs_profiles:
            ops(features.save_profile, p, out / f"{p.label}.profile.json")
        state["selected"] = selected

    def cluster_stage(ops):
        selected = state["selected"]
        data = x[:, [column[t] for t in selected]]
        matrix = ops(fcm.FeatureMatrix, doc_ids, data)
        params = fcm.FcmParams(c=MATRIX_CLUSTERS, fuzzifier=FUZZIFIER, seed=seed,
                               epsilon=MATRIX_EPSILON, max_iters=MATRIX_ITERATIONS)
        result = ops(fcm.run_fcm, matrix, params)
        ops(fcm.save_result, result, matrix.doc_ids, selected, out / "result.json")

    def report_stage(ops):
        result = ops(fcm.load_result, out / "result.json")
        profiles = [ops(features.load_profile, out / f"{lab}.profile.json") for lab in labels]
        labeling_ = ops(labeling.label_clusters, result["centers"], profiles, result["features"])
        reports = ops(labeling.classify_strength, result["memberships"], result["doc_ids"],
                      labeling_)
        table = ops(labeling.render_report_table, reports)
        (out / "report.txt").write_text(table + "\n", "utf-8")
        ops(labeling.save_report, reports, out / "report.json")

    return [("features", features_stage), ("cluster", cluster_stage), ("report", report_stage)]


def instrument(tracer: Tracer) -> None:
    """Wrap each function at the attribute its caller resolves: the CLI's
    imported names for the CLI workloads, the library modules for the
    calls the stages above make and for calls inside the library."""
    c = tracer.counters

    def count(key, size):
        def observe(result):
            c[key] += size(result)
        return observe

    def fcm_result(r):
        k, n = r.partition.shape
        c["fcm.iterations"] = r.iterations
        c["fcm.mean_max_membership"] = float(r.partition.max(axis=0).mean())
        # the c*n*m difference tensor and the c*c*n ratio tensor of one iteration
        c["fcm.tensor_bytes"] = 8.0 * (k * n * r.centers.shape[1] + k * k * n)

    def vocab(scored):
        c["features.vocab_size"] = len(scored)

    zero_rows = count("features.zero_rows", lambda m: int(np.count_nonzero(~m.data.any(axis=1))))
    tracer.wrap_leaf(preprocess, "stem", "porter")
    tracer.wrap(preprocess, "strip_markup", "preprocess.strip_markup")
    tracer.wrap(preprocess, "_split_terms", "preprocess.tokenize",
                observe=count("preprocess.terms_in", len))
    tracer.wrap(preprocess, "remove_stopwords", "preprocess.remove_stopwords")
    tracer.wrap(cli, "preprocess_document", "preprocess.preprocess_document",
                observe=count("preprocess.terms_out", len))
    tracer.wrap(features, "score_terms", "features.score_terms", observe=vocab)
    tracer.wrap(cli, "score_terms", "features.score_terms")
    for module, attr, name, observe in [
        (cli, "main", "cli.main", None),
        (cli, "load_corpus", "cli.load_corpus", None),
        (cli, "_print_ratio_table", "cli.print_ratio_table", None),
        (cli, "build_profile", "features.build_profile", None),
        (cli, "count_terms", "features.count_terms", None),
        (cli, "vectorize", "features.vectorize", None),
        (cli, "FeatureMatrix", "fcm.FeatureMatrix", zero_rows),
        (fcm, "FeatureMatrix", "fcm.FeatureMatrix", zero_rows),
        (cli, "run_fcm", "fcm.run_fcm", fcm_result),
        (fcm, "run_fcm", "fcm.run_fcm", fcm_result),
    ]:
        tracer.wrap(module, attr, name, observe)
    for attr in ("init_partition", "update_centers", "pairwise_distances",
                 "update_memberships", "objective"):
        tracer.wrap(fcm, attr, f"fcm.{attr}")
    for modules, attrs, layer in [
        ((cli, features), ("select_features", "save_feature_set", "save_profile",
                           "load_feature_set", "load_profile"), "features"),
        ((cli, fcm), ("save_result", "load_result"), "fcm"),
        ((cli, labeling), ("label_clusters", "classify_strength", "render_report_table",
                           "save_report"), "labeling"),
    ]:
        for module in modules:
            for attr in attrs:
                tracer.wrap(module, attr, f"{layer}.{attr}")


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    t, c = tracer.total_s, tracer.counters

    def total(*names):
        return sum(t.get(n, 0.0) for n in names)

    docs = tracer.durations.get("preprocess.preprocess_document", [])
    calls = tracer.leaf_calls
    return {
        "preprocess.doc_s.p50": _percentile(docs, 50),
        "preprocess.doc_s.p99": _percentile(docs, 99),
        "preprocess.strip_markup_s": total("preprocess.strip_markup"),
        "preprocess.tokenize_s": total("preprocess.tokenize"),
        "preprocess.stopwords_s": total("preprocess.remove_stopwords"),
        "preprocess.terms_in": c["preprocess.terms_in"],
        "preprocess.terms_out": c["preprocess.terms_out"],
        "porter.stem_s": tracer.leaf_s,
        "porter.calls": calls,
        "porter.distinct_forms": len(tracer.leaf_forms),
        "porter.repeat_share": tracer.leaf_repeats / calls if calls else 0.0,
        "features.profile_s": total("features.build_profile"),
        "features.select_s": total("features.select_features"),
        "features.vectorize_s": total("features.count_terms", "features.vectorize"),
        "features.io_s": total("features.save_feature_set", "features.save_profile",
                               "features.load_feature_set", "features.load_profile"),
        "features.vocab_size": c["features.vocab_size"],
        "features.zero_rows": c["features.zero_rows"],
        "fcm.iterations": c["fcm.iterations"],
        "fcm.iter_s.p50": _percentile(
            tracer.child_start_gaps("fcm.run_fcm", "fcm.update_centers"), 50),
        "fcm.centers_s": total("fcm.update_centers"),
        "fcm.distances_s": total("fcm.pairwise_distances"),
        "fcm.memberships_s": total("fcm.update_memberships"),
        "fcm.objective_s": total("fcm.objective"),
        "fcm.tensor_bytes": c["fcm.tensor_bytes"],
        "fcm.io_s": total("fcm.save_result", "fcm.load_result"),
        "fcm.mean_max_membership": c["fcm.mean_max_membership"],
        "labeling.label_s": total("labeling.label_clusters"),
        "labeling.classify_s": total("labeling.classify_strength"),
        "labeling.render_s": total("labeling.render_report_table"),
        "labeling.io_s": total("labeling.save_report"),
        "cli.load_corpus_s": total("cli.load_corpus"),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process image. ``getrusage`` is not used where
    /proc is readable: Linux carries ``ru_maxrss`` over from the parent
    when ``subprocess`` starts the worker by vfork and exec, so it would
    report ``run.py``'s size whenever that is the larger."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    workload, inputs, out = argv[0], Path(argv[1]), Path(argv[2])
    traced, seed = argv[3] == "1", int(argv[4])
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"fuzzydocs imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    make_stages = matrix_stages if workload == "matrix_lib" else cli_stages
    stages = make_stages(inputs, out, seed)
    tracer = Tracer() if traced else None
    if tracer:
        instrument(tracer)
    ops = Ops()
    stage_s: dict[str, float] = {}
    stage_failed: dict[str, int] = {}
    probe_s: dict[str, dict[str, float]] = {}
    for name, stage in stages:
        before = ops.failed
        # untraced chains sample the host's speed while each stage runs;
        # traced chains give only per-layer figures, which are raw
        sampler = None if tracer else calibrate.Sampler(calibrate.STAGE_PROBES[workload][name])
        with sampler or contextlib.nullcontext():
            start = time.perf_counter()
            spent = sampler.spent if sampler else 0.0
            try:
                if tracer:
                    tracer.call(f"bench.{name}", stage, ops)
                else:
                    stage(ops)
            except _Abort:
                pass
            except Exception:
                # benchmark glue between operations failed on a bad output
                ops.attempted += 1
                ops.failed += 1
                ops.errors.append(traceback.format_exc(limit=4))
            stage_s[name] = time.perf_counter() - start
            if sampler:
                stage_s[name] -= sampler.spent - spent
        if sampler:
            probe_s[name] = sampler.mean_s()
        stage_failed[name] = ops.failed - before
        if stage_failed[name]:
            break
    if tracer:
        tracer.restore()
    result_json = out / "result.json"
    record = {
        "import_s": IMPORT_S,
        "stage_s": stage_s,
        "stage_failed": stage_failed,
        "probe_s": probe_s,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "peak_rss_mb": peak_rss_mb(),
        "sizes": {
            "features.profile_bytes": sum(p.stat().st_size for p in out.glob("*.profile.json")),
            "fcm.result_bytes": result_json.stat().st_size if result_json.exists() else 0,
            "cli.stdout_bytes": sum(p.stat().st_size for p in out.glob("stdout-*.txt")),
        },
    }
    if tracer:
        record["layers"] = layer_metrics(tracer)
        record["stage_layer_s"] = tracer.stage_layer_s
        record["untraced"] = tracer.missing
        (out / "spans.json").write_text(json.dumps(tracer.spans), "utf-8")
    (out / "record.json").write_text(json.dumps(record), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
