#!/usr/bin/env python3
"""The fuzzydocs benchmark.

    python3 perfbench/run.py --workload zipf_cli --seed 1 --seconds 60 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory. One run:

1. Set-up: generates the workload's inputs from ``--seed`` (three times in
   memory, checking the three copies are byte-identical) and writes them
   under ``perfbench/_work``.
   ``setup_s`` is the median generation time, scaled to reference host
   speed, plus the median time a worker takes to import numpy and fuzzydocs.
2. Measurement: for ``--seconds`` seconds (at least three chains) runs the
   workload's chain ``features -> cluster -> report``, each chain in a
   fresh single-threaded worker process (``worker.py``), one at a time. A
   chain still running 165 s after start is killed and counted as failed.
   With ``--trace 1`` every other chain runs traced (``spans.py``); the
   per-layer metrics come from the traced chains and the tracing overhead
   is traced minus untraced chain wall time.
3. Checks, outside the timed part: every operation exits 0, every
   written file parses, ``result.json`` is byte-identical across the chains
   of a run, the partition has not collapsed to memberships of 1/c and
   recovers the generator's topics, and each topic's profile labels the
   cluster holding that topic's documents. A failed check fails the
   operation whose output it checks.

It prints the environment, the checks and every metric with its unit,
then, as the last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer ones with ``--trace 1``. Timings are medians over the run's
chains. The end-to-end times (and ``docs_per_s``) are scaled to a
reference host speed by the probes that ``calibrate.py`` times while each
stage runs, because the shared host's speed drifts by more than the
bounds over minutes; the raw medians and the measured host speed are
printed next to them. Per-layer times are raw.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import environment  # noqa: E402

environment.pin_threads()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "fuzzydocs" / "__init__.py"

SETUP_REPEATS = 3
MIN_CHAINS = 3
DEADLINE_S = 165  # a chain still running then is killed, so a run ends within 180 s

TOP_K = 20  # as in worker.py
# A collapsed partition has mean max membership 1/c (0.25 for the CLI
# workloads, 0.125 for matrix_lib); at this commit all three read about 0.98.
MIN_MEAN_MAX_MEMBERSHIP = 0.8
MIN_PURITY = 0.9
MIN_LABEL_ACCURACY = 0.9

# wide_cli (the zipf_cli chain on a flat 480k-form vocabulary: 42% of stem
# calls repeat, 53k-term profiles, a 4 MB ratio table) is not listed in
# BENCHMARK.json: its runs do not fit the time budget next to the other two
# at 60 s a run. Run it by hand to see what a change costs wide vocabularies.
WORKLOADS = {
    "zipf_cli": {"shape": "zipf", "labelled": 100, "unlabelled": 1000},
    "wide_cli": {"shape": "wide", "labelled": 100, "unlabelled": 1000},
    "matrix_lib": {"docs": 20000},
}

SPEC = ROOT / "BENCHMARK.json"
LAYERS = ("preprocess", "porter", "features", "fcm", "labeling", "cli")


class BenchError(Exception):
    """The benchmark itself cannot run here."""


def generate(workload: str, seed: int) -> tuple[dict[str, bytes], dict[str, str], dict]:
    """The input files in memory, doc id -> true topic, and what the
    checks expect."""
    spec = WORKLOADS[workload]
    if "docs" in spec:
        files, truth, features = gen.matrix_files(seed, spec["docs"])
        return files, truth, {"labels": list(gen.MATRIX_LABELS), "features": features,
                              "doc_ids": list(truth)}
    files, truth = gen.corpus_files(spec["shape"], seed, spec["labelled"], spec["unlabelled"])
    return files, truth, {"labels": list(gen.CLI_LABELS), "features": None,
                          "doc_ids": sorted(truth)}


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode())
        h.update(files[name])
    return h.hexdigest()


def setup(workload: str, seed: int, work: Path):
    """Generates the inputs SETUP_REPEATS times in memory and writes the
    first copy to ``work/inputs``; returns that directory, the ground
    truth and each generation's time at reference host speed. Writing the
    files is not timed: creating 1,400 small files took from 0.07 to 0.9 s
    on the same host within an hour, a swing of the filesystem, not of
    the program under test."""
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        with calibrate.Sampler(["python"]) as sampler:
            start = time.perf_counter()
            spent = sampler.spent
            files, truth, expect = generate(workload, seed)
            elapsed = time.perf_counter() - start - (sampler.spent - spent)
        times.append(elapsed * calibrate.speed(["python"], sampler.mean_s()))
        digests.append(digest(files))
    if len(set(digests)) != 1:
        raise BenchError("the input generator is not deterministic for this seed")
    gen.write_files(work / "inputs", files)
    return work / "inputs", truth, expect, times


def run_worker(workload: str, inputs: Path, out: Path, traced: bool, seed: int, timeout: float):
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(inputs), str(out),
           "1" if traced else "0", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"chain killed at the {DEADLINE_S} s deadline"
    record = out / "record.json"
    if proc.returncode != 0 or not record.exists():
        return None, f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(record.read_text("utf-8")), None


def check_chain(out: Path, truth: dict[str, str], expect: dict, reference: str | None):
    """Output checks of one chain: stage -> failure messages, plus the
    measured quality figures and the result.json digest."""
    fails: dict[str, list[str]] = {"features": [], "cluster": [], "report": []}
    info: dict = {}
    labels, doc_ids = expect["labels"], expect["doc_ids"]
    selected: list = []
    try:
        selected = json.loads((out / "features.json").read_text("utf-8"))
        if not (isinstance(selected, list) and 1 <= len(selected) <= TOP_K
                and len(set(selected)) == len(selected)
                and all(isinstance(t, str) and t for t in selected)):
            fails["features"].append("features.json is not a list of unique terms")
        if expect["features"] is not None and set(selected) != set(expect["features"]):
            fails["features"].append("selected features are not the generator's topic features")
        for lab in labels:
            prof = json.loads((out / f"{lab}.profile.json").read_text("utf-8"))
            if prof["label"] != lab or not all(isinstance(v, float) for v in prof["wf"].values()):
                fails["features"].append(f"bad profile file for {lab}")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        fails["features"].append(f"feature outputs do not parse: {exc!r}")

    try:
        raw = (out / "result.json").read_bytes()
        info["digest"] = hashlib.sha256(raw).hexdigest()
        result = json.loads(raw)
        u = np.asarray(result["memberships"], dtype=float)
        if u.shape != (len(labels), len(doc_ids)) or not np.all(np.isfinite(u)):
            raise ValueError(f"membership matrix has shape {u.shape}")
        if np.max(np.abs(u.sum(axis=0) - 1.0)) > 1e-9:
            fails["cluster"].append("membership columns do not sum to 1")
        if result["doc_ids"] != doc_ids or result["features"] != selected:
            fails["cluster"].append("result.json doc ids or features differ from the inputs")
        info["mean_max_membership"] = float(u.max(axis=0).mean())
        if info["mean_max_membership"] < MIN_MEAN_MAX_MEMBERSHIP:
            fails["cluster"].append(f"partition collapsed: mean max membership "
                                    f"{info['mean_max_membership']:.3f}")
        hard = u.argmax(axis=0)
        topics = np.array([truth[d] for d in doc_ids])
        info["purity"] = sum(Counter(topics[hard == j]).most_common(1)[0][1]
                             for j in np.unique(hard)) / len(doc_ids)
        if info["purity"] < MIN_PURITY:
            fails["cluster"].append(f"topic purity {info['purity']:.3f} < {MIN_PURITY}")
        if reference is not None and info["digest"] != reference:
            fails["cluster"].append("result.json differs from the first chain's")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        fails["cluster"].append(f"result.json does not parse: {exc!r}")

    try:
        report = json.loads((out / "report.json").read_text("utf-8"))
        top = {e["doc_id"]: e["top_label"] for e in report}
        if len(report) != len(doc_ids) or set(top) != set(doc_ids):
            raise ValueError("report does not cover every document once")
        if any(set(e["labels"]) != set(labels) for e in report):
            fails["report"].append("report entries do not carry every label")
        info["docs"] = len(report)
        info["label_accuracy"] = sum(top[d] == truth[d] for d in doc_ids) / len(doc_ids)
        if info["label_accuracy"] < MIN_LABEL_ACCURACY:
            fails["report"].append(f"label accuracy {info['label_accuracy']:.3f}")
        for lab in labels:
            votes = Counter(top[d] for d in doc_ids if truth[d] == lab)
            if votes.most_common(1)[0][0] != lab:
                fails["report"].append(f"profile {lab} does not label its topic's cluster")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        fails["report"].append(f"report.json does not parse: {exc!r}")
    return fails, info


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not PACKAGE.is_file() or not SPEC.is_file():
        print(f"error: {PACKAGE.parent} or {SPEC} not found; run from a repository checkout",
              file=sys.stderr)
        return 2

    work = HERE / "_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    spec = json.loads(SPEC.read_text("utf-8"))
    env = environment.describe()
    print(f"fuzzydocs benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    inputs, truth, expect, gen_times = setup(args.workload, args.seed, work)

    records, span_sets, errors = [], [], []
    attempted = failed = 0
    reference = None
    start = time.perf_counter()
    chain = 0
    while (remaining := _START + DEADLINE_S - time.perf_counter()) > 0:
        # with --trace 1, traced and untraced chains alternate, so both
        # see the same machine conditions
        traced = bool(args.trace) and chain % 2 == 0
        out = work / f"chain{chain}"
        record, error = run_worker(args.workload, inputs, out, traced, args.seed, remaining)
        chain += 1
        if record is None:
            attempted += 1
            failed += 1
            errors.append(error)
        else:
            fails, record["info"] = check_chain(out, truth, expect, reference)
            reference = reference or record["info"].get("digest")
            attempted += record["attempted"]
            failed += record["failed"]
            errors.extend(record["errors"])
            for stage in record["stage_s"]:  # the stages that ran
                errors.extend(fails[stage])
                if fails[stage] and not record["stage_failed"][stage]:
                    failed += 1
            record["traced"] = traced
            records.append(record)
            if traced:
                span_sets.append(json.loads((out / "spans.json").read_text("utf-8")))
        shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if chain >= MIN_CHAINS and elapsed + elapsed / chain > args.seconds:
            break
    for e in errors[:5]:
        print(f"error: {e}", file=sys.stderr)

    plain = [r for r in records if not r["traced"] and len(r["stage_s"]) == 3]
    traced_records = [r for r in records if r["traced"] and len(r["stage_s"]) == 3]
    if not plain or (args.trace and not traced_records):
        raise BenchError("no chain completed")

    def wall(r):
        return sum(r["stage_s"].values())

    probe_of = calibrate.STAGE_PROBES[args.workload]

    def speed(r, stage):
        return calibrate.speed(probe_of[stage], r["probe_s"][stage])

    def scaled(r, stage):
        return r["stage_s"][stage] * speed(r, stage)

    def scaled_wall(r):
        return sum(scaled(r, stage) for stage in r["stage_s"])

    imports = [r["import_s"] for r in records]
    e2e = {
        "features_s": median([scaled(r, "features") for r in plain]),
        "cluster_s": median([scaled(r, "cluster") for r in plain]),
        "report_s": median([scaled(r, "report") for r in plain]),
        "docs_per_s": median([r["info"].get("docs", 0) / scaled_wall(r) for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "setup_s": median(gen_times) + median(imports),
        "fail_frac": failed / attempted,
    }
    print(f"setup: generation {' '.join(f'{t:.3f}' for t in gen_times)} s "
          f"(reference host speed), worker import median {median(imports):.3f} s")
    for stage in ("features", "cluster", "report"):
        print(f"raw {stage}_s median {median([r['stage_s'][stage] for r in plain]):.4f} s; "
              f"host speed by the {'+'.join(probe_of[stage])} probe: median "
              f"{median([speed(r, stage) for r in plain]):.3f} of reference")
    print(f"chains: {len(plain)} untraced, {len(traced_records)} traced; "
          f"operations attempted {attempted}, failed {failed}")
    infos = [r["info"] for r in records]
    for key, floor in (("mean_max_membership", MIN_MEAN_MAX_MEMBERSHIP),
                       ("purity", MIN_PURITY), ("label_accuracy", MIN_LABEL_ACCURACY)):
        vals = [i[key] for i in infos if key in i]
        low = f"{min(vals):.4f}" if vals else "missing"
        print(f"check {key}: lowest {low} (floor {floor})")
    print(f"check result.json identical across chains: "
          f"{len({i.get('digest') for i in infos}) == 1}")
    print("end-to-end (untraced medians, times at reference host speed; "
          "fail_frac is failed / attempted operations):")
    print_metrics(e2e, spec["end_to_end"] + [{"name": "fail_frac", "unit": "ratio"}])

    if args.trace:
        for name in sorted({n for r in traced_records for n in r["untraced"]}):
            print(f"warning: {name} not found, so not traced", file=sys.stderr)
        values = layer_values(traced_records, plain, wall)
        print("per-layer (traced medians; layer.*_self_s are self times, the rest inclusive):")
        print_metrics(values, spec["per_layer"])
        print_stage_shares(traced_records)
        write_spans(args, env, span_sets)
    else:
        values = e2e
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_metrics(values: dict[str, float], wanted: list[dict]) -> None:
    for m in wanted:
        if m["name"] in values:
            print(f"  {m['name']:34s} {values[m['name']]:14.6g} {m['unit']}")


def layer_values(traced: list[dict], plain: list[dict], wall) -> dict[str, float]:
    """Per-layer metrics: medians over the traced chains."""
    untraced_wall = median([wall(r) for r in plain])
    values = {key: median([r["layers"][key] for r in traced]) for key in traced[0]["layers"]}
    for key in traced[0]["sizes"]:
        values[key] = median([r["sizes"][key] for r in traced])
    for layer in LAYERS:
        values[f"layer.{layer}_self_s"] = median([layer_self(r, layer) for r in traced])
    covered = median([sum(layer_self(r, layer) for layer in LAYERS) for r in traced])
    values["trace.covered_share"] = covered / untraced_wall
    values["trace.overhead_s"] = median([wall(r) for r in traced]) - untraced_wall
    return values


def layer_self(record: dict, layer: str, stage: str | None = None) -> float:
    return sum(layers.get(layer, 0.0) for name, layers in record["stage_layer_s"].items()
               if stage is None or name == f"bench.{stage}")


def print_stage_shares(traced: list[dict]) -> None:
    """Which layer each stage's traced wall time goes to (median chain)."""
    print("layer self time as a share of each traced stage:")
    for stage in ("features", "cluster", "report"):
        wall = median([r["stage_s"][stage] for r in traced])
        shares = {layer: median([layer_self(r, layer, stage) for r in traced]) / wall
                  for layer in LAYERS + ("bench",)}
        print(f"  {stage:9s} " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items() if v >= 0.001))


def write_spans(args, env: dict, span_sets: list) -> None:
    out = HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    fields = ["id", "parent", "name", "start_s", "end_s"]
    out.write_text(json.dumps({"env": env, "fields": fields, "chains": span_sets}), "utf-8")
    print(f"spans: {out.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
