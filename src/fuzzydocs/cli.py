"""Batch command-line front end.

Three subcommands cover the pipeline: ``features`` learns a feature set
and per-label WF profiles from labeled sample corpora, ``cluster`` runs
fuzzy c-means over a corpus, and ``report`` names the clusters and prints
per-document membership strength.

Exit codes: 0 success, 1 data error, 2 usage error. Warnings go to
stderr; tables to stdout; all files are UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .fcm import FcmParams, FeatureMatrix, run_fcm, save_result, load_result
from .features import (
    build_profile,
    load_feature_set,
    load_profile,
    save_feature_set,
    save_profile,
    score_terms,
    select_features,
    vectorize,
)
from .labeling import (
    AMBIGUITY_MARGIN_DEFAULT,
    STRONG_THRESHOLD_DEFAULT,
    classify_strength,
    label_clusters,
    render_report_table,
    save_report,
    validate_thresholds,
)
from .preprocess import PreprocessConfig, RawDocument, load_stopwords, preprocess_document


class UsageError(Exception):
    """Bad invocation: missing inputs, malformed flags, flag or config
    values of the wrong type or out of range. Exit code 2."""


class DataError(Exception):
    """Inputs exist but cannot be processed. Exit code 1."""


def load_corpus(dirpath: str | Path) -> list[RawDocument]:
    """Documents of a directory in lexicographic filename order; the
    filename is the document id."""
    dirpath = Path(dirpath)
    if not dirpath.is_dir():
        raise UsageError(f"corpus directory not found: {dirpath}")
    docs = []
    for p in sorted(dirpath.iterdir()):
        if p.name.startswith(".") or not p.is_file():
            continue
        try:
            docs.append(RawDocument(p.name, p.read_text("utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {p}: {exc}") from exc
    if not docs:
        raise DataError(f"no documents in {dirpath}")
    return docs


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {p}")
    try:
        with open(p, encoding="utf-8") as f:
            config = json.load(f)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {p}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file must hold a JSON object: {p}")
    return config


def _resolve(args, config: dict, key: str, default):
    """Flag beats config file beats default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _require(args, config: dict, key: str, flag: str):
    value = _resolve(args, config, key, None)
    if value is None:
        raise UsageError(f"missing required {flag}")
    return value


def _typed(value, kind: type, key: str):
    """Convert a flag or config value; a value of the wrong type is a
    usage error."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{key} must be {kind.__name__}, got {value!r}") from exc


def _boolean(value, key: str) -> bool:
    # bool() would read any non-empty string, "false" included, as true
    if not isinstance(value, bool):
        raise UsageError(f"{key} must be true or false, got {value!r}")
    return value


def _preprocess_config(config: dict) -> PreprocessConfig:
    section = config.get("preprocess", {})
    if not isinstance(section, dict):
        raise UsageError("preprocess must be a JSON object")
    kwargs = {
        key: _boolean(section[key], f"preprocess.{key}")
        for key in ("strip_markup", "stemming", "bigrams")
        if key in section
    }
    if section.get("stopwords_file") is not None:
        path = _typed(section["stopwords_file"], Path, "preprocess.stopwords_file")
        if not path.is_file():
            raise UsageError(f"stopwords file not found: {path}")
        kwargs["stopwords"] = load_stopwords(path)
    return PreprocessConfig(**kwargs)


def _existing_file(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _parse_samples(pairs: list[str] | None, config: dict) -> dict[str, str]:
    if pairs:
        samples = {}
        for pair in pairs:
            label, sep, dirpath = pair.partition("=")
            if not sep or not label or not dirpath:
                raise UsageError(f"--samples expects LABEL=DIR, got {pair!r}")
            if label in samples:
                raise UsageError(f"duplicate sample label: {label}")
            samples[label] = dirpath
        return samples
    sample_dirs = config.get("sample_dirs", {})
    if isinstance(sample_dirs, dict) and sample_dirs:
        return {str(k): str(v) for k, v in sample_dirs.items()}
    return {}


def cmd_features(args) -> int:
    config = _load_config(args.config)
    samples = _parse_samples(args.samples, config)
    if len(samples) < 2:
        raise UsageError("need at least two --samples LABEL=DIR pairs")
    top_k = _typed(_resolve(args, config, "top_k", 50), int, "top_k")
    if top_k < 1:
        raise UsageError("top_k must be positive")
    min_ratio = _typed(_resolve(args, config, "min_ratio", 2.0), float, "min_ratio")
    min_wf = _typed(_resolve(args, config, "min_wf", 5.0), float, "min_wf")
    out = Path(_resolve(args, config, "out", None) or config.get("features_path", "features.json"))
    pre = _preprocess_config(config)

    profiles = []
    for label in sorted(samples):
        term_seqs = [preprocess_document(doc.content, pre) for doc in load_corpus(samples[label])]
        try:
            profiles.append(build_profile(label, term_seqs))
        except ValueError as exc:
            raise DataError(f"{exc} (label {label!r})") from exc
    selected = select_features(profiles, top_k=top_k, min_ratio=min_ratio, min_wf=min_wf)

    out.parent.mkdir(parents=True, exist_ok=True)
    save_feature_set(selected, out)
    print(f"wrote {out}", file=sys.stderr)
    for profile in profiles:
        profile_path = out.parent / f"{profile.label}.profile.json"
        save_profile(profile, profile_path)
        print(f"wrote {profile_path}", file=sys.stderr)

    _print_ratio_table(profiles, selected, top_k=top_k, min_ratio=min_ratio, min_wf=min_wf)
    return 0


def _print_ratio_table(profiles, selected, top_k, min_ratio, min_wf) -> None:
    ratio_of = dict(score_terms(profiles))
    header = ["term"] + [f"wf[{p.label}]" for p in profiles] + ["ratio"]
    rows = [
        [term] + [f"{p.wf.get(term, 0.0):.4f}" for p in profiles] + [f"{ratio_of[term]:.4f}"]
        for term in selected
    ]
    widths = [max(len(r[k]) for r in [header] + rows) for k in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.rjust(w) if k else c.ljust(w) for k, (c, w) in enumerate(zip(r, widths))).rstrip())
    print(f"---- selected {len(rows)} feature(s): top_k={top_k} min_ratio={min_ratio:g} min_wf={min_wf:g} ----")


def cmd_cluster(args) -> int:
    config = _load_config(args.config)
    corpus_dir = _require(args, config, "corpus", "--corpus")
    features_path = _existing_file(
        _require(args, config, "features", "--features"), "feature file"
    )
    c = _typed(_require(args, config, "clusters", "--clusters"), int, "clusters")
    fuzzifier = _typed(_resolve(args, config, "fuzzifier", 2.0), float, "fuzzifier")
    epsilon = _typed(_resolve(args, config, "epsilon", 1e-3), float, "epsilon")
    max_iters = _typed(_resolve(args, config, "max_iters", 100), int, "max_iters")
    seed = _typed(_resolve(args, config, "seed", 0), int, "seed")
    init_file = _resolve(args, config, "init_file", None)
    out = Path(_resolve(args, config, "out", None) or config.get("result_path", "result.json"))
    pre = _preprocess_config(config)

    init = None
    if init_file is not None:
        init_path = _existing_file(init_file, "init file")
        with open(init_path, encoding="utf-8") as f:
            init = np.asarray(json.load(f), dtype=float)
    try:
        params = FcmParams(
            c=c, fuzzifier=fuzzifier, epsilon=epsilon, max_iters=max_iters,
            init=init, seed=seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    selected = load_feature_set(features_path)

    doc_ids, rows = [], []
    for doc in load_corpus(corpus_dir):
        terms = preprocess_document(doc.content, pre)
        if not terms:
            print(f"warning: skipping empty document: {doc.id}", file=sys.stderr)
            continue
        doc_ids.append(doc.id)
        rows.append(vectorize(terms, selected))
    if c > len(rows):
        raise DataError(
            f"cluster count {c} exceeds surviving document count {len(rows)}"
        )
    matrix = FeatureMatrix(doc_ids=tuple(doc_ids), data=np.array(rows, dtype=float))
    result = run_fcm(matrix, params)

    out.parent.mkdir(parents=True, exist_ok=True)
    save_result(result, matrix.doc_ids, selected, out)
    print(f"wrote {out}", file=sys.stderr)
    print(f"iterations: {result.iterations}")
    print(f"converged: {'true' if result.converged else 'false'}")
    print(f"objective: {result.objective_history[-1]!r}")
    return 0


def cmd_report(args) -> int:
    config = _load_config(args.config)
    result_path = _existing_file(_require(args, config, "result", "--result"), "result file")
    profile_paths = args.profiles or config.get("profile_paths") or []
    if not profile_paths:
        raise UsageError("missing required --profiles")
    strong = _typed(_resolve(args, config, "strong_threshold", STRONG_THRESHOLD_DEFAULT),
                    float, "strong_threshold")
    margin = _typed(_resolve(args, config, "ambiguity_margin", AMBIGUITY_MARGIN_DEFAULT),
                    float, "ambiguity_margin")
    out = Path(_resolve(args, config, "out", None) or config.get("report_path", "report.json"))

    result = load_result(result_path)
    profiles = [load_profile(_existing_file(p, "profile file")) for p in profile_paths]
    labeling = label_clusters(result["centers"], profiles, result["features"])
    try:
        validate_thresholds(strong, margin, len(labeling.assignment))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    reports = classify_strength(
        result["memberships"],
        result["doc_ids"],
        labeling,
        strong_threshold=strong,
        ambiguity_margin=margin,
    )

    reports.sort(key=lambda r: (r.top_label, -r.memberships[r.top_label], r.doc_id))
    out.parent.mkdir(parents=True, exist_ok=True)
    save_report(reports, out)
    print(f"wrote {out}", file=sys.stderr)
    print(render_report_table(reports))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzydocs",
        description="Fuzzy c-means document clustering over word-frequency features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="select discriminative features from labeled samples")
    p.add_argument("--samples", action="append", metavar="LABEL=DIR",
                   help="labeled sample corpus; repeat for each label")
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--min-ratio", dest="min_ratio", type=float)
    p.add_argument("--min-wf", dest="min_wf", type=float)
    p.add_argument("--out", help="feature file to write (profiles go next to it)")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(handler=cmd_features)

    p = sub.add_parser("cluster", help="cluster a corpus with fuzzy c-means")
    p.add_argument("--corpus", help="directory of UTF-8 text/HTML documents")
    p.add_argument("--features", help="feature file from the features command")
    p.add_argument("--clusters", type=int)
    p.add_argument("--fuzzifier", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--init-file", dest="init_file",
                   help="JSON c x n matrix used as the starting partition")
    p.add_argument("--out", help="result file to write")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser("report", help="label clusters and report membership strength")
    p.add_argument("--result", help="result file from the cluster command")
    p.add_argument("--profiles", action="append", metavar="FILE",
                   help="profile file; repeat for each label")
    p.add_argument("--strong-threshold", dest="strong_threshold", type=float)
    p.add_argument("--ambiguity-margin", dest="ambiguity_margin", type=float)
    p.add_argument("--out", help="report file to write")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
