"""Batch command-line front end.

Three subcommands cover the pipeline: ``features`` learns a feature set
and per-label WF profiles from labeled sample corpora, ``cluster`` runs
fuzzy c-means over a corpus, and ``report`` names the clusters and prints
per-document membership strength.

Every option can also be set in a ``--config`` JSON file, under the
flag's dest (``top_k`` for ``--top-k``) and in the shape the flag takes; a
flag beats the config file, which beats the default.

Exit codes: 0 success, 1 data error, 2 usage error. Warnings go to
stderr; tables to stdout; JSON files go through :mod:`fuzzydocs.jsonfile`.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .fcm import FcmParams, FeatureMatrix, load_result, run_fcm, save_result, validate_partition
from .features import (
    LabeledProfile,
    build_profile,
    load_feature_set,
    load_profile,
    save_feature_set,
    save_profile,
    score_terms,
    select_features,
    vectorize,
)
from .jsonfile import is_number, read_json
from .labeling import classify_strength, label_clusters, render_report_table, save_report
from .preprocess import PreprocessConfig, load_stopwords, preprocess_document


class UsageError(Exception):
    """Bad invocation: missing inputs, malformed flags, flag or config
    values of the wrong type or out of range. Exit code 2."""


class DataError(Exception):
    """Inputs exist but cannot be processed. Exit code 1."""


REQUIRED = object()  # the default of an option a subcommand cannot run without


def load_corpus(dirpath: str | Path) -> dict[str, str]:
    """The texts of a directory's documents by file name, in lexicographic
    name order; the file name is the document id, so it must be valid UTF-8."""
    dirpath = Path(dirpath)
    if not dirpath.is_dir():
        raise UsageError(f"corpus directory not found: {dirpath}")
    docs = {}
    for p in sorted(dirpath.iterdir()):
        if p.name.startswith(".") or not p.is_file():
            continue
        try:
            p.name.encode("utf-8")  # undecodable bytes arrive as lone surrogates
        except UnicodeEncodeError:
            raise DataError(f"file name is not valid UTF-8: {str(p)!r}") from None
        try:
            docs[p.name] = p.read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {p}: {exc}") from exc
    if not docs:
        raise DataError(f"no documents in {dirpath}")
    return docs


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = read_json(_existing_file(path, "config file"))
    except (OSError, ValueError) as exc:  # either message names the file
        raise UsageError(str(exc)) from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file must hold a JSON object: {path}")
    return config


def _option_value(name: str, value, kind: type):
    """A flag or config value in the shape its option takes: an integer
    for an int option, a finite number for a float option, a string
    without NUL for a path, a non-empty list of strings for a repeated
    flag; a switch takes true or false. ``name`` is the flag or the
    config key, for the message."""
    number = is_number(value)
    ok, what = {
        bool: (isinstance(value, bool), "true or false"),
        int: (number and isinstance(value, int), "an integer"),
        float: (number and abs(value) <= sys.float_info.max, "a finite number"),
        str: (isinstance(value, str) and "\0" not in value, "a string without NUL"),
        list: (isinstance(value, list) and value and all(isinstance(v, str) for v in value),
               "a non-empty list of strings"),
    }[kind]
    if not ok:
        raise UsageError(f"{name} must be {what}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def _settings(args) -> dict:
    """Each option's value: its flag's, else the config file's, else its
    declared default. An option with none is left out, so the library's
    default applies. The raw ``preprocess`` block rides along."""
    config = _load_config(args.config)
    unknown = sorted(config.keys() - args.config_keys)
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    settings = {"preprocess": config.get("preprocess", {})}
    for key, (flag, kind, default) in args.options.items():
        # a config value is checked even where a flag overrides it
        value = _option_value(f"config key {key}", config[key], kind) if key in config else default
        if key in vars(args):  # the config's rule: argparse's float() takes nan and inf
            value = _option_value(flag, vars(args)[key], kind)
        if value is REQUIRED:
            raise UsageError(f"missing required {flag}")
        if value is not None:
            settings[key] = value
    return settings


def _preprocess_config(section) -> PreprocessConfig:
    """The ``preprocess`` block: three switches and a stopword file path,
    where null means the built-in list."""
    if not isinstance(section, dict):
        raise UsageError("preprocess must be a JSON object")
    switches = dict(section)
    path = switches.pop("stopwords_file", None)
    unknown = sorted(switches.keys() - {"strip_markup", "stemming", "bigrams"})
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(f'preprocess.{k}' for k in unknown)}")
    kwargs = {key: _option_value(f"config key preprocess.{key}", value, bool)
              for key, value in switches.items()}
    if path is not None:
        path = _option_value("config key preprocess.stopwords_file", path, str)
        kwargs["stopwords"] = load_stopwords(_existing_file(path, "stopwords file"))
    return PreprocessConfig(**kwargs)


def _existing_file(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _parse_samples(pairs: list[str]) -> dict[str, str]:
    samples = {}
    for pair in pairs:
        label, sep, dirpath = pair.partition("=")
        if not sep or not label or not dirpath:
            raise UsageError(f"--samples expects LABEL=DIR, got {pair!r}")
        # a label names its profile file; a lone surrogate is a byte that is not UTF-8
        if any(ch in "/\0" or "\ud800" <= ch <= "\udfff" for ch in label):
            raise UsageError(f"--samples label must be valid UTF-8 without '/' or NUL, got {label!r}")
        if label in samples:
            raise UsageError(f"duplicate sample label: {label}")
        samples[label] = dirpath
    return samples


def cmd_features(args) -> int:
    s = _settings(args)
    samples = _parse_samples(s["samples"])
    if len(samples) < 2:
        raise UsageError("need at least two --samples LABEL=DIR pairs")
    bound = inspect.signature(select_features).bind_partial(
        **{k: s[k] for k in ("top_k", "min_ratio", "min_wf") if k in s})
    bound.apply_defaults()  # the library's own, for the check and the summary line
    limits = bound.arguments
    if limits["top_k"] < 1:
        raise UsageError("top_k must be positive")
    out = Path(s["out"])
    pre = _preprocess_config(s["preprocess"])

    profiles = []
    for label in sorted(samples):
        term_seqs = [preprocess_document(text, pre) for text in load_corpus(samples[label]).values()]
        try:
            profiles.append(build_profile(label, term_seqs))
        except ValueError as exc:
            raise DataError(f"{exc} (label {label!r})") from exc
    selected = select_features(profiles, **limits)

    out.parent.mkdir(parents=True, exist_ok=True)
    save_feature_set(selected, out)
    print(f"wrote {out}", file=sys.stderr)
    for profile in profiles:
        profile_path = out.parent / f"{profile.label}.profile.json"
        save_profile(profile, profile_path)
        print(f"wrote {profile_path}", file=sys.stderr)

    _print_ratio_table(profiles, selected, **limits)
    return 0


def _print_ratio_table(profiles, selected, top_k, min_ratio, min_wf) -> None:
    # a term's ratio reads only its own WFs, so score the selected terms alone
    ratio_of = dict(score_terms([
        LabeledProfile(p.label, {t: p.wf[t] for t in selected if t in p.wf}) for p in profiles
    ]))
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
    s = _settings(args)
    features_path = _existing_file(s["features"], "feature file")
    out = Path(s["out"])
    pre = _preprocess_config(s["preprocess"])

    init = None
    if "init_file" in s:  # checked below, once the document count is known
        init = read_json(_existing_file(s["init_file"], "init file"))
    try:
        params = FcmParams(
            c=s["clusters"], init=init,
            **{k: s[k] for k in ("fuzzifier", "epsilon", "max_iters", "seed") if k in s},
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    selected = load_feature_set(features_path)

    doc_ids, rows = [], []
    for doc_id, text in load_corpus(s["corpus"]).items():
        terms = preprocess_document(text, pre)
        if not terms:
            print(f"warning: skipping empty document: {doc_id}", file=sys.stderr)
            continue
        doc_ids.append(doc_id)
        rows.append(vectorize(terms, selected))
    if params.c > len(rows):
        raise DataError(f"cluster count {params.c} exceeds surviving document count {len(rows)}")
    if init is not None:
        try:
            validate_partition(init, n=len(rows), c=params.c)
        except ValueError as exc:
            raise DataError(f"invalid init file {s['init_file']}: {exc}") from exc
    matrix = FeatureMatrix(doc_ids=tuple(doc_ids), data=np.array(rows, dtype=float))
    zero_rows = int(np.count_nonzero(~matrix.data.any(axis=1)))
    if zero_rows:  # clustering cannot tell these documents apart
        print(f"warning: {zero_rows} document(s) contain none of the selected features",
              file=sys.stderr)
    result = run_fcm(matrix, params)

    out.parent.mkdir(parents=True, exist_ok=True)
    save_result(result, matrix.doc_ids, selected, out)
    print(f"wrote {out}", file=sys.stderr)
    print(f"iterations: {result.iterations}")
    print(f"converged: {'true' if result.converged else 'false'}")
    print(f"objective: {result.objective_history[-1]!r}")
    return 0


def cmd_report(args) -> int:
    s = _settings(args)
    result_path = _existing_file(s["result"], "result file")
    thresholds = {k: s[k] for k in ("strong_threshold", "ambiguity_margin") if k in s}
    out = Path(s["out"])

    result = load_result(result_path)
    profiles = [load_profile(_existing_file(p, "profile file")) for p in s["profiles"]]
    labeling = label_clusters(result["centers"], profiles, result["features"])
    try:
        reports = classify_strength(result["memberships"], result["doc_ids"], labeling, **thresholds)
    except ValueError as exc:  # bad thresholds: load_result has checked the rest
        raise UsageError(str(exc)) from exc

    reports.sort(key=lambda e: (e["top_label"], -e["labels"][e["top_label"]], e["doc_id"]))
    out.parent.mkdir(parents=True, exist_ok=True)
    save_report(reports, out)
    print(f"wrote {out}", file=sys.stderr)
    print(render_report_table(reports))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    """Declares each option once, with its value type and any default;
    its config key is the flag's dest."""
    parser = argparse.ArgumentParser(
        prog="fuzzydocs",
        description="Fuzzy c-means document clustering over word-frequency features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_keys = {"preprocess"}  # every subcommand's keys, filled in below

    def command(name, handler, help):
        # unset flags stay out of the namespace, so _settings sees which were given
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None,
                       help="JSON config file; its keys are the options' dests (top_k for --top-k)")
        p.set_defaults(handler=handler, options={}, config_keys=config_keys)

        def option(flag, kind=str, default=None, **kwargs):
            action = p.add_argument(flag, type=kind if kind in (int, float) else None,
                                    action="append" if kind is list else "store", **kwargs)
            p.get_default("options")[action.dest] = (flag, kind, default)
            config_keys.add(action.dest)
        return option

    option = command("features", cmd_features, "select discriminative features from labeled samples")
    option("--samples", list, REQUIRED, metavar="LABEL=DIR",
           help="labeled sample corpus; repeat for each label")
    option("--top-k", int)
    option("--min-ratio", float)
    option("--min-wf", float)
    option("--out", default="features.json", help="feature file to write (profiles go next to it)")

    option = command("cluster", cmd_cluster, "cluster a corpus with fuzzy c-means")
    option("--corpus", default=REQUIRED, help="directory of UTF-8 text/HTML documents")
    option("--features", default=REQUIRED, help="feature file from the features command")
    option("--clusters", int, REQUIRED)
    option("--fuzzifier", float)
    option("--epsilon", float)
    option("--max-iters", int)
    option("--seed", int)
    option("--init-file", help="JSON c x n matrix used as the starting partition")
    option("--out", default="result.json", help="result file to write")

    option = command("report", cmd_report, "label clusters and report membership strength")
    option("--result", default=REQUIRED, help="result file from the cluster command")
    option("--profiles", list, REQUIRED, metavar="FILE", help="profile file; repeat for each label")
    option("--strong-threshold", float)
    option("--ambiguity-margin", float)
    option("--out", default="report.json", help="report file to write")

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
