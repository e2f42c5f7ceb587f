"""Batch command-line front end.

Three subcommands cover the pipeline: ``features`` learns a feature set
from labeled sample corpora and writes each label's WF of those features
as its profile, ``cluster`` runs fuzzy c-means over a corpus, and
``report`` names the clusters and prints per-document membership strength.

Every option can also be set in a ``--config`` JSON file, under the
flag's dest (``top_k`` for ``--top-k``) and in the shape the flag takes; a
flag beats the config file, which beats the default. ``main`` resolves
these settings once and passes the dict to the subcommand's handler.

Exit codes: 0 success, 1 data error (``ValueError``, ``OSError``) or
``MemoryError``, 2 usage error; a failed run's last stderr line is its one
``error: `` line. Every input path, and every output path against the
inputs, is checked before any input but the config file is read. Every
stderr line (``wrote PATH``, a warning, the error) and every name in a
table pass :func:`fuzzydocs.labeling.printable`, which writes each
character that is not printable as its escape, so a path or a name cannot
forge a line. Warnings go to stderr; tables to stdout;
JSON files go through :mod:`fuzzydocs.jsonfile`, which creates a missing
output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .fcm import FcmParams, FeatureMatrix, load_result, run_fcm, save_result, validate_partition
from .features import (
    MIN_RATIO_DEFAULT,
    MIN_WF_DEFAULT,
    TOP_K_DEFAULT,
    LabeledProfile,
    build_profile,
    discrimination_ratio,
    load_feature_set,
    load_profile,
    save_feature_set,
    save_profile,
    select_features,
    vectorize,
)
from .jsonfile import is_integer, is_number, read_json, temporary_path
from .labeling import (
    AMBIGUITY_MARGIN_DEFAULT,
    STRONG_THRESHOLD_DEFAULT,
    classify_strength,
    label_clusters,
    printable,
    render_report_table,
    save_report,
)
from .preprocess import PreprocessConfig, load_stopwords, preprocess_document


class UsageError(Exception):
    """Bad invocation: missing inputs, malformed flags, flag or config
    values of the wrong type or out of range. Exit code 2."""


REQUIRED = object()  # the default of an option a subcommand cannot run without


def _note(line: str) -> None:
    """Print one stderr line, escaped so that no name in it can break it."""
    print(printable(line), file=sys.stderr)


def load_corpus(dirpath: str | Path) -> Iterator[tuple[str, str]]:
    """Yield ``(file name, text)`` for each of a directory's documents, in
    lexicographic name order; the file name is the document id, so it must
    be valid UTF-8.

    The documents are read one at a time as the caller asks for them, so a
    caller that keeps only what it derives from each text holds one text
    at a time. Nothing is checked or read before the first ``next``; a
    missing directory, an unreadable file, or a directory with no documents
    (raised once the listing is exhausted) raises there or at the document
    that fails, after the documents before it have been yielded.

    Each file is read whole in one binary read and its bytes are decoded as
    UTF-8 exactly as written: a BOM is kept as U+FEFF and line endings are
    not rewritten, as no term depends on them."""
    dirpath = _existing_dir(dirpath)
    with os.scandir(dirpath) as listing:
        entries = sorted(listing, key=attrgetter("name"))
    # prefix + name is str(dirpath / name), without a Path per document
    prefix = "" if dirpath == Path(".") else os.path.join(dirpath, "")
    found = False
    for entry in entries:
        name = entry.name
        if name.startswith("."):
            continue
        path = prefix + name
        try:
            is_file = entry.is_file()
        except OSError:  # Path.is_file reads a symlink loop as no file and raises the rest
            is_file = Path(path).is_file()
        if not is_file:
            continue
        try:
            name.encode("utf-8")  # undecodable bytes arrive as lone surrogates
        except UnicodeEncodeError:
            raise ValueError(f"file name is not valid UTF-8: {path!r}") from None
        try:
            with open(path, "rb", buffering=0) as f:
                text = f.read().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
        found = True
        yield name, text
    if not found:
        raise ValueError(f"no documents in {dirpath}")


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
    ok, what = {
        bool: (isinstance(value, bool), "true or false"),
        int: (is_integer(value), "an integer"),
        float: (is_number(value) and abs(value) <= sys.float_info.max, "a finite number"),
        str: (isinstance(value, str) and "\0" not in value, "a string without NUL"),
        list: (isinstance(value, list) and value and all(isinstance(v, str) for v in value),
               "a non-empty list of strings"),
    }[kind]
    if not ok:
        raise UsageError(f"{name} must be {what}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def _settings(args) -> dict:
    """Each option's value: its flag's, else the config file's, else its
    declared default, which is the library's where it has one. An option
    with none (``--init-file``) is left out. The raw ``preprocess`` block
    and the ``--config`` path, or None, ride along."""
    config = _load_config(args.config)
    unknown = sorted(config.keys() - args.config_keys)
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    settings = {"preprocess": config.get("preprocess", {}), "config": args.config}
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


def _preprocess_options(section) -> tuple[dict, Path | None]:
    """The ``preprocess`` block, checked but not read: its three switches
    and its stopword file, which must exist, or None (null) for the
    built-in list."""
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
        path = _existing_file(_option_value("config key preprocess.stopwords_file", path, str),
                              "stopwords file")
    return kwargs, path


def _preprocess_config(switches: dict, stopwords: Path | None) -> PreprocessConfig:
    """The preprocessing ``_preprocess_options`` gave, its stopword file read."""
    if stopwords is None:
        return PreprocessConfig(**switches)
    try:  # a file that is not UTF-8, or a stopword holding a space
        return PreprocessConfig(stopwords=load_stopwords(stopwords), **switches)
    except ValueError as exc:
        raise ValueError(f"invalid stopwords file {stopwords}: {exc}") from exc


def _existing_file(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _existing_dir(path: str | Path) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"corpus directory not found: {p}")
    return p


def _parse_samples(pairs: list[str]) -> dict[str, Path]:
    """Each label's sample directory, every one checked to exist before
    any is read."""
    samples = {}
    for pair in pairs:
        label, sep, dirpath = pair.partition("=")
        if not sep or not label or not dirpath:
            raise UsageError(f"--samples expects LABEL=DIR, got {pair!r}")
        if label in samples:
            raise UsageError(f"duplicate sample label: {label}")
        samples[label] = _existing_dir(dirpath)
    return samples


def _read_files(s: dict, *files: tuple[str, Path | None]) -> dict[Path, str]:
    """The files and corpus directories a command reads, each with what
    names it in a message: the ``--config`` file and ``files``, where a
    None path is an option not given."""
    return {Path(path): name for name, path in (("--config file", s["config"]), *files)
            if path is not None}


def _written_path(path: Path, what: str, kept: dict[Path, str]) -> Path:
    """``path``, if the command can write it without replacing a file it
    keeps: the one collision rule of every file written. ``kept`` holds
    each file the command reads, or writes first, and each corpus
    directory it reads, with what names it. Neither ``path`` nor the
    ``.NAME.tmp`` written through it may be a directory or one of those
    files, and ``path`` may not be a document of one of those directories:
    an existing file directly in it whose name does not begin with a dot.
    Two paths are one file when they are by inode, or, where one does not
    exist yet, by resolved path. Otherwise a usage error whose message
    begins with ``what``."""
    tmp = temporary_path(path)
    if path.is_dir():
        raise UsageError(f"{what} {path}, which is a directory")
    if tmp.is_dir():
        raise UsageError(f"{what} {path} through {tmp}, which is a directory")
    document = path.is_file() and not path.name.startswith(".")
    for file, name in kept.items():
        if file.is_dir():  # neither path is one, so only a document can collide
            if document and _same_file(path.parent, file):
                raise UsageError(f"{what} {path} over a document of the {name} {file}")
        elif _same_file(path, file) or _same_file(tmp, file):
            raise UsageError(f"{what} {path} over the {name} {file}")
    return path


def _same_file(a: Path, b: Path) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _output_path(path: str, reads: dict[Path, str]) -> Path:
    """The ``--out`` file, if ``write_json`` can write it and
    ``_written_path`` lets it replace none of ``reads``, the files the
    command reads."""
    try:
        temporary_path(path)
    except ValueError as exc:
        raise UsageError(f"--out: {exc}") from exc
    return _written_path(Path(path), "--out writes", reads)


def _profile_path(label: str, out: Path, reads: dict[Path, str]) -> Path:
    """The label's ``<label>.profile.json`` next to ``out``; a label that
    cannot name a file of its own there, or names one of ``reads`` or the
    ``--out`` file, is a usage error. A lone surrogate is a byte that is
    not UTF-8."""
    if any(ch in "/\0" or "\ud800" <= ch <= "\udfff" for ch in label):
        raise UsageError(f"--samples label must be valid UTF-8 without '/' or NUL, got {label!r}")
    path = out.parent / f"{label}.profile.json"
    try:
        temporary_path(path)
    except ValueError:
        raise UsageError(f"--samples label is too long for its profile file name, got {label!r}") from None
    return _written_path(path, f"--samples label {label!r} names its profile file",
                         {**reads, out: "--out file"})


def cmd_features(s: dict) -> int:
    samples = _parse_samples(s["samples"])
    switches, stopwords = _preprocess_options(s["preprocess"])
    reads = _read_files(s, ("preprocess.stopwords_file", stopwords),
                        *(("--samples directory", d) for d in samples.values()))
    out = _output_path(s["out"], reads)
    profile_paths = {label: _profile_path(label, out, reads) for label in samples}
    if len(samples) < 2:
        raise UsageError("need at least two --samples LABEL=DIR pairs")
    if s["top_k"] < 1:
        raise UsageError("top_k must be positive")
    pre = _preprocess_config(switches, stopwords)

    profiles = [
        build_profile(label, (preprocess_document(text, pre)
                              for _, text in load_corpus(samples[label])))
        for label in sorted(samples)
    ]
    selected = select_features(profiles, s["top_k"], s["min_ratio"], s["min_wf"])
    # a cluster is named by the WFs of its features alone (label_clusters),
    # so each profile file holds those, 0.0 where the label never saw one
    profiles = [LabeledProfile(p.label, {t: p.wf.get(t, 0.0) for t in selected})
                for p in profiles]

    save_feature_set(selected, out)
    _note(f"wrote {out}")
    for profile in profiles:
        save_profile(profile, profile_paths[profile.label])
        _note(f"wrote {profile_paths[profile.label]}")

    _print_ratio_table(profiles, selected, s["top_k"], s["min_ratio"], s["min_wf"])
    return 0


def _print_ratio_table(profiles, selected, top_k, min_ratio, min_wf) -> None:
    header = ["term"] + [f"wf[{printable(p.label)}]" for p in profiles] + ["ratio"]
    rows = []
    for term in selected:
        wfs = [p.wf[term] for p in profiles]
        rows.append([term] + [f"{wf:.4f}" for wf in wfs] + [f"{discrimination_ratio(wfs):.4f}"])
    widths = [max(len(r[k]) for r in [header] + rows) for k in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.rjust(w) if k else c.ljust(w) for k, (c, w) in enumerate(zip(r, widths))).rstrip())
    print(f"---- selected {len(rows)} feature(s): top_k={top_k} min_ratio={min_ratio:g} min_wf={min_wf:g} ----")


def cmd_cluster(s: dict) -> int:
    features_path = _existing_file(s["features"], "feature file")
    corpus = _existing_dir(s["corpus"])
    init_path = _existing_file(s["init_file"], "init file") if "init_file" in s else None
    switches, stopwords = _preprocess_options(s["preprocess"])
    out = _output_path(s["out"], _read_files(s, ("--features file", features_path),
                                             ("--init-file", init_path),
                                             ("preprocess.stopwords_file", stopwords),
                                             ("--corpus directory", corpus)))
    pre = _preprocess_config(switches, stopwords)

    # checked below, once the document count is known, and given to the
    # params as the checked array
    init = None if init_path is None else read_json(init_path)
    try:
        params = FcmParams(
            c=s["clusters"], fuzzifier=s["fuzzifier"], epsilon=s["epsilon"],
            max_iters=s["max_iters"], seed=s["seed"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    selected = load_feature_set(features_path)

    doc_ids, rows = [], []
    for doc_id, text in load_corpus(corpus):
        terms = preprocess_document(text, pre)
        if not terms:
            _note(f"warning: skipping empty document: {doc_id}")
            continue
        doc_ids.append(doc_id)
        rows.append(vectorize(terms, selected))
    if params.c > len(rows):
        raise ValueError(f"cluster count {params.c} exceeds surviving document count {len(rows)}")
    if init_path is not None:  # a file holding null is no partition either
        try:
            init = validate_partition(init, n=len(rows), c=params.c)  # frees the JSON list
        except ValueError as exc:
            raise ValueError(f"invalid init file {init_path}: {exc}") from exc
        params = replace(params, init=init)
    matrix = FeatureMatrix(doc_ids=tuple(doc_ids), data=np.array(rows, dtype=float))
    zero_rows = int(np.count_nonzero(~matrix.data.any(axis=1)))
    if zero_rows:  # clustering cannot tell these documents apart
        _note(f"warning: {zero_rows} document(s) contain none of the selected features")
    result = run_fcm(matrix, params)

    save_result(result, matrix.doc_ids, selected, out)
    _note(f"wrote {out}")
    print(f"iterations: {result.iterations}")
    print(f"converged: {'true' if result.converged else 'false'}")
    print(f"objective: {result.objective_history[-1]!r}")
    return 0


def cmd_report(s: dict) -> int:
    result_path = _existing_file(s["result"], "result file")
    profile_paths = [_existing_file(p, "profile file") for p in s["profiles"]]
    out = _output_path(s["out"], _read_files(s, ("--result file", result_path),
                                             *(("--profiles file", p) for p in profile_paths)))

    result = load_result(result_path)
    profiles = [_covering_profile(p, result["features"], result_path) for p in profile_paths]
    labeling = label_clusters(result["centers"], profiles, result["features"])
    try:
        report = classify_strength(result["memberships"], result["doc_ids"], labeling,
                                   s["strong_threshold"], s["ambiguity_margin"])
    except ValueError as exc:  # bad thresholds: load_result has checked the rest
        raise UsageError(str(exc)) from exc

    report = report.by_top_label()
    save_report(report, out)
    _note(f"wrote {out}")
    print(render_report_table(report))
    return 0


def _covering_profile(path: Path, features: list[str], result_path: Path) -> LabeledProfile:
    """The profile a file holds, if it has a WF for each of the result's
    features: a file that ``features`` wrote for another feature set would
    otherwise name the clusters from WF 0."""
    profile = load_profile(path)
    missing = next((t for t in features if t not in profile.wf), None)
    if missing is not None:
        raise ValueError(f"profile file {path} has no WF for feature {missing!r} of {result_path}: "
                         "it was written for another feature set; run features again")
    return profile


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
    option("--top-k", int, TOP_K_DEFAULT)
    option("--min-ratio", float, MIN_RATIO_DEFAULT)
    option("--min-wf", float, MIN_WF_DEFAULT)
    option("--out", default="features.json", help="feature file to write (profiles go next to it)")

    option = command("cluster", cmd_cluster, "cluster a corpus with fuzzy c-means")
    option("--corpus", default=REQUIRED, help="directory of UTF-8 text/HTML documents")
    option("--features", default=REQUIRED, help="feature file from the features command")
    option("--clusters", int, REQUIRED)
    option("--fuzzifier", float, FcmParams.fuzzifier)
    option("--epsilon", float, FcmParams.epsilon)
    option("--max-iters", int, FcmParams.max_iters)
    option("--seed", int, FcmParams.seed)
    option("--init-file", help="JSON c x n matrix used as the starting partition")
    option("--out", default="result.json", help="result file to write")

    option = command("report", cmd_report, "label clusters and report membership strength")
    option("--result", default=REQUIRED, help="result file from the cluster command")
    option("--profiles", list, REQUIRED, metavar="FILE", help="profile file; repeat for each label")
    option("--strong-threshold", float, STRONG_THRESHOLD_DEFAULT)
    option("--ambiguity-margin", float, AMBIGUITY_MARGIN_DEFAULT)
    option("--out", default="report.json", help="report file to write")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(_settings(args))
    except (UsageError, ValueError, OSError) as exc:
        # one line, though the message quotes a path or a key holding a line break
        _note(f"error: {exc}")
        return 2 if isinstance(exc, UsageError) else 1
    except MemoryError as exc:  # run_fcm's c x n arrays, among others: see the README
        _note(f"error: out of memory ({exc})" if str(exc) else "error: out of memory")
        return 1


if __name__ == "__main__":
    sys.exit(main())
