"""The JSON files the pipeline stages hand to each other.

Every file is UTF-8 with LF line endings, keeps non-ASCII text as is and
ends in a newline. A top-level array or object holds one element or
member per line, indented by two spaces, each written on its line as
``json.dumps`` writes it without indent (so a ``report.json`` has one
document per line); an empty container or a scalar is one line. A file
is written whole or not at all: ``write_json`` streams into a temporary
dot file next to the target and renames it over the target only once
the last line has been written.
A missing directory on the way to the target is created. A target whose
temporary name passes the 255-byte file name limit is refused before
anything is written.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["is_number", "read_json", "temporary_path", "write_json"]

NAME_MAX = 255  # bytes in one file name on Linux and macOS file systems


def temporary_path(path: str | Path) -> Path:
    """The dot file ``write_json`` streams ``path`` into. A dot file, so a
    corpus directory never reads it as a document; a name too long for it
    raises ValueError naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    if len(os.fsencode(tmp.name)) > NAME_MAX:
        raise ValueError(f"file name too long to write: {path}")
    return tmp


def write_json(payload, path: str | Path) -> None:
    """Replace ``path`` with ``payload`` as JSON. A write that fails leaves
    the previous file, or none, and no temporary file; a string that cannot
    be encoded as UTF-8, or a name too long, raises ValueError naming
    ``path``."""
    path = Path(path)
    tmp = temporary_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # open() rather than mkstemp, so the umask sets its mode as for any other output
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            _dump(payload, f)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, UnicodeEncodeError):  # a lone surrogate in a string
            raise ValueError(f"cannot write {path}: {exc}") from exc
        raise


def _dump(payload, f) -> None:
    """Write ``payload`` to ``f`` one top-level element or member per line.
    Without indent the stdlib encodes in C; with it, in pure Python."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    if isinstance(payload, dict) and payload:
        brackets = "{}"
        # a one-member object encodes its key exactly as the whole object would
        members = (encode({key: value})[1:-1] for key, value in payload.items())
    elif isinstance(payload, (list, tuple)) and payload:
        brackets = "[]"
        members = map(encode, payload)
    else:
        f.write(encode(payload) + "\n")
        return
    separator = brackets[0] + "\n  "
    for member in members:
        f.write(separator)
        f.write(member)
        separator = ",\n  "
    f.write("\n" + brackets[1] + "\n")


def read_json(path: str | Path):
    """The value a JSON file holds; a file that is not UTF-8 JSON, or nests
    too deep for the parser, raises ValueError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    # JSONDecodeError and UnicodeDecodeError both are ValueErrors
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc


def is_number(value) -> bool:
    """Whether a value read from JSON is a number; ``true`` loads as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
