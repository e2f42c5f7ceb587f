"""The JSON files the pipeline stages hand to each other.

Every file is UTF-8 with LF line endings, keeps non-ASCII text as is and
ends in a newline. A top-level array or object holds one element or
member per line, indented by two spaces, each written on its line as
``json.dumps`` writes it without indent (so a ``report.json`` has one
document per line); an empty container or a scalar is one line. A
top-level member whose value is an iterator is written as an array, one
element at a time, in the bytes ``json.dumps`` writes for the list of its
elements, so a large array is never built as one list or string. A file
is written whole or not at all: ``write_json``, and ``write_json_array``
for an array whose elements the caller has encoded, stream into a
temporary dot file next to the target and rename it over the target
only once the last line has been written.
A missing directory on the way to the target is created. A target whose
temporary name passes the 255-byte file name limit is refused before
anything is written.

A value read from outside that should hold numbers -- a profile's WFs, a
partition's memberships, cluster centers -- passes one rule,
``checked_numbers``: a number is a Python or numpy int or float, never a
bool; a list as JSON loads it holds only numbers, or at the depth of a
matrix's rows only lists of numbers; and each number lies in [0, high].
``is_number`` is its type test for one value.

A list of names -- doc ids, feature terms, profile labels -- passes one
rule, ``checked_names``, on both sides of each file: a name list is a
non-empty list or tuple of unique, non-empty strings.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = ["checked_names", "checked_numbers", "is_number", "read_json", "temporary_path",
           "write_json", "write_json_array"]

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
    """Replace ``path`` with ``payload`` as JSON, an iterator member of a
    top-level object as the array of its elements. A write that fails leaves
    the previous file, or none, and no temporary file; a string that cannot
    be encoded as UTF-8, or a name too long, raises ValueError naming
    ``path``."""
    _write(_chunks(payload), path)


def write_json_array(members: Iterable[str], path: str | Path) -> None:
    """Replace ``path`` with a JSON array of ``members``, each the text of
    one element as ``json.dumps`` writes it without indent, written one
    per line as :func:`write_json` writes a list. A write that fails does
    as :func:`write_json`'s does."""
    _write(_container(members, "[]"), path)


def _write(chunks: Iterable[str], path: str | Path) -> None:
    """Stream ``chunks`` into the temporary file and rename it over
    ``path``: the one write path of every file."""
    path = Path(path)
    tmp = temporary_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # open() rather than mkstemp, so the umask sets its mode as for any other output
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, UnicodeEncodeError):  # a lone surrogate in a string
            raise ValueError(f"cannot write {path}: {exc}") from exc
        raise


def _chunks(payload) -> Iterator[str]:
    """The text of ``payload``, one top-level element or member per line.
    Without indent the stdlib encodes in C; with it, in pure Python."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    if isinstance(payload, dict):
        yield from _container((_member(encode, key, value) for key, value in payload.items()),
                              "{}")
    elif isinstance(payload, (list, tuple)):
        yield from _container(map(encode, payload), "[]")
    else:
        yield encode(payload) + "\n"


def _member(encode, key, value) -> Iterator[str]:
    """The text of one object member. An iterator value is written as an
    array one element at a time, in the bytes ``json.dumps`` writes for
    the list of its elements, so that list is never built."""
    if not isinstance(value, Iterator):
        # a one-member object encodes its key exactly as the whole object would
        yield encode({key: value})[1:-1]
        return
    yield encode({key: []})[1:-2]  # '"key": ['
    separator = ""
    for element in value:
        yield separator
        yield encode(element)
        separator = ", "
    yield "]"


def _container(members: Iterable[str | Iterator[str]], brackets: str) -> Iterator[str]:
    """An array or object of members, each its text or an iterator over its
    chunks of text, on its own line indented by two spaces; an empty one
    is one line."""
    separator = opening = brackets[0] + "\n  "
    for member in members:
        yield separator
        if isinstance(member, str):
            yield member
        else:
            yield from member
        separator = ",\n  "
    yield brackets + "\n" if separator is opening else "\n" + brackets[1] + "\n"


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
    """Whether a value is a number: a Python or numpy int or float, never a
    bool (``true`` loads from JSON as an int)."""
    return _number_type(type(value))


def _number_type(kind: type) -> bool:
    return issubclass(kind, (int, float, np.integer, np.floating)) and not issubclass(kind, bool)


def checked_numbers(value, what: str, high: float, ndim: int) -> np.ndarray:
    """``value`` as a float64 array, if it is a numpy array of numbers or a
    number or a list of numbers nested up to ``ndim`` deep, as JSON loads
    them, and each number lies in [0, high]. Otherwise ValueError, ``WHAT
    must be numbers`` (a list nested deeper holds lists, not numbers) or
    ``WHAT must lie in [0, HIGH]`` (NaN and an int past the float range
    among them). The caller checks the shape."""
    try:
        a = np.asarray(value, dtype=float)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{what} must lie in [0, {high:g}]") from None
    except (TypeError, ValueError):  # ragged lists, or values no float() reads
        raise ValueError(f"{what} must be numbers") from None
    # by type, as the conversion also reads "5", true and null
    leaves = [value]
    for _ in range(min(a.ndim, ndim)):
        leaves = chain.from_iterable(leaves)
    kinds = {value.dtype.type} if isinstance(value, np.ndarray) else set(map(type, leaves))
    if not all(map(_number_type, kinds)):
        raise ValueError(f"{what} must be numbers")
    if not np.all((a >= 0) & (a <= high)):  # NaN fails both bounds
        raise ValueError(f"{what} must lie in [0, {high:g}]")
    return a


def checked_names(value, what: str) -> tuple[str, ...]:
    """``value`` as a tuple, if it is a non-empty list or tuple of unique,
    non-empty strings; otherwise ValueError, ``WHAT must be unique
    non-empty strings``. The element types are tested before the names
    are hashed, so a nested JSON list gets the message, not a TypeError."""
    if not (isinstance(value, (list, tuple))
            and all(issubclass(kind, str) for kind in set(map(type, value)))
            and "" not in (names := set(value)) and 0 < len(names) == len(value)):
        raise ValueError(f"{what} must be unique non-empty strings")
    return tuple(value)
