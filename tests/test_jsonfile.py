import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzydocs.jsonfile import checked_names, checked_numbers, is_number, read_json, temporary_path, write_json


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def test_format(tmp_path):
    """One top-level element or member per line, each as json.dumps writes it."""
    shapes = [
        ({"label": "sports", "wf": {"ball": 12.5, "team": 0.1}, "rows": [[1, 2], []]},
         '{\n  "label": "sports",\n  "wf": {"ball": 12.5, "team": 0.1},\n'
         '  "rows": [[1, 2], []]\n}\n'),
        (["team", 1, 2.5, None, True, {"a": [1, {"b": {}}]}],
         '[\n  "team",\n  1,\n  2.5,\n  null,\n  true,\n  {"a": [1, {"b": {}}]}\n]\n'),
        ({}, "{}\n"),
        ([], "[]\n"),
        (0.1, "0.1\n"),
        ("café", '"café"\n'),
        ({"étiquette": ["café", "naïve ☃"]}, '{\n  "étiquette": ["café", "naïve ☃"]\n}\n'),
    ]
    path = tmp_path / "out.json"
    for payload, expected in shapes:
        write_json(payload, path)
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_json(path) == payload
    assert leftovers(tmp_path) == []


def test_keys_as_json_dumps_writes_them(tmp_path):
    path = tmp_path / "out.json"
    payload = {1: "int", 2.5: "float", False: "bool", None: "null", "1": "str"}
    write_json(payload, path)
    text = path.read_text("utf-8")
    assert text == ('{\n  "1": "int",\n  "2.5": "float",\n  "false": "bool",\n'
                    '  "null": "null",\n  "1": "str"\n}\n')
    assert text == json.dumps(payload, indent=2) + "\n"
    with pytest.raises(TypeError):
        write_json({(1, 2): "tuple"}, path)
    assert leftovers(tmp_path) == []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_round_trip_in_c_and_python(value):
    """Every value reads back equal, and the pure-Python encoder writes the
    same bytes as the C one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json(value, path)
        written = path.read_bytes()
        assert read_json(path) == value
        with mock.patch("json.encoder.c_make_encoder", None):
            write_json(value, path)
        assert path.read_bytes() == written


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), st.lists(JSON_VALUES, max_size=4) | JSON_VALUES, max_size=4))
def test_iterator_member_writes_the_bytes_of_its_list(payload):
    """A top-level member whose value is an iterator is written as the
    array of its elements, byte for byte as the list would be."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json(payload, path)
        as_lists = path.read_bytes()
        write_json({key: iter(value) if isinstance(value, list) else value
                    for key, value in payload.items()}, path)
        assert path.read_bytes() == as_lists


def test_iterator_member_format(tmp_path):
    path = tmp_path / "out.json"
    write_json({"rows": (row for row in [[1.5, -0.0], [5e-324]]), "none": iter(()), "n": 1}, path)
    assert path.read_text("utf-8") == ('{\n  "rows": [[1.5, -0.0], [5e-324]],\n'
                                       '  "none": [],\n  "n": 1\n}\n')


def test_unencodable_iterator_element_keeps_previous_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"previous\n")
    rows = ("x" * 100_000 if i < 3 else "\udcff" for i in range(4))
    with pytest.raises(ValueError, match=re.escape(f"cannot write {path}")):
        write_json({"rows": rows}, path)
    assert path.read_bytes() == b"previous\n"
    assert leftovers(tmp_path) == []


def test_creates_missing_directory(tmp_path):
    path = tmp_path / "a" / "b" / "out.json"
    write_json([1], path)
    assert read_json(path) == [1]
    assert leftovers(path.parent) == []


def test_name_too_long_for_its_temporary_file(tmp_path):
    # .NAME.tmp adds five bytes to the 255-byte name limit
    longest = tmp_path / "out" / ("f" * 245 + ".json")
    write_json([1], longest)
    assert read_json(longest) == [1]
    path = tmp_path / "new" / ("f" * 246 + ".json")
    with pytest.raises(ValueError, match=re.escape(f"file name too long to write: {path}")):
        write_json([1], path)
    with pytest.raises(ValueError, match="file name too long"):
        temporary_path(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"previous\n")
    # the encoder has streamed the first key before it meets the set
    with pytest.raises(TypeError):
        write_json({"rows": list(range(1000)), "bad": {1, 2}}, path)
    assert path.read_bytes() == b"previous\n"
    assert leftovers(tmp_path) == []


def test_unencodable_later_member_keeps_previous_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"previous\n")
    # the first member outgrows the write buffer, so it reaches the file
    with pytest.raises(ValueError, match=re.escape(f"cannot write {path}")):
        write_json({"text": "x" * 100_000, "bad": ["ok", "\udcff"]}, path)
    assert path.read_bytes() == b"previous\n"
    assert leftovers(tmp_path) == []


def test_unencodable_string_names_the_file(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match=re.escape(f"cannot write {path}")):
        write_json(["ok", "\udcff"], path)
    assert list(tmp_path.iterdir()) == []


def test_mode_follows_umask(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("[]\n", encoding="utf-8")
    path.chmod(0o600)
    old = os.umask(0o027)
    try:
        write_json([], path)
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o640


def test_symlink_is_replaced_not_followed(tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(b"kept\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_json([1], link)
    assert not link.is_symlink()
    assert read_json(link) == [1]
    assert target.read_bytes() == b"kept\n"


@pytest.mark.parametrize("data", [b"[1,\n", b'["\xff"]', b"", b"[" * 200_000],
                         ids=["truncated", "not-utf8", "empty", "deeply-nested"])
def test_unparsable_file_names_itself(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"cannot parse {path}")):
        read_json(path)


@pytest.mark.parametrize("value,ndim,expected", [
    pytest.param(0, 0, 0.0, id="int-low"),
    pytest.param(10000, 0, 10000.0, id="int-high"),
    pytest.param([0.5, 7], 1, [0.5, 7.0], id="list"),
    pytest.param([[1, 2.5], [0, 0]], 2, [[1.0, 2.5], [0.0, 0.0]], id="rows"),
    pytest.param([np.float64(2.5), np.int64(3), np.float32(0.5)], 1, [2.5, 3.0, 0.5],
                 id="numpy-scalars"),
    pytest.param(np.array([[1, 2], [3, 4]]), 2, [[1.0, 2.0], [3.0, 4.0]], id="int-array"),
    pytest.param(5.0, 2, 5.0, id="shallower-than-ndim"),
])
def test_checked_numbers_accepts_numbers_in_range(value, ndim, expected):
    a = checked_numbers(value, "values", 10000, ndim)
    assert a.dtype == np.float64
    assert a.tolist() == expected


@pytest.mark.parametrize("value", [
    pytest.param(True, id="bool"),
    pytest.param([1.0, True], id="bool-in-list"),
    pytest.param(np.bool_(True), id="numpy-bool"),
    pytest.param(np.array([True, False]), id="bool-array"),
    pytest.param("5", id="numeric-string"),
    pytest.param([1.0, None], id="null"),
    pytest.param([1.0, {"a": 1}], id="object"),
    pytest.param([[1.0], [2.0]], id="nested-deeper"),
    pytest.param([[1.0], 2.0], id="ragged"),
    pytest.param([1.0, [2.0, 3.0]], id="list-among-numbers"),
])
def test_checked_numbers_refuses_what_is_no_number(value):
    with pytest.raises(ValueError, match=r"^values must be numbers$"):
        checked_numbers(value, "values", 10, 1)


@pytest.mark.parametrize("value", [
    pytest.param(-1, id="negative"),
    pytest.param([10.5], id="above"),
    pytest.param([float("nan")], id="nan"),
    pytest.param(json.loads("[1e999]"), id="infinite"),
    pytest.param([10 ** 400], id="int-past-float"),
    pytest.param(np.array([[0.0, -0.5]]), id="array"),
])
def test_checked_numbers_refuses_numbers_out_of_range(value):
    with pytest.raises(ValueError, match=re.escape("values must lie in [0, 10]")):
        checked_numbers(value, "values", 10, 2)


def test_is_number_is_the_same_type_test():
    for value in (0, 2.5, 10 ** 400, np.float64(1.0), np.int32(1)):
        assert is_number(value)
    for value in (True, np.bool_(False), "5", None, [1.0]):
        assert not is_number(value)


@pytest.mark.parametrize("value", [
    pytest.param(["b", "a"], id="list"),
    pytest.param(("a", "café", " "), id="tuple"),
    pytest.param([np.str_("a"), "b"], id="numpy-str"),
])
def test_checked_names_accepts_unique_non_empty_strings(value):
    assert checked_names(value, "names") == tuple(value)


@pytest.mark.parametrize("value", [
    pytest.param([], id="empty"),
    pytest.param((), id="empty-tuple"),
    pytest.param(None, id="null"),
    pytest.param("ab", id="string"),
    pytest.param({"a": 1}, id="object"),
    pytest.param([1], id="number"),
    pytest.param(["a", None], id="null-among-names"),
    pytest.param(["a", True], id="bool"),
    pytest.param(["a", "a"], id="repeated"),
    pytest.param([""], id="empty-name"),
    # unhashable: a set built before the type test would raise TypeError
    pytest.param([["a"]], id="nested-list"),
    pytest.param(["a", {"b": 1}], id="object-among-names"),
])
def test_checked_names_refuses_what_is_no_name_list(value):
    with pytest.raises(ValueError, match=r"^names must be unique non-empty strings$"):
        checked_names(value, "names")
