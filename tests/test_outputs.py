"""The two writers every output file goes through: their bytes, exactly."""

import enum
import json
import math
import os

import pytest
from hypothesis import example, given, strategies as st

from pmu_prospector.outputs import write_csv, write_json

class _Level(enum.IntEnum):
    HIGH = 7


class _Kind(str, enum.Enum):
    LOAD = "load"


scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(1 << 100), 1 << 100)
    | st.floats()  # includes -0.0, NaN and the infinities
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))  # control characters only
)
documents = st.recursive(
    scalars,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40,
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("outputs") / "doc.json"


@given(documents)
@example({"empty": {}, "none": [], "nested": {"a": [[], {}, [1, [2, {}]]]}})
@example(["é 😀", "\x00\x1f\"\\/", {"ключ": "值"}])
@example([1 << 64, -(1 << 70), True, False, None, 1, 2.0])
@example([[1, True], [0, False], [_Level.HIGH], {"kind": _Kind.LOAD, "level": _Level.HIGH}])
@example([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf, 5e-324])
@example({"0x016C": [1, 3], "0x03D3": [2], "format": "pmu-prospector-scan-v1"})
@example({"a": [1, True], "b": []})  # objects of int lists, and their edges
@example({"a": [_Level.HIGH], "b": [2]})
@example({"t": [3, 1], "u": {"v": [2]}})
def test_json_bytes_equal_json_dumps(doc_path, doc):
    write_json(str(doc_path), doc)
    assert doc_path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_json_has_sorted_keys_two_space_indent_and_one_trailing_newline(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"b": [1, 2], "a": {"d": 0.5, "c": "x"}})
    assert path.read_bytes() == (
        b'{\n  "a": {\n    "c": "x",\n    "d": 0.5\n  },\n  "b": [\n    1,\n    2\n  ]\n}\n'
    )


def test_csv_has_the_header_first_crlf_line_ends_and_a_comma_quoted(tmp_path):
    path = tmp_path / "rows.csv"
    rows = (row for row in [("0x016C", "a,b"), ["0x03D3", 7]])  # callers pass generators
    write_csv(str(path), ["selector", "note"], rows)
    assert path.read_bytes() == b'selector,note\r\n0x016C,"a,b"\r\n0x03D3,7\r\n'


def test_a_shorter_rewrite_reuses_the_file_and_leaves_exactly_the_new_bytes(tmp_path):
    paths = json_path, csv_path = tmp_path / "doc.json", tmp_path / "rows.csv"
    write_json(str(json_path), {"tag": "x" * 5000})
    write_csv(str(csv_path), ["tag"], [["x" * 5000]])
    for path in paths:
        path.chmod(0o640)
    before = [(path.stat().st_ino, path.stat().st_mode) for path in paths]
    write_json(str(json_path), {"tag": "y"})
    write_csv(str(csv_path), ["tag"], [["y"]])
    assert [(path.stat().st_ino, path.stat().st_mode) for path in paths] == before
    assert json_path.read_bytes() == b'{\n  "tag": "y"\n}\n'
    assert csv_path.read_bytes() == b"tag\r\ny\r\n"
    assert not list(tmp_path.glob("*.partial"))


def test_a_failing_row_iterator_leaves_the_old_csv(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(str(path), ["n"], [[n] for n in range(100)])
    old = path.read_bytes()

    def rows():
        yield [1]
        raise RuntimeError("row 2")

    with pytest.raises(RuntimeError, match="row 2"):
        write_csv(str(path), ["n"], rows())
    assert path.read_bytes() == old
    assert not list(tmp_path.glob("*.partial"))


def test_through_a_symlink_the_target_is_rewritten_and_the_link_stays(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    write_json(str(target), list(range(100)))
    link.symlink_to(target.name)
    write_json(str(link), [1])
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == b"[\n  1\n]\n"
    assert not list(tmp_path.glob("*.partial"))
