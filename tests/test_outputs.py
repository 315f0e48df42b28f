"""The two writers every output file goes through: their bytes, exactly."""

import enum
import json
import math

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
