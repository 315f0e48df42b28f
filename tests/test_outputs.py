"""The two writers every output file goes through: their bytes, exactly."""

from pmu_prospector.outputs import write_csv, write_json


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
