import json

import pytest

from memscrub.audit import Blocklist
from memscrub.store import parse_lines, write_lines

TEXTS = {
    "crlf": "h\r\na\r\nb\r\n",
    "lone-cr": "h\ra\rb",
    "u2028": "h\na\u2028b\n",
    "u0085": "h\na\x85b\n",
    "vt-ff-fs": "h\na\x0bb\x0cc\x1cd\x1ee\n",
    "empty-lines": "h\n\n\na\n\n",
    "header-only": "h\n",
    "empty": "",
    "crlf-across-8k": "h\n" + "x" * 8189 + "\r\ny\n",  # CR is byte 8 191, LF byte 8 192
}


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
def test_read_lines_equals_splitlines(tmp_path, text):
    path = tmp_path / "f.jsonl"
    path.write_bytes(text.encode("utf-8"))
    expected = path.read_text(encoding="utf-8").splitlines()
    assert parse_lines(list, (path, None)) == expected
    if expected[:1] == ["h"]:
        assert parse_lines(list, (path, "h")) == expected[1:]


@pytest.mark.parametrize("header", [None, "h"])
@pytest.mark.parametrize("lines", [
    [], [""], ["a", "b"], ["", "", "a", ""], ["a\r", "b\r\n"], ["x\u2028y", "\x85"],
], ids=["none", "one-empty", "plain", "empty-lines", "cr-crlf", "u2028-u0085"])
def test_write_lines_bytes_equal_joined_text(tmp_path, header, lines):
    path = tmp_path / "f.jsonl"
    write_lines(path, header, iter(lines))
    body = ([header] if header else []) + lines
    assert path.read_bytes() == ("\n".join(body) + "\n").encode("utf-8")


def test_non_utf8_file_is_a_value_error_naming_it(tmp_path):
    path = tmp_path / "nodes.jsonl"
    path.write_bytes(b"h\n{}\n\xff\xfe\n")
    with pytest.raises(ValueError, match="nodes.jsonl: not UTF-8"):
        parse_lines(list, (path, "h"))


def test_record_with_raw_u2028_is_rejected(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a":"x\u2028y"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="records.jsonl: malformed file"):
        parse_lines(lambda lines: [json.loads(line) for line in lines], (path, None))


def test_header_only_file_is_malformed(tmp_path):
    path = tmp_path / "blocklist.jsonl"
    path.write_text("h\n", encoding="utf-8")
    with pytest.raises(ValueError, match="blocklist.jsonl: malformed file: StopIteration"):
        parse_lines(Blocklist.from_lines, (path, "h"))
