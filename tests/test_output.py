import math
import os
import stat
import xml.etree.ElementTree as ET
from xml.sax import saxutils

import numpy as np
import pytest

from rabisim import output
from rabisim.output import format_value, read_csv, write_csv, write_svg_lines


def test_format_value_conventions():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(float("nan")) == "nan"
    assert format_value(0.1) == "0.1"
    assert format_value(1.0 / 3.0) == "0.333333333333"
    assert format_value(9) == "9"
    assert format_value("text") == "text"
    assert format_value(math.inf) == "inf"


def test_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    columns = ("a", "b", "flag")
    rows = [(1.5, float("nan"), True), (-2.0, 0.25, False), (0.0, 'x, "y"', "")]
    write_csv(path, columns, rows, metadata={"tool": "demo", "seed": 7})
    meta, cols, data = read_csv(path)
    assert meta["tool"] == "demo"
    assert meta["seed"] == "7"
    assert cols == list(columns)
    assert data[0] == ["1.5", "nan", "true"]
    assert data[1] == ["-2", "0.25", "false"]
    assert data[2] == ["0", 'x, "y"', ""]


def test_csv_metadata_values_read_back_exactly(tmp_path):
    # A value is what follows '# key: ' up to the line end: its own spaces
    # and any ': ' inside it are kept.
    path = tmp_path / "out.csv"
    metadata = {"scenario": "  padded name ", "note": "a: b: c", "empty": ""}
    write_csv(path, ("x",), [(1.0,)], metadata=metadata)
    meta, cols, data = read_csv(path)
    assert meta == metadata
    assert cols == ["x"] and data == [["1"]]


def test_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a", "b"), [(1.0,)], metadata={})


def test_csv_write_is_deterministic(tmp_path):
    rows = [(0.1 * i, i) for i in range(20)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ("x", "n"), rows, metadata={"k": "v"})
    write_csv(p2, ("x", "n"), rows, metadata={"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("x",), [(1.0,)], metadata={})
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failed_replace_leaves_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(output.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_csv(path, ("x",), [(1.0,)], metadata={})
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert path.read_text() == "old\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_csv_mode_follows_umask(tmp_path, umask, mode):
    # The mode a plain open() would give, not the temp file's 0600.
    saved = os.umask(umask)
    try:
        write_csv(tmp_path / "out.csv", ("x",), [(1.0,)], metadata={})
    finally:
        os.umask(saved)
    assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == mode


def test_svg_basic_structure(tmp_path):
    path = tmp_path / "plot.svg"
    xs = np.linspace(0.0, 1.0, 50)
    write_svg_lines(
        path,
        [("first", xs, np.sin(xs)), ("second", xs, np.cos(xs))],
        x_label="t (ms)",
        y_label="signal",
        title="demo",
    )
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") >= 2
    assert "first" in text and "second" in text
    assert "t (ms)" in text


def test_svg_nan_breaks_line_into_segments(tmp_path):
    path = tmp_path / "gap.svg"
    xs = np.arange(10.0)
    ys = np.sin(xs)
    ys[4] = np.nan
    write_svg_lines(path, [("gappy", xs, ys)], x_label="x", y_label="y")
    text = path.read_text()
    assert text.count("<polyline") == 2


def test_svg_singleton_run_becomes_marker(tmp_path):
    path = tmp_path / "dot.svg"
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([np.nan, 0.5, np.nan])
    write_svg_lines(path, [("lone", xs, ys)], x_label="x", y_label="y")
    text = path.read_text()
    assert "<circle" in text


def test_svg_with_nothing_finite_is_an_empty_frame(tmp_path):
    path = tmp_path / "empty.svg"
    nan = np.full(3, np.nan)
    write_svg_lines(path, [("errors", nan, nan)], x_label="x", y_label="y",
                    title="t")
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "<polyline" not in text and "<circle" not in text
    assert "errors" in text and ">x<" in text


def test_svg_deterministic(tmp_path):
    xs = np.linspace(0.0, 2.0, 30)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for p in (p1, p2):
        write_svg_lines(p, [("s", xs, np.sin(xs))], x_label="x", y_label="y", title="t")
    assert p1.read_bytes() == p2.read_bytes()


def test_svg_text_is_escaped(tmp_path):
    # Title, axis labels and legend come from scenario text; <, & and > in
    # them must leave the file well-formed XML.
    path = tmp_path / "escaped.svg"
    xs = np.linspace(0.0, 1.0, 5)
    write_svg_lines(path, [("x > 0 & y", xs, xs)], x_label="t<1", y_label="&",
                    title="a<b&c")
    texts = [el.text for el in ET.parse(path).getroot()
             if el.tag.endswith("text")]
    assert {"a<b&c", "t<1", "&", "x > 0 & y"} <= set(texts)
    for text in ("a<b&c", "&amp;", "x > 0", "plain"):
        assert output._escape(text) == saxutils.escape(text)
