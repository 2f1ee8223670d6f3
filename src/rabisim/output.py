"""Deterministic file output: CSV tables with metadata headers, simple SVG plots.

Every file is written atomically (temp file in the target directory, then
rename), floats are formatted with %.12g, and nothing time- or
machine-dependent enters the bytes, so identical runs produce identical
files.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from pathlib import Path


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return "%.12g" % value
    return str(value)


def _atomic_write_text(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path, columns, rows, metadata=None):
    """Write a CSV with '#'-prefixed metadata lines, atomically.

    columns is the header name list; rows an iterable of sequences in the
    same order; metadata an ordered mapping rendered as '# key: value'
    lines above the header. A cell holding a comma, a quote or a line break
    is quoted, so an error message stays one cell.
    """
    buf = io.StringIO()
    for key, value in (metadata or {}).items():
        buf.write(f"# {key}: {format_value(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(
                f"row has {len(row)} fields, header has {len(columns)}")
        writer.writerow([format_value(v) for v in row])
    _atomic_write_text(path, buf.getvalue())


def read_csv(path):
    """Read back a write_csv file: (metadata dict, columns, rows of strings).
    A metadata value is all that follows '# key: ' up to the line end."""
    lines = Path(path).read_text().splitlines(keepends=True)
    metadata = {}
    n_meta = 0
    for raw in lines:
        if raw.strip() and not raw.startswith("#"):
            break
        key, sep, value = raw.rstrip("\r\n")[2:].partition(": ")
        if raw.startswith("# ") and sep:
            metadata[key] = value
        n_meta += 1
    table = [fields for fields in csv.reader(lines[n_meta:]) if fields]
    if not table:
        raise ValueError(f"{path} has no header row")
    return metadata, table[0], table[1:]


def _escape(text):
    """text with &, < and > escaped for XML character data, as
    xml.sax.saxutils.escape does; importing that module pulls in
    urllib.request and ssl, about 30 ms and 7 MB for three replacements."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f")


def _ticks(lo, hi, n=5):
    if not hi > lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def write_svg_lines(path, series, *, x_label="", y_label="", title=""):
    """Plot (label, x array, y array) series as polylines in one SVG.

    Deliberately small: fixed canvas, linear axes with a handful of ticks,
    a legend of colored labels. All text is escaped for XML. Non-finite
    points break the polyline; an axis with no finite value spans [0, 1],
    so a plot with nothing finite is the frame, the labels and the legend
    alone.
    """
    width, height = 640, 420
    margin_l, margin_r, margin_t, margin_b = 64, 16, 34, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    finite_x = [v for _, xs, _ in series for v in xs if math.isfinite(v)]
    finite_y = [v for _, _, ys in series for v in ys if math.isfinite(v)]
    x_lo, x_hi = (min(finite_x), max(finite_x)) if finite_x else (0.0, 1.0)
    y_lo, y_hi = (min(finite_y), max(finite_y)) if finite_y else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def sx(v):
        return margin_l + plot_w * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return margin_t + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.1f}" y1="{margin_t + plot_h}" '
                     f'x2="{x:.1f}" y2="{margin_t + plot_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{margin_t + plot_h + 18}" '
                     f'font-size="11" text-anchor="middle">{t:.6g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{margin_l - 5}" y1="{y:.1f}" '
                     f'x2="{margin_l}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{t:.6g}</text>')
    if title:
        parts.append(f'<text x="{width / 2}" y="20" font-size="14" '
                     f'text-anchor="middle">{_escape(title)}</text>')
    if x_label:
        parts.append(f'<text x="{margin_l + plot_w / 2}" y="{height - 10}" '
                     f'font-size="12" text-anchor="middle">{_escape(x_label)}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{margin_t + plot_h / 2}" font-size="12" '
                     f'text-anchor="middle" transform="rotate(-90 16 '
                     f'{margin_t + plot_h / 2})">{_escape(y_label)}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points = []
        runs = []
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                points.append(f"{sx(x):.2f},{sy(y):.2f}")
            elif points:
                runs.append(points)
                points = []
        if points:
            runs.append(points)
        for run in runs:
            if len(run) == 1:
                cx, cy = run[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" '
                             f'fill="{color}"/>')
            else:
                parts.append(f'<polyline points="{" ".join(run)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        if label:
            y_leg = margin_t + 14 + 16 * i
            x_leg = margin_l + plot_w - 150
            parts.append(f'<line x1="{x_leg}" y1="{y_leg - 4}" '
                         f'x2="{x_leg + 22}" y2="{y_leg - 4}" stroke="{color}" '
                         f'stroke-width="2"/>')
            parts.append(f'<text x="{x_leg + 28}" y="{y_leg}" '
                         f'font-size="11">{_escape(label)}</text>')
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")
