#!/usr/bin/env python3
"""Compare two output trees cell by cell, with numeric moves against their CIs.

Usage: python3 scripts/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are directories written by the same commands, for
example the golden preset outputs and a fresh run of them:

    python3 scripts/compare_outputs.py tests/golden /tmp/goldens

(`PYTHONPATH=src python3 tests/goldens.py /tmp/goldens` writes the second
tree). The script reads the files with the standard library only, so it
does not depend on the program whose outputs it checks. It skips files
named made_on.txt, the record of the numpy version and BLAS core the
goldens were written on.

It exits 1 and names the first difference of each file when the two trees
hold different file names, a CSV differs in its header, its row count, a
metadata value, any cell that is not a finite number (error, flag and text
cells, nan and inf included), any cell whose text differs while its
numbers are equal (0.1 against 0.10) or in bytes outside its cells (blank
lines, line ends), or any other file differs in its bytes. Otherwise it
prints one line per CSV column whose numbers moved: the largest |delta|,
the largest relative |delta| (|a - b| / max(|a|, |b|)) and, where the row
has a 95% CI for the column, the largest |delta| / CI, taken from the
parent's row. So it prints nothing exactly when the trees are
byte-identical, and exits 0 whenever only finite numbers moved.
"""

import csv
import math
import sys
from pathlib import Path

# Written beside the goldens by tests/goldens.py; not an output.
RECORD = "made_on.txt"

# Column -> function of the parent's row giving that column's 95% CI.
_CI = {
    "frequency_khz": lambda row: row.get("frequency_ci_khz"),
    "amplitude": lambda row: row.get("amplitude_ci"),
    "gamma": lambda row: row.get("gamma_ci"),
    "fraction_a": lambda row: row.get("fraction_a_ci"),
    "tau_ms": lambda row: (row["gamma_ci"] / row["gamma"] ** 2
                           if row.get("gamma_ci") is not None and row.get("gamma")
                           else None),
}


def _numbers(cell):
    """The cell's ';'-separated finite numbers, or None if it is text."""
    if cell == "":
        return None
    try:
        values = [float(part) for part in cell.split(";")]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def _read(path):
    """Metadata (key, value) pairs, header and rows of a '#'-commented CSV."""
    metadata = []
    data = []
    with open(path, newline="", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                # the value exactly as written after '# key: '
                key, _, value = line[1:].rstrip("\r\n").partition(":")
                metadata.append((key.strip(), value.removeprefix(" ")))
            elif line.strip():
                data.append(line)
    rows = list(csv.reader(data))
    return metadata, (rows[0] if rows else []), rows[1:]


def _record(moves, column, a, b, ci):
    """Fold one moved number into moves[column]: the largest |delta|,
    relative |delta| and |delta| / CI (None while no CI was seen)."""
    if a == b:
        return
    delta = abs(a - b)
    stats = moves.setdefault(column, [0.0, 0.0, None])
    stats[0] = max(stats[0], delta)
    stats[1] = max(stats[1], delta / max(abs(a), abs(b)))
    if ci is not None and ci > 0 and math.isfinite(ci):
        stats[2] = max(stats[2] or 0.0, delta / ci)


def _compare_csv(name, parent, change, moves):
    """Record numeric moves; return the first structural difference, or None."""
    meta_a, header_a, rows_a = _read(parent)
    meta_b, header_b, rows_b = _read(change)
    if [k for k, _ in meta_a] != [k for k, _ in meta_b]:
        return f"{name}: metadata keys differ"
    if header_a != header_b:
        return f"{name}: header differs"
    if len(rows_a) != len(rows_b):
        return f"{name}: {len(rows_a)} rows against {len(rows_b)}"
    cells = [(f"# {key}", va, vb, None)
             for (key, va), (_, vb) in zip(meta_a, meta_b)]
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
        if len(row_a) != len(header_a) or len(row_b) != len(header_a):
            return f"{name}: row {line} does not match the header"
        numeric = {c: _numbers(v) for c, v in zip(header_a, row_a)}
        numeric = {c: v[0] for c, v in numeric.items() if v and len(v) == 1}
        for column, va, vb in zip(header_a, row_a, row_b):
            ci = _CI[column](numeric) if column in _CI else None
            cells.append((column, va, vb, ci))
    for column, va, vb, ci in cells:
        if va == vb:
            continue
        xa, xb = _numbers(va), _numbers(vb)
        if xa is None or xb is None or len(xa) != len(xb) or xa == xb:
            return f"{name}: column {column}: {va!r} against {vb!r}"
        for a, b in zip(xa, xb):
            _record(moves, (name, column), a, b, ci)
    if not any(file == name for file, _ in moves):
        return f"{name}: bytes differ outside its cells"
    return None


def compare(parent, change):
    """Return (structural differences, numeric moves) between two trees."""
    parent, change = Path(parent), Path(change)
    files_a = {p.relative_to(parent) for p in parent.rglob("*")
               if p.is_file() and p.name != RECORD}
    files_b = {p.relative_to(change) for p in change.rglob("*")
               if p.is_file() and p.name != RECORD}
    problems = [f"only in {parent}: {p}" for p in sorted(files_a - files_b)]
    problems += [f"only in {change}: {p}" for p in sorted(files_b - files_a)]
    moves = {}
    for rel in sorted(files_a & files_b):
        a, b = parent / rel, change / rel
        if a.read_bytes() == b.read_bytes():
            continue
        if rel.suffix != ".csv":
            problems.append(f"{rel}: bytes differ")
            continue
        problem = _compare_csv(str(rel), a, b, moves)
        if problem:
            problems.append(problem)
    return problems, moves


def report(problems, moves):
    """The lines main prints: one per moved column, then one per difference."""
    lines = []
    for (name, column), (delta, rel, per_ci) in sorted(moves.items()):
        ci_text = "" if per_ci is None else f"  |d|/CI {per_ci:.2e}"
        lines.append(f"{name}  {column}  max|d| {delta:.2e}  rel {rel:.2e}{ci_text}")
    return lines + [f"DIFFERS: {problem}" for problem in problems]


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    problems, moves = compare(*argv)
    for line in report(problems, moves):
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
