import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from goldens import GOLDEN, golden_report

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"

SCAN_CSV = """\
# tool: rabisim 0.1.0
# seed: 0
detuning_khz,frequency_khz,frequency_ci_khz,gamma,gamma_ci,tau_ms,indistinguishable,error
0,9.0,0.01,2.0,0.1,0.5,false,
2,9.2,0.02,2.5,0.2,0.4,true,
4,nan,nan,nan,nan,nan,false,fit did not converge
"""


def _tree(root, csv_text):
    (root / "scan").mkdir(parents=True)
    (root / "scan" / "scan.csv").write_text(csv_text)
    (root / "scan" / "scan.svg").write_text("<svg></svg>\n")
    return root


def _compare(parent, change):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_identical_trees_print_nothing(tmp_path):
    code, out = _compare(_tree(tmp_path / "a", SCAN_CSV), _tree(tmp_path / "b", SCAN_CSV))
    assert (code, out) == (0, "")


@pytest.mark.parametrize("old, new", [
    ("2.5,0.2,0.4,true,", "2.5,0.2,0.4,false,"),
    ("fit did not converge", "window too short"),
    ("nan,nan,false,fit", "1.0,nan,false,fit"),
], ids=["flag", "error_text", "non_finite"])
def test_text_or_non_finite_change_exits_1(tmp_path, old, new):
    code, out = _compare(_tree(tmp_path / "a", SCAN_CSV),
                         _tree(tmp_path / "b", SCAN_CSV.replace(old, new)))
    assert code == 1
    assert "DIFFERS: scan/scan.csv" in out


def test_moved_number_is_reported_against_its_ci(tmp_path):
    moved = SCAN_CSV.replace("2,9.2,0.02,2.5,0.2,0.4", "2,9.2,0.02,2.502,0.2,0.4")
    code, out = _compare(_tree(tmp_path / "a", SCAN_CSV), _tree(tmp_path / "b", moved))
    assert code == 0
    assert out.split() == ["scan/scan.csv", "gamma", "max|d|", "2.00e-03",
                           "rel", "7.99e-04", "|d|/CI", "1.00e-02"]


def test_file_set_and_svg_bytes_are_compared(tmp_path):
    parent = _tree(tmp_path / "a", SCAN_CSV)
    change = _tree(tmp_path / "b", SCAN_CSV)
    (change / "scan" / "scan.svg").write_text("<svg><polyline/></svg>\n")
    (change / "extra.csv").write_text("x\n1\n")
    (change / "made_on.txt").write_text("numpy 0\n")  # the goldens' record is skipped
    code, out = _compare(parent, change)
    assert code == 1
    assert "extra.csv" in out and "scan/scan.svg: bytes differ" in out
    assert "made_on.txt" not in out


@pytest.mark.parametrize("old, new", [
    ("# seed: 0\n", "# seed: 0 \n"),
    ("2,9.2,0.02", "2,9.20,0.02"),
    ("\n2,9.2", "\n\n2,9.2"),
], ids=["metadata_space", "same_number", "blank_line"])
def test_byte_difference_without_a_numeric_move_exits_1(tmp_path, old, new):
    # Every byte difference is reported, not only the ones that move a number.
    code, out = _compare(_tree(tmp_path / "a", SCAN_CSV),
                         _tree(tmp_path / "b", SCAN_CSV.replace(old, new)))
    assert code == 1
    assert "DIFFERS: scan/scan.csv" in out


def test_same_number_is_reported_beside_a_move(tmp_path):
    moved = SCAN_CSV.replace("2,9.2,0.02,2.5", "2,9.20,0.02,2.502")
    code, out = _compare(_tree(tmp_path / "a", SCAN_CSV), _tree(tmp_path / "b", moved))
    assert code == 1
    assert "DIFFERS: scan/scan.csv: column frequency_khz: '9.2' against '9.20'" in out


def _edit_golden(root, rel, edit):
    """Copy the goldens to root and apply edit(cells) to the first data row
    of rel whose cells are all finite numbers or empty; return root."""
    shutil.copytree(GOLDEN, root)
    path = root / rel
    lines = path.read_text().splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[start].rstrip("\n").split(",")
    for i in range(start + 1, len(lines)):
        cells = dict(zip(header, lines[i].rstrip("\n").split(",")))
        if cells.get("error") == "" and "nan" not in cells.values():
            edit(cells)
            lines[i] = ",".join(cells[c] for c in header) + "\n"
            break
    path.write_text("".join(lines))
    return root


def _move_frequency(fraction):
    def edit(cells):
        moved = float(cells["frequency_khz"]) + fraction * float(cells["frequency_ci_khz"])
        cells["frequency_khz"] = "%.12g" % moved
    return edit


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "tolerance"])
def test_golden_rule_fails_a_move_of_1e_3_of_a_ci(tmp_path, exact):
    run = _edit_golden(tmp_path / "run", "fig7b/fig7b.csv", _move_frequency(1e-3))
    report = golden_report(run, exact=exact)
    assert "fig7b/fig7b.csv  frequency_khz" in report
    assert "|d|/CI 1.00e-03" in report
    assert ("BEYOND" in report) == (not exact)


def test_golden_rule_passes_a_rounding_move_only_off_the_record(tmp_path):
    run = _edit_golden(tmp_path / "run", "fig7b/fig7b.csv", _move_frequency(1e-6))
    assert golden_report(run, exact=False) == ""
    assert "fig7b/fig7b.csv  frequency_khz" in golden_report(run, exact=True)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "tolerance"])
def test_golden_rule_fails_a_flipped_flag(tmp_path, exact):
    def flip(cells):
        cells["indistinguishable"] = {"true": "false", "false": "true"}[cells["indistinguishable"]]
    run = _edit_golden(tmp_path / "run", "fig5/fig5.csv", flip)
    report = golden_report(run, exact=exact)
    assert "DIFFERS: fig5/fig5.csv: column indistinguishable" in report

