"""The golden preset outputs in tests/golden/ and the rule that checks a run.

tests/golden/ holds the CSVs that `rabisim reproduce` writes for every
bundled preset, one directory per preset, beside made_on.txt: the numpy
version and OpenBLAS core they were written on. Regenerate them with

    PYTHONPATH=src python3 tests/goldens.py [DIR]

which writes into tests/golden/, or into DIR for a comparison against them
with scripts/compare_outputs.py.

`golden_report` judges a run against the goldens. On the recorded numpy
version and core every file must be byte-identical. Elsewhere another BLAS
kernel may move finite numbers at rounding level: compare_outputs.py must
find no difference in a header, row, metadata, flag, error or text cell,
and every move must be at most CI_BOUND of its row's 95% CI or, in a column
without one, REL_BOUND relative.
"""

import ctypes
import importlib.util
import sys
from pathlib import Path

import numpy as np

from rabisim.cli import main
from rabisim.scenario import PRESET_NAMES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# Under the Prescott, Haswell and Zen cores against SkylakeX the largest
# moves were 3.3e-11 of a CI, and 1.3e-8 relative on columns without one
# (the fig6 spectra power, at most 1e-18 absolute).
CI_BOUND = 1e-4
REL_BOUND = 1e-6


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _load_script("compare_outputs")


def made_on():
    """The numpy version and OpenBLAS core of this process, as recorded.

    The core is read from numpy's bundled OpenBLAS; where that library or
    its symbol is missing it is None, and no run matches the record.
    """
    core = None
    for lib in Path(np.__file__).parents[1].glob("numpy.libs/*openblas*"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return f"numpy {np.__version__}\nopenblas core {core}\n", core is not None


def golden_report(run, golden=GOLDEN, exact=None):
    """compare_outputs.py's report of run against golden, or "" if run passes.

    exact asks for byte identity; by default it holds when this process's
    numpy version and core are known and match golden's record.
    """
    if exact is None:
        record, known = made_on()
        exact = known and record == (golden / compare_outputs.RECORD).read_text()
    problems, moves = compare_outputs.compare(golden, run)
    lines = compare_outputs.report(problems, moves)
    if exact:
        return "\n".join(lines)
    beyond = [f"{name} {column}" for (name, column), (_, rel, per_ci) in sorted(moves.items())
              if (rel > REL_BOUND if per_ci is None else per_ci > CI_BOUND)]
    if beyond:
        lines.append(f"BEYOND {CI_BOUND:g} of a CI or {REL_BOUND:g} relative: "
                     + ", ".join(beyond))
    return "\n".join(lines) if problems or beyond else ""


def regenerate(out):
    """Write every preset's CSVs under out/<preset>/ and the record beside them."""
    for name in PRESET_NAMES:
        target = out / name
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.glob("*.csv"):
            stale.unlink()
        if main(["reproduce", name, "--out", str(target)]) != 0:
            raise SystemExit(f"preset {name} failed")
    (out / compare_outputs.RECORD).write_text(made_on()[0])


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit("usage: PYTHONPATH=src python3 tests/goldens.py [DIR]")
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
