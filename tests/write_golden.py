"""Write the two golden files of ``tests/data`` into a folder.

    PYTHONPATH=src python tests/write_golden.py [FOLDER]

FOLDER defaults to ``tests/data``; the folder must exist.

* ``golden_prepare.csv`` is the data file of ``aklt-mite prepare`` with
  ``PREPARE_ARGS`` (its summary is written beside it in a temporary folder
  and dropped).
* ``golden_bond_series.json`` holds, for each of ``BOND_SERIES_CASES``, the
  per-bond series that ``verify.RecordingKernel`` records over
  ``mite.prepare`` on the two-level kernel, bonds in ascending order: one
  JSON object per line, in a JSON list.

A change that moves either file regenerates it with this script, and the
tests hold the committed files byte for byte to what it writes.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from aklt_mite import cli, mite, verify

DATA = Path(__file__).parent / "data"
PREPARE_ARGS = ["prepare", "--n", "3", "--runs", "2", "--rounds", "5", "--seed", "7"]
BOND_SERIES_CASES = [
    {"n": 3, "mode": "spin1", "config": {"seed": 11, "r_max": 10}},
    {"n": 3, "mode": "qubit",
     "config": {"seed": 11, "r_max": 10, "noise_axis": "z", "noise_sigma2": 0.01}},
]


def bond_series(case: dict) -> dict:
    kernel = verify.RecordingKernel(mite.TwoLevelBond)
    mite.prepare(mite.MiteConfig(**case["config"]), case["n"], case["mode"], kernel=kernel)
    return dict(sorted(kernel.series.items()))


def write_golden(folder: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "golden_prepare.csv")
        if cli.main([*PREPARE_ARGS, "--out", str(out)]) != 0:
            raise RuntimeError(f"prepare {PREPARE_ARGS} failed")
        shutil.copyfile(out, folder / "golden_prepare.csv")
    cases = [json.dumps({**case, "series": bond_series(case)}) for case in BOND_SERIES_CASES]
    (folder / "golden_bond_series.json").write_text("[\n" + ",\n".join(cases) + "\n]\n")


if __name__ == "__main__":
    write_golden(Path(sys.argv[1]) if len(sys.argv) > 1 else DATA)
