"""Output checks for benchmark jobs.

``compare_pinned`` applies the repository's pinning rule against a copy of
the same job's outputs taken at the commit that introduced the benchmark:
header fields (except the package version) and integer columns identical,
float columns within 1e-12.  Summary files are compared field by field,
floats within 1e-9 relative, because derived quantities such as the
interpolated ``r_c`` divide by fidelity differences.  ``invariants`` holds
whatever the outputs alone must satisfy.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

INT_COLUMNS = {"run_id", "r", "corrections_so_far", "n", "n_layers", "repetition", "hops_used"}
DATA_TOL = 1e-12
SUMMARY_RTOL = 1e-9
UNIT_SLACK = 1e-12


def parse_csv(text: str) -> tuple[dict, list[str], list[list]]:
    header, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            header[key] = val
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([int(tok) if col in INT_COLUMNS else float(tok)
                         for col, tok in zip(columns, line.split(","))])
    return header, columns or [], rows


def _floats_equal(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def _compare_json(a, b, where: str, out: list[str]):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            out.append(f"{where}: keys differ")
            return
        for key in a:
            if where == "summary" and key == "header":
                _compare_header(a[key], b[key], out)
            else:
                _compare_json(a[key], b[key], f"{where}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{where}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_json(x, y, f"{where}[{i}]", out)
    elif isinstance(a, float) and isinstance(b, float):
        if not _floats_equal(a, b, rtol=SUMMARY_RTOL, atol=DATA_TOL):
            out.append(f"{where}: {a!r} != {b!r}")
    elif a != b or type(a) is not type(b):
        out.append(f"{where}: {a!r} != {b!r}")


def _compare_header(a: dict, b: dict, out: list[str]):
    keys = (set(a) | set(b)) - {"version"}
    for key in sorted(keys):
        if str(a.get(key)) != str(b.get(key)):
            out.append(f"header {key}: {a.get(key)!r} != {b.get(key)!r}")


def compare_pinned(data: str, summary: str, pinned_data: str, pinned_summary: str) -> list[str]:
    problems: list[str] = []
    head, cols, rows = parse_csv(data)
    p_head, p_cols, p_rows = parse_csv(pinned_data)
    _compare_header(head, p_head, problems)
    if cols != p_cols:
        return problems + [f"columns {cols} != {p_cols}"]
    if len(rows) != len(p_rows):
        return problems + [f"{len(rows)} rows != {len(p_rows)} pinned"]
    for i, (row, p_row) in enumerate(zip(rows, p_rows)):
        for col, x, y in zip(cols, row, p_row):
            same = x == y if col in INT_COLUMNS else _floats_equal(x, y, atol=DATA_TOL)
            if not same:
                problems.append(f"row {i} {col}: {x!r} != pinned {y!r}")
                break
        if len(problems) > 5:
            break
    _compare_json(json.loads(summary), json.loads(pinned_summary), "summary", problems)
    return problems


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _in_unit(x: float) -> bool:
    return -UNIT_SLACK <= x <= 1.0 + UNIT_SLACK


def invariants(argv: list[str], data: str, summary: str) -> list[str]:
    """Checks that need no pinned copy: value ranges, record completeness,
    monotone correction counts, and no failed recompile repetitions."""
    head, cols, rows = parse_csv(data)
    summ = json.loads(summary)
    kind = argv[0]
    problems = []
    if head.get("experiment") != kind:
        problems.append(f"header experiment {head.get('experiment')!r} != {kind!r}")
    if not rows:
        return problems + ["no data rows"]
    col = {name: i for i, name in enumerate(cols)}
    if kind in ("prepare", "noise"):
        runs = int(_flag(argv, "--runs"))
        by_run: dict[int, list] = {}
        for row in rows:
            by_run.setdefault(row[col["run_id"]], []).append(row)
            if not (_in_unit(row[col["f_tot"]]) and _in_unit(row[col["min_partial_fidelity"]])):
                problems.append(f"fidelity outside [0, 1] in {row}")
        if sorted(by_run) != list(range(runs)) or summ.get("runs") != runs:
            problems.append(f"expected run ids 0..{runs - 1}, got {sorted(by_run)}")
        for rid, run_rows in by_run.items():
            if [r[col["r"]] for r in run_rows] != list(range(len(run_rows))):
                problems.append(f"run {rid}: rounds not consecutive from 0")
            corr = [r[col["corrections_so_far"]] for r in run_rows]
            if any(b < a for a, b in zip(corr, corr[1:])):
                problems.append(f"run {rid}: corrections_so_far decreases")
    elif kind == "project":
        rounds = int(_flag(argv, "--rounds"))
        ns = [int(tok) for tok in _flag(argv, "--n").split(",")]
        for n in ns:
            series = [r for r in rows if r[col["n"]] == n]
            if [r[col["r"]] for r in series] != list(range(rounds + 1)):
                problems.append(f"n={n}: rounds not 0..{rounds}")
        if any(not _in_unit(r[col["f_tot"]]) for r in rows):
            problems.append("fidelity outside [0, 1]")
    elif kind == "recompile":
        depths = [int(tok) for tok in _flag(argv, "--layers").split(",")]
        reps = int(_flag(argv, "--reps"))
        if len(rows) != len(depths) * reps:
            problems.append(f"{len(rows)} rows != {len(depths)} depths x {reps} reps")
        if any(not _in_unit(r[col["final_fidelity"]]) for r in rows):
            problems.append("failed repetition or fidelity outside [0, 1]")
        failures = sum(d["failures"] for d in summ["per_depth"].values())
        if failures:
            problems.append(f"{failures} failed repetitions")
    return problems


def read_pinned(path: Path) -> str | None:
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return fh.read()


def write_pinned(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as fh:
        fh.write(text.encode())
