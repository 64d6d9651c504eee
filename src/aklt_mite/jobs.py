"""Experiment drivers: each runs one validated job and writes its data file
and summary through the writers of ``cli``.  Importing this module loads
numpy, ``mite`` and ``recompile`` whichever job runs, so that after any one
job every module the benchmark's tracer wraps is loaded."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import mite, recompile
from .cli import _header, summary_path, write_rows, write_summary


def run_prepare(cfg: dict, ns: list[int], config: mite.MiteConfig, out: Path, kind: str) -> int:
    (n,) = ns
    records = mite.run_trajectories(config, n, cfg["mode"], cfg["runs"], cfg["threads"])

    header = _header(cfg, kind)
    rows = []
    for rid, rec in enumerate(records):
        for r in range(len(rec.f_tot)):
            min_part = min(rec.partial[r])
            corr = sum(rec.corrections[:r])
            rows.append((rid, r, float(rec.f_tot[r]), float(min_part), corr))
    columns = ["run_id", "r", "f_tot", "min_partial_fidelity", "corrections_so_far"]
    write_rows(out, cfg["format"], header, columns, rows)

    padded = np.stack([mite.padded_series(rec, config.r_max) for rec in records])
    r_c = []
    for series in padded:
        try:
            r_c.append(mite.critical_rounds(series))
        except ValueError:
            r_c.append(None)
    crossed = sorted(x for x in r_c if x is not None)
    mid = len(crossed) // 2  # np.median's bits, without the numpy.ma import np.median makes
    write_summary(summary_path(out), {
        "header": header,
        "n": n,
        "mode": cfg["mode"],
        "runs": len(records),
        "mean_f_tot": padded.mean(axis=0).tolist(),
        "std_f_tot": padded.std(axis=0).tolist(),
        "final_mean_f_tot": float(padded[:, -1].mean()),
        "r_c": r_c,
        "median_r_c": (crossed[mid] + crossed[~mid]) / 2 if crossed else None,
    })
    return 0


def run_project(cfg: dict, ns: list[int], config: mite.MiteConfig, out: Path, kind: str) -> int:
    header = _header(cfg, kind)
    rows = []
    r_c = {}
    for n in ns:
        series = mite.direct_projection_converge(n, config.r_max)
        for r, f in enumerate(series):
            rows.append((n, r, float(f)))
        try:
            r_c[str(n)] = mite.critical_rounds(series)
        except ValueError:
            r_c[str(n)] = None
    write_rows(out, cfg["format"], header, ["n", "r", "f_tot"], rows)
    write_summary(summary_path(out), {"header": header, "r_c": r_c})
    return 0


def run_recompile(cfg: dict, layers: list[int], opt: recompile.OptimizerConfig, out: Path,
                  kind: str) -> int:
    report = recompile.recompile_scan(cfg["epsilon"], layers, opt)
    header = _header(cfg, kind)
    rows = [(e.n_layers, e.repetition, float(e.fidelity), e.hops_used) for e in report.entries]
    write_rows(out, cfg["format"], header, ["n_layers", "repetition", "final_fidelity", "hops_used"], rows)
    write_summary(summary_path(out), {
        "header": header,
        "epsilon": cfg["epsilon"],
        "per_depth": {str(k): v for k, v in report.summary().items()},
    })
    return 0


JOBS = {"prepare": run_prepare, "noise": run_prepare, "project": run_project,
        "recompile": run_recompile}
