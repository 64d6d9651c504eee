"""Experiment drivers: each runs one validated job and returns its data
table and summary, ``(columns, rows, summary)``; ``cli.main`` stamps the
header and writes both files.  Importing this module loads numpy, ``mite``
and ``recompile`` whichever job runs, so that after any one job every
module the benchmark's tracer wraps is loaded."""

from __future__ import annotations

import numpy as np

from . import mite, recompile


def run_prepare(cfg: dict, ns: list[int], config: mite.MiteConfig):
    (n,) = ns
    records = mite.run_trajectories(config, n, cfg["mode"], cfg["runs"], cfg["threads"])
    rows = []
    for rid, rec in enumerate(records):
        for r in range(len(rec.f_tot)):
            min_part = min(rec.partial[r])
            corr = sum(rec.corrections[:r])
            rows.append((rid, r, float(rec.f_tot[r]), float(min_part), corr))
    padded = np.stack([mite.padded_series(rec, config.r_max) for rec in records])
    r_c = [mite.critical_rounds(series) for series in padded]
    crossed = sorted(x for x in r_c if x is not None)
    mid = len(crossed) // 2  # np.median's bits, without the numpy.ma import np.median makes
    columns = ["run_id", "r", "f_tot", "min_partial_fidelity", "corrections_so_far"]
    return columns, rows, {
        "n": n,
        "mode": cfg["mode"],
        "runs": len(records),
        "mean_f_tot": padded.mean(axis=0).tolist(),
        "std_f_tot": padded.std(axis=0).tolist(),
        "final_mean_f_tot": float(padded[:, -1].mean()),
        "r_c": r_c,
        "median_r_c": (crossed[mid] + crossed[~mid]) / 2 if crossed else None,
    }


def run_project(cfg: dict, ns: list[int], config: mite.MiteConfig):
    rows = []
    r_c = {}
    for n in ns:
        series = mite.direct_projection_converge(n, config.r_max)
        rows.extend((n, r, float(f)) for r, f in enumerate(series))
        r_c[str(n)] = mite.critical_rounds(series)
    return ["n", "r", "f_tot"], rows, {"r_c": r_c}


def run_recompile(cfg: dict, layers: list[int], opt: recompile.OptimizerConfig):
    report = recompile.recompile_scan(cfg["epsilon"], layers, opt)
    rows = [(e.n_layers, e.repetition, float(e.fidelity), e.hops_used) for e in report.entries]
    return ["n_layers", "repetition", "final_fidelity", "hops_used"], rows, {
        "epsilon": cfg["epsilon"],
        "per_depth": {str(k): v for k, v in report.summary().items()},
    }


JOBS = {"prepare": run_prepare, "noise": run_prepare, "project": run_project,
        "recompile": run_recompile}
