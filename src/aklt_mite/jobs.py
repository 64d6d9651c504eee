"""Experiment drivers: each runs one validated job, its independent runs
seeded apart and spread by ``fan_out``, and returns its data table and
summary, ``(columns, rows, summary)``; ``cli.main`` writes them.  A
driver lays its runs out as tasks and reads each result beside its task:
the recompile scan's depth-major layout, its rows and its per-depth
summary are built here alone, from what ``recompile.optimize_once``
returns.  Importing this module loads numpy, ``mite`` and ``recompile``
whichever job runs, so that after any one job every module the
benchmark's tracer wraps is loaded."""

from __future__ import annotations

import os
from dataclasses import replace
from itertools import accumulate

import numpy as np

from . import mite, recompile


def fan_out(fn, tasks: list[tuple], threads: int) -> list:
    """``fn(*task)`` for every task, in task order, on ``min(threads,
    len(tasks), os.cpu_count())`` worker processes (a pool forks all its
    workers at once, so none is started beyond a task or a CPU); at one
    worker, a plain loop in this process that loads no pool."""
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*task) for task in tasks]


def run_prepare(cfg: dict, ns: list[int], config: mite.MiteConfig):
    (n,) = ns
    tasks = [(replace(config, seed=config.seed + k), n, cfg["mode"]) for k in range(cfg["runs"])]
    records = fan_out(mite.prepare, tasks, cfg["threads"])
    rows = []
    for rid, rec in enumerate(records):
        so_far = accumulate(rec.corrections, initial=0)  # corrections of rounds 1..r at round r
        for r, (f_tot, partial, corr) in enumerate(zip(rec.f_tot, rec.partial, so_far)):
            rows.append((rid, r, float(f_tot), float(min(partial)), corr))
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
    series = fan_out(mite.direct_projection_converge, [(n, config.r_max) for n in ns],
                     cfg["threads"])
    rows = [(n, r, float(f)) for n, fs in zip(ns, series) for r, f in enumerate(fs)]
    r_c = {str(n): mite.critical_rounds(fs) for n, fs in zip(ns, series)}
    return ["n", "r", "f_tot"], rows, {"r_c": r_c}


def _repetition(target: np.ndarray, n_layers: int, rep: int, opt: recompile.OptimizerConfig):
    """Repetition ``rep`` at depth ``n_layers``, seeded ``opt.seed + rep`` so
    that any one can be re-run alone; a ``RuntimeError`` names the pair."""
    try:
        return recompile.optimize_once(target, n_layers, np.random.default_rng(opt.seed + rep), opt)
    except RuntimeError as exc:
        raise RuntimeError(f"depth {n_layers}, repetition {rep}: {exc}") from exc


def run_recompile(cfg: dict, layers: list[int], opt: recompile.OptimizerConfig):
    target = recompile.target_unitary(cfg["epsilon"])
    tasks = [(target, nl, rep, opt) for nl in layers for rep in range(opt.repetitions)]
    results = fan_out(_repetition, tasks, cfg["threads"])
    rows = [(nl, rep, float(res.fidelity), res.hops_used)
            for (_, nl, rep, _), res in zip(tasks, results)]
    per_depth = {}
    for nl in layers:  # mean, std and max over the repetitions that did not fail
        at_depth = [res for (_, d, _, _), res in zip(tasks, results) if d == nl]
        fids = [res.fidelity for res in at_depth if not res.failed]
        per_depth[str(nl)] = {
            "mean_fidelity": float(np.mean(fids)) if fids else float("nan"),
            "std_fidelity": float(np.std(fids)) if fids else float("nan"),
            "max_fidelity": float(np.max(fids)) if fids else float("nan"),
            "cnot_count": recompile.cnot_count(nl),
            "failures": len(at_depth) - len(fids),
        }
    return ["n_layers", "repetition", "final_fidelity", "hops_used"], rows, {
        "epsilon": cfg["epsilon"],
        "per_depth": per_depth,
    }


JOBS = {"prepare": run_prepare, "noise": run_prepare, "project": run_project,
        "recompile": run_recompile}
