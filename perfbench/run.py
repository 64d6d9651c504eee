#!/usr/bin/env python3
"""Benchmark of the aklt-mite command-line jobs.

Run from the repository root:

    python3 perfbench/run.py --workload prepare-spin1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1           # every workload
    python3 perfbench/run.py --workload all --smoke            # seconds-long check
    python3 perfbench/run.py --workload all --write-pinned     # regenerate pinned outputs

``--trace 0`` times real CLI jobs in subprocesses (wall, CPU and peak RSS
from ``os.wait4``) plus fresh-interpreter set-up, and prints the end-to-end
metrics.  ``--trace 1`` runs the first job of the workload in-process, with
and without span wrappers around each layer's public functions, and prints
the per-layer metrics.  Every job writes into a fresh directory under
``perfbench/out`` and its outputs are checked against the pinned copy in
``perfbench/pinned`` and against invariants.  The last stdout line is one
JSON object; the exit status is 0 only if every check passed.

Workloads, job arguments and the layer table live in ``spec.json``; metric
names and units in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
SETUP_CODE = (
    "import sys\n"
    "from aklt_mite import cli\n"
    "args = cli._build_parser().parse_args(sys.argv[1:])\n"
    "cli.validate(cli.resolve_config(args), args.command)\n"
)
SPAN_STATS = ("calls", "total_s", "self_s", "us_per_call")
QUALITY = ("mite.final_mean_fidelity", "mite.median_r_c", "recompile.max_fidelity")
# One BLAS thread per job: on a machine of few shared cores, a job whose BLAS
# threads spin and wait on each other times the scheduler, not the job.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# ---------------------------------------------------------------------------
# job inputs and pinned copies

def job_inputs(spec: dict, workload: str, seed: int, smoke: bool) -> list[list[str]]:
    """CLI argument lists of the workload's jobs for this seed.

    Seeded workloads map the seed onto one of ``pinned_seeds`` job sets, so
    that every job has a pinned copy of its outputs; within a set, job i
    uses base seed ``1000 * (seed % pinned_seeds) + 100 * i``.
    """
    wl = spec["workloads"][workload]
    if smoke:
        return [wl["smoke_args"] + ["--seed", "0"]]
    if not wl["seeded"]:
        return [wl["args"] + ["--seed", "0"]]
    base = 1000 * (seed % spec["pinned_seeds"])
    return [wl["args"] + ["--seed", str(base + 100 * i)] for i in range(wl["jobs"])]


def pinned_stem(workload: str, argv: list[str], smoke: bool) -> Path:
    seed = argv[argv.index("--seed") + 1]
    return HERE / "pinned" / ("smoke" if smoke else "full") / workload / f"seed{seed}"


def read_outputs(workdir: Path) -> tuple[str, str]:
    return (workdir / "out.csv").read_text(), (workdir / "out.csv.summary.json").read_text()


def check_job(workload, argv, smoke, workdir, code, seen) -> list[str]:
    """Problems with one finished job; ``seen`` keeps each job's first outputs."""
    if code != 0:
        err = (workdir / "stderr.txt")
        tail = err.read_text().strip().splitlines()[-1:] if err.exists() else []
        return [f"exit code {code} {tail}"]
    outputs = read_outputs(workdir)
    problems = checks.invariants(argv, *outputs)
    stem = pinned_stem(workload, argv, smoke)
    pinned = (checks.read_pinned(stem.with_suffix(".csv.gz")),
              checks.read_pinned(stem.with_suffix(".summary.json.gz")))
    if None in pinned:
        problems.append(f"no pinned copy at {stem.relative_to(ROOT)}")
    else:
        problems += checks.compare_pinned(*outputs, *pinned)
    key = tuple(argv)
    if seen.setdefault(key, outputs) != outputs:
        problems.append("outputs differ from an earlier run of the same job")
    return problems


def quality(summaries: list[dict], name: str) -> float:
    """Fidelity statistics of the jobs' outputs; 0 where a job has none."""
    if name == "recompile.max_fidelity":
        vals = [d["max_fidelity"] for s in summaries for d in s.get("per_depth", {}).values()]
        return max(vals) if vals else 0.0
    if "final_mean_f_tot" not in summaries[0]:
        return 0.0
    if name == "mite.final_mean_fidelity":
        return statistics.fmean(s["final_mean_f_tot"] for s in summaries)
    crossed = [x for s in summaries for x in s["r_c"] if x is not None]
    return statistics.median(crossed) if crossed else 0.0


# ---------------------------------------------------------------------------
# subprocess jobs

def _child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(workdir)
    return env


def spawn(cmd: list[str], workdir: Path):
    """Run ``cmd`` to completion; return (exit code, wall seconds, rusage)."""
    start = perf_counter()
    with open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=workdir, env=_child_env(workdir),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, perf_counter() - start, usage


def fresh_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="job-", dir=OUT))


def measure_setup(argv: list[str], reps: int) -> tuple[float, list[str]]:
    """Median seconds for a fresh interpreter to import the CLI and validate
    the job's arguments.  Called after the jobs, so bytecode caches are full."""
    times, problems = [], []
    for _ in range(reps):
        workdir = fresh_dir()
        try:
            code, wall, _ = spawn([sys.executable, "-c", SETUP_CODE, *argv], workdir)
        finally:
            shutil.rmtree(workdir)
        if code != 0:
            problems.append(f"set-up exited with code {code}")
        times.append(wall)
    return statistics.median(times), problems


def run_untraced(spec, workload, seed, seconds, smoke) -> dict:
    inputs = job_inputs(spec, workload, seed, smoke)
    compileall.compile_dir(SRC / "aklt_mite", quiet=1)  # no job pays for compiling bytecode
    jobs, seen = [], {}
    start = perf_counter()
    while len(jobs) < len(inputs) or perf_counter() - start < seconds:
        argv = inputs[len(jobs) % len(inputs)]
        workdir = fresh_dir()
        try:
            code, wall, usage = spawn(
                [sys.executable, "-m", "aklt_mite.cli", *argv, "--out", str(workdir / "out.csv")],
                workdir)
            problems = check_job(workload, argv, smoke, workdir, code, seen)
        finally:
            shutil.rmtree(workdir)
        jobs.append({"argv": argv, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                     "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": problems})
    setup_s, setup_problems = measure_setup(inputs[0], 1 if smoke else spec["setup_reps"])
    if setup_problems:
        jobs[0]["problems"] += setup_problems

    def per_input_mean(key):
        # median over repeats of one input, then the mean over the inputs
        return statistics.fmean(
            statistics.median(j[key] for j in jobs if j["argv"] == argv) for argv in inputs)

    metrics = {key: per_input_mean(key) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = setup_s
    summaries = [json.loads(seen[tuple(a)][1]) for a in inputs if tuple(a) in seen]
    info = {name: quality(summaries, name) for name in QUALITY} if summaries else {}
    return {"metrics": metrics, "jobs": jobs, "info": info}


# ---------------------------------------------------------------------------
# traced in-process jobs

def _import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from aklt_mite import cli
    return cli


def _run_in_process(cli, workload, argv, smoke, tracer, seen):
    """One CLI job in this process, under ``tracer`` if given; (wall, problems)."""
    main = tracer.wrap("cli", cli.main) if tracer else cli.main
    workdir = fresh_dir()
    try:
        if tracer:
            tracer.install()
        t0 = perf_counter()
        try:
            code = main([*argv, "--out", str(workdir / "out.csv")])
        finally:
            wall = perf_counter() - t0
            if tracer:
                tracer.restore()
        return wall, check_job(workload, argv, smoke, workdir, code, seen)
    finally:
        shutil.rmtree(workdir)


def run_traced(spec, workload, seed, seconds, smoke, per_layer: list[str]) -> dict:
    """Alternate traced and untraced in-process runs of the first job.

    The workload's smoke job runs first, untimed, to warm the process up.
    Then traced and untraced runs alternate, at least two traced and one
    untraced.  Traced outputs must match the untraced ones byte for byte,
    and every count must repeat exactly between traced runs.
    """
    cli = _import_cli()
    warmup = job_inputs(spec, workload, seed, True)[0]
    _, problems = _run_in_process(cli, workload, warmup, True, None, {})
    jobs = [{"argv": warmup, "traced": False, "warmup": True, "problems": problems}]
    argv = job_inputs(spec, workload, seed, smoke)[0]
    plain, traced, seen = [], [], {}
    start = perf_counter()
    while not plain or len(traced) < 2 or perf_counter() - start < seconds:
        tracer = Tracer() if len(traced) <= len(plain) else None
        wall, problems = _run_in_process(cli, workload, argv, smoke, tracer, seen)
        if tracer:
            counts = {**tracer.calls, **tracer.counts}
            if traced and counts != traced[0][1]:
                problems.append("traced counts differ between runs")
            traced.append((tracer, counts, wall))
        else:
            plain.append(wall)
        jobs.append({"argv": argv, "traced": bool(tracer), "wall_s": wall, "problems": problems})

    summary = json.loads(seen[tuple(argv)][1]) if seen else {}
    metrics = {}
    for name in per_layer:
        span, kind = name.rsplit(".", 1)
        if name == "trace.overhead_frac":
            value = statistics.median(w for _, _, w in traced) / statistics.median(plain) - 1.0
        elif name in QUALITY:
            value = quality([summary], name) if summary else 0.0
        elif kind == "calls":
            value = traced[0][0].stat(span, kind)  # repeats exactly, as checked above
        elif kind in SPAN_STATS:
            value = statistics.median(t.stat(span, kind) for t, _, _ in traced)
        else:
            value = traced[0][0].counts.get(name, 0)
        metrics[name] = value
    return {"metrics": metrics, "jobs": jobs, "edges": traced[0][0].edge_table()}


# ---------------------------------------------------------------------------
# environment, pinning, entry point

def _blas_libraries() -> list[dict]:
    """OpenBLAS builds loaded in this process, with their thread counts."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    found = []
    for path in paths:
        entry = {"library": Path(path).name, "config": None, "threads": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and entry["threads"] is None:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and entry["config"] is None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if separate)

    git_sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = res.stdout.strip() if res.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "aklt_mite").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "loadavg_at_start": os.getloadavg(),
    }


def write_pinned(spec: dict, workloads: list[str], smoke: bool) -> int:
    """Store the current outputs of every job the benchmark can run."""
    failures = 0
    for workload in workloads:
        seeds = range(1 if smoke or not spec["workloads"][workload]["seeded"] else spec["pinned_seeds"])
        for seed in seeds:
            for argv in job_inputs(spec, workload, seed, smoke):
                workdir = fresh_dir()
                try:
                    code, wall, _ = spawn(
                        [sys.executable, "-m", "aklt_mite.cli", *argv, "--out", str(workdir / "out.csv")],
                        workdir)
                    problems = [f"exit code {code}"] if code else checks.invariants(argv, *read_outputs(workdir))
                    if not problems:
                        data, summary = read_outputs(workdir)
                        stem = pinned_stem(workload, argv, smoke)
                        checks.write_pinned(stem.with_suffix(".csv.gz"), data)
                        checks.write_pinned(stem.with_suffix(".summary.json.gz"), summary)
                finally:
                    shutil.rmtree(workdir)
                failures += bool(problems)
                print(f"{workload} {' '.join(argv)}: {wall:.2f} s {problems or 'pinned'}", flush=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds, 1 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny jobs, one of each")
    p.add_argument("--write-pinned", action="store_true",
                   help="store the current outputs as the pinned copies and exit")
    args = p.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads here, and for every job
    # turn SIGTERM into SystemExit, so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "aklt_mite" / "cli.py").is_file():
        print(f"error: no aklt_mite sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in spec["workloads"]]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {list(spec['workloads'])}",
              file=sys.stderr)
        return 2
    if args.write_pinned:
        return write_pinned(spec, names, args.smoke)
    seconds = args.seconds if args.seconds is not None else (1 if args.smoke else bench["run_seconds"])
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    results, metrics = {}, {}
    for name in names:
        if args.trace:
            res = run_traced(spec, name, args.seed, seconds, args.smoke, list(units))
        else:
            res = run_untraced(spec, name, args.seed, seconds, args.smoke)
        results[name] = res
        for metric, value in res["metrics"].items():
            print(f"{name:14s} {metric:40s} {value:14.6g} {units[metric]}", flush=True)
        for metric, value in res.get("info", {}).items():
            print(f"{name:14s} {metric:40s} {value:14.6g} (job output, not a bounded metric)")
        for job in res["jobs"]:
            for problem in job["problems"]:
                print(f"{name:14s} FAILED {' '.join(job['argv'])}: {problem}", flush=True)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": v, "unit": units[m]} for m, v in res["metrics"].items()})

    jobs = [job for res in results.values() for job in res["jobs"]]
    failed = sum(1 for job in jobs if job["problems"])
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "seconds": seconds, "results": results}, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
