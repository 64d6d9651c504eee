"""Command-line harness: every experiment as a subcommand.

Subcommands: prepare | project | noise | recompile | verify.  A JSON config
file (``--config``) supplies defaults; flags override file values.  All
data files start with a header block (version, config hash, base seed) so
any output can be replayed exactly.

Exit codes: 0 success, 1 invalid configuration, 2 runtime failure,
3 verify-suite failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, mite, recompile, spin_ops, verify

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are exit 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="aklt-mite", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, runs_default=None):
        sp.add_argument("--config", type=Path, help="JSON config file (flags override)")
        sp.add_argument("--seed", type=int, help="base RNG seed")
        sp.add_argument("--runs", type=int, default=runs_default, help="trajectory count")
        sp.add_argument("--n", type=str, help="chain length (project: comma list)")
        sp.add_argument("--mode", choices=["spin1", "qubit"], help="site representation")
        sp.add_argument("--epsilon", type=float, help="measurement interaction time")
        sp.add_argument("--eta", type=float, help="threshold modification factor")
        sp.add_argument("--rounds", type=int, help="max sweep rounds")
        sp.add_argument("--n-iter", type=int, help="iteration cap per subroutine stretch")
        sp.add_argument("--window", type=int, help="convergence window")
        sp.add_argument("--threads", type=int, help="worker pool size")
        sp.add_argument("--out", type=Path, help="output file path")
        sp.add_argument("--format", choices=["csv", "jsonl"], help="output format")

    common(sub.add_parser("prepare", help="MITE state-preparation trajectories"))
    common(sub.add_parser("project", help="deterministic projection-cascade convergence"))
    noise = sub.add_parser("noise", help="preparation under per-round random rotations")
    common(noise)
    noise.add_argument("--noise-axis", choices=["x", "z"], help="rotation axis")
    noise.add_argument("--sigma2", type=float, help="noise variance parameter")
    rec = sub.add_parser("recompile", help="variational recompilation fidelity scan")
    common(rec)
    rec.add_argument("--layers", type=str, help="comma list of circuit depths")
    rec.add_argument("--reps", type=int, help="repetitions per depth")
    rec.add_argument("--maxiter", type=int, help="inner optimizer iteration cap")
    rec.add_argument("--hops", type=int, help="restart hops per repetition")
    ver = sub.add_parser("verify", help="run the operator-identity check suite")
    ver.add_argument("--out", type=Path, help="JSON report path (default stdout)")
    return p


# ---------------------------------------------------------------------------
# configuration plumbing

# config key -> the run-parameter field that owns its default and validation
MITE_FIELDS = {
    "seed": "seed",
    "epsilon": "epsilon",
    "eta": "eta",
    "rounds": "r_max",
    "n_iter": "n_iter",
    "window": "window",
    "fire_window": "fire_window",
    "noise_axis": "noise_axis",
    "sigma2": "noise_sigma2",
}
OPTIMIZER_FIELDS = {"seed": "seed", "reps": "repetitions", "maxiter": "maxiter", "hops": "n_hops"}

_DEFAULTS = {
    "mode": "spin1",
    "n": "4",
    "runs": 20,
    "layers": "1,2,3,4,5,6",
    "threads": None,
    "format": "csv",
    **{key: getattr(recompile.OptimizerConfig(), f) for key, f in OPTIMIZER_FIELDS.items()},
    **{key: getattr(mite.MiteConfig(), f) for key, f in MITE_FIELDS.items()},
    # The one override of a library default: the library and the acceptance
    # gate use 10 (the gate's criteria 4a and 4c fail at 12), but the
    # benchmark's pinned prepare/noise outputs were recorded at 12.
    "fire_window": 12,
}


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags (flags win)."""
    cfg = dict(_DEFAULTS)
    path = getattr(args, "config", None)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if loaded.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {loaded.get('schema_version')}")
        noise_sub = loaded.pop("noise", None)
        if isinstance(noise_sub, dict):
            loaded.setdefault("noise_axis", noise_sub.get("axis"))
            loaded.setdefault("sigma2", noise_sub.get("sigma2"))
        for key, val in loaded.items():
            if key in ("schema_version", "experiment", "out"):
                continue
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = val
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg.get("threads") in (None, 0):
        env = os.environ.get("AKLT_MITE_THREADS", "1")
        try:
            cfg["threads"] = int(env)
        except ValueError:
            raise ConfigError(f"AKLT_MITE_THREADS must be an integer, got {env!r}")
    cfg["n"] = str(cfg["n"])
    return cfg


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse integer list from {text!r}")


def _require_int(cfg: dict, key: str, lo: int) -> None:
    try:
        val = int(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}")
    if val < lo:
        raise ConfigError(f"{key} must be at least {lo}, got {val}")


def _build_config(cfg: dict, cls, fields: dict):
    """Build ``cls`` (``MiteConfig`` or ``OptimizerConfig``) from the config
    keys in ``fields``; a value is read as the type of its field's default."""
    defaults = cls()
    kwargs = {}
    for key, name in fields.items():
        default = getattr(defaults, name)
        kwargs[name] = cfg[key] if default is None else type(default)(cfg[key])
    return cls(**kwargs)


def validate(cfg: dict, kind: str) -> dict:
    ns = _parse_n_list(cfg["n"])
    if kind != "project" and len(ns) != 1:
        raise ConfigError("a single --n is required for this experiment")
    _require_int(cfg, "runs", 1)
    _require_int(cfg, "threads", 1)
    if kind == "recompile":
        layers = _parse_n_list(cfg["layers"])
        if not layers or min(layers) < 0:
            raise ConfigError(f"layers must list depths >= 0, got {cfg['layers']!r}")
    try:
        for n in ns:
            spin_ops.check_chain_size(n, cfg["mode"])
        _build_config(cfg, mite.MiteConfig, MITE_FIELDS)
        if kind == "recompile":
            _build_config(cfg, recompile.OptimizerConfig, OPTIMIZER_FIELDS)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    if kind == "noise" and cfg["noise_axis"] is None and float(cfg["sigma2"]) > 0:
        raise ConfigError("noise experiment needs --noise-axis")
    return cfg


def science_hash(cfg: dict, kind: str) -> str:
    """Stable short hash of the configuration that determines a job's data."""
    if kind == "recompile":
        keys = ["epsilon", "layers", *OPTIMIZER_FIELDS]
    else:
        keys = ["mode", "n", "runs", *MITE_FIELDS]
    canon = json.dumps(
        {"experiment": kind, **{k: cfg.get(k) for k in keys}},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output writing

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


@contextmanager
def _replacing(path: Path):
    """Write through a temp file beside ``path``, renamed over it only once
    complete, so a failure never leaves a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(path: Path, fmt: str, header: dict, columns: list[str], rows) -> None:
    with _replacing(path) as fh:
        if fmt == "csv":
            for key, val in header.items():
                fh.write(f"# {key}: {val}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for row in rows:
                fh.write(json.dumps(dict(zip(columns, row)), sort_keys=True) + "\n")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_summary(path: Path, payload: dict) -> None:
    with _replacing(path) as fh:
        fh.write(_json_text(payload))


def _header(cfg: dict, kind: str) -> dict:
    """The block every data file opens with: enough to replay it exactly."""
    return {
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "experiment": kind,
        "config_hash": science_hash(cfg, kind),
        "base_seed": cfg["seed"],
    }


def summary_path(out: Path) -> Path:
    return out.with_suffix(out.suffix + ".summary.json") if out.suffix != ".json" \
        else out.with_name(out.stem + ".summary.json")


# ---------------------------------------------------------------------------
# experiment drivers

def run_prepare(cfg: dict, out: Path, kind: str = "prepare") -> int:
    n = _parse_n_list(cfg["n"])[0]
    config = _build_config(cfg, mite.MiteConfig, MITE_FIELDS)
    records = mite.run_trajectories(
        config, n, cfg["mode"], int(cfg["runs"]), int(cfg["threads"])
    )

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
            r_c.append(mite.critical_rounds(series, 0.9))
        except ValueError:
            r_c.append(None)
    crossed = [x for x in r_c if x is not None]
    write_summary(summary_path(out), {
        "header": header,
        "n": n,
        "mode": cfg["mode"],
        "runs": len(records),
        "mean_f_tot": padded.mean(axis=0).tolist(),
        "std_f_tot": padded.std(axis=0).tolist(),
        "final_mean_f_tot": float(padded[:, -1].mean()),
        "r_c": r_c,
        "median_r_c": float(np.median(crossed)) if crossed else None,
    })
    return 0


def run_project(cfg: dict, out: Path) -> int:
    ns = _parse_n_list(cfg["n"])
    r_max = int(cfg["rounds"])
    header = _header(cfg, "project")
    rows = []
    r_c = {}
    for n in ns:
        series = mite.direct_projection_converge(n, r_max)
        for r, f in enumerate(series):
            rows.append((n, r, float(f)))
        try:
            r_c[str(n)] = mite.critical_rounds(series, 0.9)
        except ValueError:
            r_c[str(n)] = None
    write_rows(out, cfg["format"], header, ["n", "r", "f_tot"], rows)
    write_summary(summary_path(out), {"header": header, "r_c": r_c})
    return 0


def run_recompile(cfg: dict, out: Path) -> int:
    layers = _parse_n_list(cfg["layers"])
    opt = _build_config(cfg, recompile.OptimizerConfig, OPTIMIZER_FIELDS)
    report = recompile.recompile_scan(float(cfg["epsilon"]), layers, opt)
    header = _header(cfg, "recompile")
    rows = [
        (e.n_layers, e.repetition, float(e.fidelity), e.hops_used)
        for e in report.entries
    ]
    write_rows(out, cfg["format"], header, ["n_layers", "repetition", "final_fidelity", "hops_used"], rows)
    write_summary(summary_path(out), {
        "header": header,
        "epsilon": float(cfg["epsilon"]),
        "per_depth": {str(k): v for k, v in report.summary().items()},
    })
    return 0


def run_verify(out: Path | None) -> int:
    results = verify.all_checks()
    payload = {
        "version": __version__,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in results
        ],
        "passed": all(passed for _, passed, _ in results),
        "total": len(results),
        "failures": [name for name, passed, _ in results if not passed],
    }
    if out is None:
        sys.stdout.write(_json_text(payload))
    else:
        write_summary(out, payload)
    return 0 if payload["passed"] else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return run_verify(getattr(args, "out", None))
        cfg = resolve_config(args)
        cfg = validate(cfg, args.command)
        out = getattr(args, "out", None)
        if out is None:
            raise ConfigError("--out is required for this experiment")
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command in ("prepare", "noise"):
            return run_prepare(cfg, out, kind=args.command)
        if args.command == "project":
            return run_project(cfg, out)
        if args.command == "recompile":
            return run_recompile(cfg, out)
        raise RuntimeError(f"unhandled command {args.command}")
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
