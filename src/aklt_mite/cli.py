"""Command-line harness: every experiment as a subcommand.

Subcommands: prepare | project | noise | recompile | verify.  Each
experiment's parser lists exactly the settings its driver reads, besides
``--threads`` on the one-process project and recompile.  A setting is a
flag or the same key in a JSON config file (``--config``; flags override
file values), read alike by the flag's type and choices; any other is an
invalid configuration.  Every data file opens with a header block
(version, config hash, base seed) for exact replay.

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

from . import __version__, mite, recompile, spin_ops

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)  # a prefix of a flag is no flag
        super().__init__(*args, **kwargs)

    def error(self, message):  # argparse would exit(2); config errors are exit 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="aklt-mite", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # every experiment
    shared.add_argument("--config", type=Path, help="JSON config file (flags override)")
    shared.add_argument("--seed", type=int, help="base RNG seed")
    shared.add_argument("--threads", type=int, help="trajectory workers (no effect on project, recompile)")
    shared.add_argument("--out", type=Path, help="output file path")
    shared.add_argument("--format", choices=["csv", "jsonl"], help="output format")
    trajectory = argparse.ArgumentParser(add_help=False, parents=[shared])  # prepare, noise
    trajectory.add_argument("--runs", type=int, help="trajectory count")
    trajectory.add_argument("--n", type=str, help="chain length")
    trajectory.add_argument("--mode", choices=["spin1", "qubit"], help="site representation")
    trajectory.add_argument("--epsilon", type=float, help="measurement interaction time")
    trajectory.add_argument("--eta", type=float, help="threshold modification factor")
    trajectory.add_argument("--rounds", type=int, help="max sweep rounds")
    trajectory.add_argument("--n-iter", type=int, help="iteration cap per subroutine stretch")
    trajectory.add_argument("--window", type=int, help="convergence window")
    trajectory.set_defaults(fire_window=None)  # a config-file key, no flag

    sub.add_parser("prepare", parents=[trajectory], help="MITE state-preparation trajectories")
    proj = sub.add_parser("project", parents=[shared], help="deterministic projection-cascade convergence")
    proj.add_argument("--n", type=str, help="comma list of chain lengths")
    proj.add_argument("--rounds", type=int, help="projection rounds")
    noise = sub.add_parser("noise", parents=[trajectory], help="preparation under per-round random rotations")
    noise.add_argument("--noise-axis", choices=["x", "z"], help="rotation axis")
    noise.add_argument("--sigma2", type=float, help="noise variance parameter")
    rec = sub.add_parser("recompile", parents=[shared], help="variational recompilation fidelity scan")
    rec.add_argument("--epsilon", type=float, help="measurement interaction time")
    rec.add_argument("--layers", type=str, help="comma list of circuit depths")
    rec.add_argument("--reps", type=int, help="repetitions per depth")
    rec.add_argument("--maxiter", type=int, help="inner optimizer iteration cap")
    rec.add_argument("--hops", type=int, help="restart hops per repetition")
    ver = sub.add_parser("verify", help="run the operator-identity check suite")
    ver.add_argument("--out", type=Path, help="JSON report path (default stdout)")
    return p


def accepted_keys(args: argparse.Namespace) -> set[str]:
    """The settings the subcommand of ``args`` reads, as flags or config-file
    keys: every destination of its parser but the command, config and output."""
    return set(vars(args)) - {"command", "config", "out"}


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
    "format": "csv",
    "threads": None,  # AKLT_MITE_THREADS, else 1
    **{key: getattr(recompile.OptimizerConfig(), f) for key, f in OPTIMIZER_FIELDS.items()},
    **{key: getattr(mite.MiteConfig(), f) for key, f in MITE_FIELDS.items()},
    # The one override of a library default: the library and the acceptance
    # gate use 10 (the gate's criteria 4a and 4c fail at 12), but the
    # benchmark's pinned prepare/noise outputs were recorded at 12.
    "fire_window": 12,
}

# the JSON values a flag's type reads from a config file; a bool is none of them
_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str, int), "a string or an integer")}  # str: the lists --n, --layers


def _read_setting(key: str, val, action: argparse.Action | None):
    """A config-file value, read by its flag's choices or type from its text,
    as the flag reads a word, so it is the value the flag would give.
    ``fire_window``, the one key with no flag, reads as an integer; ``null``
    only where the default is ``None``."""
    if val is None and _DEFAULTS[key] is None:
        return None
    if action is not None and action.choices is not None:
        if val not in action.choices:
            raise ConfigError(f"{key} must be one of {action.choices}, got {val!r}")
        return val
    kind = int if action is None else action.type
    kinds, name = _JSON_KINDS[kind]
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise ConfigError(f"{key} must be {name}, got {val!r}")
    return kind(str(val))  # a float's str reads back exactly


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags (flags win).  Only the keys
    the subcommand reads may be set, a file's as its flag reads them; every
    other key keeps its default.  A file may also name its
    ``schema_version``, which must be the JSON integer ``SCHEMA_VERSION``,
    and the ``experiment`` it is for, which must be this subcommand; the
    output path is ``--out``'s alone."""
    cfg = dict(_DEFAULTS)
    accepted = accepted_keys(args)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config} does not hold a JSON object")
        version = loaded.get("schema_version", SCHEMA_VERSION)
        if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        if loaded.get("experiment", args.command) != args.command:
            raise ConfigError(f"config is for experiment {loaded['experiment']!r}, not {args.command}")
        commands = {a.dest: a for a in _build_parser()._actions}["command"].choices
        actions = {a.dest: a for a in commands[args.command]._actions}  # by setting name
        for key, val in loaded.items():
            if key in ("schema_version", "experiment"):
                continue
            if key not in accepted:  # also "out": the output path is the --out flag's
                raise ConfigError(f"{args.command} takes no config key {key!r}")
            cfg[key] = _read_setting(key, val, actions.get(key))
    for key in accepted:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if cfg["threads"] is None:
        env = os.environ.get("AKLT_MITE_THREADS", "1")
        try:
            cfg["threads"] = int(env)
        except ValueError:
            raise ConfigError(f"AKLT_MITE_THREADS must be an integer, got {env!r}")
    return cfg


def _parse_list(key: str, text: str) -> list[int]:
    """The integers of the comma list ``--n`` or ``--layers``: at least one,
    none twice."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse integer list {key} from {text!r}")
    if not values:
        raise ConfigError(f"{key} must list at least one integer, got {text!r}")
    if len(set(values)) < len(values):
        raise ConfigError(f"{key} lists an integer twice: {text!r}")
    return values


def _build_config(cfg: dict, cls, fields: dict):
    """``cls`` built from the config keys in ``fields``, each to its field."""
    return cls(**{name: cfg[key] for key, name in fields.items()})


def validate(cfg: dict, kind: str) -> tuple[list[int], object]:
    """Check the settings experiment ``kind`` reads and build its job's
    inputs from them: the chain lengths and ``MiteConfig``, or for recompile
    the depths and ``OptimizerConfig``.  The run-parameter fields that own a
    setting validate it."""
    for key in ("threads", "runs"):  # runs keeps its valid default where unread
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    try:
        if kind == "recompile":
            layers = _parse_list("layers", cfg["layers"])
            if min(layers) < 0:
                raise ConfigError(f"layers must list depths >= 0, got {cfg['layers']!r}")
            _build_config(cfg, mite.MiteConfig, {"epsilon": "epsilon"})
            return layers, _build_config(cfg, recompile.OptimizerConfig, OPTIMIZER_FIELDS)
        ns = _parse_list("n", cfg["n"])
        if kind == "project":
            for n in ns:
                spin_ops.check_chain_size(n)
            return ns, _build_config(cfg, mite.MiteConfig, {"seed": "seed", "rounds": "r_max"})
        if len(ns) != 1:
            raise ConfigError("a single --n is required for this experiment")
        spin_ops.check_chain_size(ns[0], cfg["mode"])
        config = _build_config(cfg, mite.MiteConfig, MITE_FIELDS)
        config.e_th(cfg["mode"])
        return ns, config
    except ValueError as exc:
        raise ConfigError(str(exc))


def science_hash(cfg: dict, kind: str) -> str:
    """Stable short hash of the configuration that determines a job's data.
    A comma list is hashed as the integers it lists, however it is spelled."""
    if kind == "recompile":
        keys = ["epsilon", "layers", *OPTIMIZER_FIELDS]
    else:
        keys = ["mode", "n", "runs", *MITE_FIELDS]
    values = {k: cfg.get(k) for k in keys}
    for key in {"n", "layers"} & set(values):
        values[key] = ",".join(map(str, _parse_list(key, values[key])))
    canon = json.dumps({"experiment": kind, **values}, sort_keys=True, separators=(",", ":"))
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


def run_verify(out: Path | None) -> int:
    from . import verify  # the oracles load for this subcommand only, off every job's start-up

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


JOBS = {"prepare": run_prepare, "noise": run_prepare, "project": run_project,
        "recompile": run_recompile}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return run_verify(getattr(args, "out", None))
        cfg = resolve_config(args)
        inputs = validate(cfg, args.command)
        out = getattr(args, "out", None)
        if out is None:
            raise ConfigError("--out is required for this experiment")
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    try:
        return JOBS[args.command](cfg, *inputs, out, args.command)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
