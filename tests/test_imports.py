"""Every imported name in the package, the tests and the benchmark harness
is used, and every definition in a job module runs in a job.

Neither ruff nor pyflakes ships with the test dependencies, so this scans
the syntax trees directly: a name bound by ``import``/``from ... import``
(``from __future__`` excepted) must be read somewhere in the same module.
Names listed in a module's ``__all__`` count as read.

A function or class of a job module that no benchmark smoke job runs
belongs in ``verify``, with the other oracles, unless ``HELD`` names it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for folder in ("src/aklt_mite", "tests", "perfbench")
           for path in sorted((ROOT / folder).glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_an_unused_import():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") == ["json (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


JOB_MODULES = ("statevec", "spin_ops", "qubit_map", "mite", "recompile", "jobs", "params")

# Definitions in the job modules that no benchmark job runs, each with its
# reason; every other one the jobs run, and the oracles live in ``verify``.
HELD = {
    # named in perfbench/tracer.py's TRACED
    "statevec.born_sample", "statevec.apply_two_site", "statevec.apply_one_site",
    "statevec.partial_fidelity", "spin_ops.hamiltonian_apply", "qubit_map.qubit_aklt_state",
    # called by qubit_aklt_state
    "spin_ops.zero_mode", "qubit_map.restrict_state",
}

PROFILE_PROBE = """
import json, sys, types

ran = set()

def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)

sys.setprofile(profile)
from aklt_mite import cli

for argv in json.loads(sys.argv[1]):
    if cli.main([*argv, "--out", sys.argv[2]]) != 0:
        sys.exit(f"job failed: {argv}")
sys.setprofile(None)

def codes(obj):
    if isinstance(obj, type):  # a class runs when any of its methods runs
        return [c for attr in vars(obj).values()
                for fn in (attr, getattr(attr, "fget", None), getattr(attr, "__func__", None))
                if (c := getattr(fn, "__code__", None)) is not None]
    return [obj.__code__]

unrun = []
for name in json.loads(sys.argv[3]):
    module = sys.modules[f"aklt_mite.{name}"]
    for attr, obj in vars(module).items():
        if isinstance(obj, (type, types.FunctionType)) and obj.__module__ == module.__name__:
            if not ran.intersection(codes(obj)):
                unrun.append(f"{name}.{attr}")
print(json.dumps(sorted(unrun)))
"""


def test_job_modules_hold_only_job_code(tmp_path):
    """A fresh interpreter profiles ``cli.main`` on the smoke job of every
    benchmark workload: every function and class the job modules define
    runs, but for the ``HELD`` names."""
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    jobs = [wl["smoke_args"] + ["--seed", "0"] for wl in spec["workloads"].values()]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE_PROBE, json.dumps(jobs), str(tmp_path / "out.csv"),
         json.dumps(JOB_MODULES)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    unrun = set(json.loads(proc.stdout))
    not_run, stale = sorted(unrun - HELD), sorted(HELD - unrun)
    assert not not_run, f"defined in a job module, run by no job: {not_run}"
    assert not stale, f"held, but run by a job or no longer defined: {stale}"
