import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from aklt_mite import cli, mite, verify
from aklt_mite.cli import main

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(args):
    return main([str(a) for a in args])


def data_rows(path):
    """CSV rows with the comment header stripped."""
    return [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]


class TestPrepare:
    def test_smoke_and_schema(self, tmp_path):
        out = tmp_path / "prep.csv"
        assert run(["prepare", "--n", 3, "--runs", 2, "--rounds", 4, "--seed", 1, "--out", out]) == 0
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("config_hash" in ln for ln in header)
        assert any("base_seed" in ln for ln in header)
        rows = data_rows(out)
        assert rows[0] == "run_id,r,f_tot,min_partial_fidelity,corrections_so_far"
        assert rows[1].startswith("0,0,")
        summary = json.loads((tmp_path / "prep.csv.summary.json").read_text())
        assert summary["runs"] == 2
        assert len(summary["mean_f_tot"]) == 5

    def test_byte_identical_replay(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["prepare", "--n", 4, "--runs", 3, "--rounds", 3, "--seed", 1, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.summary.json").read_bytes() == (tmp_path / "b.csv.summary.json").read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run(["prepare", "--n", 3, "--runs", 2, "--rounds", 3, "--seed", 2,
                    "--threads", 1, "--out", a]) == 0
        assert run(["prepare", "--n", 3, "--runs", 2, "--rounds", 3, "--seed", 2,
                    "--threads", 2, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_golden_file(self, tmp_path):
        out = tmp_path / "golden.csv"
        assert run(["prepare", "--n", 3, "--runs", 2, "--rounds", 5, "--seed", 7, "--out", out]) == 0
        assert out.read_bytes() == (DATA / "golden_prepare.csv").read_bytes()

    def test_invalid_length_rejected_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run(["prepare", "--n", 2, "--runs", 1, "--out", out]) == 1
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    def test_negative_seed_rejected_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run(["prepare", "--n", 3, "--runs", 1, "--seed", -1, "--out", out]) == 1
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    def test_missing_out_rejected(self):
        assert run(["prepare", "--n", 3, "--runs", 1]) == 1

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "prep.jsonl"
        assert run(["prepare", "--n", 3, "--runs", 1, "--rounds", 2, "--seed", 0,
                    "--format", "jsonl", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert "header" in json.loads(lines[0])
        row = json.loads(lines[1])
        assert set(row) == {"run_id", "r", "f_tot", "min_partial_fidelity", "corrections_so_far"}

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "n": 3, "runs": 1, "rounds": 3, "seed": 5,
        }))
        direct = tmp_path / "direct.csv"
        viafile = tmp_path / "viafile.csv"
        assert run(["prepare", "--config", cfg, "--out", viafile]) == 0
        assert run(["prepare", "--n", 3, "--runs", 1, "--rounds", 3, "--seed", 5, "--out", direct]) == 0
        assert data_rows(direct) == data_rows(viafile)
        # flag overrides the file seed, changing the trajectory
        overridden = tmp_path / "override.csv"
        assert run(["prepare", "--config", cfg, "--seed", 6, "--out", overridden]) == 0
        assert data_rows(overridden) != data_rows(viafile)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        calls = []

        def failing_fmt(x):
            calls.append(x)
            if len(calls) > 10:  # the first cell of the third data row
                raise OSError("disk full")
            return str(x)

        monkeypatch.setattr(cli, "_fmt", failing_fmt)
        out = tmp_path / "prep.csv"
        assert run(["prepare", "--n", 3, "--runs", 1, "--rounds", 4, "--out", out]) == 2
        assert "disk full" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # neither the output nor a temp file

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "wibble": True}))
        assert run(["prepare", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1


class TestNoise:
    def test_zero_variance_reduces_to_prepare(self, tmp_path):
        plain = tmp_path / "plain.csv"
        noisy = tmp_path / "noisy.csv"
        assert run(["prepare", "--n", 3, "--runs", 2, "--rounds", 4, "--seed", 3, "--out", plain]) == 0
        assert run(["noise", "--n", 3, "--runs", 2, "--rounds", 4, "--seed", 3,
                    "--noise-axis", "z", "--sigma2", 0.0, "--out", noisy]) == 0
        assert data_rows(plain) == data_rows(noisy)

    def test_noise_needs_axis(self, tmp_path):
        assert run(["noise", "--n", 3, "--runs", 1, "--sigma2", 0.01,
                    "--out", tmp_path / "x.csv"]) == 1

    def test_noise_smoke(self, tmp_path):
        out = tmp_path / "noise.csv"
        assert run(["noise", "--n", 3, "--runs", 1, "--rounds", 3, "--seed", 0,
                    "--noise-axis", "x", "--sigma2", 0.001, "--out", out]) == 0
        assert len(data_rows(out)) >= 3


class TestProject:
    def test_r_c_table(self, tmp_path):
        out = tmp_path / "proj.csv"
        assert run(["project", "--n", "3,4,5", "--rounds", 12, "--out", out]) == 0
        summary = json.loads((tmp_path / "proj.csv.summary.json").read_text())
        for n in ("3", "4", "5"):
            assert summary["r_c"][n] is not None
            assert summary["r_c"][n] <= 12

    def test_single_n(self, tmp_path):
        out = tmp_path / "proj1.csv"
        assert run(["project", "--n", 4, "--rounds", 10, "--out", out]) == 0
        rows = data_rows(out)
        assert rows[0] == "n,r,f_tot"
        assert len(rows) == 12  # header + r = 0..10


class TestRecompile:
    def test_table_and_summary(self, tmp_path):
        out = tmp_path / "rec.csv"
        assert run(["recompile", "--layers", "0,1", "--reps", 2, "--maxiter", 20,
                    "--hops", 1, "--seed", 0, "--out", out]) == 0
        rows = data_rows(out)
        assert rows[0] == "n_layers,repetition,final_fidelity,hops_used"
        assert len(rows) == 5
        summary = json.loads((tmp_path / "rec.csv.summary.json").read_text())
        assert summary["per_depth"]["1"]["cnot_count"] == 2
        assert summary["per_depth"]["1"]["max_fidelity"] >= summary["per_depth"]["1"]["mean_fidelity"]

    @pytest.mark.parametrize("flags", [
        ["--layers", "abc"],
        ["--layers", "1,-1"],
        ["--layers", ","],
        ["--reps", 0],
        ["--maxiter", 0],
        ["--hops", -1],
        ["--seed", -1],
    ])
    def test_bad_inputs_rejected_without_output(self, tmp_path, capsys, flags):
        out = tmp_path / "never.csv"
        assert run(["recompile", "--layers", "1", "--reps", 1, "--maxiter", 5,
                    *flags, "--out", out]) == 1
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err


class TestVerify:
    def test_fresh_build_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["verify", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["total"] >= 12
        assert report["failures"] == []

    def test_fault_injection_fails_named_check(self, tmp_path, monkeypatch):
        # a pair normalized by 1/2 instead of 1/sqrt(2), seen by a two-check suite
        kraus = verify.mite.measurement_kraus

        def half_normalized(epsilon, projector):
            k = kraus(epsilon, projector)
            return SimpleNamespace(m0=k.m0 / math.sqrt(2), m1=k.m1 / math.sqrt(2))

        monkeypatch.setattr(verify.mite, "measurement_kraus", half_normalized)
        monkeypatch.setattr(verify, "CHECKS", [
            check for check in verify.CHECKS if check[0] in ("kraus_completeness", "spin1_casimir")
        ])
        out = tmp_path / "verify_bad.json"
        assert run(["verify", "--out", out]) == 3
        report = json.loads(out.read_text())
        assert report["total"] == 2
        assert report["failures"] == ["kraus_completeness"]


class TestBenchmarkTracer:
    """The benchmark's tracer wraps package functions by name; a renamed
    function or a changed return shape must fail here, not in a traced run."""

    @pytest.fixture
    def tracer_module(self):
        spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_traced_functions_exist(self, tracer_module):
        for mod_name, fn_name, _, _ in tracer_module.TRACED:
            module = importlib.import_module(f"aklt_mite.{mod_name}")
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"

    def test_prepare_records_visit_spans_and_cap_hook(self, tracer_module):
        original = mite.mite_subroutine
        tracer = tracer_module.Tracer()
        tracer.install()  # needs every traced module loaded, as importing cli does
        try:
            mite.prepare(mite.MiteConfig(seed=1, r_max=3), 4, "spin1")
        finally:
            tracer.restore()
        assert mite.mite_subroutine is original
        assert tracer.calls["mite.mite_subroutine"] >= 4
        assert "mite.cap_visits" in tracer.counts


class TestThreadsEnv:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AKLT_MITE_THREADS", "2")
        out = tmp_path / "env.csv"
        assert run(["prepare", "--n", 3, "--runs", 2, "--rounds", 3, "--seed", 2, "--out", out]) == 0
        ref = tmp_path / "ref.csv"
        monkeypatch.delenv("AKLT_MITE_THREADS")
        assert run(["prepare", "--n", 3, "--runs", 2, "--rounds", 3, "--seed", 2, "--out", ref]) == 0
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("flags, env", [
        (["--threads", -3], None),
        ([], "x"),
        ([], "-1"),
    ])
    def test_bad_thread_count_rejected(self, tmp_path, monkeypatch, capsys, flags, env):
        # validation runs before any pool starts, so no worker is spawned here
        if env is not None:
            monkeypatch.setenv("AKLT_MITE_THREADS", env)
        out = tmp_path / "never.csv"
        assert run(["prepare", "--n", 3, "--runs", 1, *flags, "--out", out]) == 1
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err


class TestQubitMode:
    def test_prepare_qubit_smoke(self, tmp_path):
        out = tmp_path / "qubit.csv"
        assert run(["prepare", "--mode", "qubit", "--n", 3, "--runs", 1,
                    "--rounds", 3, "--seed", 0, "--out", out]) == 0
        assert len(data_rows(out)) == 5  # header + r = 0..3

    def test_qubit_bounds(self, tmp_path):
        assert run(["prepare", "--mode", "qubit", "--n", 9, "--runs", 1,
                    "--out", tmp_path / "x.csv"]) == 1


SCIPY_PROBE = """
import json, sys
from aklt_mite import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

loaded = {"import": scipy_modules()}
out = sys.argv[1]
for argv in (
    "prepare --n 3 --runs 1 --rounds 3 --seed 0",
    "prepare --mode qubit --n 3 --runs 1 --rounds 3 --seed 0",
    "noise --n 3 --runs 1 --rounds 3 --seed 0 --noise-axis x --sigma2 1e-2",
    "noise --mode qubit --n 3 --runs 1 --rounds 3 --seed 0 --noise-axis z --sigma2 1e-2",
    "project --n 3,4,9 --rounds 3",
):
    if cli.main([*argv.split(), "--out", out]) != 0:
        sys.exit(f"job failed: {argv}")
    loaded[argv] = scipy_modules()
print(json.dumps(loaded))
"""


def test_jobs_load_no_scipy(tmp_path):
    """The CLI import and the prepare/noise/project jobs run without scipy;
    only recompile and the expm/diagonalization oracles import it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == {stage: [] for stage in loaded}


@pytest.mark.parametrize("argv, expected", [
    ("prepare --n 3 --runs 2 --rounds 5 --seed 7", "1c1f321314206c1e"),
    ("prepare --mode spin1 --n 6 --runs 3 --rounds 30 --threads 1 --seed 100", "a004a5f6dc5103a4"),
    ("noise --mode qubit --n 5 --noise-axis z --sigma2 1e-2 --runs 4 --threads 1 --seed 0",
     "f3a708195eeb59b7"),
    ("project --n 3,4,5,6,7,8,9 --rounds 15 --threads 1", "404093c9b039e788"),
    ("recompile --layers 4 --reps 2 --maxiter 30 --threads 1 --seed 0", "b9fbc5f03c79ae00"),
])
def test_science_hash_pinned(argv, expected):
    """Config hashes in data-file headers stay stable across refactors of
    the defaults (the benchmark's pinned outputs carry these five)."""
    args = cli._build_parser().parse_args(argv.split())
    cfg = cli.validate(cli.resolve_config(args), args.command)
    assert cli.science_hash(cfg, args.command) == expected
