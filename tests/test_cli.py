import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from aklt_mite import cli, jobs, mite, recompile, spin_ops, verify
from aklt_mite.cli import main

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(args):
    return main([str(a) for a in args])


def data_rows(path):
    """CSV rows with the comment header stripped."""
    return [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]


def run_on_package(*argv) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter on this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


def run_probe(code: str, *argv) -> object:
    """The JSON that ``code`` prints, run in a fresh interpreter on this
    checkout's package."""
    proc = run_on_package("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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

    def test_golden_file(self, tmp_path):
        out = tmp_path / "golden.csv"
        assert run(["prepare", "--n", 3, "--runs", 2, "--rounds", 5, "--seed", 7, "--out", out]) == 0
        assert out.read_bytes() == (DATA / "golden_prepare.csv").read_bytes()

    def test_golden_route_rewrites_both_files(self, tmp_path):
        """``tests/write_golden.py``, run as its docstring says but into
        ``tmp_path``, writes both golden files byte for byte as committed,
        and nothing else."""
        proc = run_on_package(DATA.parent / "write_golden.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        names = ["golden_bond_series.json", "golden_prepare.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name

    def test_invalid_length_rejected_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run(["prepare", "--n", 2, "--runs", 1, "--out", out]) == 1
        assert not out.exists()
        assert "n = 2 outside the supported spin1 range 3..9" in capsys.readouterr().err

    def test_threshold_above_midpoint_rejected_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run(["prepare", "--n", 3, "--runs", 1, "--epsilon", 3, "--out", out]) == 1
        assert not out.exists()
        assert "midpoint" in capsys.readouterr().err

    def test_negative_seed_rejected_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run(["prepare", "--n", 3, "--runs", 1, "--seed", -1, "--out", out]) == 1
        assert not out.exists()
        assert "seed must be nonnegative" in capsys.readouterr().err

    def test_missing_out_rejected(self, capsys):
        assert run(["prepare", "--n", 3, "--runs", 1]) == 1
        assert "--out is required" in capsys.readouterr().err

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

    @pytest.mark.parametrize("failing", ["_fmt", "_json_text"], ids=["data", "summary"])
    def test_failed_write_removes_the_folders_it_made(self, tmp_path, monkeypatch, capsys, failing):
        """A job whose data file or summary cannot be written removes the
        folders it made for them, and keeps the one that was there before."""
        def disk_full(x):
            raise OSError("disk full")

        monkeypatch.setattr(cli, failing, disk_full)
        (tmp_path / "kept").mkdir()
        assert run(["prepare", "--n", 3, "--runs", 1, "--rounds", 2,
                    "--out", tmp_path / "kept" / "nd" / "c" / "d" / "prep.csv"]) == 2
        assert "disk full" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [tmp_path / "kept"]

    def test_failed_summary_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        """A job that fails after its trajectories, while computing its
        summary, exits 2 having opened no file."""
        def failing(series):
            raise FloatingPointError("no crossing round")

        monkeypatch.setattr(mite, "critical_rounds", failing)
        assert run(["prepare", "--n", 3, "--runs", 1, "--rounds", 4,
                    "--out", tmp_path / "out" / "prep.csv"]) == 2
        assert "FloatingPointError: no crossing round" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_summary_write_removes_the_data_file(self, tmp_path, capsys):
        (tmp_path / "prep.csv.summary.json").mkdir()  # the summary cannot replace a directory
        assert run(["prepare", "--n", 3, "--runs", 1, "--rounds", 4,
                    "--out", tmp_path / "prep.csv"]) == 2
        assert "IsADirectoryError" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["prep.csv.summary.json"]

    def test_runtime_failure_names_seed_and_round(self, tmp_path, monkeypatch, capsys):
        """A bond's weight error in round 2 leaves ``prepare`` prefixed with
        the seed and round that replay it, and the job exits 2 naming them."""
        sweep, rounds = mite.sweep_round, []

        def corrupt_round_2(state, *args):
            rounds.append(state)
            if len(rounds) == 2:  # every bond of 2 |+1 ... +1> has excited weight 4
                state = np.zeros_like(state)
                state.flat[0] = 2.0
            return sweep(state, *args)

        monkeypatch.setattr(mite, "sweep_round", corrupt_round_2)
        with pytest.raises(RuntimeError) as failure:
            mite.prepare(mite.MiteConfig(seed=7, r_max=3, early_stop=None), 3, "spin1")
        assert str(failure.value) == "seed 7, round 2: bond 1: excited weight 4.0 outside [0, 1]"
        assert str(failure.value.__cause__) == "bond 1: excited weight 4.0 outside [0, 1]"
        rounds.clear()
        out = tmp_path / "never.csv"
        assert run(["prepare", "--n", 3, "--runs", 1, "--rounds", 3, "--seed", 7, "--out", out]) == 2
        assert "RuntimeError: seed 7, round 2: bond 1: excited weight 4.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, val", [
        ("prepare", "seed", 1.5),
        ("noise", "runs", 2.0),
        ("prepare", "fire_window", 12.0),
        ("project", "rounds", 15.5),
        ("recompile", "maxiter", 30.0),
    ])
    def test_non_integer_setting_rejected_without_output(self, tmp_path, capsys, command, key, val):
        small = ["--n", 3, "--runs", 1, "--rounds", 2] if command in ("prepare", "noise") else []
        flag = "--" + key.replace("_", "-")
        assert run([command, *small, flag, val, "--out", tmp_path / "never.csv"]) == 1
        assert f"argument {flag}: invalid int value: '{val}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["prepare", "--mode", "qutrit"],
        ["noise", "--noise-axis", "y"],
    ], ids=["mode-qutrit", "noise_axis-y"])
    def test_value_its_flag_cannot_read_rejected_without_output(self, tmp_path, capsys, argv):
        """A choice must be one its flag lists."""
        assert run([*argv, "--n", 3, "--runs", 1, "--rounds", 2, "--out", tmp_path / "never.csv"]) == 1
        assert f"argument {argv[1]}: invalid choice: {argv[2]!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fire_window_flag_defaults_to_twelve(self, tmp_path):
        """``--fire-window 12`` writes the bytes of no flag, and 10 other ones."""
        small = ["prepare", "--n", 3, "--runs", 2, "--rounds", 5, "--seed", 7]
        for name, flags in (("none", []), ("12", ["--fire-window", 12]), ("10", ["--fire-window", 10])):
            assert run([*small, *flags, "--out", tmp_path / f"{name}.csv"]) == 0
        for suffix in ("", ".summary.json"):
            read = {name: (tmp_path / f"{name}.csv{suffix}").read_bytes() for name in ("none", "12", "10")}
            assert read["12"] == read["none"] != read["10"]

    @pytest.mark.parametrize("window", [0, 65])  # COUNTER_CAP // 4 = 64
    def test_fire_window_out_of_range_rejected_without_output(self, tmp_path, capsys, window):
        assert run(["prepare", "--n", 3, "--runs", 1, "--rounds", 2, "--fire-window", window,
                    "--out", tmp_path / "never.csv"]) == 1
        assert "need 1 <= fire_window <= 64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestNoise:
    def test_zero_variance_reduces_to_prepare(self, tmp_path):
        plain = tmp_path / "plain.csv"
        noisy = tmp_path / "noisy.csv"
        assert run(["prepare", "--n", 3, "--runs", 2, "--rounds", 4, "--seed", 3, "--out", plain]) == 0
        assert run(["noise", "--n", 3, "--runs", 2, "--rounds", 4, "--seed", 3,
                    "--noise-axis", "z", "--sigma2", 0.0, "--out", noisy]) == 0
        assert data_rows(plain) == data_rows(noisy)

    def test_noise_needs_axis(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["noise", "--n", 3, "--runs", 1, "--sigma2", 0.01, "--out", out]) == 1
        assert not out.exists()
        assert "noise_sigma2 > 0 needs a noise_axis" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--eta", "nan"], ["--sigma2", "nan"]])
    def test_nonfinite_values_rejected_without_output(self, tmp_path, capsys, flags):
        out = tmp_path / "never.csv"
        assert run(["noise", "--n", 3, "--runs", 1, "--rounds", 3, "--noise-axis", "z",
                    "--sigma2", 1e-2, *flags, "--out", out]) == 1
        assert not out.exists()
        assert "and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--sigma", 0.01, "--noise-axis", "z"],
                                       ["--sigma2", 0.01, "--noise-ax", "z"]])
    def test_flag_prefix_rejected_without_output(self, tmp_path, capsys, flags):
        out = tmp_path / "never.csv"
        assert run(["noise", "--n", 3, "--runs", 1, "--rounds", 3, *flags, "--out", out]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_noise_smoke(self, tmp_path):
        out = tmp_path / "noise.csv"
        assert run(["noise", "--n", 3, "--runs", 1, "--rounds", 3, "--seed", 0,
                    "--noise-axis", "x", "--sigma2", 0.001, "--out", out]) == 0
        assert len(data_rows(out)) >= 3


class TestProject:
    def test_failure_names_the_chain_length(self, tmp_path, monkeypatch, capsys):
        """A cascade whose bond step annihilates the state fails the job,
        naming the chain length and round that replay it."""
        monkeypatch.setattr(mite, "bond_projector", lambda mode: np.eye(9))
        assert run(["project", "--n", "3,4", "--rounds", 2, "--out", tmp_path / "p.csv"]) == 2
        assert "n = 3, round 1: projection cascade annihilated" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("argv, reason", [
        (["project", "--n", ",", "--rounds", 3], "n must list at least one integer"),
        (["project", "--n", "", "--rounds", 3], "n must list at least one integer"),
        (["project", "--n", "3,3", "--rounds", 2], "n lists an integer twice"),
        (["project", "--n", "3,03", "--rounds", 2], "n lists an integer twice"),
        (["recompile", "--layers", "1,1", "--reps", 1, "--maxiter", 5], "layers lists an integer twice"),
        (["recompile", "--layers", "1, 01", "--reps", 1, "--maxiter", 5], "layers lists an integer twice"),
    ], ids=["comma", "empty", "repeat", "repeat-respelled", "layers-repeat", "layers-repeat-respelled"])
    def test_empty_list_rejected_without_output(self, tmp_path, capsys, argv, reason):
        """An empty list, or one naming a value twice, is no job to run."""
        assert run([*argv, "--out", tmp_path / "never.csv"]) == 1
        assert reason in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRecompile:
    def test_incompatible_optimizer_core_refused(self, tmp_path, monkeypatch, capsys):
        """A scipy whose compiled L-BFGS-B core takes other arguments fails
        the job, naming the installed scipy and the core the driver needs."""
        from importlib.metadata import version

        core = SimpleNamespace(setulb=lambda m, x, low, up: None)
        monkeypatch.setattr(recompile, "_lbfgsb_core", lambda: core)
        assert run(["recompile", "--layers", 1, "--reps", 1, "--maxiter", 5,
                    "--out", tmp_path / "rec.csv"]) == 2
        err = capsys.readouterr().err
        assert f"RuntimeError: depth 1, repetition 0: scipy {version('scipy')}'s L-BFGS-B core" in err
        assert "scipy >= 1.15" in err
        assert list(tmp_path.iterdir()) == []

    def test_failure_names_the_depth_and_repetition(self, tmp_path, monkeypatch, capsys):
        """A repetition that fails fails the job, naming the depth and
        repetition that replay it."""
        def failing(*args):
            raise RuntimeError("loss diverged")

        monkeypatch.setattr(recompile, "loss_and_grad", failing)
        assert run(["recompile", "--layers", 1, "--reps", 2, "--threads", 1,
                    "--out", tmp_path / "rec.csv"]) == 2
        assert "RuntimeError: depth 1, repetition 0: loss diverged" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    BAD_INPUTS = [
        (["--layers", "abc"], "cannot parse integer list layers"),
        (["--layers", "1,-1"], "layers must list depths >= 0"),
        (["--layers", ","], "layers must list at least one integer"),
        (["--reps", 0], "repetitions must be at least 1"),
        (["--maxiter", 0], "maxiter must be at least 1"),
        (["--hops", -1], "n_hops must be nonnegative"),
        (["--seed", -1], "seed must be nonnegative"),
        (["--epsilon", "nan"], "epsilon must be positive and finite"),
        (["--epsilon", "inf"], "epsilon must be positive and finite"),
    ]

    @pytest.mark.parametrize("flags, reason", BAD_INPUTS, ids=[f"flags{i}" for i in range(len(BAD_INPUTS))])
    def test_bad_inputs_rejected_without_output(self, tmp_path, capsys, flags, reason):
        out = tmp_path / "never.csv"
        assert run(["recompile", "--layers", "1", "--reps", 1, "--maxiter", 5,
                    *flags, "--out", out]) == 1
        assert not out.exists()
        assert reason in capsys.readouterr().err


@pytest.fixture(scope="class")
def verify_run(tmp_path_factory):
    """One ``aklt-mite verify`` run: its exit code and JSON report."""
    out = tmp_path_factory.mktemp("verify") / "verify.json"
    return run(["verify", "--out", out]), json.loads(out.read_text())


class TestVerify:
    def test_fresh_build_passes(self, verify_run):
        code, report = verify_run
        assert code == 0
        assert report["passed"] is True
        # no unit test restates these identities, so none may drop out
        assert [check["name"] for check in report["checks"]] == [
            "spin1_su2_algebra", "spin1_casimir", "spin_half_algebra",
            "bond_projector_idempotent", "bond_projector_hermitian_trace5",
            "bond_projector_spectrum_0x4_1x5", "bond_projector_forms_agree",
            "coupled_basis_projector_action", "adjacent_projectors_noncommute",
            "kraus_completeness", "aklt_zero_energy", "aklt_closed_form_matches_ed",
            "aklt_common_projector", "correction_unitarity",
            "mapped_projector_swap_symmetry", "mapped_projector_isometry_pullback",
            "qubit_reference_equivalence", "symmetric_weight_initial_state",
            "target_unitary_closed_form", "ansatz_circuit_unitarity",
            "gradient_finite_difference", "recompile_schmidt_fidelity_bound",
            "born_rule_frequencies", "own_measurements_preserve_mean_weight",
            "two_level_kernel_matches_full_state",
        ]
        assert report["total"] == 25
        assert report["failures"] == []

    def test_fault_injection_fails_named_check(self, tmp_path, monkeypatch):
        # a pair normalized by 1/2 instead of 1/sqrt(2), seen by a two-check suite
        kraus = verify.measurement_kraus

        def half_normalized(epsilon, projector):
            k = kraus(epsilon, projector)
            return SimpleNamespace(m0=k.m0 / math.sqrt(2), m1=k.m1 / math.sqrt(2))

        monkeypatch.setattr(verify, "measurement_kraus", half_normalized)
        monkeypatch.setattr(verify, "CHECKS", [
            check for check in verify.CHECKS if check[0] in ("kraus_completeness", "spin1_casimir")
        ])
        out = tmp_path / "verify_bad.json"
        assert run(["verify", "--out", out]) == 3
        report = json.loads(out.read_text())
        assert report["total"] == 2
        assert report["failures"] == ["kraus_completeness"]

    def test_unwritable_report_is_a_runtime_failure(self, tmp_path, monkeypatch, capsys):
        """A report path below a regular file exits 2 with one error line,
        after the checks, and writes no file."""
        monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:1])
        (tmp_path / "afile").write_text("kept")
        assert run(["verify", "--out", tmp_path / "afile" / "report.json"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: FileExistsError")
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept"

    def test_failed_report_write_removes_the_folders_it_made(self, tmp_path, monkeypatch, capsys):
        """A report that cannot be written removes the folders made for it,
        and keeps the one that was there before."""
        def disk_full(payload):
            raise OSError("disk full")

        monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:1])
        monkeypatch.setattr(cli, "_json_text", disk_full)
        (tmp_path / "kept").mkdir()
        assert run(["verify", "--out", tmp_path / "kept" / "a" / "b" / "report.json"]) == 2
        assert "disk full" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [tmp_path / "kept"]


    @pytest.mark.parametrize("name", [name for name, _ in verify.CHECKS])
    def test_check_passes(self, verify_run, name):
        """Each identity as its own case, read from the one verify run, so a
        failing one names itself."""
        check, = (c for c in verify_run[1]["checks"] if c["name"] == name)
        assert check["passed"], check["detail"]

    def test_mean_weight_check_sees_a_biased_collapse(self, monkeypatch):
        # a collapse that leaves w too high by 1e-12 (relative) on outcome 1 breaks lemma 2
        sample = verify.mite.TwoLevelBond.sample

        def biased(bond, gains, u):
            q = sample(bond, gains, u)
            bond.w *= 1 + 1e-12 * q
            return q

        assert verify.check_own_measurements_preserve_mean_weight()[0] is True
        monkeypatch.setattr(verify.mite.TwoLevelBond, "sample", biased)
        assert verify.check_own_measurements_preserve_mean_weight()[0] is False


JOB_PROBE = """
import json, sys
from aklt_mite import cli

code = cli.main([*sys.argv[2:], "--out", sys.argv[1]])
print(json.dumps([code, sorted(sys.modules)]))
"""


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

    def test_one_job_loads_every_traced_module(self, tracer_module, tmp_path):
        """``Tracer.install`` looks each traced module up in ``sys.modules``
        after one warm-up job, whichever job that is; the smallest prepare
        job must load the recompile module too."""
        code, loaded = run_probe(JOB_PROBE, tmp_path / "out.csv",
                                 *SPEC["workloads"]["prepare-spin1"]["smoke_args"], "--seed", 0)
        assert code == 0
        assert {f"aklt_mite.{mod}" for mod, _, _, _ in tracer_module.TRACED} <= set(loaded)

    def test_prepare_records_visit_spans_and_cap_hook(self, tracer_module):
        original = mite.mite_subroutine
        tracer = tracer_module.Tracer()
        tracer.install()  # needs every traced module loaded: this file imports them
        try:
            mite.prepare(mite.MiteConfig(seed=1, r_max=3), 4, "spin1")
        finally:
            tracer.restore()
        assert mite.mite_subroutine is original
        assert tracer.calls["mite.mite_subroutine"] >= 4
        assert "mite.cap_visits" in tracer.counts

    def test_recompile_records_gradient_spans_and_iterations(self, tracer_module):
        # the per-layer recompile metrics need the gradient looked up by its
        # global name at call time; one bound when the module loads (a
        # default argument, a closure) escapes the tracer and reads 0
        original = recompile.loss_and_grad
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            jobs.run_recompile({"epsilon": 0.5, "threads": 1}, [1], recompile.OptimizerConfig(
                maxiter=5, n_hops=1, repetitions=1, seed=0))
        finally:
            tracer.restore()
        assert recompile.loss_and_grad is original
        assert tracer.calls["recompile.loss_and_grad"] > 0
        assert tracer.calls["recompile.optimize_once"] == 1
        assert tracer.counts["recompile.iterations"] > 0


SPEC = json.loads((PERFBENCH / "spec.json").read_text())


class TestBenchmarkSpec:
    """The benchmark runs its jobs from the argument lists in
    ``perfbench/spec.json``; a change to argument reading that breaks one
    must fail here, not in a benchmark run."""

    @pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
    @pytest.mark.parametrize("which", ["args", "smoke_args"])
    def test_job_arguments_are_valid(self, workload, which):
        args = cli._build_parser().parse_args(SPEC["workloads"][workload][which])
        cli.validate(cli.resolve_config(args), args.command)

    @pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
    def test_smoke_job_runs(self, tmp_path, workload):
        out = tmp_path / "out.csv"
        assert run([*SPEC["workloads"][workload]["smoke_args"], "--out", out]) == 0
        assert data_rows(out)
        assert (tmp_path / "out.csv.summary.json").exists()

    @pytest.mark.parametrize("workload", ["prepare-spin1", "noise-qubit", "cascade"])
    def test_first_job_matches_its_pinned_outputs(self, tmp_path, workload):
        """The benchmark's first seeded job, checked by the benchmark's own
        pinning rule: a change of evaluation order that flips an integer
        record, or moves a float past 1e-12, fails here."""
        spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        out = tmp_path / "out.csv"
        assert run([*SPEC["workloads"][workload]["args"], "--seed", 0, "--out", out]) == 0
        pinned = PERFBENCH / "pinned" / "full" / workload / "seed0"
        problems = checks.compare_pinned(
            out.read_text(), (tmp_path / "out.csv.summary.json").read_text(),
            checks.read_pinned(pinned.with_suffix(".csv.gz")),
            checks.read_pinned(pinned.with_suffix(".summary.json.gz")),
        )
        assert problems == []


class TestThreadsEnv:
    @pytest.mark.parametrize("argv", [
        ["prepare", "--n", 3, "--runs", 2, "--rounds", 3, "--seed", 2],
        ["noise", "--mode", "qubit", "--n", 3, "--runs", 2, "--rounds", 3, "--seed", 2,
         "--noise-axis", "z", "--sigma2", 1e-2],
        ["project", "--n", "3,4,5", "--rounds", 4],
        ["recompile", "--layers", "0,1", "--reps", 2, "--maxiter", 10, "--hops", 1, "--seed", 2],
    ], ids=lambda argv: argv[0])
    def test_threads_do_not_change_output(self, tmp_path, argv):
        """Every job writes the same data file and summary, byte for byte,
        in one process and on a pool of two workers."""
        for threads in (1, 2):
            assert run([*argv, "--threads", threads, "--out", tmp_path / f"t{threads}.csv"]) == 0
        for name in ("t{}.csv", "t{}.csv.summary.json"):
            one, two = (tmp_path / name.format(t) for t in (1, 2))
            assert one.read_bytes() == two.read_bytes(), name

    def test_env_var_ignored(self, tmp_path, monkeypatch):
        """The thread count is ``--threads`` alone:
        ``AKLT_MITE_THREADS`` in the environment neither fails the job nor
        changes its data."""
        argv = ["prepare", "--n", 3, "--runs", 2, "--rounds", 3, "--seed", 2]
        ref = tmp_path / "ref.csv"
        assert run([*argv, "--out", ref]) == 0
        monkeypatch.setenv("AKLT_MITE_THREADS", "x")
        out = tmp_path / "env.csv"
        assert run([*argv, "--out", out]) == 0
        for suffix in ("", ".summary.json"):
            assert (tmp_path / f"env.csv{suffix}").read_bytes() == (tmp_path / f"ref.csv{suffix}").read_bytes()

    @pytest.mark.parametrize("flags", [["--threads", -3], ["--threads", 0]])
    def test_bad_thread_count_rejected(self, tmp_path, capsys, flags):
        # validation runs before any pool starts, so no worker is spawned here
        out = tmp_path / "never.csv"
        assert run(["prepare", "--n", 3, "--runs", 1, *flags, "--out", out]) == 1
        assert not out.exists()
        assert f"threads must be at least 1, got {flags[1]}" in capsys.readouterr().err


class TestQubitMode:
    def test_prepare_qubit_smoke(self, tmp_path):
        out = tmp_path / "qubit.csv"
        assert run(["prepare", "--mode", "qubit", "--n", 3, "--runs", 1,
                    "--rounds", 3, "--seed", 0, "--out", out]) == 0
        assert len(data_rows(out)) == 5  # header + r = 0..3

    def test_out_of_sector_state_fails_without_output(self, tmp_path, capsys, monkeypatch):
        """Corrections that rotate one sub-spin of a site, U (x) 1 in place of
        U (x) U, break the a<->b swap symmetry; the trajectory leaves the
        symmetric sector and the job stops with exit 2, naming the seed and
        the round."""
        half = spin_ops.spin_half_matrices()

        def one_sub_spin(vs, d):
            return np.array([np.kron(expm(1j * np.tensordot(v, half, 1)), np.eye(2))
                             for v in np.reshape(vs, (-1, 3))])

        monkeypatch.setattr(mite, "site_rotations", one_sub_spin)
        out = tmp_path / "never.csv"
        assert run(["prepare", "--mode", "qubit", "--n", 3, "--runs", 1, "--rounds", 3,
                    "--seed", 4, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "RuntimeError: seed 4, round 1: symmetric-sector weight" in err
        assert not out.exists()

    def test_qubit_bounds(self, tmp_path, capsys):
        assert run(["prepare", "--mode", "qubit", "--n", 9, "--runs", 1,
                    "--out", tmp_path / "x.csv"]) == 1
        assert "n = 9 outside the supported qubit range 3..8" in capsys.readouterr().err


TRAJECTORY_SETTINGS = {"seed", "threads", "runs", "n", "mode", "epsilon", "eta",
                       "rounds", "n_iter", "window", "fire_window"}


class TestSettings:
    """Each subcommand takes exactly the settings its driver reads."""

    def test_accepted_settings_pinned(self):
        parser = cli._build_parser()
        assert {cmd: cli.accepted_keys(parser.parse_args([cmd]))
                for cmd in ("prepare", "noise", "project", "recompile")} == {
            "prepare": TRAJECTORY_SETTINGS,
            "noise": TRAJECTORY_SETTINGS | {"noise_axis", "sigma2"},
            "project": {"seed", "threads", "n", "rounds"},
            "recompile": {"seed", "threads", "epsilon", "layers", "reps",
                          "maxiter", "hops"},
        }

    @pytest.mark.parametrize("argv", [
        ["project", "--n", 3, "--mode", "qubit"],
        ["project", "--n", 3, "--epsilon", 0.3],
        ["project", "--n", 3, "--runs", 2],
        ["recompile", "--layers", 1, "--window", 40],
        ["recompile", "--layers", 1, "--n", 9],
        ["recompile", "--layers", 1, "--rounds", 5],
        ["prepare", "--n", 3, "--format", "csv"],
        ["prepare", "--n", 3, "--sigma2", 1e-2],
        ["prepare", "--n", 3, "--layers", 1],
        ["prepare", "--n", 3, "--config", "x.json"],
    ])
    def test_unread_flag_rejected_without_output(self, tmp_path, capsys, argv):
        out = tmp_path / "never.csv"
        assert run([*argv, "--out", out]) == 1
        assert not out.exists()
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err

    def test_readme_table_lists_every_flag(self):
        """The README's settings table names each experiment's flags, no
        more and no fewer: its own row, the row of all four, and for
        ``noise`` the ``prepare`` row it points to."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme[readme.index("| subcommand "):].split("\n\n")[0]
        rows = dict(re.findall(r"^\| `?([a-z ]+?)`? +\| (.*) \|$", table, re.MULTILINE))
        flags = {name: set(re.findall(r"`(--[a-z0-9-]+)", row)) for name, row in rows.items()}
        commands, = (a.choices for a in cli._build_parser()._actions if a.dest == "command")
        for cmd in ("prepare", "noise", "project", "recompile"):
            documented = flags[cmd] | flags["all four"]
            if "the `prepare` flags" in rows[cmd]:
                documented |= flags["prepare"]
            assert documented == set(commands[cmd]._option_string_actions) - {"-h", "--help"}, cmd


SCIPY_PROBE = """
import json, sys
from aklt_mite import cli

UNLOADED = ("concurrent.futures.process", "multiprocessing", "aklt_mite.verify", "numpy.ma")

def unwanted_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy") or m in UNLOADED)

loaded = {"import": unwanted_modules()}
out = sys.argv[1]
for argv in (
    "prepare --n 3 --runs 1 --rounds 3 --seed 0",
    "prepare --n 3 --runs 1 --rounds 3 --seed 2",  # reaches 0.9: the summary takes a median
    "prepare --mode qubit --n 3 --runs 1 --rounds 3 --seed 0",
    "noise --n 3 --runs 1 --rounds 3 --seed 0 --noise-axis x --sigma2 1e-2",
    "noise --mode qubit --n 3 --runs 1 --rounds 3 --seed 0 --noise-axis z --sigma2 1e-2",
    "project --n 3,4,9 --rounds 3",
    "recompile --layers 1 --reps 1 --maxiter 3 --hops 1 --seed 0",
):
    if cli.main([*argv.split(), "--threads", "1", "--out", out]) != 0:
        sys.exit(f"job failed: {argv}")
    loaded[argv] = unwanted_modules()
print(json.dumps(loaded))
"""


def test_jobs_load_no_scipy(tmp_path):
    """The CLI import and the one-process prepare/noise/project jobs run
    without scipy, the process pool, the verify oracles or ``numpy.ma``;
    only ``--threads`` above 1 and ``verify`` load the first three.
    recompile, run last, adds scipy's compiled L-BFGS-B core and no module
    of the ``scipy.optimize`` package."""
    loaded = run_probe(SCIPY_PROBE, tmp_path / "out.csv")
    recompile = list(loaded)[-1]
    assert recompile.startswith("recompile")
    assert loaded.pop(recompile) == ["scipy.optimize._lbfgsb"]
    assert loaded == {stage: [] for stage in loaded}


VALIDATION_PROBE = """
import json, sys
from aklt_mite import cli

for argv in json.loads(sys.argv[1]):
    args = cli._build_parser().parse_args(argv)
    cli.validate(cli.resolve_config(args), args.command)
code = cli.main(["prepare", "--n", "99", "--out", sys.argv[2]])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] in ("numpy", "aklt_mite", "hashlib", "_hashlib"))]))
"""


def test_validation_loads_no_numpy(tmp_path):
    """The CLI import, the settings checks of every benchmark job and a
    refused setting run on the standard library and ``params`` alone, and
    load neither numpy nor ``hashlib`` (OpenSSL's ``_hashlib``)."""
    workloads = [wl["args"] for wl in SPEC["workloads"].values()]
    code, loaded = run_probe(VALIDATION_PROBE, json.dumps(workloads), tmp_path / "out.csv")
    assert code == 1
    assert not (tmp_path / "out.csv").exists()
    assert loaded == ["aklt_mite", "aklt_mite.cli", "aklt_mite.params"]


@pytest.mark.parametrize("argv, expected", [
    ("prepare --n 3 --runs 2 --rounds 5 --seed 7", "1c1f321314206c1e"),
    ("prepare --mode spin1 --n 6 --runs 3 --rounds 30 --threads 1 --seed 100", "a004a5f6dc5103a4"),
    ("noise --mode qubit --n 5 --noise-axis z --sigma2 1e-2 --runs 4 --threads 1 --seed 0",
     "f3a708195eeb59b7"),
    ("project --n 3,4,5,6,7,8,9 --rounds 15 --threads 1", "404093c9b039e788"),
    ("recompile --layers 4 --reps 2 --maxiter 30 --threads 1 --seed 0", "b9fbc5f03c79ae00"),
    ("prepare --n 3 --runs 2 --rounds 5 --seed 7 --fire-window 10", "71f55d2af5edfbd6"),
])
def test_science_hash_pinned(argv, expected):
    """Config hashes in data-file headers stay stable across refactors of
    the defaults (the benchmark's pinned outputs carry the middle four)."""
    args = cli._build_parser().parse_args(argv.split())
    cfg = cli.resolve_config(args)
    cli.validate(cfg, args.command)
    assert cli.science_hash(cfg, args.command) == expected


@pytest.mark.parametrize("spelling", ["3,4", "3, 4", "3,,4", "03,4"])
def test_science_hash_reads_the_parsed_list(spelling):
    """One list of chain lengths, one hash, however the list is written."""
    args = cli._build_parser().parse_args(["project", "--n", spelling, "--rounds", "3"])
    cfg = cli.resolve_config(args)
    cli.validate(cfg, args.command)
    assert cli.science_hash(cfg, args.command) == "a1cca55a12500c73"


MODULE_ENTRY_PROBE = """
import json, runpy, sys

try:
    runpy.run_module("aklt_mite.cli", run_name="__main__")
except SystemExit as exc:
    print(json.dumps([exc.code, "aklt_mite.cli" in sys.modules]))
"""


def test_module_entry_loads_cli_once(tmp_path):
    """``python -m aklt_mite.cli`` (how the benchmark runs every job) runs a
    job on the one copy of ``cli`` that executes as ``__main__``: no module
    of the job imports ``aklt_mite.cli`` a second time."""
    code, loaded = run_probe(MODULE_ENTRY_PROBE, "prepare", "--n", 3, "--runs", 1, "--rounds", 2,
                             "--seed", 0, "--out", tmp_path / "out.csv")
    assert code == 0
    assert not loaded
    assert (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv, expected", [
    (["prepare", "--n", "3", "--runs", "1", "--rounds", "2", "--seed", "0"], 0),
    (["prepare", "--n", "99"], 1),
])
def test_entry_point_freezes_the_collector(tmp_path, argv, expected):
    """``run``, the entry of the ``aklt-mite`` script and of ``python -m
    aklt_mite.cli``, returns ``main``'s code and leaves the collector frozen,
    so the interpreter's exit skips its final collections."""
    import gc

    try:
        assert cli.run([*argv, "--out", str(tmp_path / "out.csv")]) == expected
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert 'aklt-mite = "aklt_mite.cli:run"' in pyproject.splitlines()
