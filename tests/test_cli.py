import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from aklt_mite import cli, mite, recompile, spin_ops, verify
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

    def test_threshold_above_midpoint_rejected_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run(["prepare", "--n", 3, "--runs", 1, "--epsilon", 3, "--out", out]) == 1
        assert not out.exists()
        assert "midpoint" in capsys.readouterr().err

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

    def test_runtime_failure_names_seed_and_round(self, tmp_path, monkeypatch, capsys):
        """A bond's weight error in round 2 leaves ``prepare`` prefixed with
        the seed and round that replay it, and the job exits 2 naming them."""
        sweep, rounds = mite.sweep_round, []

        def corrupt_round_2(state, *args):
            rounds.append(state)
            if len(rounds) == 2:  # every bond of 2 |+1 ... +1> has excited weight 4
                amps = np.zeros_like(state.amps)
                amps[0] = 2.0
                state = state.with_amps(amps)
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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "wibble": True}))
        assert run(["prepare", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1

    @pytest.mark.parametrize("extra", [{"experiment": "project"}, {"out": "elsewhere.csv"}])
    def test_foreign_experiment_or_out_in_config_rejected(self, tmp_path, capsys, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "runs": 1, "rounds": 2, **extra}))
        out = tmp_path / "here.csv"
        assert run(["prepare", "--config", cfg, "--out", out]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_own_experiment_in_config_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "prepare", "n": 3, "runs": 1, "rounds": 2}))
        out = tmp_path / "here.csv"
        assert run(["prepare", "--config", cfg, "--out", out]) == 0
        assert "# experiment: prepare" in out.read_text()

    @pytest.mark.parametrize("command, key, val", [
        ("prepare", "seed", 1.5),
        ("prepare", "seed", True),
        ("noise", "runs", 2.0),
        ("prepare", "fire_window", 12.0),
        ("prepare", "threads", True),
        ("project", "rounds", 15.5),
        ("recompile", "maxiter", 30.0),
        ("recompile", "reps", "2"),
    ])
    def test_non_integer_setting_rejected_without_output(self, tmp_path, capsys, command, key, val):
        small = {"n": 3, "runs": 1, "rounds": 2} if command in ("prepare", "noise") else {}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**small, key: val}))
        assert run([command, "--config", cfg, "--out", tmp_path / "never.csv"]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("argv, setting", [
        (["prepare"], {"format": "xml"}),
        (["prepare"], {"epsilon": True}),
        (["prepare"], {"epsilon": "0.5"}),
        (["prepare"], {"epsilon": 0.3, "eta": True}),
        (["noise", "--noise-axis", "z"], {"sigma2": "1e-2"}),
        (["noise"], {"noise_axis": "y"}),
        (["prepare"], {"mode": "qutrit"}),
        (["recompile"], {"layers": True}),
    ], ids=["format-xml", "epsilon-bool", "epsilon-string", "eta-bool", "sigma2-string",
            "noise_axis-y", "mode-qutrit", "layers-bool"])
    def test_value_its_flag_cannot_read_rejected_without_output(self, tmp_path, capsys, argv, setting):
        """A config-file value goes through its flag's type and choices: a
        bool is no number, a string no real, and a choice must be listed."""
        small = {} if argv[0] == "recompile" else {"n": 3, "runs": 1, "rounds": 2}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**small, **setting}))
        assert run([*argv, "--config", cfg, "--out", tmp_path / "never.csv"]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("argv, key, val", [
        (["prepare"], "epsilon", 1),
        (["prepare"], "eta", 2),
        (["noise", "--noise-axis", "z"], "sigma2", 0),
    ], ids=["epsilon", "eta", "sigma2"])
    def test_file_and_flag_write_the_same_bytes(self, tmp_path, argv, key, val):
        """A real setting given as a JSON integer is the float its flag
        reads, so the data, the summary and the config hash all agree."""
        small = ["--n", 3, "--runs", 2, "--rounds", 3, "--seed", 1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: val}))
        viafile, viaflag = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert run([*argv, *small, "--config", cfg, "--out", viafile]) == 0
        assert run([*argv, *small, f"--{key}", val, "--out", viaflag]) == 0
        assert viafile.read_bytes() == viaflag.read_bytes()
        assert (tmp_path / "file.csv.summary.json").read_bytes() == \
            (tmp_path / "flag.csv.summary.json").read_bytes()

    @pytest.mark.parametrize("text", [b"\xff", b'{"seed": 1' + b"0" * 5000 + b"}"],
                             ids=["not-utf8", "too-many-digits"])
    def test_unreadable_config_rejected_without_output(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        assert run(["prepare", "--config", cfg, "--out", tmp_path / "never.csv"]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2])
    def test_schema_version_other_than_integer_one_rejected_without_output(
        self, tmp_path, capsys, version
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": version, "n": 3, "runs": 1, "rounds": 2}))
        assert run(["prepare", "--config", cfg, "--out", tmp_path / "never.csv"]) == 1
        assert f"unsupported schema_version {version!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("loaded", [[1, 2], 3, "x", None])
    def test_non_object_config_rejected_without_output(self, tmp_path, capsys, loaded):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        assert run(["prepare", "--config", cfg, "--out", tmp_path / "never.csv"]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


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
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--sigma", 0.01, "--noise-axis", "z"],
                                       ["--sigma2", 0.01, "--noise-ax", "z"]])
    def test_flag_prefix_rejected_without_output(self, tmp_path, capsys, flags):
        out = tmp_path / "never.csv"
        assert run(["noise", "--n", 3, "--runs", 1, "--rounds", 3, *flags, "--out", out]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("argv", [
        ["project", "--n", ",", "--rounds", 3],
        ["project", "--n", "", "--rounds", 3],
        ["project", "--n", "3,3", "--rounds", 2],
        ["project", "--n", "3,03", "--rounds", 2],
        ["recompile", "--layers", "1,1", "--reps", 1, "--maxiter", 5],
        ["recompile", "--layers", "1, 01", "--reps", 1, "--maxiter", 5],
    ], ids=["comma", "empty", "repeat", "repeat-respelled", "layers-repeat", "layers-repeat-respelled"])
    def test_empty_list_rejected_without_output(self, tmp_path, capsys, argv):
        """An empty list, or one naming a value twice, is no job to run."""
        assert run([*argv, "--out", tmp_path / "never.csv"]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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
        ["--epsilon", "nan"],
        ["--epsilon", "inf"],
    ])
    def test_bad_inputs_rejected_without_output(self, tmp_path, capsys, flags):
        out = tmp_path / "never.csv"
        assert run(["recompile", "--layers", "1", "--reps", 1, "--maxiter", 5,
                    *flags, "--out", out]) == 1
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err


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


    @pytest.mark.parametrize("name", [name for name, _ in verify.CHECKS])
    def test_check_passes(self, verify_run, name):
        """Each identity as its own case, read from the one verify run, so a
        failing one names itself."""
        check, = (c for c in verify_run[1]["checks"] if c["name"] == name)
        assert check["passed"], check["detail"]

    def test_mean_weight_check_sees_a_biased_collapse(self, monkeypatch):
        # a collapse that leaves w too high by 1e-12 (relative) on outcome 1 breaks lemma 2
        sample = verify.mite.two_level_sample

        def biased(bond, gains, rng):
            q = sample(bond, gains, rng)
            bond.w *= 1 + 1e-12 * q
            return q

        assert verify.check_own_measurements_preserve_mean_weight()[0] is True
        monkeypatch.setattr(verify.mite, "two_level_sample", biased)
        assert verify.check_own_measurements_preserve_mean_weight()[0] is False


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

    def test_recompile_records_gradient_spans_and_iterations(self, tracer_module):
        # the per-layer recompile metrics need the gradient looked up by its
        # global name at call time; one bound when the module loads (a
        # default argument, a closure) escapes the tracer and reads 0
        original = recompile.loss_and_grad
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            recompile.recompile_scan(0.5, [1], recompile.OptimizerConfig(
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
        (["--threads", 0], "2"),
        (["--config", {"threads": 0}], "2"),
    ])
    def test_bad_thread_count_rejected(self, tmp_path, monkeypatch, capsys, flags, env):
        # validation runs before any pool starts, so no worker is spawned here;
        # where the setting is 0, the environment holds a valid count to fall back on
        if env is not None:
            monkeypatch.setenv("AKLT_MITE_THREADS", env)
        if flags and isinstance(flags[-1], dict):  # a config-file setting
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(flags[-1]))
            flags = [*flags[:-1], cfg]
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

    def test_out_of_sector_state_fails_without_output(self, tmp_path, capsys, monkeypatch):
        """Corrections that rotate one sub-spin of a site break the a<->b swap
        symmetry; the trajectory leaves the symmetric sector and the job
        stops with exit 2, naming the seed and the round."""
        half = spin_ops.spin_half_matrices()
        one_sub_spin = spin_ops.SpinMatrices(*(np.kron(2 * s, np.eye(2)) for s in half.as_tuple()))
        monkeypatch.setattr(mite, "site_matrices", lambda mode: one_sub_spin)
        out = tmp_path / "never.csv"
        assert run(["prepare", "--mode", "qubit", "--n", 3, "--runs", 1, "--rounds", 3,
                    "--seed", 4, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "RuntimeError: seed 4, round 1: symmetric-sector weight" in err
        assert not out.exists()

    def test_qubit_bounds(self, tmp_path):
        assert run(["prepare", "--mode", "qubit", "--n", 9, "--runs", 1,
                    "--out", tmp_path / "x.csv"]) == 1


TRAJECTORY_SETTINGS = {"seed", "threads", "format", "runs", "n", "mode", "epsilon", "eta",
                       "rounds", "n_iter", "window", "fire_window"}


class TestSettings:
    """Each subcommand takes exactly the settings its driver reads."""

    def test_accepted_settings_pinned(self):
        parser = cli._build_parser()
        assert {cmd: cli.accepted_keys(parser.parse_args([cmd]))
                for cmd in ("prepare", "noise", "project", "recompile")} == {
            "prepare": TRAJECTORY_SETTINGS,
            "noise": TRAJECTORY_SETTINGS | {"noise_axis", "sigma2"},
            "project": {"seed", "threads", "format", "n", "rounds"},
            "recompile": {"seed", "threads", "format", "epsilon", "layers", "reps",
                          "maxiter", "hops"},
        }

    @pytest.mark.parametrize("argv", [
        ["project", "--n", 3, "--mode", "qubit"],
        ["project", "--n", 3, "--epsilon", 0.3],
        ["project", "--n", 3, "--runs", 2],
        ["recompile", "--layers", 1, "--window", 40],
        ["recompile", "--layers", 1, "--n", 9],
        ["recompile", "--layers", 1, "--rounds", 5],
    ])
    def test_unread_flag_rejected_without_output(self, tmp_path, capsys, argv):
        out = tmp_path / "never.csv"
        assert run([*argv, "--out", out]) == 1
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, val", [
        ("project", "epsilon", 0.3),
        ("prepare", "sigma2", 1e-2),
        ("prepare", "layers", "1"),
        ("prepare", "fire_window", 65),  # above COUNTER_CAP // 4
    ])
    def test_config_key_rejected_without_output(self, tmp_path, capsys, command, key, val):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "rounds": 2, key: val}))
        out = tmp_path / "never.csv"
        assert run([command, "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err


SCIPY_PROBE = """
import json, sys
from aklt_mite import cli

UNLOADED = ("concurrent.futures.process", "multiprocessing", "aklt_mite.verify")

def unwanted_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy") or m in UNLOADED)

loaded = {"import": unwanted_modules()}
out = sys.argv[1]
for argv in (
    "prepare --n 3 --runs 1 --rounds 3 --seed 0",
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
    without scipy, the process pool or the verify oracles; only
    ``--threads`` above 1 and ``verify`` load them.  recompile, run last,
    adds scipy's compiled L-BFGS-B core and no module of the
    ``scipy.optimize`` package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    recompile = list(loaded)[-1]
    assert recompile.startswith("recompile")
    assert loaded.pop(recompile) == ["scipy.optimize._lbfgsb"]
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
