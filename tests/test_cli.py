"""Command-line interface: config parsing, CSV outputs, reproducibility."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import mfjump
from mfjump import cli
from mfjump.cli import main

COUPLE_HEADER = "t,p_unequal,tv_bound,tv_se,vnorm_bound,vnorm_se,n_replicas"
CERTIFY_HEADER = "beta,c_star,kappa,kappa_tilde,contracts,variant,estimate_grade"


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def couple_config(tmp_path, replicas=64):
    return write_config(
        tmp_path / "couple.json",
        {
            "schema": 1,
            "kind": "couple",
            "model": {"id": "run-tumble", "params": {"theta": 0.1}},
            "run": {
                "x0": [0.2, 1],
                "y0": [-0.2, 1],
                "horizon": 1.0,
                "t0": 0.5,
                "replicas": replicas,
                "sample_times": [0.5, 1.0],
                "flow1": {"type": "constant", "atom": [0.3, 1]},
                "flow2": {"type": "constant", "atom": [-0.3, -1]},
            },
        },
    )


def run_cli(args, env=None):
    runner = CliRunner()
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def test_certify_nonlinear_csv(tmp_path):
    cfg = write_config(
        tmp_path / "certify.json",
        {
            "schema": 1,
            "kind": "certify",
            "run": {
                "family": "nonlinear",
                "constants": {
                    "lambda_star": 1.0,
                    "theta": 0.0,
                    "rho": 1.0,
                    "rho_star": 0.3,
                    "eta": 0.5,
                    "M": 2.0,
                    "gamma_star": 2.0,
                    "alpha": 0.8,
                    "t0": 1.0,
                },
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["certify", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "certify.csv").read_text().strip().splitlines()
    assert lines[0] == CERTIFY_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[1]) == 0.0  # no interaction -> no coupling penalty
    assert fields[4] in ("true", "false")
    assert fields[5] == "literal"
    assert fields[6] == "declared"


def test_certify_particle_reports_both_variants(tmp_path):
    cfg = write_config(
        tmp_path / "certify_p.json",
        {
            "schema": 1,
            "kind": "certify",
            "run": {
                "family": "particle",
                "constants": {
                    "lambda_star": 1.0,
                    "theta": 0.3,
                    "rho": 1.0,
                    "rho_star": 0.2,
                    "eta": 0.6,
                    "M": 2.0,
                    "gamma_star": 2.0,
                    "alpha": 0.8,
                    "t0": 2.0,
                    "alpha_estimated": True,
                },
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["certify", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "certify.csv").read_text().strip().splitlines()
    assert lines[0] == CERTIFY_HEADER
    assert len(lines) == 3
    variants = [ln.split(",")[5] for ln in lines[1:]]
    assert variants == ["literal", "corrected"]
    grades = {ln.split(",")[6] for ln in lines[1:]}
    assert grades == {"empirical"}
    assert {ln.split(",")[4] for ln in lines[1:]} == {"false"}


def test_couple_csv_and_reproducibility(tmp_path):
    cfg = couple_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    res1 = run_cli(["couple", "--config", cfg, "--seed", "7", "--out", str(out1)])
    res2 = run_cli(["couple", "--config", cfg, "--seed", "7", "--out", str(out2)])
    assert res1.exit_code == 0, res1.output
    assert res2.exit_code == 0
    body1 = (out1 / "couple.csv").read_bytes()
    body2 = (out2 / "couple.csv").read_bytes()
    assert body1 == body2
    lines = body1.decode().strip().splitlines()
    assert lines[0] == COUPLE_HEADER
    assert len(lines) == 3  # one row per sample time
    for ln in lines[1:]:
        fields = ln.split(",")
        assert int(fields[6]) == 64
        assert 0.0 <= float(fields[1]) <= 1.0
        assert 0.0 <= float(fields[2]) <= 2.0


def test_couple_threads_do_not_change_bytes(tmp_path):
    cfg = couple_config(tmp_path)
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    run_cli(["couple", "--config", cfg, "--seed", "3", "--out", str(out1)])
    res = run_cli(
        ["couple", "--config", cfg, "--seed", "3", "--threads", "4", "--out", str(out2)]
    )
    assert res.exit_code == 0, res.output
    assert (out1 / "couple.csv").read_bytes() == (out2 / "couple.csv").read_bytes()


def test_malformed_json_fails_without_partial_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    out = tmp_path / "out"
    runner = CliRunner()
    res = runner.invoke(main, ["couple", "--config", str(bad), "--out", str(out)])
    assert res.exit_code != 0
    assert not out.exists() or not any(out.iterdir())


def test_wrong_schema_version_fails(tmp_path):
    cfg = write_config(
        tmp_path / "v2.json",
        {"schema": 2, "kind": "certify", "run": {"family": "nonlinear", "constants": {}}},
    )
    out = tmp_path / "out"
    runner = CliRunner()
    res = runner.invoke(main, ["certify", "--config", cfg, "--out", str(out)])
    assert res.exit_code != 0
    assert not out.exists() or not any(out.iterdir())


def test_kind_mismatch_fails(tmp_path):
    cfg = couple_config(tmp_path)
    runner = CliRunner()
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code != 0


def test_simulate_csv_layout(tmp_path):
    cfg = write_config(
        tmp_path / "sim.json",
        {
            "schema": 1,
            "kind": "simulate",
            "model": {"id": "run-tumble", "params": {"theta": 0.1}},
            "run": {
                "x0": [0.0, 1],
                "horizon": 2.0,
                "replicas": 8,
                "sample_times": [1.0, 2.0],
                "flow": {"type": "constant", "atom": [0.0, 1]},
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "simulate.csv").read_text().strip().splitlines()
    assert lines[0].startswith("replica,t,")
    assert len(lines) == 1 + 8 * 2
    replicas = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert replicas == sorted(replicas)


def test_estimate_outputs_alpha(tmp_path):
    cfg = write_config(
        tmp_path / "est.json",
        {
            "schema": 1,
            "kind": "estimate",
            "model": {"id": "run-tumble", "params": {"theta": 0.05}},
            "run": {
                "x0": [0.1, 1],
                "y0": [-0.1, 1],
                "t0": 1.5,
                "replicas": 128,
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["estimate", "--config", cfg, "--seed", "2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "estimate.csv").read_text().strip().splitlines()
    assert lines[0] == "t0,alpha_hat,alpha_se,n_replicas"
    fields = lines[1].split(",")
    assert 0.0 <= float(fields[1]) <= 1.0
    assert int(fields[3]) == 128


def test_picard_outputs_iteration_gaps(tmp_path):
    cfg = write_config(
        tmp_path / "pic.json",
        {
            "schema": 1,
            "kind": "picard",
            "model": {"id": "run-tumble", "params": {"theta": 0.1}},
            "run": {
                "m0": [[0.0, 1]],
                "horizon": 1.0,
                "grid_step": 0.25,
                "n_samples": 300,
                "tol": 0.05,
                "max_iter": 4,
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["picard", "--config", cfg, "--seed", "5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "picard.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,gap,converged"
    assert 2 <= len(lines) <= 5
    assert lines[-1].split(",")[2] in ("true", "false")


def test_particles_csv_layout(tmp_path):
    cfg = write_config(
        tmp_path / "part.json",
        {
            "schema": 1,
            "kind": "particles",
            "model": {"id": "selection", "params": {"n_particles": 3}},
            "run": {
                "x0": [[0.1], [0.5], [0.9]],
                "horizon": 1.0,
                "replicas": 4,
                "sample_times": [0.5, 1.0],
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["particles", "--config", cfg, "--seed", "9", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "particles.csv").read_text().strip().splitlines()
    assert lines[0].startswith("replica,t,particle,")
    assert len(lines) == 1 + 4 * 2 * 3


def test_couple_particles_csv(tmp_path):
    cfg = write_config(
        tmp_path / "cp.json",
        {
            "schema": 1,
            "kind": "couple-particles",
            "model": {"id": "selection", "params": {"n_particles": 3}},
            "run": {
                "x0": [[0.1], [0.5], [0.9]],
                "y0": [[0.1], [0.4], [0.8]],
                "horizon": 1.0,
                "t0": 0.5,
                "replicas": 32,
                "sample_times": [0.5, 1.0],
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["couple-particles", "--config", cfg, "--seed", "4", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "couple_particles.csv").read_text().strip().splitlines()
    assert lines[0] == "t,mean_J,J_se,mean_dbar1,violations,n_replicas"
    assert len(lines) == 3
    assert all(int(ln.split(",")[4]) == 0 for ln in lines[1:])


def test_log_env_levels_run_quietly(tmp_path):
    cfg = couple_config(tmp_path, replicas=8)
    out = tmp_path / "logged"
    res = run_cli(
        ["couple", "--config", cfg, "--seed", "1", "--out", str(out)],
        env={"MFJUMP_LOG": "trace"},
    )
    assert res.exit_code == 0, res.output
    assert (out / "couple.csv").exists()


def simulate_config(tmp_path, **run_changes):
    run = {
        "x0": [0.0, 1],
        "horizon": 2.0,
        "replicas": 4,
        "sample_times": [1.0, 2.0],
        "flow": {"type": "constant", "atom": [0.0, 1]},
    }
    run.update(run_changes)
    return write_config(
        tmp_path / "sim.json",
        {
            "schema": 1,
            "kind": "simulate",
            "model": {"id": "run-tumble", "params": {"theta": 0.1}},
            "run": run,
        },
    )


def assert_one_line_error(res, out, expected):
    assert res.exit_code == 1
    assert len(res.output.strip().splitlines()) == 1, res.output
    assert expected in res.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "times", [[1.0, 3.0], [-0.5, 1.0]], ids=["past-horizon", "negative"]
)
def test_sample_times_outside_horizon_fail_without_output(tmp_path, times):
    cfg = simulate_config(tmp_path, sample_times=times)
    out = tmp_path / "out"
    res = run_cli(["simulate", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, "outside [0, horizon 2.0]")


def test_non_integer_replicas_fail_without_output(tmp_path):
    cfg = simulate_config(tmp_path, replicas="many")
    out = tmp_path / "out"
    res = run_cli(["simulate", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, "replicas must be an integer, got 'many'")


def test_couple_needs_two_replicas(tmp_path):
    cfg = couple_config(tmp_path, replicas=1)
    out = tmp_path / "out"
    res = run_cli(["couple", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, "replicas must be at least 2")


def selection_config(tmp_path, kind, replicas):
    run = {
        "x0": [[0.1], [0.5], [0.9]],
        "horizon": 1.0,
        "replicas": replicas,
        "sample_times": [0.5, 1.0],
    }
    if kind == "couple-particles":
        run.update(y0=[[0.1], [0.4], [0.8]], t0=0.5)
    return write_config(
        tmp_path / f"{kind}.json",
        {
            "schema": 1,
            "kind": kind,
            "model": {"id": "selection", "params": {"n_particles": 3}},
            "run": run,
        },
    )


#: kind -> (config builder taking (tmp_path, replicas), output file).
POOL_KINDS = {
    "couple": (couple_config, "couple.csv"),
    "simulate": (lambda tmp, n: simulate_config(tmp, replicas=n), "simulate.csv"),
    "particles": (
        lambda tmp, n: selection_config(tmp, "particles", n), "particles.csv"
    ),
    "couple-particles": (
        lambda tmp, n: selection_config(tmp, "couple-particles", n),
        "couple_particles.csv",
    ),
}


@pytest.mark.parametrize("kind", sorted(POOL_KINDS))
def test_worker_processes_do_not_change_bytes(tmp_path, kind):
    make_config, name = POOL_KINDS[kind]
    outputs = {}
    for replicas, threads in ((7, 1), (7, 2), (7, 3), (3, 1), (3, 8)):
        cfg = make_config(tmp_path, replicas)
        out = tmp_path / f"r{replicas}-t{threads}"
        res = run_cli(
            [kind, "--config", cfg, "--seed", "11", "--threads", str(threads),
             "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        outputs[replicas, threads] = (out / name).read_bytes()
    assert outputs[7, 1] == outputs[7, 2] == outputs[7, 3]
    assert outputs[3, 1] == outputs[3, 8]


def test_replica_failure_reports_lowest_index_at_any_threads(tmp_path, monkeypatch):
    original = cli.simulate_merge_split

    def fail_on_replicas_3_and_5(*args, **kwargs):
        stream = args[7]
        if stream.bit_generator.seed_seq.spawn_key[-1] in (3, 5):
            raise ValueError("forced failure")
        return original(*args, **kwargs)

    # Forked workers inherit the patched module.
    monkeypatch.setattr(cli, "simulate_merge_split", fail_on_replicas_3_and_5)
    cfg = couple_config(tmp_path, replicas=7)
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        res = run_cli(
            ["couple", "--config", cfg, "--threads", str(threads), "--out", str(out)]
        )
        assert_one_line_error(res, out, "replica 3: forced failure")


def test_dead_worker_process_fails_without_output(tmp_path, monkeypatch):
    original = cli.simulate_merge_split

    def exit_on_replica_5(*args, **kwargs):
        if args[7].bit_generator.seed_seq.spawn_key[-1] == 5:
            os._exit(1)  # only ever reached in a forked worker
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_merge_split", exit_on_replica_5)
    cfg = couple_config(tmp_path, replicas=7)
    out = tmp_path / "out"
    res = run_cli(["couple", "--config", cfg, "--threads", "3", "--out", str(out)])
    assert_one_line_error(res, out, "a replica worker process exited unexpectedly")


def test_couple_particles_without_kernel_atoms_fails_before_replicas(
    tmp_path, monkeypatch
):
    def no_replicas(*args):
        raise AssertionError("replicas ran")

    monkeypatch.setattr(cli, "_map_replicas", no_replicas)
    x0 = [[0.1 * k] for k in range(8)]
    cfg = write_config(
        tmp_path / "mh.json",
        {
            "schema": 1,
            "kind": "couple-particles",
            "model": {"id": "mh", "params": {}},
            "run": {
                "x0": x0, "y0": x0, "horizon": 1.0, "t0": 0.5, "replicas": 2,
                "sample_times": [1.0],
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(
        ["couple-particles", "--config", cfg, "--threads", "2", "--out", str(out)]
    )
    assert_one_line_error(res, out, "system 'mh-decomposed' provides no kernel atoms")


def test_estimate_without_base_coupler_fails(tmp_path):
    cfg = write_config(
        tmp_path / "tcp.json",
        {
            "schema": 1,
            "kind": "estimate",
            "model": {"id": "tcp", "params": {}},
            "run": {"x0": [0.1], "y0": [0.2], "t0": 1, "replicas": 2},
        },
    )
    out = tmp_path / "out"
    res = run_cli(["estimate", "--config", cfg, "--out", str(out)])
    assert_one_line_error(
        res, out, "model 'tcp' provides no coupled base construction"
    )


@pytest.mark.parametrize(
    "change, expected",
    [
        ({"horizon": "two"}, "horizon must be a finite number, got 'two'"),
        ({"horizon": None}, "horizon must be a finite number, got None"),
        ({"horizon": True}, "horizon must be a finite number, got True"),
        ({"sample_times": ["one"]}, "sample time must be a finite number, got 'one'"),
        ({"sample_times": "1.0"}, "sample_times must be a list, got '1.0'"),
    ],
    ids=["string", "null", "bool", "sample-time-string", "sample-times-string"],
)
def test_non_numeric_simulate_fields_fail_without_output(tmp_path, change, expected):
    cfg = simulate_config(tmp_path, **change)
    out = tmp_path / "out"
    res = run_cli(["simulate", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, expected)


def test_non_integer_n_samples_fails_without_output(tmp_path):
    cfg = write_config(
        tmp_path / "pic.json",
        {
            "schema": 1,
            "kind": "picard",
            "model": {"id": "run-tumble", "params": {"theta": 0.1}},
            "run": {
                "m0": [[0.0, 1]], "horizon": 1.0, "grid_step": 0.25,
                "n_samples": "many", "tol": 0.05, "max_iter": 4,
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["picard", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, "n_samples must be an integer, got 'many'")


def test_module_entry_point_runs_a_command(tmp_path):
    cfg = write_config(
        tmp_path / "certify.json",
        {
            "schema": 1,
            "kind": "certify",
            "run": {
                "family": "nonlinear",
                "constants": {
                    "lambda_star": 1.0, "theta": 0.0, "rho": 1.0, "rho_star": 0.3,
                    "eta": 0.5, "M": 2.0, "gamma_star": 2.0, "alpha": 0.8,
                    "t0": 1.0,
                },
            },
        },
    )
    out = tmp_path / "out"
    src = pathlib.Path(mfjump.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "mfjump.cli", "certify", "--config", cfg,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (out / "certify.csv").read_text().splitlines()
    assert lines[0] == CERTIFY_HEADER
