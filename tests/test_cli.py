"""Command-line interface: config parsing, CSV outputs, reproducibility."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import types

import numpy as np
import pytest
from click.testing import CliRunner

import mfjump
from mfjump import cli
from mfjump.cli import main

COUPLE_HEADER = "t,p_unequal,tv_bound,tv_se,vnorm_bound,vnorm_se,n_replicas"
CERTIFY_HEADER = "beta,c_star,kappa,kappa_tilde,contracts,variant,estimate_grade"
FLOAT_COLUMNS = ("beta", "c_star", "kappa", "kappa_tilde")


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def couple_config(tmp_path, replicas=64, **run_changes):
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
                **run_changes,
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


#: Valid constants whose certificate exponents overflow a float: run-tumble's
#: drift constants with interaction, at the window where each family's
#: exponent passes about 709.
OVERFLOW_CONSTANTS = {
    "lambda_star": 2.0, "theta": 0.01, "rho": 0.1, "rho_star": 4.57, "eta": 0.99,
    "M": 211.6, "gamma_star": 2.0, "alpha": 0.85,
}

#: Valid constants where ``1 - exp(-rho t0)`` rounds to 0 while
#: ``exp(lambda_star t0)`` overflows, so ``beta`` is a product ``0 * inf``.
NAN_PRODUCT_CONSTANTS = {
    "lambda_star": 800.0, "theta": 0.01, "rho": 1e-20, "rho_star": 1.0, "eta": 0.5,
    "M": 2.0, "gamma_star": 2.0, "alpha": 0.5, "t0": 1.0,
}


@pytest.mark.parametrize(
    "family, constants",
    [
        pytest.param("nonlinear", dict(OVERFLOW_CONSTANTS, t0=1.0), id="nonlinear-1.0"),
        pytest.param("particle", dict(OVERFLOW_CONSTANTS, t0=300.0), id="particle-300.0"),
        pytest.param("nonlinear", NAN_PRODUCT_CONSTANTS, id="nonlinear-nan-product"),
        pytest.param("particle", NAN_PRODUCT_CONSTANTS, id="particle-nan-product"),
    ],
)
def test_certify_reports_an_overflowing_certificate_as_not_contracting(
    tmp_path, family, constants
):
    cfg = write_config(
        tmp_path / "certify.json",
        {"schema": 1, "kind": "certify", "run": {"family": family, "constants": constants}},
    )
    out = tmp_path / "out"
    res = run_cli(["certify", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "Traceback" not in res.output
    assert sorted(p.name for p in out.iterdir()) == ["certify.csv"]
    rows = list(csv.DictReader((out / "certify.csv").open()))
    assert len(rows) == (1 if family == "nonlinear" else 2)
    assert {row["contracts"] for row in rows} == {"false"}
    assert float(rows[-1]["kappa_tilde"]) == math.inf
    assert not any(math.isnan(float(row[k])) for row in rows for k in FLOAT_COLUMNS), rows


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


@pytest.mark.parametrize("max_iter", [1, 3])
def test_picard_grid_point_that_rounds_past_the_horizon(tmp_path, max_iter):
    # 3 * 0.1 reads 0.30000000000000004, past the horizon 0.3: the last grid
    # point was never sampled, and the run ended in a KeyError traceback.
    cfg = write_config(
        tmp_path / "pic.json",
        {
            "schema": 1,
            "kind": "picard",
            "model": {"id": "run-tumble", "params": {"theta": 0.1}},
            "run": {
                "m0": [[0.0, 1]], "horizon": 0.3, "grid_step": 0.1,
                "n_samples": 100, "tol": 0.0, "max_iter": max_iter,
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["picard", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "picard.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,gap,converged"
    assert [line.split(",")[0] for line in lines[1:]] == [
        str(k) for k in range(1, max_iter + 1)
    ]


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
    "times, message",
    [
        ([1.0, 3.0], "sample time 3.0 is past the horizon 2.0"),
        ([-0.5, 1.0], "sample time -0.5 is NaN or before the start 0.0"),
    ],
    ids=["past-horizon", "negative"],
)
def test_sample_times_outside_horizon_fail_without_output(
    tmp_path, monkeypatch, times, message
):
    # The library's refusal (engine._run_times), before any replica runs.
    forbid_replicas(monkeypatch)
    cfg = simulate_config(tmp_path, sample_times=times)
    out = tmp_path / "out"
    res = run_cli(["simulate", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, f"run-tumble: {message}")


@pytest.mark.parametrize("kind", ["couple", "couple-particles"])
def test_window_too_small_to_run_fails_without_output(tmp_path, kind):
    # Before, the run laid 1e300 window boundaries one by one and never ended.
    if kind == "couple":
        cfg = couple_config(tmp_path, t0=1e-300)
    else:
        cfg = selection_config(tmp_path, kind, 4, t0=1e-300)
    out = tmp_path / "out"
    started = time.monotonic()
    res = run_cli([kind, "--config", cfg, "--out", str(out)])
    assert time.monotonic() - started < 10.0
    assert_one_line_error(
        res, out, "window 1e-300 lays more than 1000000 boundaries on the horizon 1.0"
    )


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


def selection_config(tmp_path, kind, replicas, **run_changes):
    run = {
        "x0": [[0.1], [0.5], [0.9]],
        "horizon": 1.0,
        "replicas": replicas,
        "sample_times": [0.5, 1.0],
    }
    if kind == "couple-particles":
        run.update(y0=[[0.1], [0.4], [0.8]], t0=0.5)
    run.update(run_changes)
    return write_config(
        tmp_path / f"{kind}.json",
        {
            "schema": 1,
            "kind": kind,
            "model": {"id": "selection", "params": {"n_particles": 3}},
            "run": run,
        },
    )


def estimate_config(tmp_path, replicas):
    return write_config(
        tmp_path / "est.json",
        {
            "schema": 1,
            "kind": "estimate",
            "model": {"id": "run-tumble", "params": {"theta": 0.05}},
            "run": {"x0": [0.1, 1], "y0": [-0.1, 1], "t0": 1.5, "replicas": replicas},
        },
    )


#: kind -> (config builder taking (tmp_path, replicas), output file).
POOL_KINDS = {
    "couple": (couple_config, "couple.csv"),
    "estimate": (estimate_config, "estimate.csv"),
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


#: Valid configs of the kinds that run serially: kind -> config.
SERIAL_CONFIGS = {
    "certify": {
        "schema": 1, "kind": "certify",
        "run": {"family": "nonlinear", "constants": {
            "lambda_star": 1.0, "theta": 0.0, "rho": 1.0, "rho_star": 0.3, "eta": 0.5,
            "M": 2.0, "gamma_star": 2.0, "alpha": 0.8, "t0": 1.0,
        }},
    },
    "picard": {
        "schema": 1, "kind": "picard",
        "model": {"id": "run-tumble", "params": {"theta": 0.1}},
        "run": {"m0": [[0.0, 1]], "horizon": 0.5, "grid_step": 0.25,
                "n_samples": 100, "tol": 0.0, "max_iter": 1},
    },
}


@pytest.mark.parametrize("kind", sorted(cli.KINDS))
def test_negative_seed_is_refused_in_one_line_naming_it(tmp_path, kind):
    if kind in POOL_KINDS:
        cfg = POOL_KINDS[kind][0](tmp_path, 2)
    else:
        cfg = write_config(tmp_path / f"{kind}.json", SERIAL_CONFIGS[kind])
    res = run_cli([kind, "--config", cfg, "--seed", "0", "--out", str(tmp_path / "ok")])
    assert res.exit_code == 0, res.output
    out = tmp_path / "out"
    res = run_cli([kind, "--config", cfg, "--seed", "-1", "--out", str(out)])
    assert_one_line_error(res, out, "invalid value for --seed: -1")


def test_replica_streams_are_built_when_read_from_the_spawned_children():
    start = time.perf_counter()
    streams = cli._replica_streams(17, 10**9)
    assert time.perf_counter() - start < 0.5
    assert len(streams) == 10**9
    for r in (0, 1, 6, 40):
        spawned = np.random.SeedSequence(17).spawn(r + 1)[r]
        generator = np.random.Generator(np.random.Philox(spawned))
        stream = streams[r]
        assert stream.bit_generator.seed_seq.spawn_key == (r,)
        assert [stream.random() for _ in range(40)] == [generator.random() for _ in range(40)]
    with pytest.raises(IndexError):
        streams[10**9]


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


def test_failing_chunk_stops_later_workers(tmp_path, monkeypatch):
    original = cli.simulate_merge_split

    def fail_on_replica_0_sleep_elsewhere(*args, **kwargs):
        if args[7].bit_generator.seed_seq.spawn_key[-1] == 0:
            raise ValueError("forced failure")
        time.sleep(5.0)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_merge_split", fail_on_replica_0_sleep_elsewhere)
    cfg = couple_config(tmp_path, replicas=4)
    out = tmp_path / "out"
    start = time.perf_counter()
    res = run_cli(["couple", "--config", cfg, "--threads", "2", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert_one_line_error(res, out, "replica 0: forced failure")
    assert elapsed < 2.0


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


class _InlineContext:
    """A ``multiprocessing`` context that counts the processes it starts and
    runs each one's target in this process."""

    def __init__(self):
        self.started = 0

    def Pipe(self, duplex):
        sent = []
        end = types.SimpleNamespace(send=sent.append, recv=sent.pop, close=lambda: None)
        return end, end

    def Process(self, target, args, daemon):
        def start():
            self.started += 1
            target(*args)

        return types.SimpleNamespace(start=start, join=lambda: None, terminate=lambda: None)


@pytest.mark.parametrize("cpus, started", [(3, 3), (1, 0), (None, 0)])
def test_worker_processes_are_capped_at_the_cpu_count(monkeypatch, cpus, started):
    # Before, --threads 5000 with 5000 replicas forked 5000 processes.
    import multiprocessing

    context = _InlineContext()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    streams = [object()] * 5000
    assert cli._map_replicas(lambda r, stream: r, streams, 5000) == list(range(5000))
    assert context.started == started


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


@pytest.mark.parametrize("y0", [[[0.1], [0.2], [0.3], [0.4]],
                                [[0.1], [0.95], [0.3], [0.85]]],
                         ids=["equal", "mismatched"])
def test_couple_particles_with_short_pair_atoms_fails_without_output(
    tmp_path, monkeypatch, y0
):
    # Pair atoms that sum to 0.8 fail at the first proposal from either
    # start; a merged start reads them only when it draws a matched donor.
    build_model = cli.build_model

    def short_pair_atoms(*args):
        bundle = build_model(*args)
        system = dataclasses.replace(
            bundle.system, pair_atoms=lambda own, donor: ((donor, 0.4), (own, 0.4)),
        )
        return dataclasses.replace(bundle, system=system)

    monkeypatch.setattr(cli, "build_model", short_pair_atoms)
    cfg = write_config(
        tmp_path / "cp.json",
        {
            "schema": 1,
            "kind": "couple-particles",
            "model": {"id": "selection", "params": {"n_particles": 4}},
            "run": {
                "x0": [[0.1], [0.2], [0.3], [0.4]], "y0": y0, "horizon": 1.0,
                "t0": 0.5, "replicas": 2, "sample_times": [1.0],
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["couple-particles", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, "replica 0: atom weights sum to")


def test_particles_with_short_pair_atoms_fails_without_output(tmp_path, monkeypatch):
    # A single run checks the pair atoms it draws from, as coupled runs do.
    build_model = cli.build_model

    def short_pair_atoms(*args):
        bundle = build_model(*args)
        system = dataclasses.replace(
            bundle.system, pair_atoms=lambda own, donor: ((donor, 0.4), (own, 0.4)),
        )
        return dataclasses.replace(bundle, system=system)

    monkeypatch.setattr(cli, "build_model", short_pair_atoms)
    cfg = write_config(
        tmp_path / "p.json",
        {
            "schema": 1,
            "kind": "particles",
            "model": {"id": "selection", "params": {"n_particles": 4}},
            "run": {
                "x0": [[0.1], [0.2], [0.3], [0.4]], "horizon": 10.0,
                "replicas": 2, "sample_times": [1.0],
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["particles", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, "replica 0: atom weights sum to")


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


@pytest.mark.parametrize("horizon", [0.0, -1.0], ids=["zero", "negative"])
def test_nonpositive_horizon_fails_without_output(tmp_path, horizon):
    cfg = simulate_config(tmp_path, horizon=horizon)
    out = tmp_path / "out"
    res = run_cli(["simulate", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, "horizon must be positive")


@pytest.mark.parametrize(
    "kind, change, expected",
    [
        (
            "couple",
            {"flow1": {"type": "constant", "atom": ["a", 1]}},
            "state entry must be a finite number, got 'a'",
        ),
        ("couple", {"x0": ["a", 1]}, "state entry must be a finite number, got 'a'"),
        (
            "particles",
            {"x0": [[0.1], [None], [0.9]]},
            "state entry must be a finite number, got None",
        ),
    ],
    ids=["couple-flow-atom", "couple-x0", "particles-coordinate"],
)
def test_non_numeric_state_entries_fail_without_output(tmp_path, kind, change, expected):
    if kind == "couple":
        cfg = couple_config(tmp_path, replicas=4, **change)
    else:
        cfg = write_config(
            tmp_path / "part.json",
            {
                "schema": 1,
                "kind": "particles",
                "model": {"id": "selection", "params": {"n_particles": 3}},
                "run": {"horizon": 1.0, "replicas": 2, "sample_times": [1.0], **change},
            },
        )
    out = tmp_path / "out"
    res = run_cli([kind, "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, expected)


def picard_config(tmp_path, **run_changes):
    return write_config(
        tmp_path / "pic.json",
        {
            "schema": 1,
            "kind": "picard",
            "model": {"id": "run-tumble", "params": {"theta": 0.1}},
            "run": {
                "m0": [[0.0, 1]], "horizon": 1.0, "grid_step": 0.25,
                "n_samples": 10, "tol": 0.05, "max_iter": 4, **run_changes,
            },
        },
    )


@pytest.mark.parametrize("value", [5, "abc"], ids=["number", "string"])
@pytest.mark.parametrize(
    "kind, key",
    [("particles", "x0"), ("couple-particles", "x0"), ("couple-particles", "y0"),
     ("picard", "m0")],
    ids=["particles-x0", "couple-particles-x0", "couple-particles-y0", "picard-m0"],
)
def test_non_list_configurations_fail_without_output(tmp_path, kind, key, value):
    if kind == "picard":
        cfg = picard_config(tmp_path, **{key: value})
    else:
        path = pathlib.Path(selection_config(tmp_path, kind, replicas=2))
        payload = json.loads(path.read_text())
        payload["run"][key] = value
        cfg = write_config(path, payload)
    out = tmp_path / "out"
    res = run_cli([kind, "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, f"{key} must be a list of states, got {value!r}")


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


@pytest.mark.parametrize("grid_step", [5e-324, 1e-300])
def test_picard_grid_too_fine_to_build_fails_without_output(tmp_path, grid_step):
    cfg = picard_config(tmp_path, grid_step=grid_step, n_samples=100)
    out = tmp_path / "out"
    res = run_cli(["picard", "--config", cfg, "--out", str(out)])
    assert_one_line_error(
        res, out,
        f"run-tumble: grid_step {grid_step} lays more than 1000000 grid points "
        "on the horizon 1.0",
    )


def test_picard_grid_step_past_the_horizon_fails_without_output(tmp_path):
    cfg = picard_config(tmp_path, grid_step=2.0, n_samples=100)
    out = tmp_path / "out"
    res = run_cli(["picard", "--config", cfg, "--out", str(out)])
    assert_one_line_error(
        res, out,
        "run-tumble: grid_step 2.0 leaves no grid point after 0 within the horizon 1.0",
    )


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


@pytest.mark.parametrize(
    "kind, key, value, expected",
    [
        ("couple", "x0", [0.1, 7], "x0 [0.1, 7]: label 7 is not one of [-1, 1]"),
        ("couple", "x0", [0.1, 0], "x0 [0.1, 0]: label 0 is not one of [-1, 1]"),
        (
            "particles",
            "x0",
            [[0.1], [0.1, 5], [0.9]],
            "x0 [0.1, 5] has length 2; a selection state has length 1",
        ),
        (
            "simulate",
            "x0",
            [0.1],
            "x0 [0.1] has length 1; a run-tumble state has length 2",
        ),
        (
            "couple",
            "flow2",
            {"type": "constant", "atom": [-0.3, 2]},
            "flow2.atom [-0.3, 2]: label 2 is not one of [-1, 1]",
        ),
        ("picard", "m0", [[0.0, 1], [0.5]], "m0 [0.5] has length 1"),
    ],
    ids=[
        "couple-label-7", "couple-label-0", "particles-arity", "simulate-arity",
        "couple-flow-atom-label", "picard-m0-arity",
    ],
)
def test_states_off_the_model_layout_fail_without_output(
    tmp_path, kind, key, value, expected
):
    if kind == "couple":
        cfg = couple_config(tmp_path, replicas=4, **{key: value})
    elif kind == "simulate":
        cfg = simulate_config(tmp_path, **{key: value})
    elif kind == "picard":
        cfg = picard_config(tmp_path, **{key: value})
    else:
        path = pathlib.Path(selection_config(tmp_path, kind, replicas=2))
        payload = json.loads(path.read_text())
        payload["run"][key] = value
        cfg = write_config(path, payload)
    out = tmp_path / "out"
    res = run_cli([kind, "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, expected)


def test_missing_model_parameter_is_named(tmp_path):
    cfg = write_config(
        tmp_path / "zigzag.json",
        {
            "schema": 1,
            "kind": "particles",
            "model": {"id": "zigzag", "params": {}},
            "run": {
                "x0": [[1.0, 1], [-0.8, -1]], "horizon": 1.0, "replicas": 2,
                "sample_times": [1.0],
            },
        },
    )
    out = tmp_path / "out"
    res = run_cli(["particles", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, "model 'zigzag' is missing parameter 'n_particles'")


def test_estimate_nonpositive_window_fails_without_output(tmp_path):
    path = pathlib.Path(estimate_config(tmp_path, replicas=4))
    payload = json.loads(path.read_text())
    payload["run"]["t0"] = -1.0
    cfg = write_config(path, payload)
    out = tmp_path / "out"
    res = run_cli(["estimate", "--config", cfg, "--threads", "2", "--out", str(out)])
    assert_one_line_error(res, out, "replica 0: window length t0 must be positive")


def forbid_replicas(monkeypatch):
    def no_replicas(*args):
        raise AssertionError("replicas ran")

    monkeypatch.setattr(cli, "_map_replicas", no_replicas)


@pytest.mark.parametrize(
    "kind, key, states, threads",
    [
        ("particles", "x0", [[0.1], [0.5], [0.9], [0.3]], 2),
        ("particles", "x0", [[0.1], [0.5]], 1),
        ("couple-particles", "x0", [[0.1], [0.5], [0.9], [0.3]], 1),
        ("couple-particles", "y0", [[0.1], [0.5]], 2),
    ],
    ids=["particles-4", "particles-2", "couple-particles-x0-4", "couple-particles-y0-2"],
)
def test_configuration_length_fails_before_replicas(
    tmp_path, monkeypatch, kind, key, states, threads
):
    forbid_replicas(monkeypatch)
    path = pathlib.Path(selection_config(tmp_path, kind, replicas=2))
    payload = json.loads(path.read_text())
    payload["run"][key] = states
    cfg = write_config(path, payload)
    out = tmp_path / "out"
    res = run_cli([kind, "--config", cfg, "--threads", str(threads), "--out", str(out)])
    assert_one_line_error(
        res, out, f"{key} has {len(states)} coordinates; a selection configuration has 3"
    )


def test_couple_particles_negative_theta_fails_before_replicas(tmp_path, monkeypatch):
    path = pathlib.Path(selection_config(tmp_path, "couple-particles", replicas=2))
    payload = json.loads(path.read_text())
    payload["run"]["theta"] = 0
    res = run_cli(["couple-particles", "--config", write_config(path, payload),
                   "--out", str(tmp_path / "zero")])
    assert res.exit_code == 0, res.output
    forbid_replicas(monkeypatch)
    payload["run"]["theta"] = -1
    cfg = write_config(path, payload)
    out = tmp_path / "out"
    res = run_cli(["couple-particles", "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, "theta must be nonnegative, got -1.0")


@pytest.mark.parametrize("kind", ["simulate", "picard"])
def test_tcp_runs_write_the_sample_at_the_horizon(tmp_path, kind):
    if kind == "simulate":
        run = {
            "x0": [0.0], "horizon": 1.0, "replicas": 64, "sample_times": [0.5, 1.0],
            "flow": {"type": "constant", "atom": [0.0]},
        }
    else:
        run = {
            "m0": [[0.0]], "horizon": 1.0, "grid_step": 0.5, "n_samples": 100,
            "tol": 0.0, "max_iter": 2,
        }
    cfg = write_config(
        tmp_path / "tcp.json",
        {"schema": 1, "kind": kind, "model": {"id": "tcp", "params": {}}, "run": run},
    )
    out = tmp_path / "out"
    res = run_cli([kind, "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / f"{kind}.csv").read_text().strip().splitlines()
    if kind == "simulate":
        assert len(lines) == 1 + 64 * 2
    else:
        # Over a horizon of 1 every tcp state lies in the first of the 20
        # cells of its box (0, 100), so the gap reads exactly 0 and tol 0
        # stops the run after one iteration.
        assert lines[1:] == ["1,0.0,true"]


@pytest.mark.parametrize(
    "kind, model, expected",
    [
        ("simulate", {"id": "run-tumble", "params": {"theta": 0.1, "base_rate": math.nan}},
         "parameter 'base_rate' must be a finite number, got nan"),
        ("simulate", {"id": "run-tumble", "params": {"theta": "0.1"}},
         "parameter 'theta' must be a finite number, got '0.1'"),
        ("simulate", {"id": "run-tumble", "params": {"theta": 0.1, "base_rate": True}},
         "parameter 'base_rate' must be a finite number, got True"),
        ("particles", {"id": "selection", "params": {"n_particles": 2.5}},
         "parameter 'n_particles' must be an integer, got 2.5"),
        ("particles", {"id": "mh", "params": {"n_sites": "2"}},
         "parameter 'n_sites' must be an integer, got '2'"),
        ("particles", {"id": "mh", "params": {"sites": 2}},
         "model 'mh' has no parameter 'sites'"),
    ],
    ids=["nan", "string", "bool", "fractional-integer", "string-integer", "unknown"],
)
def test_malformed_model_parameters_fail_before_replicas(
    tmp_path, monkeypatch, kind, model, expected
):
    forbid_replicas(monkeypatch)
    path = pathlib.Path(
        simulate_config(tmp_path) if kind == "simulate"
        else selection_config(tmp_path, kind, replicas=2)
    )
    payload = json.loads(path.read_text())
    payload["model"] = model
    cfg = write_config(path, payload)
    out = tmp_path / "out"
    res = run_cli([kind, "--config", cfg, "--out", str(out)])
    assert_one_line_error(res, out, expected)
