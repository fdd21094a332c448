"""Command-line front end for simulation and coupling experiments.

Every subcommand reads a single JSON config (``schema: 1``) whose ``kind``
must match the subcommand, runs its replicas with independently seeded
streams, and writes one CSV file with a fixed header into ``--out``.
``--threads K`` runs the replicas of ``simulate``, ``particles``, ``couple``
and ``couple-particles`` in up to K forked worker processes, each taking one
contiguous block of replica indices; the other kinds run serially.  The pair
(config, seed) determines the output byte-exactly, regardless of
``--threads``: replica streams are pre-spawned from the seed, results are
gathered in replica order, and a failing run reports its lowest failing
replica.  A malformed config or a failing replica gives a one-line error and
writes nothing.  The ``MFJUMP_LOG`` environment variable (``off``, ``info``,
``trace``) controls logging verbosity.
"""

from __future__ import annotations

import json
import logging
import math
import os
import pathlib
from typing import Callable, Sequence

import click
import numpy as np

from .certificates import (
    AssumptionConstants,
    nonlinear_certificate,
    particle_certificate,
)
from .coupling import (
    estimate_doeblin_alpha,
    simulate_coupled_system,
    simulate_merge_split,
)
from .engine import (
    EmpiricalMeasure,
    MeasureFlow,
    RateCeilingError,
    picard_solve,
    simulate_nonlinear,
    simulate_nonlinear_unbounded,
)
from .metrics import dbar1, estimate_tv_bound, estimate_vnorm_bound
from .models import build_model
from .particles import simulate_system

__all__ = ["main"]

_LOG = logging.getLogger("mfjump.cli")

COUPLE_HEADER = "t,p_unequal,tv_bound,tv_se,vnorm_bound,vnorm_se,n_replicas"
CERTIFY_HEADER = "beta,c_star,kappa,kappa_tilde,contracts,variant,estimate_grade"

_LOG_LEVELS = {
    "off": logging.WARNING,
    "info": logging.INFO,
    "trace": logging.DEBUG,
}


def _configure_logging() -> None:
    raw = os.environ.get("MFJUMP_LOG", "off").strip().lower()
    level = _LOG_LEVELS.get(raw, logging.WARNING)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("mfjump").setLevel(level)


@click.group()
def main() -> None:
    """Jump-process simulation, coupling, and certificate experiments."""
    _configure_logging()


def _common_options(fn: Callable) -> Callable:
    fn = click.option(
        "--threads",
        default=1,
        show_default=True,
        type=click.IntRange(min=1),
        help=(
            "Maximum worker processes for replicas (forked; the output does "
            "not depend on it). estimate, picard and certify ignore it."
        ),
    )(fn)
    fn = click.option(
        "--seed",
        default=0,
        show_default=True,
        type=int,
        help="Root seed for all replica streams.",
    )(fn)
    fn = click.option(
        "--out",
        "out_dir",
        required=True,
        type=click.Path(file_okay=False),
        help="Directory receiving the output CSV.",
    )(fn)
    fn = click.option(
        "--config",
        "config_path",
        required=True,
        type=click.Path(exists=True, dir_okay=False),
        help="JSON experiment config.",
    )(fn)
    return fn


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


def _load_config(config_path: str, kind: str) -> dict:
    """Parse and validate the JSON config for a subcommand."""
    try:
        text = pathlib.Path(config_path).read_text()
    except OSError as exc:
        raise click.ClickException(f"cannot read config: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise click.ClickException("config must be a JSON object")
    schema = cfg.get("schema")
    if schema != 1:
        raise click.ClickException(
            f"unsupported config schema {schema!r}; this build expects 1"
        )
    if cfg.get("kind") != kind:
        raise click.ClickException(
            f"config kind {cfg.get('kind')!r} does not match command {kind!r}"
        )
    if not isinstance(cfg.get("run"), dict):
        raise click.ClickException("config must contain a 'run' object")
    return cfg


def _build_bundle(cfg: dict):
    model_cfg = cfg.get("model")
    if not isinstance(model_cfg, dict) or "id" not in model_cfg:
        raise click.ClickException(
            "config must contain a 'model' object with an 'id'"
        )
    params = model_cfg.get("params", {})
    if not isinstance(params, dict):
        raise click.ClickException("model 'params' must be an object")
    try:
        return build_model(model_cfg["id"], params)
    except KeyError:
        raise click.ClickException(f"unknown model id {model_cfg['id']!r}")
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"invalid model parameters: {exc}")


def _field(run: dict, key: str):
    if key not in run:
        raise click.ClickException(f"config run section is missing '{key}'")
    return run[key]


def _state(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise click.ClickException(f"expected a state array, got {value!r}")
    return tuple(value)


def _config_states(value) -> tuple:
    return tuple(_state(coord) for coord in value)


def _number(value, name: str, integer: bool = False):
    """A JSON number as a float (an integer if ``integer``), else a one-line error."""
    if integer:
        valid = isinstance(value, int)
    else:
        valid = isinstance(value, (int, float)) and math.isfinite(value)
    if isinstance(value, bool) or not valid:
        expected = "an integer" if integer else "a finite number"
        raise click.ClickException(f"{name} must be {expected}, got {value!r}")
    return value if integer else float(value)


def _replica_count(run: dict, minimum: int = 1) -> int:
    replicas = _number(_field(run, "replicas"), "replicas", integer=True)
    if replicas < minimum:
        raise click.ClickException(f"replicas must be at least {minimum}")
    return replicas


def _horizon(run: dict) -> float:
    horizon = _number(_field(run, "horizon"), "horizon")
    if horizon <= 0.0:
        raise click.ClickException("horizon must be positive")
    return horizon


def _sample_times(run: dict, horizon: float) -> tuple:
    times = _field(run, "sample_times")
    if not isinstance(times, list):
        raise click.ClickException(f"sample_times must be a list, got {times!r}")
    times = tuple(_number(t, "sample time") for t in times)
    for t in times:
        if not 0.0 <= t <= horizon:
            raise click.ClickException(
                f"sample time {t} lies outside [0, horizon {horizon}]"
            )
    return times


def _flow_from(spec, horizon: float) -> MeasureFlow:
    if not isinstance(spec, dict) or spec.get("type") != "constant":
        raise click.ClickException(
            f"unsupported flow spec {spec!r}; expected "
            '{"type": "constant", "atom": [...]}'
        )
    atom = _state(_field(spec, "atom"))
    return MeasureFlow.constant(EmpiricalMeasure.from_states([atom]), horizon)


# ---------------------------------------------------------------------------
# Replica execution and CSV emission.
# ---------------------------------------------------------------------------


def _root_stream(seed: int):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _replica_streams(seed: int, n: int) -> list:
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


# The worker and streams of a replica pool, set in each forked worker by the
# pool initializer.  They reach the workers through fork, not pickle, so no
# model closure has to pickle: only chunk bounds and results are pickled.
_POOL_TASK: tuple = ()


def _set_pool_task(worker: Callable, streams: Sequence) -> None:
    global _POOL_TASK
    _POOL_TASK = (worker, streams)


def _run_chunk(bounds: tuple) -> tuple:
    """Run replicas ``start <= r < stop`` of the pool task.

    Returns ``(results, failure)``: the chunk stops at its first failing
    replica and returns that exception as ``failure`` (``None`` if all ran).
    """
    worker, streams = _POOL_TASK
    start, stop = bounds
    results = []
    for r in range(start, stop):
        try:
            results.append(worker(r, streams[r]))
        except Exception as exc:
            return [], exc
    return results, None


def _map_replicas(worker: Callable, streams: Sequence, threads: int) -> list:
    """Run ``worker(replica, stream)`` for every replica, in index order.

    With ``threads > 1`` the replicas are split into contiguous chunks, one
    per forked worker process (serially where ``fork`` is unavailable).  The
    chunks are gathered in order, so the list, and the first failure raised,
    are those of the serial run.  The workers are forked because model
    closures cannot be pickled; forking is safe because the CLI starts no
    threads of its own.
    """
    n = len(streams)
    workers = min(threads, n)
    if workers > 1:
        # Imported here, not at the top: they add to every start-up.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        return [worker(r, stream) for r, stream in enumerate(streams)]
    bounds = [(n * k // workers, n * (k + 1) // workers) for k in range(workers)]
    context = multiprocessing.get_context("fork")
    results = []
    with ProcessPoolExecutor(
        workers, context, _set_pool_task, (worker, streams)
    ) as pool:
        try:
            for chunk, failure in pool.map(_run_chunk, bounds):
                if failure is not None:
                    raise failure
                results.extend(chunk)
        except BrokenProcessPool:
            raise click.ClickException("a replica worker process exited unexpectedly")
    return results


def _guarded(worker: Callable) -> Callable:
    """Surface model contract violations with the replica index attached."""

    def run(replica: int, stream):
        try:
            return worker(replica, stream)
        except (RateCeilingError, ValueError) as exc:
            raise click.ClickException(f"replica {replica}: {exc}")

    return run


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(out_dir: str, name: str, header: str, rows: Sequence) -> None:
    """Create the output directory and write the finished table."""
    directory = pathlib.Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    (directory / name).write_text("\n".join(lines) + "\n")
    _LOG.info("wrote %s (%d rows)", directory / name, len(rows))


def _coordinate_header(prefix: str, n_coords: int) -> str:
    return prefix + ",".join(f"x{k}" for k in range(n_coords))


def _se(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(len(values)))


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


@main.command()
@_common_options
def certify(config_path, out_dir, seed, threads) -> None:
    """Evaluate closed-form contraction certificates."""
    cfg = _load_config(config_path, "certify")
    run = cfg["run"]
    family = _field(run, "family")
    constants = _field(run, "constants")
    if not isinstance(constants, dict):
        raise click.ClickException("run 'constants' must be an object")
    constants = dict(constants)
    grade = "empirical" if constants.pop("alpha_estimated", False) else "declared"
    try:
        c = AssumptionConstants(**constants)
        if family == "nonlinear":
            certs = [nonlinear_certificate(c)]
        elif family == "particle":
            certs = [
                particle_certificate(c, corrected=False),
                particle_certificate(c, corrected=True),
            ]
        else:
            raise click.ClickException(
                f"unknown certificate family {family!r}; "
                "expected 'nonlinear' or 'particle'"
            )
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"invalid constants: {exc}")
    rows = [
        (
            cert.beta,
            cert.c_star,
            cert.kappa,
            cert.kappa_tilde,
            bool(cert.contracts),
            cert.variant,
            grade,
        )
        for cert in certs
    ]
    _write_csv(out_dir, "certify.csv", CERTIFY_HEADER, rows)


@main.command()
@_common_options
def couple(config_path, out_dir, seed, threads) -> None:
    """Couple two measure-driven runs and estimate distance bounds."""
    cfg = _load_config(config_path, "couple")
    bundle = _build_bundle(cfg)
    model = getattr(bundle, "model", None)
    lyapunov = getattr(bundle, "lyapunov", None)
    if model is None or lyapunov is None:
        raise click.ClickException(
            "this model does not define a measure-driven form with a "
            "Lyapunov weight"
        )
    run = cfg["run"]
    x0, y0 = _state(_field(run, "x0")), _state(_field(run, "y0"))
    horizon = _horizon(run)
    t0 = _number(_field(run, "t0"), "t0")
    # The bound estimates need a standard error, so at least two pairs.
    replicas = _replica_count(run, minimum=2)
    times = _sample_times(run, horizon)
    flow1 = _flow_from(_field(run, "flow1"), horizon)
    flow2 = _flow_from(_field(run, "flow2"), horizon)
    _LOG.info("couple: %d replicas on %s", replicas, model.name)

    def worker(replica, stream):
        _LOG.debug("couple replica %d", replica)
        return simulate_merge_split(
            model, flow1, flow2, x0, y0, horizon, t0, stream,
            sample_times=times, record_events=False,
        )

    trajectories = _map_replicas(
        _guarded(worker), _replica_streams(seed, replicas), threads
    )
    rows = []
    for t in times:
        tv = estimate_tv_bound(trajectories, t)
        vnorm = estimate_vnorm_bound(trajectories, t, lyapunov)
        rows.append(
            (t, tv.point / 2.0, tv.point, tv.se, vnorm.point, vnorm.se, replicas)
        )
    _write_csv(out_dir, "couple.csv", COUPLE_HEADER, rows)


@main.command()
@_common_options
def simulate(config_path, out_dir, seed, threads) -> None:
    """Simulate independent replicas of a measure-driven model."""
    cfg = _load_config(config_path, "simulate")
    bundle = _build_bundle(cfg)
    model = getattr(bundle, "model", None)
    if model is None:
        raise click.ClickException(
            "this model does not define a measure-driven (single-state) form"
        )
    run = cfg["run"]
    x0 = _state(_field(run, "x0"))
    horizon = _horizon(run)
    replicas = _replica_count(run)
    times = _sample_times(run, horizon)
    flow = _flow_from(_field(run, "flow"), horizon)
    unbounded = math.isinf(model.rate_ceiling)
    _LOG.info("simulate: %d replicas on %s", replicas, model.name)

    def worker(replica, stream):
        _LOG.debug("simulate replica %d", replica)
        if unbounded:
            return simulate_nonlinear_unbounded(
                model, flow, x0, horizon, stream,
                sample_times=times, record_events=False,
            )
        return simulate_nonlinear(
            model, flow, x0, horizon, stream,
            sample_times=times, record_events=False,
        )

    trajectories = _map_replicas(
        _guarded(worker), _replica_streams(seed, replicas), threads
    )
    rows = []
    for replica, trajectory in enumerate(trajectories):
        for t in times:
            rows.append((replica, t) + trajectory.state_at_sample(t))
    header = _coordinate_header("replica,t,", len(model.state_layout))
    _write_csv(out_dir, "simulate.csv", header, rows)


@main.command()
@_common_options
def estimate(config_path, out_dir, seed, threads) -> None:
    """Estimate the one-window merge probability of the base coupling."""
    cfg = _load_config(config_path, "estimate")
    bundle = _build_bundle(cfg)
    model = getattr(bundle, "model", None)
    if model is None:
        raise click.ClickException(
            "this model does not define a measure-driven (single-state) form"
        )
    if model.base_coupler is None:
        raise click.ClickException(
            f"model {model.name!r} provides no coupled base construction"
        )
    run = cfg["run"]
    x0, y0 = _state(_field(run, "x0")), _state(_field(run, "y0"))
    t0 = _number(_field(run, "t0"), "t0")
    replicas = _replica_count(run)
    _LOG.info("estimate: %d replicas on %s", replicas, model.name)
    alpha_hat, alpha_se = estimate_doeblin_alpha(
        model, lambda _stream: (x0, y0), t0, replicas, _root_stream(seed)
    )
    rows = [(t0, alpha_hat, alpha_se, replicas)]
    _write_csv(out_dir, "estimate.csv", "t0,alpha_hat,alpha_se,n_replicas", rows)


@main.command()
@_common_options
def picard(config_path, out_dir, seed, threads) -> None:
    """Solve for a self-consistent measure flow by fixed-point iteration."""
    cfg = _load_config(config_path, "picard")
    bundle = _build_bundle(cfg)
    model = getattr(bundle, "model", None)
    if model is None:
        raise click.ClickException(
            "this model does not define a measure-driven (single-state) form"
        )
    run = cfg["run"]
    m0_states = [_state(s) for s in _field(run, "m0")]
    if not m0_states:
        raise click.ClickException("m0 must contain at least one state")
    weight = 1.0 / len(m0_states)
    m0 = EmpiricalMeasure(atoms=tuple((s, weight) for s in m0_states))
    horizon = _horizon(run)
    grid_step = _number(_field(run, "grid_step"), "grid_step")
    n_samples = _number(_field(run, "n_samples"), "n_samples", integer=True)
    tol = _number(_field(run, "tol"), "tol")
    max_iter = _number(_field(run, "max_iter"), "max_iter", integer=True)
    _LOG.info("picard: up to %d iterations on %s", max_iter, model.name)
    try:
        result = picard_solve(
            model, m0, horizon, grid_step, n_samples, tol, max_iter,
            _root_stream(seed),
        )
    except (RateCeilingError, ValueError) as exc:
        raise click.ClickException(str(exc))
    rows = [
        (iteration + 1, gap, bool(gap <= tol))
        for iteration, gap in enumerate(result.gap_history)
    ]
    _write_csv(out_dir, "picard.csv", "iteration,gap,converged", rows)


@main.command()
@_common_options
def particles(config_path, out_dir, seed, threads) -> None:
    """Simulate independent replicas of an interacting particle system."""
    cfg = _load_config(config_path, "particles")
    bundle = _build_bundle(cfg)
    system = getattr(bundle, "system", None)
    if system is None:
        raise click.ClickException(
            "this model does not define an interacting particle system"
        )
    run = cfg["run"]
    x0 = _config_states(_field(run, "x0"))
    horizon = _horizon(run)
    replicas = _replica_count(run)
    times = _sample_times(run, horizon)
    _LOG.info("particles: %d replicas of %s", replicas, system.name)

    def worker(replica, stream):
        _LOG.debug("particles replica %d", replica)
        return simulate_system(
            system, x0, horizon, stream, sample_times=times, record_events=False
        )

    trajectories = _map_replicas(
        _guarded(worker), _replica_streams(seed, replicas), threads
    )
    rows = []
    for replica, trajectory in enumerate(trajectories):
        for t in times:
            config = trajectory.state_at_sample(t)
            for index, coordinate in enumerate(config):
                rows.append((replica, t, index) + tuple(coordinate))
    header = _coordinate_header(
        "replica,t,particle,", len(system.coordinate_layout)
    )
    _write_csv(out_dir, "particles.csv", header, rows)


@main.command(name="couple-particles")
@_common_options
def couple_particles(config_path, out_dir, seed, threads) -> None:
    """Couple two particle-system runs and track the split counter."""
    cfg = _load_config(config_path, "couple-particles")
    bundle = _build_bundle(cfg)
    system = getattr(bundle, "system", None)
    if system is None:
        raise click.ClickException(
            "this model does not define an interacting particle system"
        )
    if system.kernel_atoms is None:
        raise click.ClickException(
            f"system {system.name!r} provides no kernel atoms"
        )
    run = cfg["run"]
    x0 = _config_states(_field(run, "x0"))
    y0 = _config_states(_field(run, "y0"))
    horizon = _horizon(run)
    t0 = _number(_field(run, "t0"), "t0")
    replicas = _replica_count(run)
    times = _sample_times(run, horizon)
    theta = float(system.rate_ceiling)
    if "theta" in run:
        theta = _number(run["theta"], "theta")
    _LOG.info("couple-particles: %d replicas of %s", replicas, system.name)

    def worker(replica, stream):
        _LOG.debug("couple-particles replica %d", replica)
        return simulate_coupled_system(
            system, x0, y0, horizon, t0, theta, stream,
            sample_times=times, record_events=False,
        )

    trajectories = _map_replicas(
        _guarded(worker), _replica_streams(seed, replicas), threads
    )
    rows = []
    for t in times:
        js = np.array([trajectory.j_at(t) for trajectory in trajectories])
        dbars = np.array(
            [
                dbar1(trajectory.sample_at(t)[0], trajectory.sample_at(t)[1])
                for trajectory in trajectories
            ]
        )
        violations = int(np.sum(2.0 * js < dbars - 1e-9))
        rows.append(
            (
                t,
                float(js.mean()),
                _se(js),
                float(dbars.mean()),
                violations,
                replicas,
            )
        )
    _write_csv(
        out_dir,
        "couple_particles.csv",
        "t,mean_J,J_se,mean_dbar1,violations,n_replicas",
        rows,
    )


if __name__ == "__main__":
    main()
