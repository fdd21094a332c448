"""Command-line front end for simulation and coupling experiments.

Every subcommand reads a single JSON config (``schema: 1``) whose ``kind``
must match the subcommand and writes one CSV file with a fixed header into
``--out``.  Every kind takes one path: load the config, build the model
bundle (not for ``certify``), call the kind's run function from ``KINDS``,
write the CSV.  Each state read is checked against the model's or system's
layout, and replicas run through :meth:`_Run.replicas`.

``--threads K`` runs the replicas of ``simulate``, ``particles``, ``couple``,
``couple-particles`` and ``estimate`` in up to K forked worker processes, at
most one per CPU, each taking one contiguous block of replica indices;
``picard`` and ``certify`` run serially.  The pair (config, seed) determines
the output byte-exactly, regardless of ``--threads``: replica ``r`` draws
from the buffered stream (:class:`~mfjump.engine._BlockStream`) of the
seed's ``r``-th spawned child, built by the worker that runs it, results
are gathered in replica order, and a failing run reports its lowest failing
replica.  A malformed config, a negative ``--seed`` or a failing replica
gives a one-line error and writes nothing.  The ``MFJUMP_LOG`` environment
variable (``off``, ``info``, ``trace``) controls logging verbosity.
"""

from __future__ import annotations

import collections.abc
import functools
import json
import logging
import math
import os
import pathlib
from typing import Callable, Optional, Sequence

import click
import numpy as np

from .certificates import (
    AssumptionConstants,
    nonlinear_certificate,
    particle_certificate,
)
from .coupling import (
    UnsupportedCouplingError,
    alpha_from_windows,
    check_coupled_system,
    coupled_base,
    simulate_coupled_system,
    simulate_merge_split,
)
from .engine import (
    EmpiricalMeasure,
    MeasureFlow,
    RateCeilingError,
    _BlockStream,
    _run_times,
    picard_solve,
    simulate_nonlinear,
)
from .metrics import dbar1, estimate_tv_bound, estimate_vnorm_bound
from .models import MODEL_REGISTRY, build_model
from .particles import simulate_system

__all__ = ["main"]

_LOG = logging.getLogger("mfjump.cli")

#: The library's refusals of a model or a run, reported as one-line errors.
_REFUSALS = (RateCeilingError, UnsupportedCouplingError, ValueError)

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


class _IntRange(click.IntRange):
    """An integer range whose refusal is one line naming the option (exit
    1), as the CLI's other refusals are, not click's usage message."""

    def fail(self, message, param=None, ctx=None):
        raise click.ClickException(f"invalid value for {param.opts[0]}: {message}")


def _options() -> list:
    """The options every kind takes."""
    return [
        click.Option(["--config", "config_path"], required=True,
                     type=click.Path(exists=True, dir_okay=False),
                     help="JSON experiment config."),
        click.Option(["--out", "out_dir"], required=True,
                     type=click.Path(file_okay=False),
                     help="Directory receiving the output CSV."),
        click.Option(["--seed"], default=0, show_default=True,
                     type=_IntRange(min=0),
                     help="Root seed for all replica streams."),
        click.Option(["--threads"], default=1, show_default=True,
                     type=click.IntRange(min=1),
                     help="Maximum worker processes for replicas (forked; the "
                     "output does not depend on it). picard and certify ignore it."),
    ]


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
    model_id = model_cfg["id"]
    if not isinstance(model_id, str) or model_id not in MODEL_REGISTRY:
        raise click.ClickException(f"unknown model id {model_id!r}")
    params = model_cfg.get("params", {})
    if not isinstance(params, dict):
        raise click.ClickException("model 'params' must be an object")
    kinds = MODEL_REGISTRY[model_id][1]
    for key, value in params.items():
        if key not in kinds:
            raise click.ClickException(
                f"model {model_id!r} has no parameter {key!r}; it takes {', '.join(kinds)}"
            )
        _number(value, f"parameter {key!r}", integer=kinds[key] is int)
    try:
        return build_model(model_id, params)
    except KeyError as exc:
        raise click.ClickException(
            f"model {model_id!r} is missing parameter {exc.args[0]!r}"
        )
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"invalid model parameters: {exc}")


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


#: bundle attribute -> (layout field, box field, what a bundle without it lacks)
_PARTS = {
    "model": ("state_layout", "state_box", "a measure-driven (single-state) form"),
    "system": ("coordinate_layout", "coordinate_box", "an interacting particle system"),
}


class _Run:
    """One run of a kind: its ``run`` fields, its model part and its replicas.

    :meth:`part` picks the bundle's model or system; every state read after
    it is checked against that part's layout.
    """

    def __init__(self, kind: str, fields: dict, bundle, seed: int, threads: int):
        self.kind = kind
        self.fields = fields
        self.bundle = bundle
        self.seed = seed
        self.threads = threads
        self.name = None
        self.layout = self.box = ()

    def part(self, attr: str):
        layout, box, form = _PARTS[attr]
        part = getattr(self.bundle, attr, None)
        if part is None:
            raise click.ClickException(f"this model does not define {form}")
        self.layout, self.box = getattr(part, layout), getattr(part, box)
        self.name = part.name
        return part

    def field(self, key: str):
        if key not in self.fields:
            raise click.ClickException(f"config run section is missing '{key}'")
        return self.fields[key]

    def number(self, key: str, integer: bool = False):
        return _number(self.field(key), key, integer)

    def check_state(self, value, name: str) -> tuple:
        """A state of the part's layout: one finite number per component,
        and each label one of the values its box entry lists."""
        if not isinstance(value, (list, tuple)):
            raise click.ClickException(f"expected a state array, got {value!r}")
        if len(value) != len(self.layout):
            raise click.ClickException(
                f"{name} {value!r} has length {len(value)}; a {self.name} "
                f"state has length {len(self.layout)}"
            )
        for entry, kind, allowed in zip(value, self.layout, self.box):
            _number(entry, "state entry")
            if kind == "label" and entry not in allowed:
                raise click.ClickException(
                    f"{name} {value!r}: label {entry!r} is not one of "
                    f"{list(allowed)}"
                )
        return tuple(value)

    def state(self, key: str) -> tuple:
        return self.check_state(self.field(key), key)

    def states(self, key: str, count: Optional[int] = None) -> tuple:
        """A list of states: ``m0``, or a configuration of ``count`` coordinates."""
        value = self.field(key)
        if not isinstance(value, list):
            raise click.ClickException(f"{key} must be a list of states, got {value!r}")
        if count is not None and len(value) != count:
            raise click.ClickException(
                f"{key} has {len(value)} coordinates; a {self.name} configuration "
                f"has {count}"
            )
        return tuple(self.check_state(state, key) for state in value)

    def replica_count(self, minimum: int = 1) -> int:
        replicas = self.number("replicas", integer=True)
        if replicas < minimum:
            raise click.ClickException(f"replicas must be at least {minimum}")
        return replicas

    def horizon(self) -> float:
        horizon = self.number("horizon")
        if horizon <= 0.0:
            raise click.ClickException("horizon must be positive")
        return horizon

    def sample_times(self, horizon: float) -> tuple:
        times = self.field("sample_times")
        if not isinstance(times, list):
            raise click.ClickException(f"sample_times must be a list, got {times!r}")
        times = tuple(_number(t, "sample time") for t in times)
        _run_times(horizon, times, self.name)
        return times

    def flow(self, key: str) -> MeasureFlow:
        spec = self.field(key)
        if not isinstance(spec, dict) or spec.get("type") != "constant":
            raise click.ClickException(
                f"unsupported flow spec {spec!r}; expected "
                '{"type": "constant", "atom": [...]}'
            )
        atom = self.check_state(spec.get("atom"), f"{key}.atom")
        return MeasureFlow.constant(EmpiricalMeasure.from_states([atom]))

    def replicas(self, n: int, worker: Callable) -> list:
        """``worker(replica, stream)`` over ``n`` seeded replicas, in order."""
        _LOG.info("%s: %d replicas on %s", self.kind, n, self.name)
        return _map_replicas(
            _guarded(worker), _replica_streams(self.seed, n), self.threads
        )


# ---------------------------------------------------------------------------
# Replica execution and CSV emission.
# ---------------------------------------------------------------------------


def _block_stream(seed_sequence: np.random.SeedSequence) -> _BlockStream:
    """The buffered Philox stream of ``seed_sequence``."""
    return _BlockStream(np.random.Generator(np.random.Philox(seed_sequence)))


class _replica_streams(collections.abc.Sequence):
    """One stream per replica of ``n``, item ``[r]`` built when it is read.

    Replica ``r`` draws from the child ``SeedSequence(seed).spawn(n)[r]``
    (that is, ``spawn_key=(r,)``), so that no byte written depends on
    ``--threads``, and each worker builds only its own replicas' streams.
    """

    def __init__(self, seed: int, n: int):
        self._seed = seed
        self._indices = range(n)

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, r: int) -> _BlockStream:
        r = self._indices[r]  # IndexError past the end, as a list's
        return _block_stream(np.random.SeedSequence(self._seed, spawn_key=(r,)))


def _run_chunk(connection, worker: Callable, streams: Sequence, start: int, stop: int) -> None:
    """Run replicas ``start <= r < stop`` in a forked worker process.

    Sends ``(results, failure)`` through ``connection``: the chunk stops at
    its first failing replica and sends that exception as ``failure``
    (``None`` if all ran).
    """
    results, failure = [], None
    for r in range(start, stop):
        try:
            results.append(worker(r, streams[r]))
        except Exception as exc:
            results, failure = [], exc
            break
    connection.send((results, failure))


def _map_replicas(worker: Callable, streams: Sequence, threads: int) -> list:
    """Run ``worker(replica, stream)`` for every replica, in index order.

    With ``threads > 1`` the replicas are split into contiguous chunks, one
    per forked worker process, at most one per CPU (serially where ``fork``
    is unavailable).  The chunks are read in order, so the list, and the
    first failure raised, are those of the serial run; once a chunk fails,
    the later workers are stopped without waiting for them.  The workers are
    forked because model closures cannot be pickled (only results are);
    forking is safe because the CLI starts no threads of its own.
    """
    n = len(streams)
    workers = min(threads, n, os.cpu_count() or 1)
    if workers > 1:
        # Imported here, not at the top: it adds to every start-up.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        return [worker(r, stream) for r, stream in enumerate(streams)]
    context = multiprocessing.get_context("fork")
    chunks = []
    results = []
    try:
        for k in range(workers):
            receive, send = context.Pipe(duplex=False)
            bounds = (n * k // workers, n * (k + 1) // workers)
            process = context.Process(
                target=_run_chunk, args=(send, worker, streams, *bounds), daemon=True
            )
            process.start()
            # Only the worker holds the sending end, so its death ends the pipe.
            send.close()
            chunks.append((process, receive))
        for _, receive in chunks:
            try:
                chunk, failure = receive.recv()
            except EOFError:
                raise click.ClickException("a replica worker process exited unexpectedly")
            if failure is not None:
                raise failure
            results.extend(chunk)
    except BaseException:
        for process, _ in chunks:
            process.terminate()
        raise
    finally:
        for process, receive in chunks:
            process.join()
            receive.close()
    return results


def _guarded(worker: Callable) -> Callable:
    """Surface model contract violations with the replica index attached."""

    def run(replica: int, stream):
        _LOG.debug("replica %d", replica)
        try:
            return worker(replica, stream)
        except _REFUSALS as exc:
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


# ---------------------------------------------------------------------------
# The kinds: each run function parses its fields, runs, and reduces to rows.
# ---------------------------------------------------------------------------


def _certify(run: _Run) -> list:
    family = run.field("family")
    constants = run.field("constants")
    if not isinstance(constants, dict):
        raise click.ClickException("run 'constants' must be an object")
    constants = dict(constants)
    grade = "empirical" if constants.pop("alpha_estimated", False) else "declared"
    try:
        c = AssumptionConstants(**constants)
        if family == "nonlinear":
            certs = [nonlinear_certificate(c)]
        elif family == "particle":
            certs = [particle_certificate(c, corrected=v) for v in (False, True)]
        else:
            raise click.ClickException(
                f"unknown certificate family {family!r}; "
                "expected 'nonlinear' or 'particle'"
            )
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"invalid constants: {exc}")
    return [
        (cert.beta, cert.c_star, cert.kappa, cert.kappa_tilde,
         bool(cert.contracts), cert.variant, grade)
        for cert in certs
    ]


def _couple(run: _Run) -> list:
    model = run.part("model")
    lyapunov = getattr(run.bundle, "lyapunov", None)
    if lyapunov is None:
        raise click.ClickException("this model does not define a Lyapunov weight")
    x0, y0 = run.state("x0"), run.state("y0")
    horizon = run.horizon()
    t0 = run.number("t0")
    # The bound estimates need a standard error, so at least two pairs.
    replicas = run.replica_count(minimum=2)
    times = run.sample_times(horizon)
    flow1, flow2 = run.flow("flow1"), run.flow("flow2")
    trajectories = run.replicas(replicas, lambda replica, stream: simulate_merge_split(
        model, flow1, flow2, x0, y0, horizon, t0, stream,
        sample_times=times, record_events=False,
    ))
    rows = []
    for t in times:
        tv = estimate_tv_bound(trajectories, t)
        vnorm = estimate_vnorm_bound(trajectories, t, lyapunov)
        rows.append(
            (t, tv.point / 2.0, tv.point, tv.se, vnorm.point, vnorm.se, replicas)
        )
    return rows


def _simulate(run: _Run) -> list:
    model = run.part("model")
    x0 = run.state("x0")
    horizon = run.horizon()
    replicas = run.replica_count()
    times = run.sample_times(horizon)
    flow = run.flow("flow")
    trajectories = run.replicas(replicas, lambda replica, stream: simulate_nonlinear(
        model, flow, x0, horizon, stream, sample_times=times, record_events=False
    ))
    return [
        (replica, t) + trajectory.state_at_sample(t)
        for replica, trajectory in enumerate(trajectories)
        for t in times
    ]


def _estimate(run: _Run) -> list:
    model = run.part("model")
    x0, y0 = run.state("x0"), run.state("y0")
    t0 = run.number("t0")
    replicas = run.replica_count()
    merged = run.replicas(
        replicas, lambda replica, stream: coupled_base(model, x0, y0, t0, stream)[2]
    )
    return [(t0, *alpha_from_windows(merged), replicas)]


def _picard(run: _Run) -> list:
    model = run.part("model")
    m0_states = run.states("m0")
    if not m0_states:
        raise click.ClickException("m0 must contain at least one state")
    weight = 1.0 / len(m0_states)
    m0 = EmpiricalMeasure(atoms=tuple((s, weight) for s in m0_states))
    horizon = run.horizon()
    grid_step = run.number("grid_step")
    n_samples = run.number("n_samples", integer=True)
    tol = run.number("tol")
    max_iter = run.number("max_iter", integer=True)
    _LOG.info("picard: %d samples per grid point, up to %d iterations on %s",
              n_samples, max_iter, model.name)
    result = picard_solve(
        model, m0, horizon, grid_step, n_samples, tol, max_iter,
        _block_stream(np.random.SeedSequence(run.seed)),
    )
    return [
        (iteration + 1, gap, bool(gap <= tol))
        for iteration, gap in enumerate(result.gap_history)
    ]


def _particles(run: _Run) -> list:
    system = run.part("system")
    x0 = run.states("x0", system.n_particles)
    horizon = run.horizon()
    replicas = run.replica_count()
    times = run.sample_times(horizon)
    trajectories = run.replicas(replicas, lambda replica, stream: simulate_system(
        system, x0, horizon, stream, sample_times=times, record_events=False
    ))
    return [
        (replica, t, index) + tuple(coordinate)
        for replica, trajectory in enumerate(trajectories)
        for t in times
        for index, coordinate in enumerate(trajectory.state_at_sample(t))
    ]


def _couple_particles(run: _Run) -> list:
    system = run.part("system")
    x0 = run.states("x0", system.n_particles)
    y0 = run.states("y0", system.n_particles)
    horizon = run.horizon()
    t0 = run.number("t0")
    replicas = run.replica_count()
    times = run.sample_times(horizon)
    theta = run.number("theta") if "theta" in run.fields else float(system.rate_ceiling)
    check_coupled_system(system, theta)
    trajectories = run.replicas(
        replicas, lambda replica, stream: simulate_coupled_system(
            system, x0, y0, horizon, t0, theta, stream,
            sample_times=times, record_events=False,
        )
    )
    rows = []
    for t in times:
        js = np.array([trajectory.j_at(t) for trajectory in trajectories])
        dbars = np.array(
            [dbar1(*trajectory.sample_at(t)[:2]) for trajectory in trajectories]
        )
        j_se = float(js.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
        violations = int(np.sum(2.0 * js < dbars - 1e-9))
        rows.append(
            (t, float(js.mean()), j_se, float(dbars.mean()), violations, replicas)
        )
    return rows


#: kind -> (run function, output file, header, help).  ``{coords}`` in a
#: header stands for one column per component of the kind's states.
KINDS = {
    "certify": (_certify, "certify.csv", CERTIFY_HEADER,
                "Evaluate closed-form contraction certificates."),
    "couple": (_couple, "couple.csv", COUPLE_HEADER,
               "Couple two measure-driven runs and estimate distance bounds."),
    "simulate": (_simulate, "simulate.csv", "replica,t,{coords}",
                 "Simulate independent replicas of a measure-driven model."),
    "estimate": (_estimate, "estimate.csv", "t0,alpha_hat,alpha_se,n_replicas",
                 "Estimate the one-window merge probability of the base coupling."),
    "picard": (_picard, "picard.csv", "iteration,gap,converged",
               "Solve for a self-consistent measure flow by fixed-point iteration."),
    "particles": (_particles, "particles.csv", "replica,t,particle,{coords}",
                  "Simulate independent replicas of an interacting particle system."),
    "couple-particles": (
        _couple_particles, "couple_particles.csv",
        "t,mean_J,J_se,mean_dbar1,violations,n_replicas",
        "Couple two particle-system runs and track the split counter.",
    ),
}


def _command(kind: str, config_path, out_dir, seed, threads) -> None:
    """Load, build, run and write: the one path every kind takes."""
    run_kind, name, header, _ = KINDS[kind]
    cfg = _load_config(config_path, kind)
    bundle = None if kind == "certify" else _build_bundle(cfg)
    run = _Run(kind, cfg["run"], bundle, seed, threads)
    try:
        rows = run_kind(run)
    except _REFUSALS as exc:
        raise click.ClickException(str(exc))
    coords = ",".join(f"x{k}" for k in range(len(run.layout)))
    _write_csv(out_dir, name, header.format(coords=coords), rows)


for _kind, (_, _, _, _help) in KINDS.items():
    main.add_command(click.Command(
        _kind, callback=functools.partial(_command, _kind), params=_options(),
        help=_help,
    ))


if __name__ == "__main__":
    main()
