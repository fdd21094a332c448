"""Interacting particle systems driven by a single global proposal clock.

A system of ``N`` coordinates evolves by: independent per-coordinate base
motion between jumps, a global Poisson proposal clock at rate
``N * rate_ceiling``, a uniformly chosen coordinate per proposal, and
thinning acceptance with probability ``rate_i / rate_ceiling``.  Jump rates
may depend on the whole configuration, which is how mean-field interaction
enters.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from typing import Callable, Optional, Sequence

from .engine import (
    JUMP_ACCEPTED,
    JUMP_REJECTED,
    SAMPLE,
    EmpiricalMeasure,
    Event,
    ModelSpec,
    RateCeilingError,
    Trajectory,
    check_rate,
    clock,
)
from .metrics import states_equal

__all__ = [
    "SystemSpec",
    "empirical",
    "meanfield_system",
    "simulate_system",
]

State = tuple


@dataclasses.dataclass(frozen=True)
class SystemSpec:
    """Dynamics of an interacting system of exchangeable coordinates.

    Attributes:
        n_particles: Number of coordinates.
        base_flow: ``(coord_state, dt, stream) -> coord_state`` base motion
            of one coordinate, typed as ``ModelSpec.base_flow`` (coordinates
            are exchangeable, so it takes no index).
        rate: ``(i, config) -> float`` jump rate of coordinate ``i`` given the
            full configuration.
        kernel: ``(i, config, stream) -> coord_state`` post-jump state of
            coordinate ``i``, drawing any variates it needs from ``stream``.
        rate_ceiling: Uniform bound on every coordinate rate.
        coordinate_layout: Per-component kind of one coordinate.
        coordinate_box: Per-component range of one coordinate.  A label's
            entry lists the values it may take (binning never reads it):
            ``(-1, 1)`` is the set {-1, +1}.  The CLI checks coordinates
            against it.
        name: Human-readable system name.
        kernel_atoms: Optional ``(i, config) -> [(coord_state, w), ...]``
            atoms of the jump kernel of coordinate ``i``; coupled runs derive
            the mixed (one-proposal) atoms from them.
        base_coupler: Optional ``(cx, cy, stream) -> machine`` factory for
            coupled base motion of one coordinate pair, typed as
            ``ModelSpec.base_coupler`` (see :mod:`mfjump.coupling`).  Started
            on the diagonal (``cx == cy``) the machine is the base motion of
            one coordinate, and it drives single runs of
            :func:`simulate_system` too.
    """

    n_particles: int
    base_flow: Callable
    rate: Callable
    kernel: Callable
    rate_ceiling: float
    coordinate_layout: tuple
    coordinate_box: tuple
    name: str
    kernel_atoms: Optional[Callable] = None
    base_coupler: Optional[Callable] = None


def empirical(config: Sequence[State]) -> EmpiricalMeasure:
    """Empirical measure of a configuration (uniform over coordinates)."""
    return EmpiricalMeasure.from_states(config)


class _SynchronizedBaseMachine:
    """Fallback pair evolution: both sides consume identical base-flow draws.

    Used when a spec provides no base coupler.  A merged pair stays merged
    because the base flow is a deterministic function of state and draws, so
    a merged machine is one ``base_flow`` call per advance.
    """

    def __init__(self, base_flow: Callable, x, y, stream):
        self._base_flow = base_flow
        self._stream = stream
        self._x = tuple(x)
        self._y = tuple(y)
        self._merged = states_equal(self._x, self._y)
        if self._merged:
            self._y = self._x

    def advance(self, dt: float) -> Sequence:
        if self._merged:
            if dt > 0.0:
                self._x = self._y = tuple(self._base_flow(self._x, dt, self._stream))
            return ((dt, self._x, self._y, False),)
        if dt > 0.0:
            twin = copy.deepcopy(self._stream)
            self._x = tuple(self._base_flow(self._x, dt, self._stream))
            self._y = tuple(self._base_flow(self._y, dt, twin))
        self._merged = states_equal(self._x, self._y)
        if self._merged:
            self._y = self._x
        return [(dt, self._x, self._y, self._merged)]


def _base_machine(spec, x, y, stream):
    """The base machine of a model or of one system coordinate at ``(x, y)``.

    It is the spec's ``base_coupler``, or, where none is declared, the
    synchronized machine over ``base_flow``.  On the diagonal it is the base
    motion itself.
    """
    if spec.base_coupler is not None:
        return spec.base_coupler(x, y, stream)
    return _SynchronizedBaseMachine(spec.base_flow, x, y, stream)


def _flow_machines(machines: list, dt: float, xs: list, ys: list) -> None:
    """Advance every coordinate machine by ``dt``, storing its end states.

    A single run passes its configuration as both ``xs`` and ``ys``: on the
    diagonal the two sides are one state.  A ceiling error raised by a
    machine is re-raised naming the coordinate it moves.
    """
    if dt <= 0.0:
        return
    try:
        for i, machine in enumerate(machines):
            _, xs[i], ys[i], _ = machine.advance(dt)[-1]
    except RateCeilingError as err:
        raise RateCeilingError(f"coordinate {i}: {err}") from err


def simulate_system(
    system: SystemSpec,
    initial: Sequence[State],
    horizon: float,
    stream,
    sample_times: Sequence[float] = (),
    record_events: bool = True,
) -> Trajectory:
    """Simulate an interacting system by global-clock thinning.

    Each coordinate moves by its base machine (:func:`_base_machine`) started
    on the diagonal and drawing from ``stream``: the system's
    ``base_coupler`` where one is declared, else synchronized ``base_flow``
    calls.  An accepted jump restarts the machine of the coordinate that
    jumped.  Events carry full configurations (tuples of coordinate states).
    With ``record_events=False`` only sample events are kept, while accepted
    and rejected proposals are still counted.
    """
    n = system.n_particles
    ceiling = system.rate_ceiling
    if math.isinf(ceiling) or ceiling < 0.0:
        raise ValueError("system rate ceiling must be finite and nonnegative")
    if len(initial) != n:
        raise ValueError(f"expected {n} coordinates, got {len(initial)}")
    events: list[Event] = []
    sample_states: dict[float, tuple] = {}
    t = 0.0
    config = [tuple(c) for c in initial]
    initial_config = tuple(config)
    machines = [_base_machine(system, c, c, stream) for c in config]
    n_accepted = n_rejected = 0

    for t_event, kind in clock(horizon, n * ceiling, stream, sample_times):
        if kind == SAMPLE:
            _flow_machines(machines, t_event - t, config, config)
            t = t_event
            snapshot = tuple(config)
            events.append(Event(time=t, kind=SAMPLE, state=snapshot))
            sample_states[t] = snapshot
            continue
        i = int(stream.integers(n))
        _flow_machines(machines, t_event - t, config, config)
        t = t_event
        full = tuple(config)
        rate_i = system.rate(i, full)
        check_rate(rate_i, ceiling, system.name, i)
        if stream.random() * ceiling < rate_i:
            config[i] = tuple(system.kernel(i, full, stream))
            machines[i] = _base_machine(system, config[i], config[i], stream)
            n_accepted += 1
            if record_events:
                events.append(Event(time=t, kind=JUMP_ACCEPTED, state=tuple(config)))
        else:
            n_rejected += 1
            if record_events:
                events.append(Event(time=t, kind=JUMP_REJECTED, state=full))
    _flow_machines(machines, horizon - t, config, config)
    return Trajectory(
        initial=initial_config,
        final_state=tuple(config),
        horizon=horizon,
        events=tuple(events),
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        sample_states=sample_states,
    )


def meanfield_system(model_or_bundle, n_particles: int) -> SystemSpec:
    """Lift a measure-driven model to an ``N``-coordinate interacting system.

    Each coordinate follows the model's base motion (its ``base_flow`` and
    ``base_coupler``, passed through unchanged); jump rates and kernels see
    the empirical measure of the current configuration in place of the
    ambient measure.  Accepts either a :class:`~mfjump.engine.ModelSpec` or a
    model bundle exposing ``.model``.
    """
    model: ModelSpec = getattr(model_or_bundle, "model", model_or_bundle)

    def rate(i, config):
        return model.rate(config[i], empirical(config))

    def kernel(i, config, stream):
        return model.kernel(config[i], empirical(config), stream.random())

    kernel_atoms = None
    if model.kernel_atoms is not None:

        def kernel_atoms(i, config):
            return model.kernel_atoms(config[i], empirical(config))

    return SystemSpec(
        n_particles=n_particles,
        base_flow=model.base_flow,
        rate=rate,
        kernel=kernel,
        rate_ceiling=model.rate_ceiling,
        coordinate_layout=model.state_layout,
        coordinate_box=model.state_box,
        name=f"{model.name}-system",
        kernel_atoms=kernel_atoms,
        base_coupler=model.base_coupler,
    )
