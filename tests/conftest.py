"""Shared fixtures: small hand-built models exercising the simulation engine.

The toy models here have closed-form behaviour (constant rates, deterministic
label flips, pure drift) so that tests can assert exact laws against them.
The reference flows are independent descriptions of the packaged base
motions, written as one function of ``(state, dt, stream)``, against which
the machines are checked in law.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mfjump.coupling import TwinCoupler
from mfjump.engine import (
    DriftMachine,
    EmpiricalMeasure,
    MeasureFlow,
    ModelSpec,
    RateCeilingError,
    check_rate,
)
from mfjump.particles import SystemSpec


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class CountingStream:
    """A generator wrapper that counts the calls of each drawing method."""

    def __init__(self, stream):
        self._stream = stream
        self.counts: dict = {}

    def __getattr__(self, name):
        method = getattr(self._stream, name)

        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


class CountedMachine:
    """A base machine that adds each of its advances to ``advances[0]``."""

    def __init__(self, machine, advances):
        self._machine = machine
        self._advances = advances

    def advance(self, dt):
        self._advances[0] += 1
        return self._machine.advance(dt)

    def __getattr__(self, attr):
        return getattr(self._machine, attr)


def advance_every_machine(machines: list, dt: float, xs: list, ys: list) -> None:
    """Advance every coordinate machine by ``dt``, in coordinate order, storing
    its end states: the step of the eager reference loops, which the
    event-driven simulators must match draw for draw.  A ceiling error raised
    by a machine is re-raised naming the coordinate it moves.
    """
    if dt <= 0.0:
        return
    try:
        for i, machine in enumerate(machines):
            xs[i], ys[i] = machine.advance(dt)
    except RateCeilingError as err:
        raise RateCeilingError(f"coordinate {i}: {err}") from err


def telegraph_flow(flip_rate: float):
    """Reference flow of the telegraph base motion: unit speed, the velocity
    label flipping at ``flip_rate``; a fresh exponential gap at each call."""

    def flow(state, dt, stream):
        x, v = state
        remaining = dt
        while True:
            gap = stream.exponential(1.0 / flip_rate) if flip_rate > 0.0 else math.inf
            if gap >= remaining:
                return (x + v * remaining, v)
            x += v * gap
            v = -v
            remaining -= gap

    return flow


def refresh_flow(rate: float):
    """Reference flow refreshing the state to ``Uniform[0, 1)`` at ``rate``:
    one refresh at most per call, the last one of the interval."""

    def flow(state, dt, stream):
        if rate > 0.0 and stream.random() < -math.expm1(-rate * dt):
            return (stream.random(),)
        return state

    return flow


def zigzag_flow(base_rate, lip: float, chunk: float = 0.5):
    """Reference flow of the zigzag base flips at ``base_rate(z, v)``, thinned
    along the flight in chunks of at most ``chunk`` cut from the call's own
    interval, under ``base_rate + lip * chunk`` at each chunk's start."""

    def flow(coord, dt, stream):
        z, v = coord
        remaining = dt
        while remaining > 1e-15:
            step = min(remaining, chunk)
            ceiling = base_rate(z, v) + lip * step
            gap = stream.exponential(1.0 / ceiling) if ceiling > 0.0 else math.inf
            if gap >= step:
                z += v * step
                remaining -= step
                continue
            z += v * gap
            remaining -= gap
            rate = base_rate(z, v)
            check_rate(rate, ceiling, "zigzag base flip")
            if stream.random() * ceiling < rate:
                v = -v
        return (z, v)

    return flow


def frozen_machine(state, stream):
    """Base machine of a state that stands still."""
    return DriftMachine(state)


def assert_configs_close(a, b, tol=1e-12):
    """Equal labels and ints; reals within ``tol``."""
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert len(ca) == len(cb)
        for xa, xb in zip(ca, cb):
            if isinstance(xa, int) or isinstance(xb, int):
                assert xa == xb and type(xa) is type(xb)
            else:
                assert abs(xa - xb) <= tol, (ca, cb)


def flip_model(rate_value: float = 2.0, ceiling: float = 2.0) -> ModelSpec:
    """Two-state flip dynamics: constant jump rate, kernel toggles the label.

    State is ``(k,)`` with ``k`` in {0, 1}; the base dynamics are frozen.
    """

    def rate(state, measure):
        return rate_value

    def kernel_atoms(state, measure):
        return [((1 - state[0],), 1.0)]

    return ModelSpec(
        rate=rate,
        rate_ceiling=ceiling,
        kernel_atoms=kernel_atoms,
        state_layout=("label",),
        state_box=((0.0, 1.0),),
        name="flip-toy",
        base_coupler=TwinCoupler(frozen_machine),
    )


def measure_rate_flip_model(ceiling: float = 2.0) -> ModelSpec:
    """Label-flip model whose jump rate is read off the ambient measure.

    The measure's atoms are 1-tuples ``(r,)``; the jump rate equals the mean
    of ``r``.  Feeding constant flows with different atoms gives two copies of
    the same dynamics running at different constant rates.
    """

    def rate(state, measure):
        return measure.mean(0)

    def kernel_atoms(state, measure):
        return [((1 - state[0],), 1.0)]

    return ModelSpec(
        rate=rate,
        rate_ceiling=ceiling,
        kernel_atoms=kernel_atoms,
        state_layout=("label",),
        state_box=((0.0, 1.0),),
        name="measure-rate-flip-toy",
        base_coupler=TwinCoupler(frozen_machine),
    )


def drift_model(speed: float = 1.0, ceiling: float = 1.0) -> ModelSpec:
    """Deterministic drift at constant speed with jump rate zero."""

    def rate(state, measure):
        return 0.0

    def kernel(state, measure, stream):
        return state

    return ModelSpec(
        rate=rate,
        kernel=kernel,
        rate_ceiling=ceiling,
        state_layout=("real",),
        state_box=((-50.0, 50.0),),
        name="drift-toy",
        base_coupler=TwinCoupler(lambda state, stream: DriftMachine(state, (speed,))),
    )


def drift_velocity_model(jump_rate: float = 0.0, ceiling: float = 1.0) -> ModelSpec:
    """State ``(x, v)`` moving at velocity ``v``; optional constant-rate flips."""

    def rate(state, measure):
        return jump_rate

    def kernel_atoms(state, measure):
        return [((state[0], -state[1]), 1.0)]

    return ModelSpec(
        rate=rate,
        rate_ceiling=ceiling,
        kernel_atoms=kernel_atoms,
        state_layout=("real", "label"),
        state_box=((-50.0, 50.0), (-1.0, 1.0)),
        name="drift-velocity-toy",
        base_coupler=TwinCoupler(
            lambda state, stream: DriftMachine(state, (state[1], 0))
        ),
    )


def flip_system(
    n: int, rates: tuple[float, ...] | None = None, ceiling: float = 2.0
) -> SystemSpec:
    """N-coordinate system of label flips with per-coordinate constant rates."""
    if rates is None:
        rates = tuple(ceiling for _ in range(n))

    def rate(i, state):
        return rates[i]

    def kernel_atoms(i, state):
        return [((1 - state[i][0],), 1.0)]

    return SystemSpec(
        n_particles=n,
        rate=rate,
        rate_ceiling=ceiling,
        kernel_atoms=kernel_atoms,
        coordinate_layout=("label",),
        coordinate_box=((0.0, 1.0),),
        name="flip-system-toy",
        base_coupler=TwinCoupler(frozen_machine),
    )


@pytest.fixture
def rng():
    return make_rng(20260818)


def constant_flow(atom_state) -> MeasureFlow:
    """Flow frozen at a single-atom measure."""
    return MeasureFlow.constant(EmpiricalMeasure.from_states([atom_state]))


def selection_reference_kernel(n: int, accept_prob):
    """Selection's jump sampler as written by hand before it was derived
    from ``pair_atoms``: a uniform donor ``j``, copied with probability
    ``accept_prob(x_i, x_j)``."""

    def kernel(i, config, stream):
        j = int(stream.integers(n))
        if stream.random() < accept_prob(config[i], config[j]):
            return config[j]
        return config[i]

    return kernel
