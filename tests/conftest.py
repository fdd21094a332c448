"""Shared fixtures: small hand-built models exercising the simulation engine.

The toy models here have closed-form behaviour (constant rates, deterministic
label flips, pure drift) so that tests can assert exact laws against them.
"""

from __future__ import annotations

import numpy as np
import pytest

from mfjump.engine import EmpiricalMeasure, MeasureFlow, ModelSpec, RateCeilingError
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
            _, xs[i], ys[i], _ = machine.advance(dt)[-1]
    except RateCeilingError as err:
        raise RateCeilingError(f"coordinate {i}: {err}") from err


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

    def base_flow(state, dt, stream):
        return state

    def rate(state, measure):
        return rate_value

    def kernel(state, measure, u):
        return (1 - state[0],)

    def kernel_atoms(state, measure):
        return [((1 - state[0],), 1.0)]

    return ModelSpec(
        base_flow=base_flow,
        rate=rate,
        kernel=kernel,
        rate_ceiling=ceiling,
        kernel_atoms=kernel_atoms,
        state_layout=("label",),
        state_box=((0.0, 1.0),),
        name="flip-toy",
    )


def measure_rate_flip_model(ceiling: float = 2.0) -> ModelSpec:
    """Label-flip model whose jump rate is read off the ambient measure.

    The measure's atoms are 1-tuples ``(r,)``; the jump rate equals the mean
    of ``r``.  Feeding constant flows with different atoms gives two copies of
    the same dynamics running at different constant rates.
    """

    def base_flow(state, dt, stream):
        return state

    def rate(state, measure):
        return measure.expect(lambda s: s[0])

    def kernel(state, measure, u):
        return (1 - state[0],)

    def kernel_atoms(state, measure):
        return [((1 - state[0],), 1.0)]

    return ModelSpec(
        base_flow=base_flow,
        rate=rate,
        kernel=kernel,
        rate_ceiling=ceiling,
        kernel_atoms=kernel_atoms,
        state_layout=("label",),
        state_box=((0.0, 1.0),),
        name="measure-rate-flip-toy",
    )


def drift_model(speed: float = 1.0, ceiling: float = 1.0) -> ModelSpec:
    """Deterministic drift at constant speed with jump rate zero."""

    def base_flow(state, dt, stream):
        return (state[0] + speed * dt,)

    def rate(state, measure):
        return 0.0

    def kernel(state, measure, u):
        return state

    return ModelSpec(
        base_flow=base_flow,
        rate=rate,
        kernel=kernel,
        rate_ceiling=ceiling,
        state_layout=("real",),
        state_box=((-50.0, 50.0),),
        name="drift-toy",
    )


def drift_velocity_model(jump_rate: float = 0.0, ceiling: float = 1.0) -> ModelSpec:
    """State ``(x, v)`` moving at velocity ``v``; optional constant-rate flips."""

    def base_flow(state, dt, stream):
        return (state[0] + state[1] * dt, state[1])

    def rate(state, measure):
        return jump_rate

    def kernel(state, measure, u):
        return (state[0], -state[1])

    def kernel_atoms(state, measure):
        return [((state[0], -state[1]), 1.0)]

    return ModelSpec(
        base_flow=base_flow,
        rate=rate,
        kernel=kernel,
        rate_ceiling=ceiling,
        kernel_atoms=kernel_atoms,
        state_layout=("real", "label"),
        state_box=((-50.0, 50.0), (-1.0, 1.0)),
        name="drift-velocity-toy",
    )


def flip_system(
    n: int, rates: tuple[float, ...] | None = None, ceiling: float = 2.0
) -> SystemSpec:
    """N-coordinate system of label flips with per-coordinate constant rates."""
    if rates is None:
        rates = tuple(ceiling for _ in range(n))

    def base_flow(state, dt, stream):
        return state

    def rate(i, state):
        return rates[i]

    def kernel(i, state, stream):
        return (1 - state[i][0],)

    def kernel_atoms(i, state):
        return [((1 - state[i][0],), 1.0)]

    return SystemSpec(
        n_particles=n,
        base_flow=base_flow,
        rate=rate,
        kernel=kernel,
        rate_ceiling=ceiling,
        kernel_atoms=kernel_atoms,
        coordinate_layout=("label",),
        coordinate_box=((0.0, 1.0),),
        name="flip-system-toy",
    )


@pytest.fixture
def rng():
    return make_rng(20260818)


def constant_flow(atom_state, horizon: float = 100.0) -> MeasureFlow:
    """Flow frozen at a single-atom measure."""
    return MeasureFlow.constant(EmpiricalMeasure.from_states([atom_state]), horizon)
