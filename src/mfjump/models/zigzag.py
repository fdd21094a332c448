"""Piecewise-linear sampler whose directions flip against the potential.

Each coordinate is ``(position, direction)`` with direction labels
``+1``/``-1``.  The base dynamics flips at the single-site rate
``(direction * ui'(z) - theta_bound)_+``, simulated by local thinning along
the linear flight in chunks of length ``_CHUNK`` (:class:`_FlipMachine`);
the interacting residual covers the remainder
``(direction * dU_i)_+`` of the full flip intensity, where ``dU_i`` adds the
mean interaction gradient.  The residual stays within ``2 * theta_bound``
whenever the interaction gradient is bounded by ``theta_bound``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

from ..coupling import TwinCoupler
from ..engine import _waiting_time, thin
from ..metrics import LyapunovFn
from ..particles import SystemSpec
from ._profiles import smooth_abs, smooth_indicator

__all__ = ["ZigZagBundle", "ZigZagParams", "zigzag"]

_CHUNK = 0.5


class _FlipMachine:
    """Base motion of one coordinate: a linear flight whose direction flips
    at ``base_rate(z, v)``, thinned in chunks that start at each base event
    and last ``_CHUNK`` or until their first flip candidate.

    A chunk's ceiling is ``base_rate + lip * _CHUNK`` at its start, and each
    candidate's rate is checked against it.  The pending event is the next
    candidate or the chunk's end.  The draws (a gap per chunk, a variate per
    candidate) do not depend on how the flight is cut into advances.
    """

    def __init__(self, coord, stream, base_rate: Callable, lip: float):
        self._z, self._v = float(coord[0]), coord[1]
        self._stream = stream
        self._base_rate = base_rate
        self._lip = lip
        self._t = 0.0
        self._start_chunk()

    def _start_chunk(self) -> None:
        self._ceiling = self._base_rate(self._z, self._v) + self._lip * _CHUNK
        gap = _waiting_time(self._stream, self._ceiling)
        self._candidate = gap < _CHUNK
        self._next = self._t + min(gap, _CHUNK)

    def next_event_in(self) -> float:
        return self._next - self._t

    def drift(self) -> tuple:
        return (self._v, 0)

    def advance(self, dt: float) -> tuple:
        end = self._t + dt
        while self._next <= end:
            self._z += self._v * (self._next - self._t)
            self._t = self._next
            if self._candidate:
                rate = self._base_rate(self._z, self._v)
                if thin(rate, self._ceiling, self._stream, "zigzag base flip"):
                    self._v = -self._v
            self._start_chunk()
        self._z += self._v * (end - self._t)
        self._t = end
        return (self._z, self._v)


@dataclasses.dataclass(frozen=True)
class ZigZagParams:
    """Parameters of the directional-flip sampler.

    Attributes:
        n_particles: Number of coordinates.
        ui: Single-site potential.
        ui_prime: Its derivative.
        w1: Optional interaction gradient ``w1(z_i, z_j)``, bounded in
            absolute value by ``theta_bound``; ``None`` disables interaction.
        theta_bound: Uniform bound on the interaction gradient.
        ui_prime_lipschitz: Lipschitz constant of ``ui_prime``, used for the
            local thinning ceiling of the base flips.
        rho: Confinement rate entering the coordinate Lyapunov weight.
    """

    n_particles: int
    ui: Callable
    ui_prime: Callable
    w1: Optional[Callable]
    theta_bound: float
    ui_prime_lipschitz: float = 1.0
    rho: float = 1.0


@dataclasses.dataclass(frozen=True)
class ZigZagBundle:
    """A directional-flip system with its coordinate Lyapunov weight."""

    system: SystemSpec
    coordinate_lyapunov: LyapunovFn


def zigzag(params: ZigZagParams) -> ZigZagBundle:
    """Build the directional-flip sampler for the given parameters."""
    n = int(params.n_particles)
    theta = float(params.theta_bound)
    lip = float(params.ui_prime_lipschitz)
    rho = float(params.rho)
    if n < 1:
        raise ValueError(f"n_particles must be at least 1, got {n}")
    if theta <= 0.0:
        raise ValueError(f"theta_bound must be positive, got {theta}")
    if lip < 0.0:
        raise ValueError(f"ui_prime_lipschitz must be nonnegative, got {lip}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    ui_prime = params.ui_prime
    w1 = params.w1

    def base_rate(z: float, v) -> float:
        return max(0.0, v * ui_prime(z) - theta)

    def full_gradient(i: int, config) -> float:
        z = config[i][0]
        grad = ui_prime(z)
        if w1 is not None:
            grad += sum(w1(z, other[0]) for other in config) / n
        return grad

    def residual_rate(i, config) -> float:
        z, v = config[i]
        lam = max(0.0, v * full_gradient(i, config)) - base_rate(z, v)
        return max(0.0, lam)

    def kernel_atoms(i, config):
        z, v = config[i]
        return (((z, -v), 1.0),)

    system = SystemSpec(
        n_particles=n,
        rate=residual_rate,
        rate_ceiling=2.0 * theta if w1 is not None else theta,
        coordinate_layout=("real", "label"),
        coordinate_box=((-6.0, 6.0), (-1, 1)),
        name="zigzag",
        kernel_atoms=kernel_atoms,
        base_coupler=TwinCoupler(
            lambda coord, stream: _FlipMachine(coord, stream, base_rate, lip)
        ),
    )

    def lyapunov_value(coord) -> float:
        z, v = coord
        return math.exp(rho * smooth_abs(z) / 2.0) * (
            1.0 + smooth_indicator(z * v)
        )

    return ZigZagBundle(
        system=system,
        coordinate_lyapunov=LyapunovFn(fn=lyapunov_value, name="zigzag-weight"),
    )
