"""Additive-increase multiplicative-decrease throughput model.

The scalar state grows at unit speed and halves at jumps.  The jump rate
``1 + g1(x) + sum_w w * g2(x + y)`` is unbounded, so simulation uses local
rate bounds over short flights; ``g2`` must stay under a declared exponential
envelope so that moment bounds exist.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from ..coupling import TwinCoupler
from ..engine import DriftMachine, ModelSpec

__all__ = ["TcpBundle", "TcpConstants", "TcpParams", "tcp"]


@dataclasses.dataclass(frozen=True)
class TcpParams:
    """Parameters of the throughput model.

    Attributes:
        g1: Nondecreasing self-excitation term of the rate (default identity).
        g2: Optional nondecreasing interaction term, applied to ``x + y`` and
            averaged over the ambient measure.
        envelope_k: Declared bound ``g2(x) <= envelope_k * exp(envelope_rho * x)``.
        envelope_rho: Exponential scale of the declared envelope.
    """

    g1: Optional[Callable] = None
    g2: Optional[Callable] = None
    envelope_k: float = 1.0
    envelope_rho: float = 0.5


@dataclasses.dataclass(frozen=True)
class TcpConstants:
    """Moment-bound constants of a throughput model."""

    c_tilde: float
    r_compact: float


@dataclasses.dataclass(frozen=True)
class TcpBundle:
    """A throughput model with its moment-bound constants."""

    model: ModelSpec
    constants: TcpConstants


def _find_compact_radius(g1: Callable, threshold: float) -> float:
    """Smallest ``x >= 0`` with ``g1(x) >= threshold`` (g1 nondecreasing)."""
    if g1(0.0) >= threshold:
        return 0.0
    hi = 1.0
    while g1(hi) < threshold:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("g1 never reaches 2 * envelope_rho")
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g1(mid) >= threshold:
            hi = mid
        else:
            lo = mid
    return hi


def tcp(params: TcpParams) -> TcpBundle:
    """Build the throughput model for the given parameters."""
    g1 = params.g1 if params.g1 is not None else (lambda x: x)
    g2 = params.g2
    k_env = float(params.envelope_k)
    rho = float(params.envelope_rho)
    if rho <= 0.0:
        raise ValueError(f"envelope_rho must be positive, got {rho}")
    if k_env < 0.0:
        raise ValueError(f"envelope_k must be nonnegative, got {k_env}")
    if g2 is not None:
        for x in np.linspace(0.0, 30.0, 601):
            x = float(x)
            cap = k_env * math.exp(rho * x)
            if g2(x) > cap * (1.0 + 1e-9) + 1e-12:
                raise ValueError(
                    f"g2({x:.3f}) = {g2(x):.6g} exceeds the declared envelope "
                    f"{cap:.6g}"
                )

    r_compact = _find_compact_radius(g1, 2.0 * rho)
    c_tilde = (1.0 + 2.0 * rho) * (1.0 + math.exp(rho * r_compact))
    constants = TcpConstants(c_tilde=c_tilde, r_compact=r_compact)

    def interaction(x: float, measure) -> float:
        return sum(w * g2(x + s[0]) for s, w in measure.atoms)

    def rate(state, measure) -> float:
        x = state[0]
        value = 1.0 + g1(x)
        if g2 is not None:
            value += interaction(x, measure)
        return value

    def local_bound(state, dt, measures) -> float:
        top = state[0] + dt
        value = 1.0 + g1(top)
        if g2 is not None:
            value += max(interaction(top, m) for m in measures)
        return value

    def kernel(state, measure, stream):
        return (state[0] / 2.0,)

    model = ModelSpec(
        rate=rate,
        kernel=kernel,
        rate_ceiling=math.inf,
        state_layout=("real",),
        state_box=((0.0, 100.0),),
        name="tcp",
        local_bound=local_bound,
        base_coupler=TwinCoupler(lambda state, stream: DriftMachine(state, (1.0,))),
    )
    return TcpBundle(model=model, constants=constants)
