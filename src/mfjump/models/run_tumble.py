"""Run-and-tumble particle attracted to the barycenter of an ambient measure.

The state is ``(position, velocity)`` with velocity labels ``+1``/``-1``.  The
base dynamics is a telegraph process: the position integrates the velocity
while the velocity flips at a constant rate.  On top of that, tumbles fire at
a sigmoid rate of the outward speed ``v * (x - theta * barycenter)``, net of
the base flip rate, and reverse the velocity.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

from ..coupling import make_telegraph_coupler
from ..engine import EmpiricalMeasure, ModelSpec
from ..metrics import LyapunovFn
from ._profiles import expit, smooth_abs, smooth_indicator

__all__ = ["RunTumbleBundle", "RunTumbleConstants", "RunTumbleParams", "run_tumble"]


@dataclasses.dataclass(frozen=True)
class RunTumbleParams:
    """Parameters of the run-and-tumble model.

    Attributes:
        theta: Strength of the attraction to the ambient barycenter.
        base_rate: Flip rate of the underlying telegraph motion.
        rate_low: Lower asymptote of the sigmoid tumble rate.
        rate_high: Upper asymptote (also fixes the rate ceiling).
        steepness: Sigmoid slope in the outward speed.
        r0: Reference speed at which the sigmoid must be nearly saturated.
    """

    theta: float
    base_rate: float = 1.0
    rate_low: float = 1.0
    rate_high: float = 3.0
    steepness: float = 3.0
    r0: float = 1.0


@dataclasses.dataclass(frozen=True)
class RunTumbleConstants:
    """Derived drift and moment constants of a run-and-tumble model."""

    lambda_star: float
    theta: float
    rho: float
    rho_star: float
    eta: float
    M: float
    gamma_star: float


@dataclasses.dataclass(frozen=True)
class RunTumbleBundle:
    """A run-and-tumble model with its Lyapunov weight and constants."""

    model: ModelSpec
    lyapunov: LyapunovFn
    constants: RunTumbleConstants


def run_tumble(params: RunTumbleParams) -> RunTumbleBundle:
    """Build the run-and-tumble model for the given parameters."""
    theta = float(params.theta)
    c = float(params.base_rate)
    a = float(params.rate_low)
    b = float(params.rate_high)
    k = float(params.steepness)
    r0 = float(params.r0)
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    if b <= a:
        raise ValueError(f"rate_high {b} must exceed rate_low {a}")
    if a - c < 0.0:
        raise ValueError(
            f"net tumble rate dips below zero: rate_low {a} < base_rate {c}"
        )
    if b - c <= 0.0:
        raise ValueError("rate ceiling rate_high - base_rate must be positive")
    if expit(k * r0) < 0.875:
        raise ValueError(
            f"sigmoid too shallow: expit(steepness * r0) = {expit(k * r0):.4f} "
            "never clears the 7/8 threshold"
        )

    lam_star = b - c
    rho = (b - a) ** 2 / (10.0 * (b + a))
    M = (a + 2.0 * b + math.pi / 4.0) * math.exp((b - a) * (1.0 + r0) / 4.0) / rho
    eta = 2.0 * theta * M / 3.0
    rho_star = b + math.pi / 2.0
    constants = RunTumbleConstants(
        lambda_star=lam_star,
        theta=theta,
        rho=rho,
        rho_star=rho_star,
        eta=eta,
        M=M,
        gamma_star=2.0,
    )

    def tumble_rate(state, measure: EmpiricalMeasure) -> float:
        x, v = state
        s = v * (x - theta * measure.mean(0))
        lam = a + (b - a) * expit(k * s) - c
        if lam < 0.0:
            return 0.0
        return min(lam, lam_star)

    def kernel_atoms(state, measure):
        return (((state[0], -state[1]), 1.0),)

    model = ModelSpec(
        rate=tumble_rate,
        rate_ceiling=lam_star,
        state_layout=("real", "label"),
        state_box=((-8.0, 8.0), (-1, 1)),
        name="run-tumble",
        kernel_atoms=kernel_atoms,
        base_coupler=make_telegraph_coupler(c),
    )

    offset = (5.0 * a + 3.0 * b) / (2.0 * (b - a))

    def lyapunov_value(state) -> float:
        x, v = state
        return math.exp((b - a) * smooth_abs(x) / 4.0) * (
            offset + smooth_indicator(v * x)
        )

    lyapunov = LyapunovFn(fn=lyapunov_value, name="run-tumble-weight")
    return RunTumbleBundle(model=model, lyapunov=lyapunov, constants=constants)
