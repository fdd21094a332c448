"""Metropolis chain with site-uniform proposals over mean-field energies.

``n_sites`` coordinates live on ``[0, 1)``.  A proposal redraws one site
uniformly and is accepted with probability ``min(1, exp(-beta * dE))`` where
``dE`` combines a single-site potential and the mean interaction with the
other sites.  Because the acceptance probability never falls below
``p_star = exp(-beta * (osc_u + osc_w))``, the chain decomposes exactly into
independent uniform refreshes at rate ``lam_bar * p_star`` plus a residual
jump part with rate ceiling ``lam_bar * (1 - p_star)``; the decomposed and
raw forms are both provided.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

from ..coupling import make_refresh_coupler
from ..engine import ModelSpec
from ..particles import SystemSpec

__all__ = ["MhBundle", "MhConstants", "MhParams", "mh_granular"]


@dataclasses.dataclass(frozen=True)
class MhParams:
    """Parameters of the Metropolis chain.

    Attributes:
        u: Single-site potential on ``[0, 1)``.
        w: Optional symmetric pair interaction; ``None`` disables it.
        beta: Inverse temperature.
        lam_bar: Proposal rate per site.
        n_sites: Number of sites.
        osc_u: Oscillation (max minus min) of ``u``.
        osc_w: Oscillation of ``w``; must be 0 when ``w`` is ``None``.
    """

    u: Callable
    w: Optional[Callable]
    beta: float
    lam_bar: float
    n_sites: int
    osc_u: float
    osc_w: float


@dataclasses.dataclass(frozen=True)
class MhConstants:
    """Contraction constants of the Metropolis chain."""

    p_star: float
    theta: float
    rho_tv: float


@dataclasses.dataclass(frozen=True)
class MhBundle:
    """Decomposed and raw forms of the Metropolis chain."""

    system: SystemSpec
    raw_system: SystemSpec
    base_model: ModelSpec
    refresh_rate: float
    constants: MhConstants


def mh_granular(params: MhParams) -> MhBundle:
    """Build the Metropolis chain systems for the given parameters."""
    beta = float(params.beta)
    lam_bar = float(params.lam_bar)
    n = int(params.n_sites)
    osc = float(params.osc_u) + float(params.osc_w)
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if lam_bar <= 0.0:
        raise ValueError(f"lam_bar must be positive, got {lam_bar}")
    if n < 1:
        raise ValueError(f"n_sites must be at least 1, got {n}")
    u_fn = params.u
    w_fn = params.w

    p_star = math.exp(-beta * osc)
    theta = (
        4.0 * lam_bar * (1.0 - p_star) * params.osc_w * beta * math.exp(beta * osc)
    )
    constants = MhConstants(
        p_star=p_star, theta=theta, rho_tv=p_star - theta / lam_bar
    )
    refresh_rate = lam_bar * p_star

    def delta_energy(i: int, config, xi: float) -> float:
        old = config[i][0]
        de = u_fn(xi) - u_fn(old)
        if w_fn is not None:
            acc = 0.0
            for j in range(n):
                if j == i:
                    continue
                other = config[j][0]
                acc += w_fn(xi, other) - w_fn(old, other)
            de += acc / n
        return de

    def accept_prob(i: int, config, xi: float) -> float:
        return min(1.0, math.exp(-beta * delta_energy(i, config, xi)))

    refresh_coupler = make_refresh_coupler(refresh_rate)

    residual_ceiling = lam_bar * (1.0 - p_star)

    def residual_rate(i, config) -> float:
        return residual_ceiling

    def residual_kernel(i, config, stream):
        xi = stream.random()
        keep = (accept_prob(i, config, xi) - p_star) / (1.0 - p_star)
        if stream.random() < keep:
            return (xi,)
        return config[i]

    system = SystemSpec(
        n_particles=n,
        rate=residual_rate,
        kernel=residual_kernel,
        rate_ceiling=residual_ceiling,
        coordinate_layout=("real",),
        coordinate_box=((0.0, 1.0),),
        name="mh-decomposed",
        base_coupler=refresh_coupler,
    )

    def raw_rate(i, config) -> float:
        return lam_bar

    def raw_kernel(i, config, stream):
        xi = stream.random()
        if stream.random() < accept_prob(i, config, xi):
            return (xi,)
        return config[i]

    # No base motion: a refresh machine at rate 0 has no event, so a run
    # never advances it.
    raw_system = SystemSpec(
        n_particles=n,
        rate=raw_rate,
        kernel=raw_kernel,
        rate_ceiling=lam_bar,
        coordinate_layout=("real",),
        coordinate_box=((0.0, 1.0),),
        name="mh-raw",
        base_coupler=make_refresh_coupler(0.0),
    )

    base_model = ModelSpec(
        rate=lambda state, measure: 0.0,
        kernel=lambda state, measure, stream: state,
        rate_ceiling=0.0,
        state_layout=("real",),
        state_box=((0.0, 1.0),),
        name="mh-refresh-base",
        base_coupler=refresh_coupler,
    )
    return MhBundle(
        system=system,
        raw_system=raw_system,
        base_model=base_model,
        refresh_rate=refresh_rate,
        constants=constants,
    )
