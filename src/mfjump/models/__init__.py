"""Ready-made jump models and particle systems.

Each model module exposes a frozen parameter dataclass and a builder that
returns a bundle (model or system plus any companion objects such as
Lyapunov weights or closed-form constants).  ``MODEL_REGISTRY`` maps short
names to builders that accept a plain parameter dictionary, and lists the
parameters each accepts; :func:`build_model`, the entry point used by the
command-line interface, builds from it.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

from .mh import MhBundle, MhConstants, MhParams, mh_granular
from .run_tumble import (
    RunTumbleBundle,
    RunTumbleConstants,
    RunTumbleParams,
    run_tumble,
)
from .selection import SelectionBundle, SelectionParams, selection_mutation
from .tcp import TcpBundle, TcpConstants, TcpParams, tcp
from .zigzag import ZigZagBundle, ZigZagParams, zigzag

__all__ = [
    "MODEL_REGISTRY",
    "MhBundle",
    "MhConstants",
    "MhParams",
    "RunTumbleBundle",
    "RunTumbleConstants",
    "RunTumbleParams",
    "SelectionBundle",
    "SelectionParams",
    "TcpBundle",
    "TcpConstants",
    "TcpParams",
    "ZigZagBundle",
    "ZigZagParams",
    "build_model",
    "mh_granular",
    "run_tumble",
    "selection_mutation",
    "tcp",
    "zigzag",
]


def _mh_from_params(params: Mapping) -> MhBundle:
    """Build the energy-based sampler with a cosine potential on [0, 1)."""
    beta = params.get("beta", 1.0)
    w_amp = params.get("w_amp", 0.25)
    lam_bar = params.get("lam_bar", 1.0)
    n_sites = params.get("n_sites", 8)

    def u(x: float) -> float:
        return math.cos(2.0 * math.pi * x)

    w = None
    if w_amp != 0.0:

        def w(x: float, y: float) -> float:
            return w_amp * math.cos(2.0 * math.pi * (x - y))

    return mh_granular(
        MhParams(
            u=u,
            w=w,
            beta=beta,
            lam_bar=lam_bar,
            n_sites=n_sites,
            osc_u=2.0,
            osc_w=2.0 * abs(w_amp),
        )
    )


def _zigzag_from_params(params: Mapping) -> ZigZagBundle:
    """Build the directional-flip sampler with a quadratic well."""
    n_particles = params["n_particles"]
    theta_bound = params.get("theta_bound", 0.5)
    w_amp = params.get("w_amp", 0.25)
    if abs(w_amp) > theta_bound:
        raise ValueError(
            f"interaction amplitude {w_amp} exceeds theta_bound {theta_bound}"
        )

    def ui(z: float) -> float:
        return 0.5 * z * z

    def ui_prime(z: float) -> float:
        return z

    w1 = None
    if w_amp != 0.0:

        def w1(z: float, other: float) -> float:
            return w_amp * math.sin(z - other)

    return zigzag(
        ZigZagParams(
            n_particles=n_particles,
            ui=ui,
            ui_prime=ui_prime,
            w1=w1,
            theta_bound=theta_bound,
        )
    )


#: model id -> (builder, {parameter: int or float}).  A builder takes a
#: dictionary of some of its listed parameters, each a number of its kind.
MODEL_REGISTRY: Dict[str, tuple] = {
    "run-tumble": (lambda params: run_tumble(RunTumbleParams(**params)), {
        "theta": float, "base_rate": float, "rate_low": float,
        "rate_high": float, "steepness": float, "r0": float,
    }),
    "tcp": (lambda params: tcp(TcpParams(**params)), {
        "envelope_k": float, "envelope_rho": float,
    }),
    "mh": (_mh_from_params, {
        "beta": float, "w_amp": float, "lam_bar": float, "n_sites": int,
    }),
    "zigzag": (_zigzag_from_params, {
        "n_particles": int, "theta_bound": float, "w_amp": float,
    }),
    "selection": (lambda params: selection_mutation(SelectionParams(**params)), {
        "n_particles": int, "lam_star": float, "base_refresh_rate": float,
    }),
}


def build_model(name: str, params: Mapping):
    """Build a registered model bundle from a parameter dictionary.

    The command-line interface checks a config's parameters against the
    registry before it calls this.

    Raises:
        KeyError: If ``name`` is not registered, or a required parameter is
            missing.
    """
    return MODEL_REGISTRY[name][0](dict(params))
