"""Saturated-rate copying dynamics on label-valued coordinates.

Every coordinate jumps at the constant rate ``lam_star``; a jump at
coordinate ``i`` picks a donor ``j`` uniformly (self included) and copies the
donor's state with probability ``accept_prob(x_i, x_j)``, otherwise the
coordinate keeps its state.  Because the rate is saturated, proposal and jump
clocks coincide and the overlap of any two copies of the jump kernel is
explicit, which makes the system a convenient stress case for coupled runs.
The kernel is declared in pairwise form (``SystemSpec.pair_atoms``), so a
coupled proposal at a merged coordinate reads the donors on which the two
configurations agree only where its merge uniform lands, and one at an
unmerged coordinate reads the one donor both sides draw.
The base dynamics refreshes each coordinate to ``Uniform[0, 1)`` at rate
``base_refresh_rate`` (rate zero leaves coordinates frozen without consuming
randomness).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from ..coupling import make_refresh_coupler
from ..particles import SystemSpec

__all__ = ["SelectionBundle", "SelectionParams", "selection_mutation"]


@dataclasses.dataclass(frozen=True)
class SelectionParams:
    """Parameters of the copying dynamics.

    Attributes:
        n_particles: Number of coordinates.
        lam_star: Saturated jump rate per coordinate.
        accept_prob: Copy probability ``accept_prob(x_i, x_j)`` evaluated on
            coordinate state tuples; ``None`` means the constant ``0.5``.
        base_refresh_rate: Rate of the uniform refresh between jumps.
    """

    n_particles: int
    lam_star: float = 1.0
    accept_prob: Optional[Callable] = None
    base_refresh_rate: float = 1.0


@dataclasses.dataclass(frozen=True)
class SelectionBundle:
    """The copying dynamics packaged as a particle system."""

    system: SystemSpec


def selection_mutation(params: SelectionParams) -> SelectionBundle:
    """Build the copying dynamics for the given parameters."""
    n = int(params.n_particles)
    lam_star = float(params.lam_star)
    refresh_rate = float(params.base_refresh_rate)
    if n < 1:
        raise ValueError(f"n_particles must be at least 1, got {n}")
    if lam_star <= 0.0:
        raise ValueError(f"lam_star must be positive, got {lam_star}")
    if refresh_rate < 0.0:
        raise ValueError(
            f"base_refresh_rate must be nonnegative, got {refresh_rate}"
        )
    p_fn = params.accept_prob
    if p_fn is None:
        p_fn = lambda xi, xj: 0.5  # noqa: E731

    def rate(i, config) -> float:
        return lam_star

    def pair_atoms(own, donor):
        p = p_fn(own, donor)
        return ((donor, p), (own, 1.0 - p))

    system = SystemSpec(
        n_particles=n,
        rate=rate,
        rate_ceiling=lam_star,
        coordinate_layout=("real",),
        coordinate_box=((0.0, 1.0),),
        name="selection",
        base_coupler=make_refresh_coupler(refresh_rate),
        pair_atoms=pair_atoms,
    )
    return SelectionBundle(system=system)
