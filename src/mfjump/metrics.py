"""State distances, histogram comparisons, and coupled-ensemble estimators.

States are flat tuples mixing real coordinates and discrete labels.  Two
states are equal when the tuples are (``==``): every coupling that merges a
pair hands both sides one state, so no tolerance is needed.  The one
approximate comparison in the package is the telegraph coupler's merge snap
(``coupling._MERGE_SNAP``), which then sets both sides to the same tuple.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "BoundEstimate",
    "Binning",
    "LyapunovFn",
    "d_v",
    "dbar1",
    "discrete_tv",
    "estimate_tv_bound",
    "estimate_vnorm_bound",
    "histogram_tv",
    "make_binning",
]

State = tuple


# ---------------------------------------------------------------------------
# Lyapunov functions


@dataclasses.dataclass(frozen=True)
class LyapunovFn:
    """A function ``V >= 1`` used to weight state distances.

    Calling the wrapper evaluates the underlying function and checks the
    lower bound, which every weighting function must satisfy for the
    weighted distances below to dominate plain total variation.
    """

    fn: Callable[[State], float]
    name: str

    def __call__(self, state: State) -> float:
        value = float(self.fn(state))
        if value < 1.0:
            raise ValueError(
                f"Lyapunov function {self.name!r} returned {value} < 1 at {state!r}"
            )
        return value


def d_v(x: State, y: State, v: LyapunovFn) -> float:
    """Distance ``(V(x) + V(y)) 1{x != y}``."""
    if x == y:
        return 0.0
    return v(x) + v(y)


def dbar1(x: Sequence[State], y: Sequence[State]) -> float:
    """Configuration distance: twice the number of mismatched coordinates."""
    return 2.0 * sum(1 for a, b in zip(x, y) if a != b)


# ---------------------------------------------------------------------------
# Monte-Carlo bound estimates


@dataclasses.dataclass(frozen=True)
class BoundEstimate:
    """A point estimate with its standard error and sample count."""

    point: float
    se: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError("a bound estimate needs at least two observations")


def estimate_tv_bound(runs: Iterable, t: float) -> BoundEstimate:
    """Total-variation bound ``2 P(X_t != Y_t)`` from coupled runs.

    Each run must expose ``pair_at(t) -> (x, y)``.
    """
    flags = np.array(
        [0.0 if x == y else 1.0 for x, y in (run.pair_at(t) for run in runs)]
    )
    n = len(flags)
    p = float(flags.mean())
    return BoundEstimate(
        point=2.0 * p,
        se=2.0 * math.sqrt(p * (1.0 - p) / n),
        count=n,
    )


def estimate_vnorm_bound(runs: Iterable, t: float, v: LyapunovFn) -> BoundEstimate:
    """Weighted-norm bound ``E[(V(X_t)+V(Y_t)) 1{X_t != Y_t}]`` from coupled runs."""
    values = np.array([d_v(*run.pair_at(t), v) for run in runs])
    n = len(values)
    return BoundEstimate(
        point=float(values.mean()),
        se=float(values.std(ddof=1) / math.sqrt(n)),
        count=n,
    )


# ---------------------------------------------------------------------------
# Histogram total variation


@dataclasses.dataclass(frozen=True)
class Binning:
    """Cell structure for empirical histograms over mixed real/label states.

    Real coordinates are cut into ``bins`` equal intervals over their box
    (out-of-box values are clipped into the boundary cells); label
    coordinates are kept as exact categories.
    """

    layout: tuple
    box: tuple
    bins: int

    def cell(self, state: State) -> tuple:
        key = []
        for value, kind, (lo, hi) in zip(state, self.layout, self.box):
            if kind == "real":
                width = (hi - lo) / self.bins
                idx = int((float(value) - lo) / width)
                key.append(min(max(idx, 0), self.bins - 1))
            else:
                key.append(value)
        return tuple(key)


def make_binning(layout: tuple, box: tuple, bins: int) -> Binning:
    """Binning with ``bins`` cells per real coordinate over the given box."""
    if bins < 1:
        raise ValueError("bins must be a positive integer")
    if len(layout) != len(box):
        raise ValueError("layout and box must have the same length")
    return Binning(layout=tuple(layout), box=tuple(tuple(b) for b in box), bins=bins)


def discrete_tv(atoms1, atoms2, binning: Binning | None = None) -> float:
    """Total variation ``sum |w1 - w2|`` between two discrete laws given as
    ``(state, weight)`` atoms, in ``[0, 2]`` for probability laws.

    With a ``binning`` each atom counts for its cell, so the laws are
    compared on the cells.  Weights are added up by key in the order the
    atoms come, those of ``atoms1`` first.
    """
    diff: dict = {}
    get = diff.get
    for sign, atoms in ((1.0, atoms1), (-1.0, atoms2)):
        for s, w in atoms:
            k = s if binning is None else binning.cell(s)
            diff[k] = get(k, 0.0) + sign * w
    return float(sum(abs(v) for v in diff.values()))


def histogram_tv(
    samples_a: Sequence[State], samples_b: Sequence[State], binning: Binning
) -> float:
    """Total variation between the binned empirical laws of two samples: the
    :func:`discrete_tv` of their cell frequencies, in ``[0, 2]``."""

    def frequencies(samples):
        counts = collections.Counter(map(binning.cell, samples))
        return [(k, c / len(samples)) for k, c in counts.items()]

    return discrete_tv(frequencies(samples_a), frequencies(samples_b))
