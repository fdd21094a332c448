"""State distances, histogram comparisons, and coupled-ensemble estimators.

States are flat tuples mixing real coordinates and discrete labels.  Two
states are equal when the tuples are (``==``): every coupling that merges a
pair hands both sides one state, so no tolerance is needed.  The one
approximate comparison in the package is the telegraph coupler's merge snap
(``coupling._MERGE_SNAP``), which then sets both sides to the same tuple.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
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
    """Cell structure for empirical histograms over states of numbers.

    A real coordinate ``v`` is cut into ``bins`` equal intervals of its box
    ``(lo, hi)``: its cell is ``(v - lo) / width`` truncated toward 0 and
    clipped to ``[0, bins - 1]``, so out-of-box values fall in the boundary
    cells.  A label coordinate is kept as an exact category; its box entry
    is not read.  A ``bins`` that is not a positive int and a real box that
    is not finite with ``lo < hi`` are refused.
    """

    layout: tuple
    box: tuple
    bins: int

    def __post_init__(self) -> None:
        bins = self.bins
        if isinstance(bins, bool) or not isinstance(bins, numbers.Integral) or bins < 1:
            raise ValueError("bins must be a positive integer")
        if len(self.layout) != len(self.box):
            raise ValueError("layout and box must have the same length")
        for i, (kind, entry) in enumerate(zip(self.layout, self.box)):
            if kind == "real":
                lo, hi = entry
                # A finite lo and a finite positive width bound hi too.
                if not (math.isfinite(lo) and 0.0 < (hi - lo) / bins < math.inf):
                    raise ValueError(
                        f"the box {tuple(entry)!r} of real component {i} is not "
                        f"finite with lo < hi"
                    )

    def weigh(
        self, states: Sequence[State], weights: Sequence[float] | None = None
    ) -> tuple:
        """The ``(cell, weight)`` atoms of a sample, in which each of the
        ``n`` states weighs ``1 / n`` (a cell weighs its count over ``n``),
        or of the atoms ``zip(states, weights)``.

        A cell is a tuple of floats: the cell index of each real coordinate
        and the value of each label.  The states are binned in one numpy
        pass.  An empty sample, a state of the wrong length, a weight count
        that is not the state count and a NaN or infinite real coordinate
        are refused.
        """
        n, dim = len(states), len(self.layout)
        if n == 0:
            raise ValueError("cannot bin an empty sample")
        if weights is not None and len(weights) != n:
            raise ValueError(f"{len(weights)} weights for {n} states")
        if set(map(len, states)) != {dim}:
            state = next(s for s in states if len(s) != dim)
            raise ValueError(f"cannot bin {state!r}: the layout has {dim} components")
        cells = np.fromiter(itertools.chain.from_iterable(states), float, n * dim)
        cells = cells.reshape(n, dim)
        real = [j for j, kind in enumerate(self.layout) if kind == "real"]
        if real:
            lo, hi = np.array([self.box[j] for j in real], dtype=float).T
            values = cells[:, real]
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                state = states[int(np.argmin(finite))]
                raise ValueError(f"cannot bin {state!r}: a real coordinate is not finite")
            idx = np.trunc((values - lo) / ((hi - lo) / self.bins))
            cells[:, real] = np.clip(idx, 0, self.bins - 1)
        # A stable sort groups equal cells and keeps each group in input order.
        order = np.lexsort(cells.T)
        cells = cells[order]
        starts = np.flatnonzero(np.r_[True, (cells[1:] != cells[:-1]).any(axis=1)])
        if weights is None:
            mass = np.diff(np.r_[starts, n]) / n
        else:
            mass = np.add.reduceat(np.asarray(weights, dtype=float)[order], starts)
        return tuple(zip(map(tuple, cells[starts].tolist()), mass.tolist()))


def make_binning(layout: tuple, box: tuple, bins: int) -> Binning:
    """Binning with ``bins`` cells per real coordinate over the given box."""
    return Binning(layout=tuple(layout), box=tuple(tuple(b) for b in box), bins=bins)


def discrete_tv(atoms1, atoms2) -> float:
    """Total variation ``sum |w1 - w2|`` between two discrete laws given as
    ``(state, weight)`` atoms, in ``[0, 2]`` for probability laws.

    Weights are added up by state in the order the atoms come, those of
    ``atoms1`` first.  Laws binned by :meth:`Binning.weigh` are compared on
    their cells.
    """
    diff: dict = {}
    get = diff.get
    for sign, atoms in ((1.0, atoms1), (-1.0, atoms2)):
        for s, w in atoms:
            diff[s] = get(s, 0.0) + sign * w
    return float(sum(abs(v) for v in diff.values()))


def histogram_tv(
    samples_a: Sequence[State], samples_b: Sequence[State], binning: Binning
) -> float:
    """Total variation between the binned empirical laws of two samples: the
    :func:`discrete_tv` of their cell weights, in ``[0, 2]``.  An empty
    sample is refused."""
    return discrete_tv(binning.weigh(samples_a), binning.weigh(samples_b))
