"""Couplings of jump processes and empirical contraction estimators.

Three layers build on each other:

* :func:`overlap_decompose` / :func:`optimal_pair_sampler` — the maximal
  coupling of two finite discrete measures, split into an overlap part and
  two disjoint residuals.
* Base couplers — small state machines that evolve a *pair* of states under
  the base dynamics so that each side keeps its marginal law while the pair
  merges with positive probability (:func:`coupled_base`).
* Trajectory couplings — :func:`simulate_merge_split` for one measure-driven
  pair and :func:`simulate_coupled_system` for interacting systems, both
  sharing proposal clocks and jump variates so that merged pairs tend to stay
  merged.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import EmpiricalMeasure, MeasureFlow, ModelSpec
from .metrics import dbar1, quantize_state, states_equal
from .particles import SystemSpec, _check_coordinate_rate

__all__ = [
    "CoupledEvent",
    "CoupledSystemEvent",
    "CoupledSystemTrajectory",
    "CoupledTrajectory",
    "PairSampler",
    "UnsupportedCouplingError",
    "coupled_base",
    "estimate_doeblin_alpha",
    "make_refresh_coupler",
    "make_telegraph_coupler",
    "optimal_pair_sampler",
    "overlap_decompose",
    "simulate_coupled_system",
    "simulate_merge_split",
]

_MERGE_SNAP = 1e-9


class UnsupportedCouplingError(RuntimeError):
    """The model does not provide the coupling ingredient that was asked for."""


# ---------------------------------------------------------------------------
# Optimal coupling of two finite discrete measures.
# ---------------------------------------------------------------------------


def _load_atoms(atoms) -> tuple[dict, dict, float]:
    """Accumulate atom weights by quantized state; returns clamped negative mass."""
    weights: dict = {}
    reps: dict = {}
    total = 0.0
    clamped = 0.0
    for state, w in atoms:
        w = float(w)
        if w < 0.0:
            if w < -1e-9:
                raise ValueError(f"atom weight {w} is negative")
            clamped += -w
            w = 0.0
        key = quantize_state(state)
        weights[key] = weights.get(key, 0.0) + w
        reps.setdefault(key, tuple(state))
        total += w
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"atom weights sum to {total}, expected 1")
    return weights, reps, clamped


def overlap_decompose(atoms1, atoms2):
    """Split two atom lists into overlap and residual parts.

    Returns ``(p, nu0, nu1, nu2, excess)`` where ``p`` is the overlap mass,
    ``nu0`` the normalized overlap atoms, ``nu1``/``nu2`` the normalized
    residual atoms of each side (with disjoint supports), and ``excess`` the
    total weight clamped to keep ``p`` in ``[0, 1]`` and weights nonnegative.
    Atom lists are sorted canonically by quantized state.
    """
    w1, reps1, c1 = _load_atoms(atoms1)
    w2, reps2, c2 = _load_atoms(atoms2)
    reps = {**reps2, **reps1}
    common = sorted(set(w1) & set(w2))
    p_raw = sum(min(w1[k], w2[k]) for k in common)
    excess = c1 + c2
    if p_raw > 1.0:
        excess += p_raw - 1.0
        p_raw = 1.0
    p = 1.0 if 1.0 - p_raw <= 1e-12 else p_raw

    if p > 0.0:
        nu0 = tuple(
            (reps[k], min(w1[k], w2[k]) / p)
            for k in common
            if min(w1[k], w2[k]) > 0.0
        )
    else:
        nu0 = ()
    if p >= 1.0:
        return p, nu0, (), (), excess

    def residual(side: dict, other: dict) -> tuple:
        raw = []
        for k in sorted(side):
            left = side[k] - min(side[k], other.get(k, 0.0)) if k in other else side[k]
            if left > 0.0:
                raw.append((k, left))
        mass = sum(w for _, w in raw)
        if mass <= 0.0:
            return ()
        return tuple((reps[k], w / mass) for k, w in raw)

    return p, nu0, residual(w1, w2), residual(w2, w1), excess


def _pick(atoms: Sequence, w: float) -> tuple:
    """Inverse-CDF draw from canonically sorted atoms at quantile ``w``."""
    acc = 0.0
    for state, weight in atoms:
        acc += weight
        if w < acc:
            return tuple(state)
    return tuple(atoms[-1][0])


@dataclasses.dataclass(frozen=True, eq=False)
class PairSampler:
    """Maximal coupling of two discrete measures, ready for repeated draws.

    With probability ``p`` both sides draw the same atom from the overlap
    ``nu0``; otherwise each side draws from its residual (``nu1``/``nu2``),
    sharing the inverse-CDF quantile.  ``x_support``/``y_support`` list the
    states indexed by :meth:`sample_many`, overlap atoms first, so a merged
    draw is any index below ``len(nu0.atoms)``.
    """

    p: float
    nu0: EmpiricalMeasure
    nu1: EmpiricalMeasure
    nu2: EmpiricalMeasure
    x_support: tuple
    y_support: tuple
    _cum0: np.ndarray
    _cum1: np.ndarray
    _cum2: np.ndarray

    def sample(self, stream) -> tuple:
        """One coupled draw; returns ``(x_state, y_state, merged)``."""
        v = stream.random()
        w = stream.random()
        if v < self.p:
            state = _pick(self.nu0.atoms, w)
            return state, state, True
        return _pick(self.nu1.atoms, w), _pick(self.nu2.atoms, w), False

    def sample_many(self, size: int, stream):
        """Vectorized coupled draws; returns index arrays into the supports.

        Returns ``(x_idx, y_idx, merged)`` with ``x_support[x_idx[k]]`` the
        k-th draw of the first marginal.
        """
        v = stream.random(size)
        w = stream.random(size)
        merged = v < self.p
        n0 = len(self.nu0.atoms)
        x_idx = np.empty(size, dtype=np.int64)
        y_idx = np.empty(size, dtype=np.int64)
        shared = np.searchsorted(self._cum0, w[merged], side="right")
        x_idx[merged] = shared
        y_idx[merged] = shared
        rest = ~merged
        x_idx[rest] = n0 + np.searchsorted(self._cum1, w[rest], side="right")
        y_idx[rest] = n0 + np.searchsorted(self._cum2, w[rest], side="right")
        n_x = len(self.x_support)
        n_y = len(self.y_support)
        np.clip(x_idx, 0, max(n_x - 1, 0), out=x_idx)
        np.clip(y_idx, 0, max(n_y - 1, 0), out=y_idx)
        return x_idx, y_idx, merged


def _cumulative(atoms) -> np.ndarray:
    if not atoms:
        return np.zeros(0)
    return np.cumsum([w for _, w in atoms])


def optimal_pair_sampler(measure1, measure2) -> PairSampler:
    """Build the maximal coupling of two discrete measures."""
    p, nu0, nu1, nu2, _ = overlap_decompose(measure1.atoms, measure2.atoms)
    return PairSampler(
        p=p,
        nu0=EmpiricalMeasure(atoms=nu0),
        nu1=EmpiricalMeasure(atoms=nu1),
        nu2=EmpiricalMeasure(atoms=nu2),
        x_support=tuple(s for s, _ in nu0) + tuple(s for s, _ in nu1),
        y_support=tuple(s for s, _ in nu0) + tuple(s for s, _ in nu2),
        _cum0=_cumulative(nu0),
        _cum1=_cumulative(nu1),
        _cum2=_cumulative(nu2),
    )


# ---------------------------------------------------------------------------
# Base couplers: paired base motion with a chance to merge.
# ---------------------------------------------------------------------------


class _TelegraphCouplerMachine:
    """Coupled pair of telegraph particles (unit speed, constant flip rate).

    Marginally each side flips at rate ``c`` and moves at its velocity.  When
    the velocities agree, the particle in front plays leader: its next flip
    starts closing the gap ``d``, and the follower's first flip is coupled so
    that with probability ``exp(-c d / 2)`` it fires exactly when the gap
    closes (merging the pair); otherwise it is an independent flip truncated
    below ``d/2``.  Both branches together leave the follower's flip time
    exactly exponential.  Committed flips always fire as scheduled, merged
    pairs share a single flip clock, and all other pending flips may be
    redrawn because the exponential clock is memoryless.
    """

    def __init__(self, x, y, flip_rate: float, stream):
        self._c = float(flip_rate)
        self._stream = stream
        self._x = (float(x[0]), x[1])
        self._y = (float(y[0]), y[1])
        self._t = 0.0
        self._merged = states_equal(self._x, self._y)
        if self._merged:
            self._y = self._x
        self._tx = math.inf
        self._ty = math.inf
        self._commit_side: Optional[str] = None
        self._coordinate()

    @property
    def merged(self) -> bool:
        return self._merged

    def _exp(self) -> float:
        if self._c <= 0.0:
            return math.inf
        return self._stream.exponential(1.0 / self._c)

    def _coordinate(self) -> None:
        """Draw fresh flip schedules for the current pair geometry."""
        self._commit_side = None
        if self._merged:
            self._tx = self._t + self._exp()
            self._ty = self._tx
            return
        vx, vy = self._x[1], self._y[1]
        if vx != vy:
            self._tx = self._t + self._exp()
            self._ty = self._t + self._exp()
            return
        d = abs(self._x[0] - self._y[0])
        m = d / 2.0
        x_leads = (self._x[0] >= self._y[0]) == (vx > 0)
        lead_t = self._t + self._exp()
        if self._stream.random() < math.exp(-self._c * m):
            follow_t = lead_t + m
            self._commit_side = "y" if x_leads else "x"
        else:
            u = self._stream.random()
            follow_t = self._t - math.log1p(u * math.expm1(-self._c * m)) / self._c
        if x_leads:
            self._tx, self._ty = lead_t, follow_t
        else:
            self._ty, self._tx = lead_t, follow_t

    def _move(self, dt: float) -> None:
        if dt <= 0.0:
            return
        self._x = (self._x[0] + self._x[1] * dt, self._x[1])
        if self._merged:
            self._y = self._x
        else:
            self._y = (self._y[0] + self._y[1] * dt, self._y[1])

    def advance(self, dt: float) -> list:
        """Advance by ``dt``; returns ``(offset, x, y, is_merge)`` points."""
        start = self._t
        end = start + dt
        points = []
        while True:
            t_next = min(self._tx, self._ty)
            if t_next > end:
                break
            self._move(t_next - self._t)
            self._t = t_next
            if self._merged:
                self._x = (self._x[0], -self._x[1])
                self._y = self._x
                self._coordinate()
                points.append((self._t - start, self._x, self._y, False))
                continue
            fire_x = self._tx <= self._ty
            if fire_x:
                self._x = (self._x[0], -self._x[1])
                self._tx = math.inf
            else:
                self._y = (self._y[0], -self._y[1])
                self._ty = math.inf
            fired = "x" if fire_x else "y"
            is_merge = False
            if self._commit_side == fired:
                # The committed follower flip just fired: merge if the
                # geometry survived intact.
                if self._x[1] == self._y[1] and abs(self._x[0] - self._y[0]) <= _MERGE_SNAP:
                    self._y = self._x
                    self._merged = True
                    is_merge = True
                self._coordinate()
            elif self._commit_side is not None:
                # Leader flipped again before the commitment: keep the
                # committed follower flip, redraw only the leader.
                if fire_x:
                    self._tx = self._t + self._exp()
                else:
                    self._ty = self._t + self._exp()
            else:
                self._coordinate()
            points.append((self._t - start, self._x, self._y, is_merge))
        self._move(end - self._t)
        self._t = end
        points.append((dt, self._x, self._y, False))
        return points


class _RefreshCouplerMachine:
    """Coupled refresh dynamics: one shared clock, one shared uniform target.

    Each side refreshes to an independent ``Uniform[0, 1)`` value at the given
    rate; sharing both the clock and the target merges the pair at the first
    refresh while keeping each marginal law intact.
    """

    def __init__(self, x, y, rate: float, stream):
        self._rate = float(rate)
        self._stream = stream
        self._x = tuple(x)
        self._y = tuple(y)
        self._t = 0.0
        self._merged = states_equal(self._x, self._y)
        if self._merged:
            self._y = self._x
        self._next = self._t + self._gap()

    @property
    def merged(self) -> bool:
        return self._merged

    def _gap(self) -> float:
        if self._rate <= 0.0:
            return math.inf
        return self._stream.exponential(1.0 / self._rate)

    def advance(self, dt: float) -> list:
        start = self._t
        end = start + dt
        points = []
        while self._next <= end:
            self._t = self._next
            target = (self._stream.random(),)
            newly_merged = not self._merged
            self._x = target
            self._y = target
            self._merged = True
            points.append((self._t - start, self._x, self._y, newly_merged))
            self._next = self._t + self._gap()
        self._t = end
        points.append((dt, self._x, self._y, False))
        return points


class _SynchronizedBaseMachine:
    """Fallback pair evolution: both sides consume identical base-flow draws.

    Used when a system provides no base coupler.  A merged pair stays merged
    because the base flow is a deterministic function of state and draws.
    """

    def __init__(self, base_flow: Callable, index: int, x, y, stream):
        self._base_flow = base_flow
        self._i = index
        self._stream = stream
        self._x = tuple(x)
        self._y = tuple(y)
        self._merged = states_equal(self._x, self._y)
        if self._merged:
            self._y = self._x

    @property
    def merged(self) -> bool:
        return self._merged

    def advance(self, dt: float) -> list:
        if dt > 0.0:
            if self._merged:
                self._x = tuple(self._base_flow(self._i, self._x, dt, self._stream))
                self._y = self._x
            else:
                twin = copy.deepcopy(self._stream)
                self._x = tuple(self._base_flow(self._i, self._x, dt, self._stream))
                self._y = tuple(self._base_flow(self._i, self._y, dt, twin))
        was_merged = self._merged
        self._merged = states_equal(self._x, self._y)
        if self._merged:
            self._y = self._x
        return [(dt, self._x, self._y, self._merged and not was_merged)]


def make_telegraph_coupler(flip_rate: float) -> Callable:
    """Base-coupler factory for unit-speed telegraph base dynamics."""

    def factory(x, y, stream):
        return _TelegraphCouplerMachine(x, y, flip_rate, stream)

    return factory


def make_refresh_coupler(rate: float) -> Callable:
    """Base-coupler factory for refresh-to-uniform base dynamics."""

    def factory(x, y, stream):
        return _RefreshCouplerMachine(x, y, rate, stream)

    return factory


def coupled_base(model: ModelSpec, x, y, t0: float, stream):
    """Run the coupled base dynamics of a model over one window.

    Returns ``(path_x, path_y, merged_at)`` where each path is a list of
    ``(time, state)`` points starting at time ``0.0`` and ending at ``t0``,
    and ``merged_at`` is the first time the pair merged (``None`` if it never
    did).
    """
    if model.base_coupler is None:
        raise UnsupportedCouplingError(
            f"model {model.name!r} provides no coupled base construction"
        )
    x = tuple(x)
    y = tuple(y)
    machine = model.base_coupler(x, y, stream)
    path_x = [(0.0, x)]
    path_y = [(0.0, y)]
    merged_at = 0.0 if states_equal(x, y) else None
    for offset, sx, sy, is_merge in machine.advance(t0):
        path_x.append((offset, tuple(sx)))
        path_y.append((offset, tuple(sy)))
        if merged_at is None and is_merge:
            merged_at = offset
    return path_x, path_y, merged_at


def estimate_doeblin_alpha(model: ModelSpec, pair_source: Callable, t0: float, n: int, stream):
    """Estimate the one-window merge probability of the coupled base dynamics.

    Runs ``n`` independent coupled windows from pairs drawn by
    ``pair_source(stream)`` and returns ``(alpha_hat, se)``.
    """
    if n < 1:
        raise ValueError("need at least one replica")
    hits = 0
    for child in stream.spawn(n):
        x0, y0 = pair_source(child)
        _, _, merged_at = coupled_base(model, x0, y0, t0, child)
        hits += merged_at is not None
    alpha_hat = hits / n
    se = math.sqrt(alpha_hat * (1.0 - alpha_hat) / n)
    return alpha_hat, se


# ---------------------------------------------------------------------------
# Merge/split coupling of one measure-driven pair.
# ---------------------------------------------------------------------------

PROPOSAL = "proposal"
MERGE = "merge"
SAMPLE_EVENT = "sample"


@dataclasses.dataclass(frozen=True)
class CoupledEvent:
    """One event of a coupled pair trajectory."""

    time: float
    kind: str
    x: tuple
    y: tuple
    merged: bool
    p: Optional[float] = None


@dataclasses.dataclass
class CoupledTrajectory:
    """Result of a merge/split coupling run."""

    initial_x: tuple
    initial_y: tuple
    horizon: float
    events: tuple
    n_splits: int
    clamp_excess: float
    n_clamped: int
    sample_pairs: dict

    def pair_at(self, t: float) -> tuple:
        """The coupled pair recorded at sample time ``t``."""
        return self.sample_pairs[float(t)]


def simulate_merge_split(
    model: ModelSpec,
    flow1: MeasureFlow,
    flow2: MeasureFlow,
    x0,
    y0,
    horizon: float,
    t0: float,
    stream,
    sample_times: Sequence[float] = (),
    record_events: bool = True,
) -> CoupledTrajectory:
    """Couple two runs of a measure-driven model under different flows.

    Both sides share one proposal clock at the rate ceiling and one pair of
    jump variates per proposal: with the overlap probability of the two mixed
    jump kernels the sides draw a common state (merging them), otherwise they
    draw from the disjoint residuals (splitting them).  Between proposals the
    pair follows the model's coupled base dynamics (synchronized draws when no
    base coupler is declared), which is restarted at every proposal and at
    every window boundary ``k * t0``.  With ``record_events=False`` only
    sample events are kept, while splits and clamped mass are still counted.
    """
    if model.mixed_kernel_atoms is None:
        raise UnsupportedCouplingError(
            f"model {model.name!r} provides no mixed kernel atoms"
        )
    make_machine = model.base_coupler
    if make_machine is None:

        def make_machine(cx, cy, machine_stream):
            return _SynchronizedBaseMachine(
                lambda _i, s, dt, strm: model.base_flow(s, dt, strm),
                0,
                cx,
                cy,
                machine_stream,
            )

    lam_star = model.rate_ceiling
    if math.isinf(lam_star) or lam_star < 0.0:
        raise ValueError("coupling requires a finite nonnegative rate ceiling")
    if t0 <= 0.0:
        raise ValueError("window length t0 must be positive")

    x = tuple(x0)
    y = tuple(y0)
    events: list[CoupledEvent] = []
    sample_pairs: dict[float, tuple] = {}
    n_splits = 0
    n_clamped = 0
    clamp_excess = 0.0
    pending = sorted(set(float(ts) for ts in sample_times))
    si = 0
    t = 0.0
    machine = make_machine(x, y, stream)

    def run_machine(upto: float) -> None:
        nonlocal x, y, t
        dt = upto - t
        if dt > 0.0:
            points = machine.advance(dt)
            for offset, sx, sy, is_merge in points:
                if is_merge and record_events:
                    events.append(
                        CoupledEvent(
                            time=t + offset,
                            kind=MERGE,
                            x=tuple(sx),
                            y=tuple(sy),
                            merged=True,
                        )
                    )
            _, sx, sy, _ = points[-1]
            x, y = tuple(sx), tuple(sy)
        t = upto

    next_prop = t + stream.exponential(1.0 / lam_star) if lam_star > 0.0 else math.inf
    window = 1
    next_window = t0
    while True:
        t_sample = pending[si] if si < len(pending) else math.inf
        t_next = min(t_sample, next_window, next_prop)
        if t_next > horizon:
            break
        run_machine(t_next)
        if t_sample <= min(next_window, next_prop):
            merged = states_equal(x, y)
            events.append(
                CoupledEvent(time=t, kind=SAMPLE_EVENT, x=x, y=y, merged=merged)
            )
            sample_pairs[t_sample] = (x, y)
            si += 1
            continue
        if next_window <= next_prop:
            machine = make_machine(x, y, stream)
            window += 1
            next_window = window * t0
            continue
        was_merged = states_equal(x, y)
        p, nu0, nu1, nu2, excess = overlap_decompose(
            model.mixed_kernel_atoms(x, flow1.at(t)),
            model.mixed_kernel_atoms(y, flow2.at(t)),
        )
        clamp_excess += excess
        if excess > 1e-7:
            n_clamped += 1
        v = stream.random()
        w = stream.random()
        if v < p:
            shared = _pick(nu0, w)
            x, y = shared, shared
        else:
            x = _pick(nu1, w)
            y = _pick(nu2, w)
        merged = states_equal(x, y)
        if was_merged and not merged:
            n_splits += 1
        if record_events:
            events.append(
                CoupledEvent(time=t, kind=PROPOSAL, x=x, y=y, merged=merged, p=p)
            )
        machine = make_machine(x, y, stream)
        next_prop = t + stream.exponential(1.0 / lam_star)
    run_machine(horizon)
    return CoupledTrajectory(
        initial_x=tuple(x0),
        initial_y=tuple(y0),
        horizon=horizon,
        events=tuple(events),
        n_splits=n_splits,
        clamp_excess=clamp_excess,
        n_clamped=n_clamped,
        sample_pairs=sample_pairs,
    )


# ---------------------------------------------------------------------------
# Coupled interacting systems with a split counter.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CoupledSystemEvent:
    """One event of a coupled system trajectory."""

    time: float
    kind: str
    x: tuple
    y: tuple
    j: float


@dataclasses.dataclass
class CoupledSystemTrajectory:
    """Result of coupling two interacting-system runs."""

    initial_x: tuple
    initial_y: tuple
    horizon: float
    j_initial: float
    events: tuple
    samples: dict

    def sample_at(self, t: float) -> tuple:
        """``(x_config, y_config, j)`` recorded at sample time ``t``."""
        return self.samples[float(t)]

    def j_at(self, t: float) -> float:
        """Split-counter value recorded at sample time ``t``."""
        return self.samples[float(t)][2]


def _mixed_atoms(system: SystemSpec, i: int, config: tuple, rate_i: float) -> list:
    atoms = [
        (tuple(s), w * rate_i / system.rate_ceiling)
        for s, w in system.kernel_atoms(i, config)
    ]
    atoms.append((tuple(config[i]), 1.0 - rate_i / system.rate_ceiling))
    return atoms


def simulate_coupled_system(
    system: SystemSpec,
    x0,
    y0,
    horizon: float,
    t0: float,
    theta: float,
    stream,
    sample_times: Sequence[float] = (),
    record_events: bool = True,
) -> CoupledSystemTrajectory:
    """Couple two runs of an interacting system, counting potential splits.

    Both runs share the global proposal clock, the coordinate choice, and the
    jump variates; the chosen coordinate's mixed kernels are coupled through
    their overlap.  The counter ``j`` starts at half the matching distance of
    the initial configurations and increments at a proposal on a merged
    coordinate whenever the accept variate exceeds ``1 - theta * j / (n *
    rate_ceiling)``, which dominates every actual split when ``theta``
    bounds the rate-and-kernel sensitivity to single-coordinate changes.
    Between proposals each coordinate pair follows the system's coupled base
    dynamics (or synchronized draws if none is declared), restarted at window
    boundaries ``k * t0``.  With ``record_events=False`` only sample events
    are kept, while ``j`` is still counted.
    """
    if system.kernel_atoms is None:
        raise UnsupportedCouplingError(
            f"system {system.name!r} provides no kernel atoms"
        )
    n = system.n_particles
    lam_star = system.rate_ceiling
    if math.isinf(lam_star) or lam_star < 0.0:
        raise ValueError("coupling requires a finite nonnegative rate ceiling")
    if t0 <= 0.0:
        raise ValueError("window length t0 must be positive")
    if len(x0) != n or len(y0) != n:
        raise ValueError(f"expected {n} coordinates in each configuration")

    xs = [tuple(c) for c in x0]
    ys = [tuple(c) for c in y0]
    j = dbar1(tuple(xs), tuple(ys)) / 2.0
    j_initial = j
    coupler_streams = stream.spawn(n)

    def build_machine(i: int):
        if system.base_coupler is not None:
            return system.base_coupler(i, xs[i], ys[i], coupler_streams[i])
        return _SynchronizedBaseMachine(
            system.base_flow, i, xs[i], ys[i], coupler_streams[i]
        )

    machines = [build_machine(i) for i in range(n)]
    events: list[CoupledSystemEvent] = []
    samples: dict[float, tuple] = {}
    pending = sorted(set(float(ts) for ts in sample_times))
    si = 0
    t = 0.0

    def flow_all(upto: float) -> None:
        nonlocal t
        dt = upto - t
        if dt > 0.0:
            for i in range(n):
                _, sx, sy, _ = machines[i].advance(dt)[-1]
                xs[i] = tuple(sx)
                ys[i] = tuple(sy)
        t = upto

    total_rate = n * lam_star
    next_prop = (
        t + stream.exponential(1.0 / total_rate) if total_rate > 0.0 else math.inf
    )
    window = 1
    next_window = t0
    while True:
        t_sample = pending[si] if si < len(pending) else math.inf
        t_next = min(t_sample, next_window, next_prop)
        if t_next > horizon:
            break
        flow_all(t_next)
        if t_sample <= min(next_window, next_prop):
            snap = (tuple(xs), tuple(ys), j)
            events.append(
                CoupledSystemEvent(time=t, kind=SAMPLE_EVENT, x=snap[0], y=snap[1], j=j)
            )
            samples[t_sample] = snap
            si += 1
            continue
        if next_window <= next_prop:
            machines = [build_machine(i) for i in range(n)]
            window += 1
            next_window = window * t0
            continue
        i = int(stream.integers(n))
        x_full = tuple(xs)
        y_full = tuple(ys)
        rate_x = system.rate(i, x_full)
        rate_y = system.rate(i, y_full)
        _check_coordinate_rate(rate_x, lam_star, i, system.name)
        _check_coordinate_rate(rate_y, lam_star, i, system.name)
        equal_before = states_equal(xs[i], ys[i])
        p, nu0, nu1, nu2, _ = overlap_decompose(
            _mixed_atoms(system, i, x_full, rate_x),
            _mixed_atoms(system, i, y_full, rate_y),
        )
        v = stream.random()
        w = stream.random()
        if v < p:
            shared = _pick(nu0, w)
            xs[i], ys[i] = shared, shared
        else:
            xs[i] = _pick(nu1, w)
            ys[i] = _pick(nu2, w)
        if equal_before and total_rate > 0.0 and v >= 1.0 - theta * j / total_rate:
            j += 1.0
        machines[i] = build_machine(i)
        if record_events:
            events.append(
                CoupledSystemEvent(
                    time=t, kind=PROPOSAL, x=tuple(xs), y=tuple(ys), j=j
                )
            )
        next_prop = t + stream.exponential(1.0 / total_rate)
    flow_all(horizon)
    return CoupledSystemTrajectory(
        initial_x=tuple(tuple(c) for c in x0),
        initial_y=tuple(tuple(c) for c in y0),
        horizon=horizon,
        j_initial=j_initial,
        events=tuple(events),
        samples=samples,
    )
