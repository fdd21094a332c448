"""Couplings of jump processes and empirical contraction estimators.

Three layers build on each other:

* :func:`optimal_pair_sampler` — the maximal coupling of two finite
  discrete measures, split into an overlap part and two disjoint residuals.
* Base couplers — a spec's one base motion, ``base_coupler(x, y, stream)``:
  small state machines that evolve a *pair* of states, each side keeping
  its marginal law.  The telegraph and refresh couplers merge the pair with
  positive probability (:func:`coupled_base`); a :class:`TwinCoupler` never.
* Trajectory couplings — :func:`simulate_merge_split` for one measure-driven
  pair and :func:`simulate_coupled_system` for interacting systems, both
  sharing proposal clocks and jump variates so that merged pairs tend to stay
  merged.

Every simulator starts its machines by ``spec.base_coupler(x, y, stream)``,
a single run on the diagonal (``x == y``), where a machine is the base
motion of one state.  A pair machine answers ``advance(dt)`` with the pair
``(x, y)`` ``dt`` later, ``next_event_in()``, the time until the next base
event of either side (``inf`` if none), and ``drifts()``, one per side, the
velocity of each state component until then (``None`` if it stands still).
Its sides merge at most once and then stay merged; the read-only ``merge``
is ``(time since the machine started, merged state)`` from then on, and
``None`` before and for a machine that never merges (one started merged, or
a twin pair).  A machine class whose sides can never merge says so by
``merges = False``.  A one-side machine, which :class:`TwinCoupler` takes,
answers ``next_event_in()``, ``drift()`` and ``advance(dt)`` for its one side.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence

from .engine import (
    PROPOSAL,
    SAMPLE,
    WINDOW,
    MeasureFlow,
    ModelSpec,
    _MASS_TOL,
    _check_mass,
    _check_weight,
    _checked,
    _pick,
    _stream,
    _waiting_time,
    check_rate,
    clock,
)
from .metrics import dbar1
from .particles import SystemSpec, _LiveConfig

__all__ = [
    "CoupledEvent",
    "CoupledSystemEvent",
    "CoupledSystemTrajectory",
    "CoupledTrajectory",
    "TwinCoupler",
    "UnsupportedCouplingError",
    "alpha_from_windows",
    "check_coupled_system",
    "coupled_base",
    "estimate_doeblin_alpha",
    "make_refresh_coupler",
    "make_telegraph_coupler",
    "optimal_pair_sampler",
    "simulate_coupled_system",
    "simulate_merge_split",
]

_MERGE_SNAP = 1e-9


class UnsupportedCouplingError(RuntimeError):
    """The model does not provide the coupling ingredient that was asked for."""


# ---------------------------------------------------------------------------
# Optimal coupling of two finite discrete measures.
# ---------------------------------------------------------------------------


def _weigh(answers: Iterable, scale: float, weights: Optional[dict] = None) -> dict:
    """The positive weights of each atom list in ``answers``, each times
    ``scale``, added up by state in the order they come (into ``weights``
    when given).  Each list is checked as :func:`~mfjump.engine._checked`
    checks a jump law's atoms: ``ValueError`` at a negative weight
    (:func:`~mfjump.engine._check_weight`) and unless its weights sum to 1
    (:func:`~mfjump.engine._check_mass`).  A state that cannot key the map,
    such as a list, is keyed as its tuple."""
    weights = {} if weights is None else weights
    get = weights.get
    for atoms in answers:
        mass = 0.0
        for state, w in atoms:
            mass += w
            if w > 0.0:
                try:
                    weights[state] = get(state, 0.0) + w * scale
                except TypeError:
                    state = tuple(state)
                    weights[state] = get(state, 0.0) + w * scale
            else:
                _check_weight(w)
        if not abs(mass - 1.0) <= _MASS_TOL:
            _check_mass(mass)
    return weights


def optimal_pair_sampler(measure1, measure2) -> _Overlap:
    """The maximal coupling of two discrete measures (each exposing
    ``.atoms``), ready for repeated :meth:`~_Overlap.draw` calls.  Atoms are
    checked (:func:`_weigh`), merged by equal state (``==``) and sorted by
    state, so the overlap holds only states both sides can reach and each
    residual only states of its own side."""
    return _Overlap(_weigh((measure1.atoms,), 1.0), _weigh((measure2.atoms,), 1.0))


class _Overlap:
    """The maximal coupling of two measures given by weights per state,
    plus ``shared`` mass that both hold outside the two maps.

    One sorted pass over the states of both maps splits each state's
    weights ``a`` and ``b`` into ``min(a, b)`` and the two remainders
    ``a - min(a, b)`` and ``b - min(a, b)``; a state that only one map
    holds is all remainder.  ``common`` keeps the positive ``min`` atoms
    and each side the positive remainders, all sorted by state, and ``p``
    is the overlap mass.  The sides can split only when both keep a
    remainder, so ``p`` is 1 when either is empty (a law's weights sum to 1
    only within the atom check's tolerance) or within 1e-12 of 1 or past
    it.  The overlap's mass is laid out in order, the ``shared`` mass
    first and then ``common``, and :meth:`draw` takes the merged state at
    the position of its merge uniform.  The residuals are normalized once,
    when first read, and :meth:`draw` reads them only when it needs them.
    """

    __slots__ = ("shared", "p", "common", "_rests", "_residuals")

    def __init__(self, w1: dict, w2: dict, shared: float = 0.0):
        self.shared = shared
        common, rest1, rest2 = [], [], []
        get1, get2 = w1.get, w2.get
        for k in sorted(w1.keys() | w2.keys()):
            a, b = get1(k), get2(k)
            if b is None:
                if a > 0.0:
                    rest1.append((k, a))
            elif a is None:
                if b > 0.0:
                    rest2.append((k, b))
            elif b < a:
                rest1.append((k, a - b))
                if b > 0.0:
                    common.append((k, b))
            else:
                if a < b:
                    rest2.append((k, b - a))
                if a > 0.0:
                    common.append((k, a))
        self.common, self._rests = common, (rest1, rest2)
        p = shared + sum(w for _, w in common)
        self.p = 1.0 if not (rest1 and rest2) or 1.0 - p <= 1e-12 else p
        self._residuals = None

    def pick(self, v: float) -> Optional[tuple]:
        """The merged state at position ``v`` of the overlap's mass, or
        ``None`` when ``v >= p`` and the sides split."""
        return _pick(self.common, v - self.shared) if v < self.p else None

    def residuals(self) -> tuple:
        """The normalized residuals ``(nu1, nu2)``, disjoint and sorted by
        state; none when ``p`` is 1."""
        if self._residuals is None:
            self._residuals = (
                ((), ()) if self.p >= 1.0 else tuple(map(_normalized, self._rests))
            )
        return self._residuals

    def draw(self, stream) -> tuple:
        """The maximal-coupling draw by two uniforms ``v`` and ``w``: with
        ``v < p`` both sides take the overlap's state at position ``v``
        (:meth:`pick`), else each takes its residual's at quantile ``w``.
        Given ``v < p``, ``v / p`` is uniform, so the merged state follows
        the normalized overlap.  Returns ``(x, y, v)``; the sides merge
        exactly when ``v < p``."""
        v = stream.random()
        w = stream.random()
        merged = self.pick(v)
        if merged is not None:
            return merged, merged, v
        nu1, nu2 = self.residuals()
        return _pick(nu1, w), _pick(nu2, w), v


def _normalized(atoms: list) -> tuple:
    """``atoms`` divided by their total weight."""
    mass = sum(w for _, w in atoms)
    return tuple((k, w / mass) for k, w in atoms)


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

    The pair ``[x, y]`` and its flip times are kept by side: side 0 is
    ``x`` and side 1 is ``y``, and ``x`` fires first at equal flip times.
    """

    __slots__ = ("_c", "_stream", "_s", "_t", "_merged", "_due", "_committed", "merge")

    def __init__(self, rate: float, x, y, stream):
        self._c = float(rate)
        self._stream = stream
        x = (float(x[0]), x[1])
        y = (float(y[0]), y[1])
        self._merged = x == y
        self._s = [x, x if self._merged else y]
        self._t = 0.0
        self.merge = None
        self._coordinate()

    def _coordinate(self) -> None:
        """Draw fresh flip times ``_due`` for the current pair geometry; a
        committed follower flip is marked by its side in ``_committed``."""
        self._committed = None
        t, c, stream = self._t, self._c, self._stream
        if self._merged:
            t_flip = t + _waiting_time(stream, c)
            self._due = [t_flip, t_flip]
            return
        (px, vx), (py, vy) = self._s
        if vx != vy:
            self._due = [t + _waiting_time(stream, c), t + _waiting_time(stream, c)]
            return
        m = abs(px - py) / 2.0
        lead = 0 if (px >= py) == (vx > 0) else 1
        self._due = due = [t + _waiting_time(stream, c)] * 2
        if stream.random() < math.exp(-c * m):
            due[1 - lead] += m
            self._committed = 1 - lead
        else:
            u = stream.random()
            due[1 - lead] = t - math.log1p(u * math.expm1(-c * m)) / c

    def _move(self, dt: float) -> None:
        if dt > 0.0:
            s = self._s
            s[0] = x = (s[0][0] + s[0][1] * dt, s[0][1])
            s[1] = x if self._merged else (s[1][0] + s[1][1] * dt, s[1][1])

    def next_event_in(self) -> float:
        """Time until the next flip of either side (``inf`` at flip rate 0)."""
        return min(self._due) - self._t

    def drifts(self) -> tuple:
        """Velocity of each component of ``x`` and of ``y`` until the next flip.

        The position moves at the velocity label and the label stands still.
        """
        x, y = self._s
        return (x[1], 0), (y[1], 0)

    def advance(self, dt: float) -> tuple:
        """Advance by ``dt``; returns the pair ``(x, y)`` then."""
        start = self._t
        end = start + dt
        s = self._s
        if self._merged and self._due[0] > end:
            # No flip before ``end``: one move of the shared state.
            move = end - start
            if move > 0.0:
                position, velocity = s[0]
                s[0] = s[1] = (position + velocity * move, velocity)
            self._t = end
            return s[0], s[1]
        while True:
            due = self._due
            side = 0 if due[0] <= due[1] else 1
            t_next = due[side]
            if t_next > end:
                break
            self._move(t_next - self._t)
            self._t = t_next
            position, velocity = s[side]
            s[side] = (position, -velocity)
            if self._merged:
                s[1 - side] = s[side]
                self._coordinate()
                continue
            due[side] = math.inf
            if self._committed == side:
                # The committed follower flip just fired: merge if the
                # geometry survived intact.
                x, y = s
                if x[1] == y[1] and abs(x[0] - y[0]) <= _MERGE_SNAP:
                    s[1] = x
                    self._merged = True
                    self.merge = (self._t, x)
                self._coordinate()
            elif self._committed is not None:
                # Leader flipped again before the commitment: keep the
                # committed follower flip, redraw only the leader.
                due[side] = self._t + _waiting_time(self._stream, self._c)
            else:
                self._coordinate()
        self._move(end - self._t)
        self._t = end
        return s[0], s[1]


class _RefreshCouplerMachine:
    """Coupled refresh dynamics: one shared clock, one shared uniform target.

    Each side refreshes to an independent ``Uniform[0, 1)`` value at the given
    rate; sharing both the clock and the target merges the pair at the first
    refresh while keeping each marginal law intact.
    """

    __slots__ = ("_rate", "_stream", "_x", "_y", "_t", "_next", "merge")

    def __init__(self, rate: float, x, y, stream):
        self._rate = float(rate)
        self._stream = stream
        self._x = tuple(x)
        self._y = tuple(y)
        self._t = 0.0
        self.merge = None
        self._next = _waiting_time(stream, self._rate)

    def next_event_in(self) -> float:
        """Time until the next shared refresh (``inf`` at rate 0)."""
        return self._next - self._t

    def drifts(self) -> tuple:
        """``(None, None)``: both states stand still between refreshes."""
        return None, None

    def advance(self, dt: float) -> tuple:
        """Advance by ``dt``; returns the pair ``(x, y)`` then."""
        end = self._t + dt
        while self._next <= end:
            self._t = self._next
            target = (self._stream.random(),)
            if self._x != self._y:
                self.merge = (self._t, target)
            self._x = self._y = target
            self._next = self._t + _waiting_time(self._stream, self._rate)
        self._t = end
        return self._x, self._y


def make_telegraph_coupler(flip_rate: float) -> Callable:
    """The unit-speed telegraph base coupler: its machine class, at ``flip_rate``
    (bound by position: by keyword, each machine start builds a dict)."""
    return functools.partial(_TelegraphCouplerMachine, flip_rate)


def make_refresh_coupler(rate: float) -> Callable:
    """The refresh-to-uniform base coupler: its machine class, at ``rate``
    (bound by position, as for :func:`make_telegraph_coupler`)."""
    return functools.partial(_RefreshCouplerMachine, rate)


class _SingleMachines:
    """A pair machine of one-side machines: one on the diagonal, where ``y``
    is ``x``, or one per side.  Its sides never merge."""

    merges = False
    merge = None

    def __init__(self, *machines):
        self._machines = machines

    def next_event_in(self) -> float:
        return min([m.next_event_in() for m in self._machines])

    def drifts(self) -> tuple:
        return self._machines[0].drift(), self._machines[-1].drift()

    def advance(self, dt: float) -> tuple:
        states = [m.advance(dt) for m in self._machines]
        return states[0], states[-1]


class TwinCoupler:
    """The base coupler of a model with no merging coupling, from its
    one-side machine factory ``machine(x, stream)``.

    On the diagonal (``x == y``) it is one machine at ``x`` drawing from
    ``stream``.  Off it, it is a twin pair: one machine per side, each
    reading its own stream (:func:`~mfjump.engine._stream`) of one child
    seed spawned from ``stream``, so both sides read identical variates
    (one stream cannot hand a variate out twice; each start spawns a fresh
    seed).  The sides never merge, so :func:`coupled_base` refuses it.
    """

    __slots__ = ("machine",)

    def __init__(self, machine: Callable):
        self.machine = machine

    def __call__(self, x, y, stream) -> _SingleMachines:
        if x == y:
            return _SingleMachines(self.machine(x, stream))
        seed = stream.spawn(1)[0].bit_generator.seed_seq
        machine = self.machine
        return _SingleMachines(machine(x, _stream(seed)), machine(y, _stream(seed)))


def coupled_base(model: ModelSpec, x, y, t0: float, stream):
    """Run the coupled base dynamics of a model over one window.

    Returns ``(x_t0, y_t0, merged_at)``: the pair at ``t0`` and the time the
    pair merged, read from the machine's ``merge`` (``0.0`` for equal
    starts, ``None`` if it never merged).  A machine whose class never
    merges (``merges = False``, as a :class:`TwinCoupler`'s) is refused by
    :class:`UnsupportedCouplingError`, however the base coupler is wrapped.
    """
    if not 0.0 < t0 < math.inf:
        raise ValueError("window length t0 must be positive")
    x = tuple(x)
    y = tuple(y)
    machine = model.base_coupler(x, y, stream)
    if not getattr(machine, "merges", True):
        raise UnsupportedCouplingError(
            f"model {model.name!r} provides no coupled base construction"
        )
    x_t0, y_t0 = machine.advance(t0)
    if x == y:
        return x_t0, y_t0, 0.0
    return x_t0, y_t0, None if machine.merge is None else machine.merge[0]


def estimate_doeblin_alpha(model: ModelSpec, pair_source: Callable, t0: float, n: int, stream):
    """Estimate the one-window merge probability of the coupled base dynamics.

    Runs ``n`` independent coupled windows from pairs drawn by
    ``pair_source(stream)`` and returns ``(alpha_hat, se)``
    (:func:`alpha_from_windows`, which refuses ``n < 1``).
    """
    return alpha_from_windows(
        [coupled_base(model, *pair_source(stream), t0, stream)[2] for _ in range(n)]
    )


def alpha_from_windows(merged_ats: Sequence) -> tuple:
    """``(alpha_hat, se)``: the share of windows whose ``coupled_base``
    ``merged_at`` in ``merged_ats`` is not ``None``, and its standard error.
    Raises ``ValueError`` when ``merged_ats`` is empty."""
    n = len(merged_ats)
    if n < 1:
        raise ValueError("need at least one replica")
    alpha_hat = sum(merged_at is not None for merged_at in merged_ats) / n
    return alpha_hat, math.sqrt(alpha_hat * (1.0 - alpha_hat) / n)


# ---------------------------------------------------------------------------
# Merge/split coupling of one measure-driven pair.
# ---------------------------------------------------------------------------

MERGE = "merge"


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
    jump kernels (:func:`_mixed_weights`, coupled by :class:`_Overlap`) the
    sides draw a common state (merging them), otherwise they draw from the
    disjoint residuals (splitting them).  Between proposals the pair follows
    the model's base machine, restarted at every proposal and at every
    window boundary ``k * t0``, whose ``merge`` is recorded as a ``MERGE``
    event.  The pair at each sample time is recorded in ``sample_pairs``.
    With ``record_events=False`` no event is kept, while splits are still
    counted.
    """
    _require_atoms(model, "model")
    lam_star = model.rate_ceiling
    ticks = clock(horizon, lam_star, stream, sample_times, window=t0, name=model.name)

    x = tuple(x0)
    y = tuple(y0)
    events: list[CoupledEvent] = []
    sample_pairs: dict[float, tuple] = {}
    n_splits = 0
    t = 0.0
    # The time the machine has been advanced since its start, summed as the
    # machine sums its own clock, so ``at - elapsed`` below is the offset of
    # its merge into the advance.
    machine, elapsed = model.base_coupler(x, y, stream), 0.0

    def run_machine(upto: float) -> None:
        nonlocal x, y, t, elapsed
        dt = upto - t
        if dt > 0.0:
            unmerged = machine.merge is None
            x, y = machine.advance(dt)
            if unmerged and machine.merge is not None and record_events:
                at, state = machine.merge
                events.append(CoupledEvent(
                    time=t + (at - elapsed), kind=MERGE, x=state, y=state, merged=True,
                ))
            elapsed += dt
        t = upto

    for t_event, kind in ticks:
        run_machine(t_event)
        if kind == SAMPLE:
            sample_pairs[t] = (x, y)
            continue
        if kind == WINDOW:
            machine, elapsed = model.base_coupler(x, y, stream), 0.0
            continue
        was_merged = x == y
        at_x, at_y = (x, flow1.at(t)), (y, flow2.at(t))
        parts = _Overlap(
            _mixed_weights(model.kernel_atoms(*at_x), x, _thinning(model, at_x)),
            _mixed_weights(model.kernel_atoms(*at_y), y, _thinning(model, at_y)),
        )
        x, y, _ = parts.draw(stream)
        merged = x == y
        if was_merged and not merged:
            n_splits += 1
        if record_events:
            events.append(
                CoupledEvent(time=t, kind=PROPOSAL, x=x, y=y, merged=merged, p=parts.p)
            )
        machine, elapsed = model.base_coupler(x, y, stream), 0.0
    run_machine(horizon)
    return CoupledTrajectory(
        initial_x=tuple(x0),
        initial_y=tuple(y0),
        horizon=horizon,
        events=tuple(events),
        n_splits=n_splits,
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


def _require_atoms(spec, what: str) -> None:
    """Raise :class:`UnsupportedCouplingError` unless ``spec`` declares its
    jump law by atoms (``kernel_atoms``, or a system's ``pair_atoms``), which
    the coupled simulators read: the specs with no ``kernel``."""
    if spec.kernel is not None:
        raise UnsupportedCouplingError(f"{what} {spec.name!r} provides no kernel atoms")


def _thinning(spec, at: tuple, coordinate=None) -> float:
    """The thinning share ``rate / ceiling`` of one proposal at ``at``
    (``(state, measure)`` for a model, ``(i, config)`` for a system), the
    chance that the proposal is a jump, once the rate is checked against
    the ceiling."""
    rate, ceiling = spec.rate(*at), spec.rate_ceiling
    check_rate(rate, ceiling, spec.name, coordinate)
    return rate / ceiling


def _mixed_weights(atoms, stay, share: float) -> dict:
    """Weights by state of one thinned proposal from ``stay`` (Lewis &
    Shedler, 1979) with the :func:`_thinning` ``share``: the one jump-law
    answer ``atoms`` (kernel atoms, or one donor's pair atoms) weighted
    ``w * share`` by :func:`_weigh`, plus the stay-put mass ``1 - share``."""
    weights = _weigh((atoms,), share)
    if share < 1.0:
        weights[stay] = weights.get(stay, 0.0) + (1.0 - share)
    return weights


class _MergedOverlap(_Overlap):
    """The parts of a proposal at a merged coordinate ``i`` of a system with
    ``pair_atoms``, under the two sides' thinning shares ``shares``, which
    read a donor only where the draw lands on it.

    With ``lo`` and ``hi`` the smaller and the larger share, both sides
    hold the part ``C``: the stay atom at mass ``1 - hi`` and each matched
    donor's pair atoms (the same on both sides) at ``lo / N``.  Since
    ``min(C + A, C + B) = C + min(A, B)`` state by state, the overlap is
    the ``shared`` part ``C`` plus the overlap of the two remainders ``A``
    and ``B``, and the residuals are those of ``A`` and ``B``.  A side of
    share ``s`` keeps as its remainder its mismatched donors' pair atoms at
    ``s / N``, the stay mass ``hi - s`` and, on the larger-share side only,
    its matched donors' again at ``(s - lo) / N``.  The overlap's mass is
    laid out in order: the stay atom, then a slot of mass ``lo / N`` for
    each matched donor (split by that donor's pair atoms, which
    :meth:`pick` checks), then the ``common`` atoms of ``A`` and ``B``.  A
    merge uniform below ``shared`` reads at most one matched donor; ``A``
    and ``B`` (``common``, ``p`` and the residuals) are built, one pass per
    side, only when first read.  Where the rates agree, ``A`` and ``B``
    hold the ``K`` mismatched donors alone.
    """

    __slots__ = ("stay", "stay_mass", "share", "shares", "donors", "mismatched", "x", "y",
                 "pair_atoms")

    def __init__(self, system: SystemSpec, i: int, x, y, matching, shares: tuple):
        self.stay, self.x, self.y, self.pair_atoms = x[i], x, y, system.pair_atoms
        self.donors, self.mismatched = matching.matched, matching.mismatched
        self.shares, self.share, self.stay_mass = shares, min(shares) / len(x), 1.0 - max(shares)
        self.shared = self.stay_mass + len(self.donors) * self.share

    def __getattr__(self, name: str):
        # Called only for a slot not yet set: build the remainders A and B.
        if name not in _Overlap.__slots__:
            raise AttributeError(name)
        lo, hi = min(self.shares), max(self.shares)
        rests = ({}, {})
        for c, s, rest in zip((self.x, self.y), self.shares, rests):
            for donors, share in ((self.mismatched, s), (self.donors, s - lo)):
                if share > 0.0:
                    answers = map(self.pair_atoms, repeat(self.stay), map(c.__getitem__, donors))
                    _weigh(answers, share / len(c), rest)
            if s < hi:
                rest[self.stay] = rest.get(self.stay, 0.0) + (hi - s)
        _Overlap.__init__(self, *rests, self.shared)
        return getattr(self, name)

    def pick(self, v: float) -> Optional[tuple]:
        """The merged state at position ``v`` of the overlap's mass, or
        ``None`` when ``v >= p`` and the sides split."""
        if v >= self.shared and (v >= self.p or self.common):
            return super().pick(v)
        if v < self.stay_mass or self.shared == self.stay_mass:
            # Also a ``v`` past the overlap's atoms when no matched slot has mass.
            return self.stay
        # A matched donor's slot (the last one when rounding puts ``v`` past them).
        m = (v - self.stay_mass) / self.share
        k = min(int(m), len(self.donors) - 1)
        return _pick(_checked(self.pair_atoms(self.stay, self.x[self.donors[k]])), m - k)


def _proposal_parts(system: SystemSpec, i: int, x, y, matching, stream) -> _Overlap:
    """The parts of a coupled proposal at coordinate ``i``: a coupling of
    the two sides' mixed kernels, maximal where ``i`` is merged.

    Each side's rate is read once.  A system with ``kernel_atoms`` takes
    the :class:`_Overlap` of its two sides' :func:`_mixed_weights`.  For a
    system with ``pair_atoms`` the parts at a merged ``i`` are a
    :class:`_MergedOverlap`, whatever the two rates, which reads the
    mismatched donors only when its merge uniform lands past the matched
    ones.  Where ``i`` is unmerged, both sides draw one shared uniform
    donor ``j`` from ``stream`` (Sznitman's synchronous coupling, 1991),
    and the parts are the :class:`_Overlap` of the two one-donor laws
    ``(1 - s) δ_own + s · pair_atoms(own, c_j)``: averaged over ``j`` each
    is its side's mixed kernel, and a proposal reads two answers, not
    ``2N``.
    """
    shares = (_thinning(system, (i, x), i), _thinning(system, (i, y), i))
    if system.pair_atoms is None:
        answers = (system.kernel_atoms(i, x), system.kernel_atoms(i, y))
    elif x[i] == y[i]:
        return _MergedOverlap(system, i, x, y, matching, shares)
    else:
        j = int(stream.integers(len(x)))
        answers = (system.pair_atoms(x[i], x[j]), system.pair_atoms(y[i], y[j]))
    return _Overlap(*map(_mixed_weights, answers, (x[i], y[i]), shares))


def check_coupled_system(system: SystemSpec, theta: float) -> None:
    """Raise what :func:`simulate_coupled_system` refuses of ``system`` and
    the counter threshold ``theta`` before it draws."""
    _require_atoms(system, "system")
    if not theta >= 0.0:
        raise ValueError(f"counter threshold theta must be nonnegative, got {theta}")


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
    their overlap (:func:`_proposal_parts`), maximally where it is merged.
    At an unmerged coordinate of a system with ``pair_atoms`` both sides
    draw one shared uniform donor and couple its two one-donor laws, which
    keeps each marginal and reads two answers.  The counter ``j`` starts at
    half the matching distance of the initial configurations and increments
    at a proposal on a merged coordinate whenever the accept variate exceeds
    ``1 - theta * j / (n * rate_ceiling)``, which dominates every actual
    split when ``theta >= 0`` bounds the rate-and-kernel sensitivity to
    single-coordinate changes.  Each side's mixed kernel is its jump atoms
    thinned by its own rate, plus the stay-put mass.  Between
    proposals each coordinate pair follows its base machine, started by the
    system's ``base_coupler`` and drawing from ``stream``, restarted at
    window boundaries ``k * t0``; a :class:`TwinCoupler` moves a merged
    pair by one machine and an unmerged one by two on twin streams.  The
    configurations and ``j`` at each sample time are recorded in
    ``samples``.  With ``record_events=False`` no event is kept, while ``j``
    is still counted.

    The run is event-driven, as in :func:`~mfjump.particles.simulate_system`:
    a heap of the pairs' next base events tells each event which machines
    to advance, and ``rate`` and the jump atoms read each side lazily,
    with running sums for ``mean``.  A pair that is not due draws nothing
    when advanced, and the due pairs advance in index order, so the draws
    are those of advancing every pair at every event.  So an event costs
    ``O(log N)`` for the pairs whose base event is due, plus its proposal
    (:func:`_proposal_parts`).  A window boundary restarts all ``N`` pairs,
    and a sample reads all ``N``.
    """
    check_coupled_system(system, theta)
    n = system.n_particles
    lam_star = system.rate_ceiling
    if len(x0) != n or len(y0) != n:
        raise ValueError(f"expected {n} coordinates in each configuration")
    total_rate = n * lam_star
    ticks = clock(horizon, total_rate, stream, sample_times, window=t0, name=system.name)

    initial_x = tuple(tuple(c) for c in x0)
    initial_y = tuple(tuple(c) for c in y0)
    j = dbar1(initial_x, initial_y) / 2.0
    j_initial = j
    live = _LiveConfig(system, initial_x, stream, initial_y)
    events: list[CoupledSystemEvent] = []
    samples: dict[float, tuple] = {}
    for t, kind in ticks:
        live.flow(t)
        if kind == SAMPLE:
            samples[t] = (live.x.snapshot(), live.y.snapshot(), j)
            continue
        if kind == WINDOW:
            for k in range(n):
                live.start(k, live.x[k], live.y[k])
            continue
        i = int(stream.integers(n))
        x, y = live.x.view(), live.y.view()
        equal_before = x[i] == y[i]
        xi, yi, v = _proposal_parts(system, i, x, y, live.matching, stream).draw(stream)
        if equal_before and v >= 1.0 - theta * j / total_rate:
            j += 1.0
        live.start(i, xi, yi)
        if record_events:
            events.append(
                CoupledSystemEvent(
                    time=t, kind=PROPOSAL, x=tuple(live.x.view()),
                    y=tuple(live.y.view()), j=j,
                )
            )
    live.flow(horizon)
    return CoupledSystemTrajectory(
        initial_x=initial_x,
        initial_y=initial_y,
        horizon=horizon,
        j_initial=j_initial,
        events=tuple(events),
        samples=samples,
    )
