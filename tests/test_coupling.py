"""Couplings: overlap splitting, shared-clock pairs, and coupled systems."""

from __future__ import annotations

import collections
import copy
import dataclasses
import math
import types
from itertools import repeat

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfjump import coupling
from mfjump.coupling import (
    TwinCoupler,
    UnsupportedCouplingError,
    _MergedOverlap,
    _mixed_weights,
    _proposal_parts,
    _thinning,
    _weigh,
    alpha_from_windows,
    coupled_base,
    estimate_doeblin_alpha,
    make_telegraph_coupler,
    optimal_pair_sampler,
    simulate_coupled_system,
    simulate_merge_split,
)
from mfjump.engine import (
    PROPOSAL,
    SAMPLE,
    WINDOW,
    EmpiricalMeasure,
    _atoms_jump,
    _pick,
    clock,
    picard_solve,
    simulate_nonlinear,
)
from mfjump.metrics import (
    LyapunovFn,
    d_v,
    dbar1,
    histogram_tv,
    make_binning,
)
from mfjump.models import (
    MhParams,
    build_model,
    RunTumbleParams,
    SelectionParams,
    TcpParams,
    mh_granular,
    run_tumble,
    selection_mutation,
    tcp,
)
from mfjump.engine import RateCeilingError
from mfjump.particles import (
    SystemSpec,
    _Matching,
    meanfield_system,
    simulate_system,
)

from conftest import (
    CountedMachine,
    CountingStream,
    advance_every_machine,
    assert_configs_close,
    constant_flow,
    flip_model,
    flip_system,
    make_rng,
    measure_rate_flip_model,
    refresh_flow,
    telegraph_flow,
    zigzag_flow,
)


def two_point(a, wa, b, wb):
    return EmpiricalMeasure(atoms=(((a,), wa), ((b,), wb)))


# ---------------------------------------------------------------------------
# optimal splitting of a pair of discrete measures


def test_pair_sampler_identical_measures_always_merge(rng):
    m = two_point(0.0, 0.5, 1.0, 0.5)
    ps = optimal_pair_sampler(m, m)
    assert ps.p == pytest.approx(1.0)
    for _ in range(20):
        x, y, v = ps.draw(rng)
        assert v < ps.p and x == y


def test_pair_sampler_disjoint_measures_never_merge(rng):
    ps = optimal_pair_sampler(
        EmpiricalMeasure.from_states([(0.0,)]),
        EmpiricalMeasure.from_states([(1.0,)]),
    )
    assert ps.p == 0.0
    x, y, v = ps.draw(rng)
    assert v >= ps.p and x == (0.0,) and y == (1.0,)


def test_pair_sampler_overlap_example():
    m1 = two_point(0.0, 0.5, 1.0, 0.5)
    m2 = two_point(0.0, 0.25, 1.0, 0.75)
    ps = optimal_pair_sampler(m1, m2)
    assert ps.p == pytest.approx(0.75)


def test_pair_sampler_expected_distance_matches_exact_value():
    m1 = two_point(0.0, 0.5, 1.0, 0.5)
    m2 = two_point(0.0, 0.25, 1.0, 0.75)
    v = LyapunovFn(lambda s: 1.0, name="one")
    ps = optimal_pair_sampler(m1, m2)
    stream = make_rng(101)
    n = 100_000
    total = 0.0
    for _ in range(n):
        x, y, _ = ps.draw(stream)
        total += d_v(x, y, v)
    mc = total / n
    exact = 0.5  # |m1 - m2| applied to V = 1 on {0}, {1}: 0.25 + 0.25
    se = math.sqrt(exact * (2.0 - exact) / n)
    assert abs(mc - exact) < 3.0 * se


def test_pair_sampler_residuals_are_disjoint():
    m1 = two_point(0.0, 0.5, 1.0, 0.5)
    m2 = two_point(0.0, 0.25, 1.0, 0.75)
    ps = optimal_pair_sampler(m1, m2)
    nu1, nu2 = ps.residuals()
    support1 = {s for s, w in nu1 if w > 0}
    support2 = {s for s, w in nu2 if w > 0}
    assert support1.isdisjoint(support2)


@settings(max_examples=60)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
)
def test_pair_sampler_reconstructs_marginals(w1, w2):
    a1 = np.asarray(w1) / np.sum(w1)
    a2 = np.asarray(w2) / np.sum(w2)
    m1 = EmpiricalMeasure(atoms=tuple(((float(i),), float(w)) for i, w in enumerate(a1)))
    m2 = EmpiricalMeasure(atoms=tuple(((float(i),), float(w)) for i, w in enumerate(a2)))
    ps = optimal_pair_sampler(m1, m2)
    for m, nu_res in zip((m1, m2), ps.residuals()):
        rebuilt = {}
        for s, w in ps.common:
            rebuilt[s] = rebuilt.get(s, 0.0) + w
        for s, w in nu_res:
            rebuilt[s] = rebuilt.get(s, 0.0) + (1.0 - ps.p) * w
        for s, w in m.atoms:
            assert rebuilt.get(s, 0.0) == pytest.approx(w, abs=1e-9)


def _three_pass_overlap(w1: dict, w2: dict, shared: float) -> tuple:
    """``(p, common, (nu1, nu2))`` of two weight maps by the definition,
    one pass each: the sorted intersection's ``min`` atoms, then
    ``side - min(side, other)`` over each side's sorted states.  ``p`` is 1
    when a side has no positive remainder or the overlap mass is within
    1e-12 of 1 or above it."""
    common = [(k, min(w1[k], w2[k])) for k in sorted(k for k in w1 if k in w2)]
    common = [(k, w) for k, w in common if w > 0.0]
    p_raw = shared + sum(w for _, w in common)

    def remainder(side, other):
        raw = [(k, side[k] - min(side[k], other.get(k, 0.0))) for k in sorted(side)]
        return [(k, w) for k, w in raw if w > 0.0]

    def normalized(raw):
        mass = sum(w for _, w in raw)
        return tuple((k, w / mass) for k, w in raw)

    raw1, raw2 = remainder(w1, w2), remainder(w2, w1)
    p = 1.0 if not raw1 or not raw2 or 1.0 - p_raw <= 1e-12 else p_raw
    residuals = ((), ()) if p >= 1.0 else (normalized(raw1), normalized(raw2))
    return p, common, residuals


_OVERLAP_STATES = st.integers(0, 7).map(lambda k: (k / 8.0,))
#: Exact zeros and a negative weight that ``_weigh`` counts as zero.
_OVERLAP_WEIGHTS = st.one_of(st.just(0.0), st.just(-1e-10), st.floats(1e-3, 1.0))


@st.composite
def _overlap_atom_lists(draw):
    """Two atom lists over eight states, with repeated states, zero-weight
    states and states on one side only; or a second side that moves at
    most 2e-12 of the first's mass, so that ``p`` is within 1e-12 of 1 or
    just outside."""

    def side():
        atom = st.tuples(_OVERLAP_STATES, _OVERLAP_WEIGHTS)
        atoms = draw(st.lists(atom, min_size=1, max_size=6))
        total = sum(w for _, w in atoms if w > 0.0)
        assume(total > 0.0)
        return [(s, w / total if w > 0.0 else w) for s, w in atoms]

    atoms1 = side()
    if draw(st.booleans()):
        return atoms1, side()
    eps = draw(st.floats(0.0, 2e-12))
    k = next(k for k, (_, w) in enumerate(atoms1) if w > 0.0)
    atoms2 = list(atoms1)
    atoms2[k] = (atoms1[k][0], atoms1[k][1] - eps)
    atoms2.append((draw(_OVERLAP_STATES), eps))
    return atoms1, atoms2


@settings(max_examples=300)
@given(_overlap_atom_lists(), st.sampled_from([0.0, 0.0, 0.3]))
def test_overlap_pass_matches_the_three_pass_definition(atoms, shared):
    w1 = _weigh((atoms[0],), 1.0)
    w2 = _weigh((atoms[1],), 1.0)
    parts = coupling._Overlap(w1, w2, shared)
    got = (parts.p, parts.common, parts.residuals())
    assert got == _three_pass_overlap(w1, w2, shared)


def test_pair_sampler_marginal_frequencies(rng):
    m1 = two_point(0.0, 0.5, 1.0, 0.5)
    m2 = two_point(0.0, 0.25, 1.0, 0.75)
    ps = optimal_pair_sampler(m1, m2)
    n = 40_000
    x_zero = y_zero = 0
    for _ in range(n):
        x, y, _ = ps.draw(rng)
        x_zero += x == (0.0,)
        y_zero += y == (0.0,)
    assert abs(x_zero / n - 0.5) < 3.0 * math.sqrt(0.25 / n)
    assert abs(y_zero / n - 0.25) < 3.0 * math.sqrt(0.1875 / n)


# ---------------------------------------------------------------------------
# overlap decomposition bookkeeping


#: A law whose weights sum to 1 - 5e-7, inside the atom check's tolerance.
_SHORT_LAW = (((0.0,), 0.5), ((1.0,), 0.4999995))


def _pair_parts(atoms1, atoms2) -> coupling._Overlap:
    """The :func:`optimal_pair_sampler` of two atom lists."""
    return optimal_pair_sampler(EmpiricalMeasure(atoms1), EmpiricalMeasure(atoms2))


def test_pair_sampler_cannot_split_a_law_from_itself():
    # Over 1 the overlap mass is snapped to 1; under 1 no side keeps a
    # remainder to split into, so ``p`` is 1 all the same.
    for a in ((((0.0,), 0.5 + 4e-8), ((1.0,), 0.5)), _SHORT_LAW):
        parts = _pair_parts(a, a)
        assert (parts.p, parts.residuals()) == (1.0, ((), ()))


@pytest.mark.parametrize("other", ["itself", "unit-mass"])
def test_pair_sampler_merges_a_law_short_of_unit_mass_past_its_overlap(other):
    # The merge uniform lands past the overlap's raw mass 1 - 5e-7 (or
    # 0.5 + 0.4999995 against a unit-mass law), where neither side (or
    # only one) has a residual to take: the sides merge.  Before, the
    # draw read an empty residual and failed with an IndexError.
    m = EmpiricalMeasure(_SHORT_LAW)
    unit = EmpiricalMeasure((((0.0,), 0.5), ((1.0,), 0.5)))
    sampler = optimal_pair_sampler(m, m if other == "itself" else unit)
    assert sampler.draw(_FixedUniforms(1.0 - 1e-7, 0.5)) == ((1.0,), (1.0,), 1.0 - 1e-7)
    assert sampler.p == 1.0


def test_mixed_weights_reject_badly_normalised_kernel_atoms():
    base = run_tumble(RunTumbleParams(theta=0.1)).model
    at = ((0.2, 1), EmpiricalMeasure.from_states([(0.3, 1)]))
    for a in ((((0.0, 1), 0.6), ((1.0, 1), 0.41)), (((0.0, 1), math.nan),)):
        model = dataclasses.replace(base, kernel_atoms=lambda state, measure, a=a: a)
        with pytest.raises(ValueError, match="atom weights sum to"):
            _mixed_weights(model, at, at[0], 0.5)


# ---------------------------------------------------------------------------
# coupled base dynamics


def test_coupled_base_equal_starts_merge_immediately(rng):
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    x, y, merged_at = coupled_base(bundle.model, (0.5, 1), (0.5, 1), 2.0, rng)
    assert merged_at == 0.0
    assert x == y


def test_coupled_base_requires_meeting_rule():
    # tcp moves its two sides by a twin pair, which never merges.
    model = tcp(TcpParams()).model
    assert isinstance(model.base_coupler, TwinCoupler)
    refusal = "^model 'tcp' provides no coupled base construction$"
    with pytest.raises(UnsupportedCouplingError, match=refusal):
        coupled_base(model, (0.0,), (1.0,), 1.0, make_rng(9))
    with pytest.raises(UnsupportedCouplingError, match=refusal):
        estimate_doeblin_alpha(model, lambda stream: ((0.0,), (1.0,)), 1.0, 4, make_rng(9))


def test_coupled_base_stays_merged_after_meeting():
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    merged_found = 0
    for r in range(200):
        x, y, merged_at = coupled_base(
            bundle.model, (0.1, 1), (-0.1, 1), 4.0, make_rng(70_000 + r)
        )
        if merged_at is None:
            continue
        merged_found += 1
        assert 0.0 < merged_at <= 4.0
        assert x == y
    assert merged_found > 50


def test_coupled_base_positive_meeting_probability_on_compact():
    bundle = run_tumble(RunTumbleParams(theta=0.05))
    merged = 0
    n = 400
    for r in range(n):
        _, _, merged_at = coupled_base(
            bundle.model, (0.1, 1), (-0.1, 1), 2.0, make_rng(80_000 + r)
        )
        merged += merged_at is not None
    assert merged / n > 0.2


def test_coupled_base_marginals_match_base_flow():
    params = RunTumbleParams(theta=0.1)
    model = run_tumble(params).model
    flow = telegraph_flow(params.base_rate)
    n = 4000
    coupled_ends = []
    direct_ends = []
    for r in range(n):
        x, _, _ = coupled_base(model, (0.3, 1), (-0.4, -1), 1.5, make_rng(110_000 + r))
        coupled_ends.append(x)
        direct_ends.append(flow((0.3, 1), 1.5, make_rng(210_000 + r)))
    binning = make_binning(("real", "label"), ((-3.0, 3.0), (-1.0, 1.0)), bins=8)
    assert histogram_tv(coupled_ends, direct_ends, binning) < 0.15


def test_coupled_base_refuses_a_wrapped_twin_coupler():
    # Before, a plain function around the TwinCoupler hid it: coupled_base
    # ran the twin pair and estimate_doeblin_alpha read (0.0, 0.0).
    model = tcp(TcpParams()).model
    twin = model.base_coupler
    model = dataclasses.replace(model, base_coupler=lambda x, y, stream: twin(x, y, stream))
    refusal = "^model 'tcp' provides no coupled base construction$"
    for y in ((1.0,), (0.0,)):
        with pytest.raises(UnsupportedCouplingError, match=refusal):
            coupled_base(model, (0.0,), y, 1.0, make_rng(9))
    with pytest.raises(UnsupportedCouplingError, match=refusal):
        estimate_doeblin_alpha(model, lambda stream: ((0.0,), (1.0,)), 1.0, 4, make_rng(9))


def _window_stats(model, x, y, seed, n):
    """Merged share and mean end gap ``x - y`` (positions) of ``n`` windows
    of length 1 from ``(x, y)``, each with its standard error."""
    merged, gaps = 0, []
    stream = make_rng(seed)
    for _ in range(n):
        x_end, y_end, merged_at = coupled_base(model, x, y, 1.0, stream)
        merged += merged_at is not None
        gaps.append(x_end[0] - y_end[0])
    share = merged / n
    return (share, math.sqrt(share * (1.0 - share) / n)), (
        float(np.mean(gaps)), float(np.std(gaps)) / math.sqrt(n)
    )


@pytest.mark.parametrize(
    "x, y",
    [((0.2, 1), (-0.2, 1)), ((0.3, 1), (-0.1, -1)), ((0.5, -1), (-0.4, -1))],
    ids=["same-velocity", "opposite-velocity", "same-velocity-left"],
)
def test_telegraph_coupler_swapping_the_sides_swaps_the_law(x, y):
    # The coupling treats its sides alike: run from (y, x), the pair's law
    # is that of (x, y) with its sides swapped, so the gap changes sign.
    model = run_tumble(RunTumbleParams(theta=0.1)).model
    n = 10_000
    (share, share_se), (gap, gap_se) = _window_stats(model, x, y, 1, n)
    (share_swapped, share_swapped_se), (gap_swapped, gap_swapped_se) = _window_stats(
        model, y, x, 2, n
    )
    assert abs(share - share_swapped) <= 4.0 * math.hypot(share_se, share_swapped_se)
    assert abs(gap + gap_swapped) <= 4.0 * math.hypot(gap_se, gap_swapped_se)


def _run_tumble_diagonal():
    params = RunTumbleParams(theta=0.1)
    return run_tumble(params).model, telegraph_flow(params.base_rate), (0.0, 1), 1.0


def _zigzag_diagonal():
    # Without interaction the base flips run at (v z - 0.5)_+ (theta_bound 0.5).
    system = build_model("zigzag", {"n_particles": 1, "w_amp": 0.0}).system
    flow = zigzag_flow(lambda z, v: max(0.0, v * z - 0.5), lip=1.0)
    return system, flow, (1.5, 1), 2.0


#: Diagonal machine cases: name -> () -> (spec, reference flow, start, total
#: time).
DIAGONAL_CASES = {
    "run-tumble": _run_tumble_diagonal,
    "selection": lambda: (
        selection_mutation(SelectionParams(n_particles=4)).system,
        refresh_flow(1.0), (0.9,), 1.0,
    ),
    "mh": lambda: (
        build_model("mh", {"lam_bar": 4.0}).system,
        refresh_flow(build_model("mh", {"lam_bar": 4.0}).refresh_rate), (0.9,), 2.0,
    ),
    "zigzag": _zigzag_diagonal,
}


def _mean_and_se(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    return abs(a.mean() - b.mean()), se


@pytest.mark.parametrize("case", sorted(DIAGONAL_CASES))
def test_diagonal_machine_in_small_steps_matches_base_flow(case):
    spec, base_flow, start, total = DIAGONAL_CASES[case]()
    n, steps = 20_000, 20
    machine_stream, flow_stream = make_rng(61_000), make_rng(62_000)
    machine_ends = []
    for _ in range(n):
        machine = spec.base_coupler(start, start, machine_stream)
        for _ in range(steps):
            x, y = machine.advance(total / steps)
            assert x == y  # a pair started merged stays merged
        machine_ends.append(x)
    flow_ends = [tuple(base_flow(start, total, flow_stream)) for _ in range(n)]
    # The velocity flipped (telegraph, zigzag) or the state was refreshed.
    changed = [[s[-1] != start[-1] for s in ends] for ends in (machine_ends, flow_ends)]
    positions = [[s[0] for s in ends] for ends in (machine_ends, flow_ends)]
    for machine_side, flow_side in (changed, positions):
        gap, se = _mean_and_se(machine_side, flow_side)
        assert gap < 4.0 * se, (case, gap, se)


def test_merged_telegraph_machine_draws_once_per_flip():
    stream = CountingStream(make_rng(63_000))
    machine = make_telegraph_coupler(1.0)((0.0, 1), (0.0, 1), stream)
    flips, velocity = 0, 1
    for _ in range(4000):
        # A step of 1e-3 holds at most one flip (at flip rate 1).
        (_, v), _ = machine.advance(1e-3)
        flips += v != velocity
        velocity = v
    assert flips > 0
    assert stream.counts == {"exponential": flips + 1}


#: Pair machine cases: name -> () -> (spec, x, y, whether the pair can merge).
MACHINE_CASES = {
    "telegraph-pair": lambda: (
        run_tumble(RunTumbleParams(theta=0.1)).model, (0.1, 1), (-0.1, 1), True,
    ),
    "refresh-pair": lambda: (
        build_model("mh", {}).base_model, (0.2,), (0.7,), True,
    ),
    "diagonal-single": lambda: (
        build_model("zigzag", {"n_particles": 1}).system, (1.5, 1), (1.5, 1), False,
    ),
    "zigzag-twin-pair": lambda: (
        build_model("zigzag", {"n_particles": 1}).system, (1.5, 1), (-0.5, -1), False,
    ),
}


def _flat(pair) -> list:
    return [c for state in pair for c in state]


@pytest.mark.parametrize("case", sorted(MACHINE_CASES))
def test_pair_machine_answers_do_not_depend_on_how_its_time_is_cut(case):
    # One advance over [0, 3] against advances in random pieces: the same
    # end pair and merge (positions up to the rounding of the extra moves at
    # the cuts) and the same next draw; once merged, every answer has
    # x == y, and a machine started merged records no merge.
    spec, x, y, can_merge = MACHINE_CASES[case]()
    total, cuts = 3.0, make_rng(66_000)
    merges = 0
    for seed in range(200):
        for start in ((x, y), (x, x)):
            whole_stream, cut_stream = make_rng(seed), make_rng(seed)
            whole = spec.base_coupler(*start, whole_stream)
            end = whole.advance(total)
            machine = spec.base_coupler(*start, cut_stream)
            t = 0.0
            for t_next in [*np.sort(cuts.uniform(0.0, total, size=6)), total]:
                answer = machine.advance(t_next - t)
                t = t_next
                if machine.merge is not None:
                    assert answer[0] == answer[1]
            assert _flat(answer) == pytest.approx(_flat(end), abs=1e-9)
            assert (machine.merge is None) == (whole.merge is None)
            if whole.merge is not None:
                merges += 1
                at, state = whole.merge
                assert (machine.merge[0], *machine.merge[1]) == pytest.approx(
                    (at, *state), abs=1e-9
                )
                assert 0.0 < at <= total
                assert end[0] == end[1]
            assert cut_stream.random() == whole_stream.random()
            if start[0] == start[1]:
                assert whole.merge is None and machine.merge is None
                assert end[0] == end[1]
    assert (merges > 0) == can_merge


#: Run-tumble's telegraph base motion, started at (0, +1) and read at time t:
#: name -> (model, stream, t) -> state.
TELEGRAPH_MOTIONS = {
    "diagonal-machine": lambda model, stream, t: (
        model.base_coupler((0.0, 1), (0.0, 1), stream).advance(t)[0]
    ),
    "base-flow": lambda model, stream, t: telegraph_flow(1.0)((0.0, 1), t, stream),
}


def telegraph_moment_z(motion: str, seed: int, n: int = 16_000, t: float = 0.5):
    """z-scores of the sample means of ``v_t`` and ``x_t`` against the exact
    telegraph moments at flip rate ``c`` started at ``(0, +1)``:
    ``E[v_t] = exp(-2ct)`` and ``E[x_t] = (1 - exp(-2ct)) / (2c)``.

    At ``c = 1``, ``t = 0.5`` and ``n = 16000`` a flip rate of ``0.8c`` moves
    ``E[v_t]`` by 0.081 (about 11 SE) and ``E[x_t]`` by 0.028 (about 12 SE).
    """
    params = RunTumbleParams(theta=0.1)
    c = params.base_rate
    model = run_tumble(params).model
    stream = make_rng(seed)
    ends = np.array([TELEGRAPH_MOTIONS[motion](model, stream, t) for _ in range(n)])
    exact_v = math.exp(-2.0 * c * t)
    exact_x = (1.0 - exact_v) / (2.0 * c)
    return tuple(
        (values.mean() - exact) / (values.std(ddof=1) / math.sqrt(n))
        for values, exact in ((ends[:, 1], exact_v), (ends[:, 0], exact_x))
    )


@pytest.mark.parametrize("motion", sorted(TELEGRAPH_MOTIONS))
def test_telegraph_base_motion_matches_exact_moments(motion):
    z_v, z_x = telegraph_moment_z(motion, seed=71_000)
    assert abs(z_v) < 4.0, (motion, z_v)
    assert abs(z_x) < 4.0, (motion, z_x)


def test_refresh_chain_merging_probability_is_exponential():
    params = MhParams(
        u=lambda x: math.cos(2.0 * math.pi * x),
        w=lambda x, y: 0.25 * math.cos(2.0 * math.pi * (x - y)),
        beta=1.0,
        lam_bar=1.0,
        n_sites=4,
        osc_u=2.0,
        osc_w=0.5,
    )
    bundle = mh_granular(params)
    rate = bundle.refresh_rate  # lam_bar * p_star
    n = 4000
    merged = 0
    for r in range(n):
        _, _, merged_at = coupled_base(
            bundle.base_model, (0.2,), (0.7,), 1.0, make_rng(130_000 + r)
        )
        merged += merged_at is not None
    p = 1.0 - math.exp(-rate)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(merged / n - p) < 3.0 * se


# ---------------------------------------------------------------------------
# merge/split pair simulation


def walk_merge_flags(traj):
    prev = traj.initial_x == traj.initial_y
    for e in traj.events:
        assert e.merged == (e.x == e.y)
        if e.merged and not prev:
            assert e.kind in ("merge", "proposal")
        if prev and not e.merged:
            assert e.kind == "proposal"
        prev = e.merged


def test_merge_split_identical_flows_stay_identical(rng):
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    flow = constant_flow((0.25, 1))
    traj = simulate_merge_split(
        bundle.model, flow, flow, (0.5, 1), (0.5, 1), 6.0, 2.0, rng
    )
    for e in traj.events:
        assert e.merged and e.x == e.y
    assert traj.n_splits == 0


def test_merge_split_records_exact_overlap_for_flat_kernels(rng):
    model = measure_rate_flip_model(ceiling=2.0)
    flow1 = constant_flow((1.0,))   # constant jump rate 1.0
    flow2 = constant_flow((0.5,))   # constant jump rate 0.5
    traj = simulate_merge_split(model, flow1, flow2, (0,), (0,), 10.0, 5.0, rng)
    proposals = [e for e in traj.events if e.kind == "proposal" and e.p is not None]
    assert proposals
    first = proposals[0]
    assert first.p == pytest.approx(1.0 - abs(1.0 - 0.5) / 2.0)


@pytest.mark.parametrize("rates", [(3.0, 1.0), (1.0, 3.0)])
def test_merge_split_rate_above_ceiling_names_the_model(rates):
    model = measure_rate_flip_model(ceiling=2.0)
    flow1, flow2 = (constant_flow((r,)) for r in rates)
    with pytest.raises(RateCeilingError) as err:
        simulate_merge_split(model, flow1, flow2, (0,), (0,), 10.0, 5.0, make_rng(6))
    assert model.name in str(err.value)


def test_merge_split_flag_transitions_are_legal(rng):
    model = measure_rate_flip_model(ceiling=2.0)
    flow1 = constant_flow((1.0,))
    flow2 = constant_flow((0.5,))
    for r in range(50):
        traj = simulate_merge_split(
            model, flow1, flow2, (0,), (0,), 8.0, 2.0, make_rng(150_000 + r)
        )
        walk_merge_flags(traj)


def test_merge_split_marginal_fidelity_run_tumble():
    bundle = run_tumble(RunTumbleParams(theta=0.2))
    model = bundle.model
    flow1 = constant_flow((0.5, 1))
    flow2 = constant_flow((-0.5, -1))
    n = 2000
    coupled_ends = []
    direct_ends = []
    from mfjump.engine import simulate_nonlinear

    for r in range(n):
        traj = simulate_merge_split(
            model, flow1, flow2, (0.0, 1), (0.0, -1), 1.0, 0.5,
            make_rng(160_000 + r), sample_times=(1.0,),
        )
        coupled_ends.append(traj.pair_at(1.0)[0])
        ref = simulate_nonlinear(model, flow1, (0.0, 1), 1.0, make_rng(260_000 + r))
        direct_ends.append(ref.final_state)
    binning = make_binning(("real", "label"), ((-3.0, 3.0), (-1.0, 1.0)), bins=8)
    assert histogram_tv(coupled_ends, direct_ends, binning) < 0.15


class _MergeUniforms:
    """A stream whose ``random()`` is always ``u`` and whose other draws
    come from ``stream``."""

    def __init__(self, u, stream):
        self._u, self._stream = u, stream

    def random(self):
        return self._u

    def __getattr__(self, name):
        return getattr(self._stream, name)


def test_merge_split_merges_a_kernel_short_of_unit_mass_past_its_overlap():
    # The flip toy's one kernel atom weighs 1 - 5e-7, so a merged pair's
    # overlap has raw mass 1 - 5e-7 and no residual on either side.  Every
    # merge uniform lands past that mass; before, the draw failed with an
    # IndexError, and now the pair stays merged.
    model = dataclasses.replace(
        flip_model(2.0, 2.0),
        kernel_atoms=lambda state, measure: [((1 - state[0],), 1.0 - 5e-7)],
    )
    flow = constant_flow((0,))
    traj = simulate_merge_split(
        model, flow, flow, (0,), (0,), 4.0, 1.0, _MergeUniforms(1.0 - 1e-7, make_rng(5)),
    )
    proposals = [e for e in traj.events if e.kind == PROPOSAL]
    assert len(proposals) > 3
    assert all(e.merged and e.p == 1.0 for e in proposals)
    assert traj.n_splits == 0


def test_merge_split_without_events_keeps_samples_and_counters():
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    flow1 = constant_flow((0.3, 1))
    flow2 = constant_flow((-0.3, -1))
    times = (1.0, 2.0, 3.0, 4.0)
    dropped = 0
    for seed in range(20):
        full, lean = (
            simulate_merge_split(
                bundle.model, flow1, flow2, (0.2, 1), (-0.2, 1), 4.0, 1.0,
                make_rng(170_000 + seed), sample_times=times, record_events=record,
            )
            for record in (True, False)
        )
        assert lean.sample_pairs == full.sample_pairs
        assert lean.n_splits == full.n_splits
        assert sorted(lean.sample_pairs) == list(times)
        assert lean.events == ()
        dropped += len(full.events)
    assert dropped > 0


# ---------------------------------------------------------------------------
# coupled particle systems with a mismatch counter


def selection_bundle(n):
    return selection_mutation(
        SelectionParams(
            n_particles=n,
            lam_star=1.0,
            accept_prob=lambda a, b: 0.5,
            base_refresh_rate=1.0,
        )
    )


#: Selection runs on N=16 coordinates with constant copy probability 1/2:
#: name -> (system, x0, y0, t, stream) -> configuration means at ``t``, one
#: per side (a single run has one side, started at ``x0``).
SELECTION_RUNS = {
    "single": lambda system, x0, y0, t, stream: (
        np.mean(
            simulate_system(
                system, x0, t, stream, sample_times=(t,), record_events=False
            ).state_at_sample(t)
        ),
    ),
    "coupled": lambda system, x0, y0, t, stream: tuple(
        np.mean(side)
        for side in simulate_coupled_system(
            system, x0, y0, t, t, system.rate_ceiling, stream,
            sample_times=(t,), record_events=False,
        ).sample_at(t)[:2]
    ),
}


def selection_mean_z(run: str, seed: int, n: int, t: float = 1.0) -> tuple:
    """z-scores of the configuration means of selection runs at time ``t``
    against ``E[m_t] = 1/2 + (m_0 - 1/2) exp(-rt)``, one per side.

    With a constant copy probability, copying leaves the expected mean
    unchanged, so only the refresh at rate ``r`` moves it.  The sides start
    at ``m_0 = 0`` and ``m_0 = 0.95``.  At ``r = 1``, ``t = 1`` and N=16 a
    refresh rate of ``0.8r`` moves ``E[m_t]`` by 0.041 and 0.037: about 16 SE
    for single runs at ``n = 1500`` and 12 SE for each coupled side at
    ``n = 800``.
    """
    n_particles = 16
    system = selection_bundle(n_particles).system
    rate = 1.0  # selection_bundle's base_refresh_rate
    starts = (0.0, 0.95)
    x0, y0 = (tuple((m0,) for _ in range(n_particles)) for m0 in starts)
    stream = make_rng(seed)
    means = np.array([SELECTION_RUNS[run](system, x0, y0, t, stream) for _ in range(n)])
    return tuple(
        (values.mean() - (0.5 + (m0 - 0.5) * math.exp(-rate * t)))
        / (values.std(ddof=1) / math.sqrt(n))
        for values, m0 in zip(means.T, starts)
    )


@pytest.mark.parametrize(
    "run, n", [("single", 1500), ("coupled", 800)], ids=["single", "coupled"]
)
def test_selection_mean_matches_exact_relaxation(run, n):
    for z in selection_mean_z(run, seed=91_000, n=n):
        assert abs(z) < 4.0, (run, z)


def test_coupled_system_equal_starts_stay_equal(rng):
    bundle = selection_bundle(4)
    x0 = tuple((0.1 * (i + 1),) for i in range(4))
    traj = simulate_coupled_system(bundle.system, x0, x0, 3.0, 1.0, 0.0, rng)
    assert traj.j_initial == 0
    for e in traj.events:
        assert e.x == e.y
        assert e.j == 0


def test_coupled_system_rate_violation_error_names_the_coordinate():
    system = flip_system(2, rates=(1.0, 3.0), ceiling=2.0)
    with pytest.raises(RateCeilingError) as err:
        simulate_coupled_system(
            system, ((0,), (0,)), ((0,), (1,)), 50.0, 1.0, 2.0, make_rng(5)
        )
    assert "coordinate 1" in str(err.value)


def test_coupled_system_rejects_negative_theta():
    system = selection_bundle(2).system
    x0 = ((0.1,), (0.2,))
    with pytest.raises(ValueError, match="theta"):
        simulate_coupled_system(system, x0, x0, 1.0, 1.0, -1.0, make_rng(7))


def test_coupled_system_counter_setup_and_invariants():
    bundle = selection_bundle(4)
    x0 = ((0.1,), (0.2,), (0.3,), (0.4,))
    y0 = ((0.1,), (0.95,), (0.3,), (0.85,))  # two mismatched coordinates
    assert dbar1(x0, y0) == 4.0
    n_viol = 0
    for r in range(200):
        traj = simulate_coupled_system(
            bundle.system, x0, y0, 3.0, 1.0, bundle.system.rate_ceiling,
            make_rng(300_000 + r),
        )
        assert traj.j_initial == 2
        prev_j = traj.j_initial
        for e in traj.events:
            if 2 * e.j < dbar1(e.x, e.y):
                n_viol += 1
            assert e.j >= prev_j
            prev_j = e.j
    assert n_viol == 0


def test_coupled_system_expected_counter_growth():
    bundle = selection_bundle(4)
    theta = bundle.system.rate_ceiling
    x0 = ((0.1,), (0.2,), (0.3,), (0.4,))
    y0 = ((0.1,), (0.2,), (0.7,), (0.8,))
    n = 1500
    j_end = np.empty(n)
    for r in range(n):
        traj = simulate_coupled_system(
            bundle.system, x0, y0, 2.0, 1.0, theta, make_rng(330_000 + r),
            sample_times=(2.0,),
        )
        j_end[r] = traj.j_at(2.0)
    bound = math.exp(theta * 2.0) * 2.0
    se = j_end.std(ddof=1) / math.sqrt(n)
    assert j_end.mean() <= bound + 3.0 * se


def test_coupled_system_without_events_keeps_samples_and_counter():
    bundle = selection_bundle(4)
    x0 = ((0.1,), (0.2,), (0.3,), (0.4,))
    y0 = ((0.1,), (0.2,), (0.7,), (0.8,))
    theta = bundle.system.rate_ceiling
    dropped = 0
    for seed in range(10):
        full, lean = (
            simulate_coupled_system(
                bundle.system, x0, y0, 2.0, 1.0, theta, make_rng(340_000 + seed),
                sample_times=(1.0, 2.0), record_events=record,
            )
            for record in (True, False)
        )
        assert lean.samples == full.samples
        assert lean.j_initial == full.j_initial
        assert sorted(lean.samples) == [1.0, 2.0]
        assert lean.events == ()
        assert lean.j_at(2.0) == full.events[-1].j
        dropped += len(full.events)
    assert dropped > 0


# ---------------------------------------------------------------------------
# the sparse decomposition at merged coordinates


def _matching_of(x, y) -> _Matching:
    matching = _Matching(len(x))
    for k in range(len(x)):
        matching.assign(k, x[k] == y[k])
    return matching


def _merged_overlap_law(nu0) -> dict:
    """Exact law of ``nu0.pick(v)`` for ``v ~ U[0, p)``.

    The cumulative masses of the overlap's layout (stay atom, matched
    donors' pair atoms, common atoms) cut ``[0, p)`` into intervals on which
    ``pick`` is constant, so ``pick`` is read at each interval's midpoint.
    """
    cuts = [nu0.stay_mass]
    for k, donor in enumerate(nu0.donors):
        acc = nu0.stay_mass + k * nu0.share
        for _, w in nu0.pair_atoms(nu0.stay, nu0.x[donor]):
            acc += w * nu0.share
            cuts.append(acc)
    acc = nu0.shared
    for _, w in nu0.common:
        acc += w
        cuts.append(acc)
    edges = sorted({0.0, nu0.p} | {min(max(c, 0.0), nu0.p) for c in cuts})
    law: dict = {}
    for lo, hi in zip(edges, edges[1:]):
        if hi > lo:
            state = nu0.pick((lo + hi) / 2.0)
            law[state] = law.get(state, 0.0) + (hi - lo) / nu0.p
    return law


def _mixed_atoms(spec, at: tuple, stay, coordinate=None) -> list:
    """Atoms of one thinned proposal from ``stay``, built as a list: the
    spec's kernel atoms at ``at`` weighted ``w * share``, plus the stay-put
    remainder.  The reference for :func:`_mixed_weights`."""
    _, share = _thinning(spec, at, coordinate)
    atoms = [(s, w * share) for s, w in spec.kernel_atoms(*at)]
    atoms.append((stay, 1.0 - share))
    return atoms


def _full_mixed_atoms(system, i, config) -> list:
    """The mixed atoms (:func:`_mixed_atoms`) of coordinate ``i`` of a
    system with ``pair_atoms``, read from its whole kernel: the pair atoms
    of all ``N`` donors added up by :func:`_weigh`."""

    def kernel_atoms(i, config):
        weights = _weigh(map(system.pair_atoms, repeat(config[i]), config), 1.0 / len(config))
        return tuple(weights.items())

    by_atoms = dataclasses.replace(system, pair_atoms=None, kernel_atoms=kernel_atoms)
    return _mixed_atoms(by_atoms, (i, config), config[i], i)


#: Copy probabilities of the selection systems below: constant and not.
ACCEPT_PROBS = {
    "constant": lambda a, b: 0.5,
    "distance": lambda a, b: 0.2 + 0.6 * abs(a[0] - b[0]),
}


#: Rates of the selection systems below: saturated, and one that reads the
#: configuration, so the two sides' rates differ where their means do.
RATES = {
    "saturated": None,
    "by-side": lambda i, config: 0.5 + sum(c[0] for c in config) / len(config),
}


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 7),
    layout=st.sampled_from(["mixed", "all-matched", "all-mismatched"]),
    own=st.sampled_from(["merged", "mismatched"]),
    accept=st.sampled_from(sorted(ACCEPT_PROBS)),
    rate=st.sampled_from(sorted(RATES)),
    ceiling=st.sampled_from([1.0, 1.6]),
    data=st.data(),
)
def test_merged_parts_match_the_full_decomposition(
    n, layout, own, accept, rate, ceiling, data
):
    # The parts a coupled proposal draws from against the maximal coupling
    # of the full mixed atoms.  At a merged coordinate (the sparse parts
    # where the rates agree, else one pairwise pass per side) they are that
    # coupling.  At a mismatched one they couple the one-donor laws of the
    # donor the stream hands out, so every donor is enumerated: averaged
    # over the donors each side's law is its mixed kernel, and the merge
    # mass is no more than the maximal coupling's.  States come from five
    # values, so states coincide across sides (x_k == y_l for mismatched k
    # != l) and within a side.  A ceiling above the rate leaves stay-put
    # mass, and n runs over sizes that are not powers of two.
    values = [0.1, 0.2, 0.3, 0.4, 0.5]
    system = selection_mutation(
        SelectionParams(n_particles=n, accept_prob=ACCEPT_PROBS[accept])
    ).system
    system = dataclasses.replace(
        system, rate=RATES[rate] or system.rate, rate_ceiling=ceiling
    )
    x = tuple((data.draw(st.sampled_from(values)),) for _ in range(n))
    i = data.draw(st.integers(0, n - 1))
    y = []
    for k in range(n):
        matched = (k == i and own == "merged") or (k != i and (
            layout == "all-matched" or (layout == "mixed" and data.draw(st.booleans()))
        ))
        other = [v for v in values if (v,) != x[k]]
        y.append(x[k] if matched else (data.draw(st.sampled_from(other)),))
    y = tuple(y)

    full = _pair_parts(_full_mixed_atoms(system, i, x), _full_mixed_atoms(system, i, y))
    donors = range(n) if own == "mismatched" else (None,)
    merge_mass, drawn = 0.0, ({}, {})
    for j in donors:
        stream = None if j is None else _FixedUniforms(donor=j)
        parts = _proposal_parts(system, i, x, y, _matching_of(x, y), stream)
        p = parts.p
        merge_mass += p / len(donors)
        residuals = parts.residuals()
        if isinstance(parts, _MergedOverlap):
            law0 = _merged_overlap_law(parts)
        else:
            law0 = {state: w / p for state, w in parts.common}
        for side, residual in zip(drawn, residuals):
            for state, w in law0.items():
                side[state] = side.get(state, 0.0) + p * w / len(donors)
            for state, w in residual:
                side[state] = side.get(state, 0.0) + (1.0 - p) * w / len(donors)
        assert not {s for s, _ in residuals[0]} & {s for s, _ in residuals[1]}
    if own == "merged":
        assert abs(merge_mass - full.p) <= 1e-12
    assert merge_mass <= full.p + 1e-12
    for config, side in zip((x, y), drawn):
        mixed = _weigh((_full_mixed_atoms(system, i, config),), 1.0)
        for state in set(mixed) | set(side):
            assert abs(side.get(state, 0.0) - mixed.get(state, 0.0)) <= 1e-12


def test_merged_parts_apply_only_to_merged_coordinates_with_equal_rates():
    def merged(system, i, x, y):
        parts = _proposal_parts(system, i, x, y, _matching_of(x, y), make_rng(0))
        return isinstance(parts, _MergedOverlap)

    system = selection_bundle(3).system
    x = ((0.1,), (0.5,), (0.9,))
    y = ((0.1,), (0.4,), (0.9,))
    assert merged(system, 0, x, y)
    assert not merged(system, 1, x, y)  # not merged
    by_side = dataclasses.replace(system, rate=lambda i, config: 0.5 + config[1][0])
    assert not merged(by_side, 0, x, y)  # rates differ
    flips = flip_system(3)
    x = y = ((0,), (1,), (0,))
    assert not merged(flips, 0, x, y)  # no pair form


class _FixedUniforms:
    """A stream whose ``random()`` returns the given uniforms in turn and
    whose ``integers(n)`` returns the fixed ``donor``."""

    def __init__(self, *uniforms, donor=0):
        self._uniforms = iter(uniforms)
        self._donor = donor

    def random(self):
        return next(self._uniforms)

    def integers(self, n):
        return self._donor


def test_merged_draw_follows_the_full_maximal_coupling():
    # A merged coordinate with mismatched donors whose states coincide
    # across sides (x_3 == y_4, x_4 == y_3), so the mismatched donors'
    # overlap carries mass, and a ceiling above the rate, so there is a stay
    # atom.  Each draw builds fresh parts, as a coupled run does.
    system = selection_mutation(
        SelectionParams(n_particles=6, accept_prob=ACCEPT_PROBS["distance"])
    ).system
    system = dataclasses.replace(system, rate_ceiling=1.6)
    x = ((0.1,), (0.3,), (0.5,), (0.2,), (0.4,), (0.5,))
    y = ((0.1,), (0.3,), (0.5,), (0.4,), (0.2,), (0.1,))
    i = 0
    matching = _matching_of(x, y)
    parts = _proposal_parts(system, i, x, y, matching, None)
    assert isinstance(parts, _MergedOverlap)
    full = _pair_parts(_full_mixed_atoms(system, i, x), _full_mixed_atoms(system, i, y))
    p = full.p
    assert parts.stay_mass > 0.0 and p - parts.shared > 0.05
    n = 40_000
    stream = make_rng(41)
    merged, sides = collections.Counter(), (collections.Counter(), collections.Counter())
    for _ in range(n):
        xi, yi, v = _proposal_parts(system, i, x, y, matching, stream).draw(stream)
        assert (xi == yi) == (v < p)
        if xi == yi:
            merged[xi] += 1
        sides[0][xi] += 1
        sides[1][yi] += 1

    def assert_close(count, q):
        assert abs(count / n - q) <= 4.0 * math.sqrt(q * (1.0 - q) / n) + 1e-12

    assert_close(sum(merged.values()), p)
    common = dict(full.common)
    for state in set(common) | set(merged):
        assert_close(merged[state], common.get(state, 0.0))
    for config, counts in zip((x, y), sides):
        mixed = _weigh((_full_mixed_atoms(system, i, config),), 1.0)
        for state in set(mixed) | set(counts):
            assert_close(counts[state], mixed.get(state, 0.0))


def test_merged_draw_below_the_matched_mass_reads_one_donor():
    # At the saturated rate there is no stay atom and each of the 6 matched
    # donors holds a slot of mass 1/8, so a merge uniform of 0.1 lands in
    # the first slot and the draw reads that donor's pair atoms only.
    # Building the mismatched donors' parts would read both of them on each
    # side.
    base = selection_bundle(8).system
    calls = [0]

    def counted(own, donor):
        calls[0] += 1
        return base.pair_atoms(own, donor)

    system = dataclasses.replace(base, pair_atoms=counted)
    x = tuple(((k + 0.5) / 8,) for k in range(8))
    y = tuple((1.0 - c[0] / 2.0,) if k in (3, 6) else c for k, c in enumerate(x))
    parts = _proposal_parts(system, 0, x, y, _matching_of(x, y), None)
    assert isinstance(parts, _MergedOverlap)
    xi, yi, v = parts.draw(_FixedUniforms(0.1, 0.5))
    assert (xi, yi, v) == (x[0], x[0], 0.1)
    assert calls[0] == 1


# ---------------------------------------------------------------------------
# the event queue for pairs against the eager reference loop


def eager_simulate_coupled_system(system, x0, y0, horizon, t0, theta, stream,
                                  sample_times):
    """Reference loop: every pair machine is advanced at every event.

    This is ``simulate_coupled_system`` before it became event-driven, with
    its proposal step: returns ``{t: (x, y, j)}`` at the sample times.
    """
    n = system.n_particles
    xs = [tuple(c) for c in x0]
    ys = [tuple(c) for c in y0]
    j = dbar1(tuple(xs), tuple(ys)) / 2.0
    matching = _Matching(n)

    def build(k):
        return system.base_coupler(xs[k], ys[k], stream)

    def match_all():
        for k in range(n):
            matching.assign(k, xs[k] == ys[k])

    machines = [build(k) for k in range(n)]
    match_all()
    samples = {}
    t = 0.0
    total_rate = n * system.rate_ceiling
    for t_event, kind in clock(horizon, total_rate, stream, sample_times, window=t0, name=system.name):
        advance_every_machine(machines, t_event - t, xs, ys)
        match_all()
        t = t_event
        if kind == SAMPLE:
            samples[t] = (tuple(xs), tuple(ys), j)
            continue
        if kind == WINDOW:
            machines = [build(k) for k in range(n)]
            continue
        i = int(stream.integers(n))
        equal_before = xs[i] == ys[i]
        parts = _proposal_parts(system, i, tuple(xs), tuple(ys), matching, stream)
        xs[i], ys[i], v = parts.draw(stream)
        if equal_before and v >= 1.0 - theta * j / total_rate:
            j += 1.0
        machines[i] = build(i)
        matching.assign(i, xs[i] == ys[i])
    return samples


def _half_matched(x0, other):
    return tuple(c if k % 2 else other(c) for k, c in enumerate(x0))


def _coupled_selection():
    system = build_model(
        "selection", {"n_particles": 16, "base_refresh_rate": 2.0}
    ).system
    x0 = tuple(((7 * k) % 16 / 16,) for k in range(16))
    return system, x0, _half_matched(x0, lambda c: (1.0 - c[0] / 2.0,))


def _coupled_meanfield_rt(n):
    system = meanfield_system(run_tumble(RunTumbleParams(theta=0.1)), n)
    x0 = tuple((4.0 * (k + 0.5) / n - 2.0, 1 if k % 2 else -1) for k in range(n))
    return system, x0, _half_matched(x0, lambda c: (c[0] + 0.3, -c[1]))


def _coupled_zigzag():
    system = build_model("zigzag", {"n_particles": 16}).system
    x0 = tuple(((k - 8) / 4.0, 1 if k % 3 else -1) for k in range(16))
    return system, x0, _half_matched(x0, lambda c: (c[0] / 2.0, c[1]))


#: name -> () -> (system, x0, y0): refresh pairs that stand still, drifting
#: telegraph pairs, and synchronized zigzag pairs, which have no clock.
COUPLED_CASES = {
    "selection": _coupled_selection,
    "meanfield-rt": lambda: _coupled_meanfield_rt(16),
    "zigzag": _coupled_zigzag,
}


@pytest.mark.parametrize("name", sorted(COUPLED_CASES))
def test_pair_queue_matches_eager_loop_draw_for_draw(name):
    system, x0, y0 = COUPLED_CASES[name]()
    horizon, t0 = 2.0, 0.7
    times = (0.5, 1.0, horizon)
    theta = system.rate_ceiling
    merged_splits = 0
    for seed in range(20):
        a_stream, b_stream = make_rng(8_000 + seed), make_rng(8_000 + seed)
        a = simulate_coupled_system(
            system, x0, y0, horizon, t0, theta, a_stream, sample_times=times,
            record_events=False,
        ).samples
        b = eager_simulate_coupled_system(
            system, x0, y0, horizon, t0, theta, b_stream, times
        )
        assert sorted(a) == sorted(b) == list(times)
        for t in times:
            assert_configs_close(a[t][0], b[t][0])
            assert_configs_close(a[t][1], b[t][1])
            assert a[t][2] == b[t][2]
        merged_splits += a[horizon][2] > dbar1(x0, y0) / 2.0
        assert a_stream.random() == b_stream.random()
    assert merged_splits > 0  # the counter moved, so proposals hit merged pairs


def _one_coordinate_system(model, measure) -> SystemSpec:
    """``model`` as a system of one coordinate whose rate and atoms read the
    fixed ``measure``."""
    return SystemSpec(
        n_particles=1,
        rate=lambda i, config: model.rate(config[i], measure),
        rate_ceiling=model.rate_ceiling,
        coordinate_layout=model.state_layout,
        coordinate_box=model.state_box,
        name=model.name,
        kernel_atoms=lambda i, config: model.kernel_atoms(config[i], measure),
        base_coupler=model.base_coupler,
    )


def test_one_coordinate_coupled_system_is_merge_split_draw_for_draw():
    # Every machine draws from the run's stream, so a coupled system of one
    # coordinate reads what simulate_merge_split reads under the constant
    # flow of its measure: stream.integers(1) draws nothing, and the pair
    # machine restarts at the same proposals and window boundaries.  Its
    # lazily read side may differ from the machine's state in the last bits.
    # Sample times fall inside windows and on their boundaries.
    model = run_tumble(RunTumbleParams(theta=0.5)).model
    flow = constant_flow((0.3, 1))
    system = _one_coordinate_system(model, flow.at(0.0))
    horizon, t0 = 3.0, 0.5
    times = (0.3, 0.5, 1.0, 1.7, 2.5, 3.0)
    starts = (((0.2, 1), (-0.2, 1)), ((0.0, 1), (0.1, -1)), ((0.4, -1), (0.4, -1)))
    merged = collections.Counter()
    for seed in range(240):
        x0, y0 = starts[seed % len(starts)]
        a_stream, b_stream = make_rng(30_000 + seed), make_rng(30_000 + seed)
        a = simulate_coupled_system(
            system, (x0,), (y0,), horizon, t0, model.rate_ceiling, a_stream,
            sample_times=times, record_events=False,
        ).samples
        b = simulate_merge_split(
            model, flow, flow, x0, y0, horizon, t0, b_stream,
            sample_times=times, record_events=False,
        ).sample_pairs
        assert sorted(a) == sorted(b) == list(times)
        for t in times:
            (ax,), (ay,), _ = a[t]
            bx, by = b[t]
            assert (ax == ay) == (bx == by)
            merged[bx == by] += 1
            for lazy, machine in ((ax, bx), (ay, by)):
                assert lazy[1] == machine[1]
                assert abs(lazy[0] - machine[0]) <= 1e-12
        assert a_stream.random() == b_stream.random()
    assert min(merged.values()) > 100  # both merged and unmerged pairs were compared


def test_coupled_meanfield_run_advances_only_due_pairs(monkeypatch):
    # An eager loop advances all N pairs at every event, and a rate that
    # reads a tuple of N states builds its empirical measure from them.  Now
    # a pair is advanced only at a base event (each drew an exponential when
    # it was scheduled), plus at most once per proposal, and all N at most
    # once per sample, window and end; each side's mean comes from running
    # sums.
    n = 256
    system = meanfield_system(run_tumble(RunTumbleParams(theta=0.1)), n)
    base = system.base_coupler
    advances = [0]

    class Counted:
        def __init__(self, machine):
            self._machine = machine

        def advance(self, dt):
            advances[0] += 1
            return self._machine.advance(dt)

        def __getattr__(self, attr):
            return getattr(self._machine, attr)

    def coupler(x, y, stream):
        return Counted(base(x, y, stream))

    built = []
    from_states = EmpiricalMeasure.from_states.__func__

    def counted_from_states(cls, states):
        states = tuple(states)
        built.append(len(states))
        return from_states(cls, states)

    monkeypatch.setattr(EmpiricalMeasure, "from_states", classmethod(counted_from_states))
    _, x0, y0 = _coupled_meanfield_rt(n)
    stream = CountingStream(make_rng(17))
    horizon, t0, samples = 0.5, 0.25, (0.25, 0.5)
    simulate_coupled_system(
        dataclasses.replace(system, base_coupler=coupler), x0, y0, horizon, t0,
        system.rate_ceiling, stream, sample_times=samples, record_events=False,
    )
    # The pairs draw from the run's stream, so it counts their exponentials.
    proposals = stream.counts["integers"]
    assert proposals > 100
    exponentials = stream.counts["exponential"]
    windows = int(horizon / t0)
    assert advances[0] <= exponentials + proposals + n * (len(samples) + windows + 1)
    assert [size for size in built if size >= n] == []


def _couple_sel_layout(seed, n=256):
    """Selection on the benchmark's ``couple-sel`` layout: ``n`` uniform
    coordinates, a random half of them matched."""
    rng = np.random.default_rng(seed)
    system = build_model("selection", {"n_particles": n}).system
    x0 = tuple((float(v),) for v in rng.random(n))
    matched = set(rng.permutation(n)[: n // 2].tolist())
    y0 = tuple(c if k in matched else (float(rng.random()),) for k, c in enumerate(x0))
    return system, x0, y0


class _EagerParts:
    """Parts with both residuals built before the draw, drawn by the one
    maximal-coupling draw: ``merged(v)`` is the merged state at position
    ``v < p`` of the overlap's mass."""

    draw = coupling._Overlap.draw

    def __init__(self, p, merged, nu1, nu2):
        self.p, self._merged, self._residuals = p, merged, (nu1, nu2)

    def pick(self, v):
        return self._merged(v) if v < self.p else None

    def residuals(self):
        return self._residuals


def _donor_mixed_atoms(system, i, config, j) -> list:
    """The mixed atoms (:func:`_mixed_atoms`) of coordinate ``i`` of a
    system with ``pair_atoms`` that reads donor ``j`` alone."""

    def kernel_atoms(i, config):
        return system.pair_atoms(config[i], config[j])

    by_atoms = dataclasses.replace(system, pair_atoms=None, kernel_atoms=kernel_atoms)
    return _mixed_atoms(by_atoms, (i, config), config[i], i)


def _eager_parts(system, i, x, y, matching, stream):
    """A proposal's parts as built before the lazy passes and the residuals
    on demand: the sparse parts at a merged coordinate whose rates agree,
    with the mismatched donors' parts built before the draw; at a
    mismatched coordinate the maximal coupling of the two one-donor mixed
    atoms of a donor drawn from ``stream``; else that of the full mixed
    atoms.  The normalized overlap is read at quantile ``v / p``, and both
    residuals are built at every proposal."""
    if x[i] != y[i]:
        j = int(stream.integers(len(x)))
        atoms = [_donor_mixed_atoms(system, i, config, j) for config in (x, y)]
    else:
        parts = _proposal_parts(system, i, x, y, matching, None)
        if isinstance(parts, _MergedOverlap):
            return _EagerParts(parts.p, parts.pick, *parts.residuals())
        atoms = [_full_mixed_atoms(system, i, config) for config in (x, y)]
    full = _pair_parts(*atoms)
    p = full.p
    nu0 = tuple((k, w / p) for k, w in full.common)
    return _EagerParts(p, lambda v: _pick(nu0, v / p), *full.residuals())


def test_pairwise_pass_matches_the_full_decomposition_draw_for_draw(monkeypatch):
    # The lazy parts against an eager reference, which draws the same donor
    # at a mismatched coordinate and builds every part before the draw.
    horizon, times = 1.0, (0.5, 1.0)
    runs = {}
    for build in (_proposal_parts, _eager_parts):
        monkeypatch.setattr(coupling, "_proposal_parts", build)
        for seed in range(10):
            system, x0, y0 = _couple_sel_layout(seed)
            stream = make_rng(21_000 + seed)
            traj = simulate_coupled_system(
                system, x0, y0, horizon, 1.0, system.rate_ceiling, stream,
                sample_times=times, record_events=False,
            )
            runs.setdefault(seed, []).append(
                repr((sorted(traj.samples.items()), stream.random()))
            )
    for seed, (lazy, eager) in runs.items():
        assert lazy == eager, seed


def test_coupled_selection_builds_only_the_parts_it_draws(monkeypatch):
    # The raw remainders come out of the overlap's one sorted pass, and a
    # draw normalizes the two residuals only when v >= p.
    system, x0, y0 = _couple_sel_layout(3)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    maximal_draw = coupling._Overlap.draw

    def draw(parts, stream):
        x, y, v = maximal_draw(parts, stream)
        calls["proposals"] += 1
        calls["residuals drawn"] += v >= parts.p
        calls["p < 1"] += parts.p < 1.0
        return x, y, v

    monkeypatch.setattr(coupling, "_normalized", counted("_normalized", coupling._normalized))
    monkeypatch.setattr(coupling._Overlap, "draw", draw)
    simulate_coupled_system(
        system, x0, y0, 1.0, 1.0, system.rate_ceiling, make_rng(31),
        sample_times=(1.0,), record_events=False,
    )
    assert calls["proposals"] > 100
    assert system.kernel_atoms is None
    assert calls["_normalized"] <= 2 * calls["residuals drawn"]
    assert calls["residuals drawn"] < calls["p < 1"]


def test_a_mismatched_proposal_reads_two_pair_atoms_answers():
    # One answer per side, of the one donor both sides draw, where the
    # maximal coupling of the two full mixed kernels read all 2N.
    base, x, y = _couple_sel_layout(5)
    calls = [0]

    def counted(own, donor):
        calls[0] += 1
        return base.pair_atoms(own, donor)

    system = dataclasses.replace(base, pair_atoms=counted)
    matching, stream = _matching_of(x, y), make_rng(5)
    mismatched = [i for i in range(len(x)) if x[i] != y[i]]
    assert len(mismatched) == len(x) // 2
    for i in mismatched:
        calls[0] = 0
        _proposal_parts(system, i, x, y, matching, stream).draw(stream)
        assert calls[0] == 2


def _short_pair_atoms(own, donor):
    return ((donor, 0.4), (own, 0.4))


@pytest.mark.parametrize("start", ["equal", "mismatched"])
def test_pair_atoms_mass_is_checked_on_every_path(start):
    # The pair atoms sum to 0.8.  From equal starts every proposal draws the
    # overlap from a matched donor's atoms; from mismatched ones the sparse
    # pass reads the mismatched donors' and a mismatched coordinate the one
    # donor it draws.
    system = dataclasses.replace(
        selection_bundle(4).system, pair_atoms=_short_pair_atoms
    )
    x0 = ((0.1,), (0.2,), (0.3,), (0.4,))
    y0 = x0 if start == "equal" else ((0.1,), (0.95,), (0.3,), (0.85,))
    short = "atom weights sum to .*, expected 1"
    for seed in range(5):
        with pytest.raises(ValueError, match=short):
            simulate_coupled_system(system, x0, y0, 2.0, 1.0, 1.0, make_rng(seed))
    if start == "mismatched":
        # Merged at 0 and 2, where a merge uniform of 0.0 reads a matched
        # donor's atoms and one of 0.999 the mismatched donors'; mismatched
        # at 1 and 3, where each donor the stream hands out is checked
        # either way.
        for i in range(4):
            for j in range(4):
                for v in (0.0, 0.999):
                    stream = _FixedUniforms(v, 0.5, donor=j)
                    with pytest.raises(ValueError, match=short):
                        _proposal_parts(
                            system, i, x0, y0, _matching_of(x0, y0), stream
                        ).draw(stream)


def _uneven_pair_atoms(own, donor):
    return ((own, 1.2 if donor[0] < 0.5 else 0.8),)


@pytest.mark.parametrize("run", ["single", "equal", "mismatched"])
def test_each_pair_atoms_answer_must_weigh_one(run):
    # Over the four donors below the answers weigh 1.2, 1.2, 0.8 and 0.8:
    # their sum is right, so only a check of each answer sees them.  From
    # mismatched starts the first answer read is that of the donor the
    # stream draws at the first mismatched proposal, so either wrong mass
    # may be the one refused.
    system = selection_mutation(
        SelectionParams(n_particles=4, lam_star=1.0, accept_prob=lambda a, b: 0.5,
                        base_refresh_rate=0.0)
    ).system
    system = dataclasses.replace(system, pair_atoms=_uneven_pair_atoms)
    x0 = ((0.1,), (0.2,), (0.7,), (0.8,))
    y0 = {"equal": x0, "mismatched": ((0.15,), (0.25,), (0.75,), (0.85,))}.get(run)
    mass = r"(1\.2|0\.8)" if run == "mismatched" else r"1\.2"
    with pytest.raises(ValueError, match=f"^atom weights sum to {mass}, expected 1$"):
        if y0 is None:
            simulate_system(system, x0, 2.0, make_rng(1))
        else:
            simulate_coupled_system(system, x0, y0, 2.0, 1.0, 1.0, make_rng(1))


def _list_pair_atoms(own, donor):
    return ((list(donor), 0.5), (list(own), 0.5))


def test_coupled_run_takes_list_states_in_pair_atoms_answers():
    # Before, the mismatched start failed with ``unhashable type: 'list'``.
    system = selection_mutation(
        SelectionParams(n_particles=4, lam_star=1.0, accept_prob=lambda a, b: 0.5,
                        base_refresh_rate=0.0)
    ).system
    x0 = ((0.1,), (0.2,), (0.7,), (0.8,))
    y0 = ((0.15,), (0.25,), (0.75,), (0.85,))
    tuples, lists = (
        simulate_coupled_system(spec, x0, y0, 2.0, 1.0, 1.0, make_rng(1),
                                sample_times=(1.0, 2.0)).samples
        for spec in (system, dataclasses.replace(system, pair_atoms=_list_pair_atoms))
    )
    assert lists == tuples


def test_coupled_runs_take_list_states_in_kernel_atoms_answers():
    # A kernel_atoms answer keys its states as pair_atoms answers do: a list
    # state draws what its tuple draws.
    model = run_tumble(RunTumbleParams(theta=0.5)).model
    listed = dataclasses.replace(
        model,
        kernel_atoms=lambda state, measure: [
            (list(s), w) for s, w in model.kernel_atoms(state, measure)
        ],
    )
    flow1, flow2 = constant_flow((0.3, 1)), constant_flow((-0.3, -1))
    pairs = [
        simulate_merge_split(
            spec, flow1, flow2, (0.2, 1), (-0.2, 1), 4.0, 1.0, make_rng(3),
            sample_times=(1.0, 2.0, 3.0, 4.0),
        )
        for spec in (model, listed)
    ]
    assert pairs[1].events == pairs[0].events
    assert pairs[1].sample_pairs == pairs[0].sample_pairs
    assert any(e.kind == PROPOSAL for e in pairs[0].events)
    x0 = [((k - 2.5) / 2.0, 1 if k % 2 else -1) for k in range(6)]
    y0 = [x0[k] if k % 3 else (x0[k][0] + 0.3, -x0[k][1]) for k in range(6)]
    systems = [
        simulate_coupled_system(
            meanfield_system(spec, 6), x0, y0, 2.0, 1.0, 1.0, make_rng(4),
            sample_times=(1.0, 2.0),
        )
        for spec in (model, listed)
    ]
    assert systems[1].events == systems[0].events
    assert systems[1].samples == systems[0].samples
    assert systems[0].events


@pytest.mark.parametrize("start", ["equal", "mismatched"])
def test_pairwise_rate_above_the_ceiling_fails_naming_the_coordinate(start):
    # From equal starts every proposal takes the merged path; from starts
    # that differ at every coordinate, the donor-synchronous one, which
    # reads both rates before it draws a donor.
    system = dataclasses.replace(selection_bundle(4).system, rate=lambda i, config: 1.5)
    x0 = ((0.1,), (0.2,), (0.3,), (0.4,))
    y0 = x0 if start == "equal" else ((0.6,), (0.7,), (0.8,), (0.9,))
    over = r"selection: coordinate {}: rate 1.5 exceeds ceiling 1.0"
    for seed in range(3):
        with pytest.raises(RateCeilingError, match=over.format(r"\d")):
            simulate_coupled_system(system, x0, y0, 2.0, 1.0, 1.0, make_rng(seed))
    for i in range(4):
        with pytest.raises(RateCeilingError, match=over.format(i)):
            _proposal_parts(system, i, x0, y0, _matching_of(x0, y0), None)


class _StreamOps(CountingStream):
    """A :class:`CountingStream` that also counts the children it spawns and
    the deep copies made of it, and hands out streams sharing its counts."""

    def __init__(self, stream, counts):
        super().__init__(stream)
        self.counts = counts

    def spawn(self, n):
        self.counts["spawned"] += n
        return [_StreamOps(child, self.counts) for child in self._stream.spawn(n)]

    def __deepcopy__(self, memo):
        self.counts["copied"] += 1
        return _StreamOps(copy.deepcopy(self._stream), self.counts)


def test_coupled_zigzag_copies_streams_per_start_and_advances_due_pairs():
    # Zigzag's base coupler is a twin coupler, so an unmerged pair is a twin
    # pair: one child spawned from the run's stream and one copy of it per
    # start, two machines.  A merged pair is one machine and copies nothing.
    # Each advance of a pair is due to an event of one side, and each event
    # follows the exponential its chunk drew.
    system, x0, y0 = _coupled_zigzag()
    base = system.base_coupler.machine
    starts, advances = [0], [0]

    def machine(c, stream):
        starts[0] += 1
        return CountedMachine(base(c, stream), advances)

    counts = collections.Counter()
    copies = 0
    for seed in range(20):
        counts.clear()
        starts[0] = advances[0] = 0
        simulate_coupled_system(
            dataclasses.replace(system, base_coupler=TwinCoupler(machine)), x0, y0, 2.0, 0.7,
            system.rate_ceiling, _StreamOps(make_rng(8_000 + seed), counts),
            sample_times=(0.5, 1.0, 2.0), record_events=False,
        )
        # The run spawns only the twin pairs' children.
        assert counts["spawned"] + counts["copied"] <= starts[0]
        assert advances[0] <= 2 * counts["exponential"]
        copies += counts["copied"]
    assert copies > 0


def test_twin_pair_side_in_small_steps_matches_a_single_machine():
    # The y side of an unmerged twin pair, advanced in 200 steps, against a
    # single machine advanced once: mean z, share of v = +1 and mean z^2.
    system = build_model("zigzag", {"n_particles": 1, "w_amp": 0.0}).system
    x, y = (1.5, 1), (-0.5, -1)
    n, steps, total = 3000, 200, 2.0
    pair_stream, single_stream = make_rng(64_000), make_rng(65_000)
    pair_ends, single_ends = [], []
    for _ in range(n):
        pair = system.base_coupler(x, y, pair_stream)
        for _ in range(steps):
            _, end = pair.advance(total / steps)
        pair_ends.append(end)
        single_ends.append(system.base_coupler(y, y, single_stream).advance(total)[0])
    for stat in (lambda c: c[0], lambda c: c[1] > 0, lambda c: c[0] ** 2):
        gap, se = _mean_and_se([stat(c) for c in pair_ends], [stat(c) for c in single_ends])
        assert gap < 4.0 * se, (gap, se)


#: Simulator name -> ceiling -> run; each runs a flip toy under ``ceiling``.
CEILING_RUNS = {
    "simulate_nonlinear": lambda c: simulate_nonlinear(
        flip_model(1.0, c), constant_flow((0,)), (0,), 5.0, make_rng(1)
    ),
    "simulate_nonlinear-local-bound": lambda c: simulate_nonlinear(
        dataclasses.replace(
            flip_model(1.0, math.inf), local_bound=lambda state, dt, measures: c
        ),
        constant_flow((0,)), (0,), 5.0, make_rng(1),
    ),
    "simulate_system": lambda c: simulate_system(
        flip_system(3, rates=(1.0, 1.0, 1.0), ceiling=c), ((0,),) * 3, 5.0, make_rng(1)
    ),
    "simulate_merge_split": lambda c: simulate_merge_split(
        flip_model(1.0, c), constant_flow((0,)), constant_flow((0,)), (0,), (1,),
        5.0, 1.0, make_rng(1),
    ),
    "simulate_coupled_system": lambda c: simulate_coupled_system(
        flip_system(3, rates=(1.0, 1.0, 1.0), ceiling=c), ((0,),) * 3,
        ((1,),) * 3, 5.0, 1.0, 1.0, make_rng(1),
    ),
}


@pytest.mark.parametrize("ceiling", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("simulator", sorted(CEILING_RUNS))
def test_every_simulator_rejects_a_ceiling_that_is_not_finite(simulator, ceiling):
    with pytest.raises(ValueError, match="is not finite and nonnegative"):
        CEILING_RUNS[simulator](ceiling)


class _NoDraws:
    """A stream that fails on any draw (or spawn): a run refused at the call
    reads nothing from it."""

    def __getattr__(self, name):
        raise AssertionError(f"the run read {name} from its stream")


#: Simulator name -> (horizon, sample_times) -> run of the flip toy of
#: CEILING_RUNS under a valid ceiling, on a stream that fails on any draw.
TIME_RUNS = {
    "simulate_nonlinear": lambda h, times: simulate_nonlinear(
        flip_model(1.0, 2.0), constant_flow((0,)), (0,), h, _NoDraws(), sample_times=times
    ),
    "simulate_nonlinear-local-bound": lambda h, times: simulate_nonlinear(
        dataclasses.replace(
            flip_model(1.0, math.inf), local_bound=lambda state, dt, measures: 2.0
        ),
        constant_flow((0,)), (0,), h, _NoDraws(), sample_times=times,
    ),
    "simulate_system": lambda h, times: simulate_system(
        flip_system(3, rates=(1.0, 1.0, 1.0)), ((0,),) * 3, h, _NoDraws(), sample_times=times
    ),
    "simulate_merge_split": lambda h, times: simulate_merge_split(
        flip_model(1.0, 2.0), constant_flow((0,)), constant_flow((0,)), (0,), (1,),
        h, 1.0, _NoDraws(), sample_times=times,
    ),
    "simulate_coupled_system": lambda h, times: simulate_coupled_system(
        flip_system(3, rates=(1.0, 1.0, 1.0)), ((0,),) * 3,
        ((1,),) * 3, h, 1.0, 1.0, _NoDraws(), sample_times=times,
    ),
}

#: Bad run times -> (horizon, sample_times, the refusal after the run's name).
BAD_RUN_TIMES = {
    "horizon-nan": (math.nan, (), "horizon nan is NaN, infinite or before the start 0.0"),
    "horizon-inf": (math.inf, (), "horizon inf is NaN, infinite or before the start 0.0"),
    "horizon-negative": (-1.0, (), "horizon -1.0 is NaN, infinite or before the start 0.0"),
    "sample-past-horizon": (5.0, (1.0, 5.5), "sample time 5.5 is past the horizon 5.0"),
}


@pytest.mark.parametrize("bad", sorted(BAD_RUN_TIMES))
@pytest.mark.parametrize("simulator", sorted(TIME_RUNS))
def test_every_simulator_refuses_bad_run_times_before_drawing(simulator, bad):
    # Before, a NaN horizon never returned under a local bound, a negative
    # one moved drifting coordinates backwards, and a sample time past the
    # horizon was dropped from the samples.
    horizon, times, refusal = BAD_RUN_TIMES[bad]
    name = "flip-system-toy" if "system" in simulator else "flip-toy"
    with pytest.raises(ValueError) as err:
        TIME_RUNS[simulator](horizon, times)
    assert str(err.value) == f"{name}: {refusal}"


#: Coupled simulator -> window ``t0`` -> run of the flip toys of TIME_RUNS
#: on a stream that fails on any draw.
WINDOW_RUNS = {
    "simulate_merge_split": lambda t0: simulate_merge_split(
        flip_model(1.0, 2.0), constant_flow((0,)), constant_flow((0,)), (0,), (1,),
        5.0, t0, _NoDraws(),
    ),
    "simulate_coupled_system": lambda t0: simulate_coupled_system(
        flip_system(3, rates=(1.0, 1.0, 1.0)), ((0,),) * 3,
        ((1,),) * 3, 5.0, t0, 1.0, _NoDraws(),
    ),
}


@pytest.mark.parametrize("t0", [1e-300, 5e-324])
@pytest.mark.parametrize("simulator", sorted(WINDOW_RUNS))
def test_coupled_simulators_refuse_a_window_too_small_to_run(simulator, t0):
    name = "flip-system-toy" if "system" in simulator else "flip-toy"
    with pytest.raises(ValueError) as err:
        WINDOW_RUNS[simulator](t0)
    assert str(err.value) == (
        f"{name}: window {t0} lays more than 1000000 boundaries on the horizon 5.0"
    )


@pytest.mark.parametrize("t0", [math.nan, math.inf])
def test_coupled_base_refuses_a_window_that_is_not_finite(t0):
    # Before, the NaN or infinite window never returned.
    model = run_tumble(RunTumbleParams(theta=0.1)).model
    with pytest.raises(ValueError, match="^window length t0 must be positive$"):
        coupled_base(model, (0.1, 1), (-0.1, 1), t0, _NoDraws())


def test_coupled_system_refuses_a_nan_theta():
    # Before, a NaN threshold never moved the counter.
    system = selection_bundle(8).system
    x0 = tuple(((k + 0.5) / 8,) for k in range(8))
    with pytest.raises(ValueError, match="^counter threshold theta must be nonnegative, got nan$"):
        simulate_coupled_system(system, x0, x0, 1.0, 0.5, math.nan, _NoDraws())


#: Refusal -> (run on a stream that fails on any draw, its exact message).
INPUT_REFUSALS = {
    "system-configuration-length": (
        lambda: simulate_system(flip_system(3), ((0,),) * 2, 1.0, _NoDraws()),
        "expected 3 coordinates, got 2",
    ),
    "coupled-system-configuration-length": (
        lambda: simulate_coupled_system(
            flip_system(3), ((0,),) * 3, ((0,),) * 2, 1.0, 1.0, 1.0, _NoDraws()
        ),
        "expected 3 coordinates in each configuration",
    ),
    "doeblin-no-replica": (
        lambda: estimate_doeblin_alpha(
            run_tumble(RunTumbleParams(theta=0.1)).model,
            lambda stream: ((0.1, 1), (-0.1, 1)), 1.0, 0, _NoDraws(),
        ),
        "need at least one replica",
    ),
    "alpha-no-window": (lambda: alpha_from_windows([]), "need at least one replica"),
    "picard-max-iter": (
        lambda: picard_solve(
            run_tumble(RunTumbleParams(theta=0.1)).model,
            EmpiricalMeasure.from_states([(0.0, 1)]), 1.0, 0.5, 100, 0.0, 0, _NoDraws(),
        ),
        "max_iter must be at least 1",
    ),
    "binning-bins": (
        lambda: make_binning(("real",), ((0.0, 1.0),), 0),
        "bins must be a positive integer",
    ),
    "binning-box": (
        lambda: make_binning(("real", "label"), ((0.0, 1.0),), 4),
        "layout and box must have the same length",
    ),
    # Before, bins 2.5 gave a cell index of 1.5.
    "binning-bins-fraction": (
        lambda: make_binning(("real",), ((0.0, 1.0),), 2.5),
        "bins must be a positive integer",
    ),
    "binning-bins-bool": (
        lambda: make_binning(("real",), ((0.0, 1.0),), True),
        "bins must be a positive integer",
    ),
    # Before, an empty box raised ZeroDivisionError at the first cell, and a
    # reversed or unbounded one put every value in one cell, so every TV read 0.
    "binning-box-empty": (
        lambda: make_binning(("real",), ((1.0, 1.0),), 4),
        "the box (1.0, 1.0) of real component 0 is not finite with lo < hi",
    ),
    "binning-box-reversed": (
        lambda: make_binning(("label", "real"), ((-1, 1), (2.0, 1.0)), 4),
        "the box (2.0, 1.0) of real component 1 is not finite with lo < hi",
    ),
    "binning-box-unbounded": (
        lambda: make_binning(("real",), ((0.0, math.inf),), 4),
        "the box (0.0, inf) of real component 0 is not finite with lo < hi",
    ),
    "binning-box-nan": (
        lambda: make_binning(("real",), ((math.nan, 1.0),), 4),
        "the box (nan, 1.0) of real component 0 is not finite with lo < hi",
    ),
    # Before, NaN raised "cannot convert float NaN to integer" and inf an
    # OverflowError.
    "binning-nan-coordinate": (
        lambda: histogram_tv(
            [(0.5, 1), (math.nan, -1)], [(0.5, 1)],
            make_binning(("real", "label"), ((0.0, 1.0), (-1, 1)), 4),
        ),
        "cannot bin (nan, -1): a real coordinate is not finite",
    ),
    "binning-inf-coordinate": (
        lambda: make_binning(("real",), ((0.0, 1.0),), 4).weigh([(0.5,), (-math.inf,)]),
        "cannot bin (-inf,): a real coordinate is not finite",
    ),
    "binning-state-length": (
        lambda: make_binning(("real",), ((0.0, 1.0),), 4).weigh([(0.5,), (0.5, 1)]),
        "cannot bin (0.5, 1): the layout has 1 components",
    ),
    # Before, an empty sample read as a law with no mass: TV 1.0.
    "histogram-empty-sample": (
        lambda: histogram_tv([], [(0.5,)], make_binning(("real",), ((0.0, 1.0),), 4)),
        "cannot bin an empty sample",
    ),
}


@pytest.mark.parametrize("refusal", sorted(INPUT_REFUSALS))
def test_malformed_input_is_refused_with_its_message(refusal):
    run, message = INPUT_REFUSALS[refusal]
    with pytest.raises(ValueError) as err:
        run()
    assert str(err.value) == message


@pytest.mark.parametrize("t0", [0.0, -1.0])
@pytest.mark.parametrize("simulator", ["simulate_merge_split", "simulate_coupled_system"])
def test_coupled_simulators_reject_a_window_that_is_not_positive(simulator, t0):
    flips = flip_system(3, rates=(1.0, 1.0, 1.0))
    runs = {
        "simulate_merge_split": lambda: simulate_merge_split(
            flip_model(1.0, 2.0), constant_flow((0,)), constant_flow((0,)), (0,), (1,),
            5.0, t0, make_rng(1),
        ),
        "simulate_coupled_system": lambda: simulate_coupled_system(
            flips, ((0,),) * 3, ((1,),) * 3, 5.0, t0, 1.0, make_rng(1),
        ),
    }
    with pytest.raises(ValueError, match=f"window {t0} is not positive"):
        runs[simulator]()


# ---------------------------------------------------------------------------
# one check of a jump law's atoms


def _step_atoms(state, low: float) -> tuple:
    """Jump atoms one unit right and one unit left of ``state`` (its label
    kept), with weights ``1 - low`` and ``low``, which sum to one."""
    x, v = state
    return (((x + 1.0, v), 1.0 - low), ((x - 1.0, v), low))


def _signed_model(low: float):
    return dataclasses.replace(
        run_tumble(RunTumbleParams(theta=0.1)).model,
        kernel_atoms=lambda state, measure: _step_atoms(state, low),
    )


def _signed_pair_system(low: float):
    return dataclasses.replace(
        selection_bundle(4).system,
        pair_atoms=lambda own, donor: ((donor, 1.0 - low), (own, low)),
    )


_RT_X0 = ((0.3, 1), (-0.2, -1), (0.9, 1), (-0.6, 1))
_RT_Y0 = ((0.3, 1), (0.4, -1), (0.9, 1), (-0.6, -1))
_SEL_X0 = ((0.1,), (0.2,), (0.3,), (0.4,))
_SEL_Y0 = ((0.1,), (0.95,), (0.3,), (0.85,))

#: Run name -> low weight -> a run that reads the jump law of ``_step_atoms``
#: (or its pairwise form) with that weight.
SIGNED_LAW_RUNS = {
    "simulate_nonlinear": lambda low: simulate_nonlinear(
        _signed_model(low), constant_flow((0.0, 1)), (0.2, 1), 5.0, make_rng(1)
    ),
    "simulate_system-kernel_atoms": lambda low: simulate_system(
        meanfield_system(_signed_model(low), 4), _RT_X0, 5.0, make_rng(1)
    ),
    "simulate_system-pair_atoms": lambda low: simulate_system(
        _signed_pair_system(low), _SEL_X0, 5.0, make_rng(1)
    ),
    "simulate_merge_split": lambda low: simulate_merge_split(
        _signed_model(low), constant_flow((0.3, 1)), constant_flow((-0.3, -1)),
        (0.2, 1), (-0.2, 1), 5.0, 1.0, make_rng(1),
    ),
    **{
        f"simulate_coupled_system-{form}-{start}": (
            lambda low, form=form, x0=x0, y0=y0: simulate_coupled_system(
                meanfield_system(_signed_model(low), 4) if form == "kernel_atoms"
                else _signed_pair_system(low),
                x0, y0, 5.0, 1.0, 1.0, make_rng(1),
            )
        )
        for form, x0, y1 in (("kernel_atoms", _RT_X0, _RT_Y0), ("pair_atoms", _SEL_X0, _SEL_Y0))
        for start, y0 in (("equal", x0), ("mismatched", y1))
    },
    "EmpiricalMeasure": lambda low: EmpiricalMeasure(_step_atoms((0.0, 1), low)),
    "optimal_pair_sampler": lambda low: optimal_pair_sampler(
        types.SimpleNamespace(atoms=_step_atoms((0.0, 1), low)),
        EmpiricalMeasure([((1.0, 1), 1.0)]),
    ),
}


@pytest.mark.parametrize("run", sorted(SIGNED_LAW_RUNS))
def test_every_reader_of_a_jump_law_refuses_a_negative_weight(run):
    # The weights 1.5 and -0.5 sum to one, so only the weight check sees
    # them.  Before, the single runs drew from such a law and the coupled
    # runs refused it only on some paths.
    with pytest.raises(ValueError, match="^atom weight -0.5 is negative$"):
        SIGNED_LAW_RUNS[run](-0.5)


@pytest.mark.parametrize("run", sorted(SIGNED_LAW_RUNS))
def test_every_reader_of_a_jump_law_takes_a_weight_of_float_noise(run):
    SIGNED_LAW_RUNS[run](-1e-10)


def test_a_draw_past_a_short_mass_takes_the_last_positive_atom():
    # The weights sum to 1 - 5e-7, inside the atom check's tolerance, so a
    # uniform of 1 - 1e-7 lands past them.  Before, the draw took the last
    # atom, of weight 0.
    jump = _atoms_jump(lambda a, b: [((1,), 0.9999995), ((2,), 0.0)])
    assert jump(None, None, _FixedUniforms(1.0 - 1e-7)) == (1,)


def _load_atoms(atoms) -> dict:
    """The weights of ``atoms`` added up by state, zero weights included."""
    weights: dict = {}
    for state, w in atoms:
        weights[state] = weights.get(state, 0.0) + w
    return weights


def _pairwise_reference(system, i: int, config, share: float) -> dict:
    """One side's mixed weights of a system with ``pair_atoms``, written out:
    each pair atom of each of the ``N`` donors weighted ``w * share / N``,
    then the stay-put mass."""
    own, weights = config[i], {}
    for donor in config:
        for state, w in system.pair_atoms(own, donor):
            weights[state] = weights.get(state, 0.0) + w * (share / len(config))
    weights[own] = weights.get(own, 0.0) + (1.0 - share)
    return weights


def test_mixed_weights_equal_their_reference_definitions():
    # By ``==``: the same floats, summed in the same order.  States whose
    # reference weight is 0 (a stay-put mass at a saturated rate) are
    # absent from ``_mixed_weights``, which draws the same.
    def nonzero(weights):
        return {state: w for state, w in weights.items() if w != 0.0}

    checked = 0
    model = run_tumble(RunTumbleParams(theta=0.3)).model
    measure = EmpiricalMeasure([((0.5, 1), 0.5), ((-1.0, -1), 0.5)])
    for x in (-3.0, -0.7, 0.0, 0.4, 2.5):
        for v in (-1, 1):
            at = ((x, v), measure)
            got = _mixed_weights(model, at, (x, v), _thinning(model, at)[1])
            assert got == nonzero(_load_atoms(_mixed_atoms(model, at, (x, v))))
            checked += 1
    by_atoms = meanfield_system(run_tumble(RunTumbleParams(theta=0.3)), 4)
    pairwise = dataclasses.replace(
        selection_mutation(
            SelectionParams(n_particles=4, accept_prob=ACCEPT_PROBS["distance"])
        ).system,
        rate_ceiling=1.6,
    )
    for base, config in ((by_atoms, _RT_X0), (pairwise, _SEL_Y0)):
        for ceiling in (base.rate_ceiling, 2.0 * base.rate_ceiling):
            system = dataclasses.replace(base, rate_ceiling=ceiling)
            for i in range(4):
                at = (i, config)
                _, share = _thinning(system, at, i)
                got = _mixed_weights(system, at, config[i], share)
                if system.pair_atoms is None:
                    want = _load_atoms(_mixed_atoms(system, at, config[i], i))
                else:
                    want = _pairwise_reference(system, i, config, share)
                assert got == nonzero(want)
                checked += 1
    assert checked == 26


# ---------------------------------------------------------------------------
# empirical merge-probability estimation


def test_estimate_doeblin_alpha_on_compact_pairs():
    bundle = run_tumble(RunTumbleParams(theta=0.05))

    def pair_source(stream):
        x = float(stream.uniform(-1.0, 1.0))
        y = float(stream.uniform(-1.0, 1.0))
        return (x, 1), (y, 1)

    alpha_hat, se = estimate_doeblin_alpha(
        bundle.model, pair_source, 2.0, 500, make_rng(404)
    )
    assert 0.05 < alpha_hat <= 1.0
    assert 0.0 < se < 0.1
