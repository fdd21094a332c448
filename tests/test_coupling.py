"""Couplings: overlap splitting, shared-clock pairs, and coupled systems."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfjump.coupling import (
    UnsupportedCouplingError,
    coupled_base,
    estimate_doeblin_alpha,
    make_telegraph_coupler,
    optimal_pair_sampler,
    overlap_decompose,
    simulate_coupled_system,
    simulate_merge_split,
)
from mfjump.engine import EmpiricalMeasure, flow_sample
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
from mfjump.particles import simulate_system

from conftest import (
    CountingStream,
    constant_flow,
    flip_system,
    make_rng,
    measure_rate_flip_model,
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
        x, y, merged = ps.sample(rng)
        assert merged and x == y


def test_pair_sampler_disjoint_measures_never_merge(rng):
    ps = optimal_pair_sampler(
        EmpiricalMeasure.from_states([(0.0,)]),
        EmpiricalMeasure.from_states([(1.0,)]),
    )
    assert ps.p == 0.0
    x, y, merged = ps.sample(rng)
    assert not merged and x == (0.0,) and y == (1.0,)


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
        x, y, _ = ps.sample(stream)
        total += d_v(x, y, v)
    mc = total / n
    exact = 0.5  # |m1 - m2| applied to V = 1 on {0}, {1}: 0.25 + 0.25
    se = math.sqrt(exact * (2.0 - exact) / n)
    assert abs(mc - exact) < 3.0 * se


def test_pair_sampler_residuals_are_disjoint():
    m1 = two_point(0.0, 0.5, 1.0, 0.5)
    m2 = two_point(0.0, 0.25, 1.0, 0.75)
    ps = optimal_pair_sampler(m1, m2)
    support1 = {s for s, w in ps.nu1.atoms if w > 0}
    support2 = {s for s, w in ps.nu2.atoms if w > 0}
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
    for m, nu_res in ((m1, ps.nu1), (m2, ps.nu2)):
        rebuilt = {}
        for s, w in ps.nu0.atoms:
            rebuilt[s] = rebuilt.get(s, 0.0) + ps.p * w
        for s, w in nu_res.atoms:
            rebuilt[s] = rebuilt.get(s, 0.0) + (1.0 - ps.p) * w
        for s, w in m.atoms:
            assert rebuilt.get(s, 0.0) == pytest.approx(w, abs=1e-9)


def test_pair_sampler_marginal_frequencies(rng):
    m1 = two_point(0.0, 0.5, 1.0, 0.5)
    m2 = two_point(0.0, 0.25, 1.0, 0.75)
    ps = optimal_pair_sampler(m1, m2)
    n = 40_000
    x_zero = y_zero = 0
    for _ in range(n):
        x, y, _ = ps.sample(rng)
        x_zero += x == (0.0,)
        y_zero += y == (0.0,)
    assert abs(x_zero / n - 0.5) < 3.0 * math.sqrt(0.25 / n)
    assert abs(y_zero / n - 0.25) < 3.0 * math.sqrt(0.1875 / n)


# ---------------------------------------------------------------------------
# overlap decomposition bookkeeping


def test_overlap_decompose_tracks_tiny_clamp_excess():
    a = (((0.0,), 0.5 + 4e-8), ((1.0,), 0.5))
    p, *_rest, excess = overlap_decompose(a, a)
    assert p == 1.0
    assert 0.0 < excess < 1e-6


def test_overlap_decompose_rejects_badly_normalised_input():
    a = (((0.0,), 0.6), ((1.0,), 0.41))
    b = (((0.0,), 0.5), ((1.0,), 0.5))
    with pytest.raises(ValueError):
        overlap_decompose(a, b)


# ---------------------------------------------------------------------------
# coupled base dynamics


def test_coupled_base_equal_starts_merge_immediately(rng):
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    path_x, path_y, merged_at = coupled_base(
        bundle.model, (0.5, 1), (0.5, 1), 2.0, rng
    )
    assert merged_at == 0.0
    assert path_x == path_y


def test_coupled_base_requires_meeting_rule():
    bundle = tcp(TcpParams())
    with pytest.raises(UnsupportedCouplingError):
        coupled_base(bundle.model, (0.0,), (1.0,), 1.0, make_rng(9))


def test_coupled_base_stays_merged_after_meeting():
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    merged_found = 0
    for r in range(200):
        px, py, merged_at = coupled_base(
            bundle.model, (0.1, 1), (-0.1, 1), 4.0, make_rng(70_000 + r)
        )
        if merged_at is None:
            continue
        merged_found += 1
        tail_x = [(t, s) for t, s in px if t >= merged_at]
        tail_y = [(t, s) for t, s in py if t >= merged_at]
        assert tail_x == tail_y
        assert px[-1][1] == py[-1][1]
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
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    model = bundle.model
    n = 4000
    coupled_ends = []
    direct_ends = []
    for r in range(n):
        px, _, _ = coupled_base(model, (0.3, 1), (-0.4, -1), 1.5, make_rng(110_000 + r))
        coupled_ends.append(px[-1][1])
        direct_ends.append(flow_sample(model, (0.3, 1), 1.5, make_rng(210_000 + r)))
    binning = make_binning(("real", "label"), ((-3.0, 3.0), (-1.0, 1.0)), bins=8)
    assert histogram_tv(coupled_ends, direct_ends, binning) < 0.15


def _run_tumble_diagonal():
    model = run_tumble(RunTumbleParams(theta=0.1)).model
    return model.base_coupler, model.base_flow, (0.0, 1), 1.0


def _system_diagonal(system, start, total):
    return system.base_coupler, system.base_flow, start, total


#: Diagonal machine cases: name -> () -> (coupler, base flow, start, total time).
DIAGONAL_CASES = {
    "run-tumble": _run_tumble_diagonal,
    "selection": lambda: _system_diagonal(
        selection_mutation(SelectionParams(n_particles=4)).system, (0.9,), 1.0
    ),
    "mh": lambda: _system_diagonal(
        build_model("mh", {"lam_bar": 4.0}).system, (0.9,), 2.0
    ),
}


def _mean_and_se(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    return abs(a.mean() - b.mean()), se


@pytest.mark.parametrize("case", sorted(DIAGONAL_CASES))
def test_diagonal_machine_in_small_steps_matches_base_flow(case):
    coupler, base_flow, start, total = DIAGONAL_CASES[case]()
    n, steps = 20_000, 20
    machine_stream, flow_stream = make_rng(61_000), make_rng(62_000)
    machine_ends = []
    for _ in range(n):
        machine = coupler(start, start, machine_stream)
        for _ in range(steps):
            _, x, y, _ = machine.advance(total / steps)[-1]
            assert x == y  # a pair started merged stays merged
        machine_ends.append(x)
    flow_ends = [tuple(base_flow(start, total, flow_stream)) for _ in range(n)]
    # The velocity flipped (telegraph) or the state was refreshed.
    changed = [[s[-1] != start[-1] for s in ends] for ends in (machine_ends, flow_ends)]
    positions = [[s[0] for s in ends] for ends in (machine_ends, flow_ends)]
    for machine_side, flow_side in (changed, positions):
        gap, se = _mean_and_se(machine_side, flow_side)
        assert gap < 4.0 * se, (case, gap, se)


def test_merged_telegraph_machine_draws_once_per_flip():
    stream = CountingStream(make_rng(63_000))
    machine = make_telegraph_coupler(1.0)((0.0, 1), (0.0, 1), stream)
    flips = 0
    for _ in range(1000):
        # Every point before the last one is a flip.
        flips += len(machine.advance(1e-3)) - 1
    assert stream.counts == {"exponential": flips + 1}


#: Run-tumble's telegraph base motion, started at (0, +1) and read at time t:
#: name -> (model, stream, t) -> state.
TELEGRAPH_MOTIONS = {
    "diagonal-machine": lambda model, stream, t: (
        model.base_coupler((0.0, 1), (0.0, 1), stream).advance(t)[-1][1]
    ),
    "base-flow": lambda model, stream, t: model.base_flow((0.0, 1), t, stream),
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


def test_merge_split_clamp_counter_starts_clean(rng):
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    flow = constant_flow((0.0, 1))
    traj = simulate_merge_split(
        bundle.model, flow, flow, (0.2, 1), (-0.2, 1), 4.0, 2.0, rng
    )
    assert traj.clamp_excess <= 1e-6
    assert traj.n_clamped == 0


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
        assert (lean.n_splits, lean.n_clamped) == (full.n_splits, full.n_clamped)
        assert lean.clamp_excess == full.clamp_excess
        assert lean.events == tuple(e for e in full.events if e.kind == "sample")
        assert len(lean.events) == len(times)
        dropped += len(full.events) - len(lean.events)
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
        assert lean.events == tuple(e for e in full.events if e.kind == "sample")
        assert len(lean.events) == 2
        assert lean.j_at(2.0) == full.events[-1].j
        dropped += len(full.events) - len(lean.events)
    assert dropped > 0


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
