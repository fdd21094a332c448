"""Model builders: constants, kernels, rate bounds, and equilibrium checks."""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np
import pytest
from scipy import stats

from mfjump.engine import (
    EmpiricalMeasure,
    MeasureFlow,
    RateCeilingError,
    picard_solve,
    simulate_nonlinear,
)
from mfjump.metrics import histogram_tv, make_binning
from mfjump.models import (
    MODEL_REGISTRY,
    MhParams,
    RunTumbleParams,
    SelectionParams,
    TcpParams,
    ZigZagParams,
    build_model,
    mh_granular,
    run_tumble,
    selection_mutation,
    tcp,
    zigzag,
)
from mfjump.coupling import _weigh
from mfjump.particles import empirical, meanfield_system, simulate_system

from conftest import constant_flow, make_rng


def expit(s: float) -> float:
    return 1.0 / (1.0 + math.exp(-s))


# ---------------------------------------------------------------------------
# run-and-tumble


def test_run_tumble_rejects_bad_parameters():
    with pytest.raises(ValueError):
        run_tumble(RunTumbleParams(theta=0.1, base_rate=1.5))  # dips below floor
    with pytest.raises(ValueError):
        run_tumble(RunTumbleParams(theta=1.5))
    with pytest.raises(ValueError):
        run_tumble(RunTumbleParams(theta=0.1, rate_high=0.5))
    with pytest.raises(ValueError):
        # Too shallow a sigmoid never clears the upper threshold at r0.
        run_tumble(RunTumbleParams(theta=0.1, steepness=0.1))


def test_run_tumble_frozen_constants():
    bundle = run_tumble(RunTumbleParams(theta=0.005))
    c = bundle.constants
    assert c.rho == pytest.approx(0.1, rel=1e-12)
    assert c.M == pytest.approx(211.62906354881704, rel=1e-9)
    assert c.eta == pytest.approx(0.7054302118293901, rel=1e-9)
    assert c.rho_star == pytest.approx(4.570796326794897, rel=1e-12)
    assert c.gamma_star == 2.0
    assert c.lambda_star == pytest.approx(2.0)
    assert bundle.model.rate_ceiling == pytest.approx(2.0)


def test_run_tumble_lyapunov_frozen_value():
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    assert bundle.lyapunov((0.0, 1)) == pytest.approx(5.136101666750966, rel=1e-12)


def test_run_tumble_lyapunov_flip_ratio_below_two():
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    v = bundle.lyapunov
    for x in np.linspace(-4.0, 4.0, 41):
        for y in (-1, 1):
            assert v((float(x), -y)) <= 2.0 * v((float(x), y)) + 1e-12


def test_run_tumble_rate_range_and_floor():
    bundle = run_tumble(RunTumbleParams(theta=0.2))
    model = bundle.model
    gen = np.random.default_rng(1)
    for _ in range(200):
        x = (float(gen.uniform(-5, 5)), int(gen.choice((-1, 1))))
        m = EmpiricalMeasure.from_states(
            [(float(gen.uniform(-5, 5)), 1) for _ in range(3)]
        )
        lam = model.rate(x, m)
        assert 0.0 <= lam <= model.rate_ceiling + 1e-12


def test_run_tumble_rate_formula_through_barycenter():
    theta = 0.5
    bundle = run_tumble(RunTumbleParams(theta=theta))
    m = EmpiricalMeasure.from_states([(2.0, 1), (0.0, -1)])  # barycenter 1.0
    x = (1.5, -1)
    expected = 1.0 + 2.0 * expit(3.0 * (-1.0) * (1.5 - theta * 1.0)) - 1.0
    assert bundle.model.rate(x, m) == pytest.approx(expected)


def test_run_tumble_kernel_flips_velocity(rng):
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    m = EmpiricalMeasure.from_states([(0.0, 1)])
    assert bundle.model.kernel is None
    assert bundle.model.kernel_atoms((0.7, 1), m) == (((0.7, -1), 1.0),)
    assert bundle.model.kernel_atoms((0.7, -1), m) == (((0.7, 1), 1.0),)


def _base_motion(model, state, dt, stream):
    """The state ``dt`` after ``state`` under the model's base machine."""
    return model.base_coupler(state, state, stream).advance(dt)[0]


def test_run_tumble_base_flow_is_telegraph(rng):
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    end = _base_motion(bundle.model, (0.0, 1), 0.25, rng)
    assert abs(end[0]) <= 0.25 + 1e-12
    assert end[1] in (-1, 1)
    n = 4000
    flips = 0
    for r in range(n):
        e = _base_motion(bundle.model, (0.0, 1), 0.5, make_rng(500_000 + r))
        flips += e[1] == -1
    # Telegraph at unit rate: P(odd flip count by 0.5) = (1 - e^{-1}) / 2.
    p = 0.5 * (1.0 - math.exp(-1.0))
    assert abs(flips / n - p) < 3.0 * math.sqrt(p * (1 - p) / n)


def run_tumble_stationary_z(seed: int, horizon: float = 40_000.0, batches: int = 40):
    """Sample mean of ``|x|`` over one single run-tumble run at theta = 0,
    sampled every 2 time units, as a z-score against the exact stationary
    law, with its SE from ``batches`` batch means.

    At theta = 0 the total flip rate at ``v * x = s`` is ``a + (b - a) *
    expit(k s)``, so the velocity-balanced stationary density is ``p(x) ∝
    cosh(k x / 2) ** (-2 (b - a) / k)`` with equal velocity weights.  For
    the default parameters ``E|x|`` is 0.6203, and a tumble rate scaled by
    0.8 moves it to about 0.74 (12 SE or more at this length).
    """
    params = RunTumbleParams(theta=0.0)
    a, b, k = params.rate_low, params.rate_high, params.steepness
    xs = np.linspace(-40.0, 40.0, 400_001)
    density = np.exp(-2.0 * (b - a) / k * np.logaddexp(k * xs / 2.0, -k * xs / 2.0))
    exact = float((np.abs(xs) * density).sum() / density.sum())
    model = run_tumble(params).model
    times = [2.0 * (j + 1) for j in range(int(horizon / 2.0))]
    traj = simulate_nonlinear(
        model, constant_flow((0.0, 1)), (0.0, 1), horizon, make_rng(seed),
        sample_times=times, record_events=False,
    )
    values = np.array([abs(traj.state_at_sample(t)[0]) for t in times])
    batch_means = values.reshape(batches, -1).mean(axis=1)
    se = batch_means.std(ddof=1) / math.sqrt(batches)
    return (values.mean() - exact) / se


def test_run_tumble_single_run_matches_the_exact_stationary_law():
    z = run_tumble_stationary_z(seed=45_000)
    assert abs(z) < 4.0, z


def test_run_tumble_picard_gap_decreases_to_noise_floor():
    bundle = run_tumble(RunTumbleParams(theta=0.1))
    m0 = EmpiricalMeasure.from_states([(0.0, 1)])
    result = picard_solve(
        bundle.model, m0, horizon=3.0, grid_step=0.5, n_samples=2000,
        tol=0.0, max_iter=4, stream=make_rng(313),
    )
    gaps = result.gap_history
    assert len(gaps) == 4
    assert gaps[1] < 0.5 * gaps[0]
    assert max(gaps[2], gaps[3]) < 0.5 * gaps[0]


def test_run_tumble_lyapunov_moment_stays_below_equilibrium_bound():
    bundle = run_tumble(RunTumbleParams(theta=0.005))
    c = bundle.constants
    model = bundle.model
    m0 = EmpiricalMeasure.from_states([(0.0, 1)])
    result = picard_solve(
        model, m0, horizon=2.0, grid_step=0.25, n_samples=400,
        tol=1e-3, max_iter=4, stream=make_rng(99),
    )
    t = 2.0
    ends = []
    from mfjump.engine import simulate_nonlinear

    for r in range(400):
        traj = simulate_nonlinear(model, result.flow, (0.0, 1), t, make_rng(600_000 + r))
        ends.append(bundle.lyapunov(traj.final_state))
    ends = np.asarray(ends)
    decay = math.exp(-c.rho * (1.0 - c.eta) * t)
    bound = decay * bundle.lyapunov((0.0, 1)) + (1.0 - decay) * c.M / (1.0 - c.eta)
    assert ends.mean() <= bound + 3.0 * ends.std(ddof=1) / math.sqrt(len(ends))


# ---------------------------------------------------------------------------
# transmission-control throughput model


def test_tcp_flow_and_kernel():
    bundle = tcp(TcpParams())
    m = EmpiricalMeasure.from_states([(0.0,)])
    assert _base_motion(bundle.model, (2.0,), 1.0, make_rng(1)) == pytest.approx((3.0,))
    stream = make_rng(2)
    assert bundle.model.kernel((4.0,), m, stream) == pytest.approx((2.0,))
    assert stream.random() == make_rng(2).random()  # it drew nothing


def test_tcp_frozen_compact_constant():
    bundle = tcp(TcpParams())
    assert bundle.constants.c_tilde == pytest.approx(5.297442541400256, rel=1e-12)
    assert bundle.constants.r_compact == pytest.approx(1.0)


def test_tcp_rate_is_convolution_form():
    g2 = lambda x: 0.1 * math.exp(0.5 * x)
    bundle = tcp(TcpParams(g2=g2, envelope_k=0.1, envelope_rho=0.5))
    m = EmpiricalMeasure.from_states([(0.2,), (0.2,), (1.0,), (1.0,)])
    x = (1.5,)
    expected = 1.0 + 1.5 + 0.5 * g2(1.7) + 0.5 * g2(2.5)
    assert bundle.model.rate(x, m) == pytest.approx(expected)


def test_tcp_rejects_envelope_violation():
    with pytest.raises(ValueError):
        tcp(TcpParams(g2=lambda x: math.exp(2.0 * x), envelope_k=1.0, envelope_rho=0.5))


def test_tcp_local_bound_dominates_rate_along_flight():
    g2 = lambda x: 0.1 * math.exp(0.5 * x)
    bundle = tcp(TcpParams(g2=g2, envelope_k=0.1, envelope_rho=0.5))
    model = bundle.model
    m = EmpiricalMeasure.from_states([(0.3,)])
    state, dt = (1.0,), 0.4
    bound = model.local_bound(state, dt, [m])
    for s in np.linspace(0.0, dt, 9):
        flowed = (state[0] + float(s),)
        assert model.rate(flowed, m) <= bound + 1e-12


def test_tcp_unbounded_marker_and_simulation():
    bundle = tcp(TcpParams())
    assert math.isinf(bundle.model.rate_ceiling)
    traj = simulate_nonlinear(
        bundle.model, constant_flow((0.0,)), (0.0,), 5.0, make_rng(21)
    )
    assert traj.n_accepted > 0
    assert all(e.state[0] >= 0.0 for e in traj.events)


def test_tcp_records_the_sample_at_the_horizon():
    model = tcp(TcpParams()).model
    for seed in range(200):
        traj = simulate_nonlinear(
            model, constant_flow((0.0,)), (0.0,), 1.0, make_rng(seed),
            sample_times=[1.0], record_events=False,
        )
        assert traj.state_at_sample(1.0) == traj.final_state


# ---------------------------------------------------------------------------
# granular Metropolis chain on the circle


def mh_params(beta=1.0, osc_w=0.5, w_amp=0.25, n_sites=8):
    if osc_w == 0.0:
        w = None
        w_amp = 0.0
    else:
        w = lambda x, y: w_amp * math.cos(2.0 * math.pi * (x - y))
    return MhParams(
        u=lambda x: math.cos(2.0 * math.pi * x),
        w=w,
        beta=beta,
        lam_bar=1.0,
        n_sites=n_sites,
        osc_u=2.0,
        osc_w=osc_w,
    )


def test_mh_frozen_constants():
    bundle = mh_granular(mh_params())
    c = bundle.constants
    assert c.p_star == pytest.approx(0.0820849986238988, rel=1e-12)
    assert c.theta == pytest.approx(22.364987921406946, rel=1e-12)
    assert c.rho_tv == pytest.approx(-22.282902922783048, rel=1e-12)
    assert bundle.refresh_rate == pytest.approx(c.p_star)


def test_mh_system_rates_split_refresh_and_residual():
    bundle = mh_granular(mh_params())
    sys = bundle.system
    state = tuple((0.125 * i,) for i in range(8))
    p_star = bundle.constants.p_star
    for i in range(8):
        lam = sys.rate(i, state)
        assert 0.0 <= lam <= (1.0 - p_star) + 1e-12
    assert sys.rate_ceiling == pytest.approx(1.0 - p_star)


def test_mh_pure_refresh_reaches_uniform_law():
    bundle = mh_granular(mh_params(beta=0.0, osc_w=0.0, n_sites=16))
    assert bundle.constants.p_star == 1.0
    sys = bundle.system
    x0 = tuple((0.5,) for _ in range(16))
    # Ten times the refreshes of a 400-unit run: the expected TV of the
    # pooled histogram is about 0.011, so the 0.05 bound is not at the noise.
    sample_times = tuple(float(t) for t in range(10, 4000))
    traj = simulate_system(
        sys, x0, 4000.0, make_rng(888), sample_times=sample_times, record_events=False
    )
    pooled = []
    for t in sample_times:
        pooled.extend(traj.state_at_sample(t))
    edges = np.linspace(0.0, 1.0, 9)
    counts, _ = np.histogram([s[0] for s in pooled], bins=edges)
    freq = counts / counts.sum()
    tv = float(np.abs(freq - 1.0 / 8).sum())
    assert tv < 0.05


def test_mh_single_site_gibbs_marginal_without_interaction():
    bundle = mh_granular(mh_params(beta=1.0, osc_w=0.0, n_sites=8))
    sys = bundle.system
    x0 = tuple((i / 8.0,) for i in range(8))
    sample_times = tuple(float(t) for t in np.arange(50.0, 3000.0, 5.0))
    traj = simulate_system(
        sys, x0, 3000.0, make_rng(999), sample_times=sample_times, record_events=False
    )
    pooled = np.array(
        [s[0] for t in sample_times for s in traj.state_at_sample(t)]
    )
    edges = np.linspace(0.0, 1.0, 17)
    counts, _ = np.histogram(pooled, bins=edges)
    freq = counts / counts.sum()
    grid = np.linspace(0.0, 1.0, 2049)
    dens = np.exp(-np.cos(2.0 * np.pi * grid))
    mass = np.array(
        [
            np.trapezoid(dens[(grid >= a) & (grid <= b)], grid[(grid >= a) & (grid <= b)])
            for a, b in zip(edges[:-1], edges[1:])
        ]
    )
    mass /= mass.sum()
    tv = float(np.abs(freq - mass).sum())
    assert tv < 0.1


def test_mh_decomposed_and_raw_chains_agree():
    params = mh_params(beta=1.0, osc_w=0.5, w_amp=0.25, n_sites=8)
    bundle = mh_granular(params)
    sample_times = tuple(float(t) for t in np.arange(40.0, 1440.0, 1.0))

    def pooled(system, seed):
        x0 = tuple((i / 8.0,) for i in range(8))
        traj = simulate_system(
            system, x0, 1440.0, make_rng(seed),
            sample_times=sample_times, record_events=False,
        )
        return [s for t in sample_times for s in traj.state_at_sample(t)]

    a = pooled(bundle.system, 1234)
    b = pooled(bundle.raw_system, 4321)
    binning = make_binning(("real",), ((0.0, 1.0),), bins=12)
    assert histogram_tv(a, b, binning) < 0.08


# ---------------------------------------------------------------------------
# piecewise-linear sampler with directional flips


def test_zigzag_residual_is_within_interaction_budget():
    theta0 = 0.2
    bundle = zigzag(
        ZigZagParams(
            n_particles=3,
            ui=lambda z: 0.5 * z * z,
            ui_prime=lambda z: z,
            w1=lambda z, w: theta0 * math.cos(z - w),
            theta_bound=theta0,
        )
    )
    sys = bundle.system
    gen = np.random.default_rng(5)
    for _ in range(300):
        state = tuple(
            (float(gen.uniform(-3, 3)), int(gen.choice((-1, 1)))) for _ in range(3)
        )
        for i in range(3):
            lam = sys.rate(i, state)
            assert -1e-12 <= lam <= 2.0 * theta0 + 1e-12
    assert sys.rate_ceiling == pytest.approx(2.0 * theta0)


def test_zigzag_without_interaction_residual_shrinks_to_theta():
    theta0 = 0.15
    bundle = zigzag(
        ZigZagParams(
            n_particles=2,
            ui=lambda z: 0.5 * z * z,
            ui_prime=lambda z: z,
            w1=None,
            theta_bound=theta0,
        )
    )
    sys = bundle.system
    gen = np.random.default_rng(6)
    for _ in range(300):
        state = tuple(
            (float(gen.uniform(-3, 3)), int(gen.choice((-1, 1)))) for _ in range(2)
        )
        for i in range(2):
            assert sys.rate(i, state) <= theta0 + 1e-12


def test_zigzag_kernel_flips_direction():
    bundle = zigzag(
        ZigZagParams(
            n_particles=2,
            ui=lambda z: 0.5 * z * z,
            ui_prime=lambda z: z,
            w1=None,
            theta_bound=0.1,
        )
    )
    state = ((0.4, 1), (-0.2, -1))
    assert bundle.system.kernel is None
    assert bundle.system.kernel_atoms(0, state) == (((0.4, -1), 1.0),)
    assert bundle.system.kernel_atoms(1, state) == (((-0.2, 1), 1.0),)


def test_zigzag_base_flips_check_their_ceiling():
    bundle = zigzag(
        ZigZagParams(
            n_particles=1,
            ui=lambda z: 0.5 * z * z,
            ui_prime=lambda z: z,
            w1=None,
            theta_bound=0.1,
            ui_prime_lipschitz=0.0,
        )
    )
    with pytest.raises(RateCeilingError) as err:
        simulate_system(bundle.system, ((0.5, 1),), 3.0, make_rng(3))
    assert "coordinate 0" in str(err.value)


def test_zigzag_coordinate_lyapunov_frozen_value():
    bundle = zigzag(
        ZigZagParams(
            n_particles=2,
            ui=lambda z: 0.5 * z * z,
            ui_prime=lambda z: z,
            w1=None,
            theta_bound=0.1,
        )
    )
    assert bundle.coordinate_lyapunov((0.0, 1)) == pytest.approx(
        1.926038125031612, rel=1e-12
    )


def zigzag_invariant_z(seed: int, n: int = 64, horizon: float = 1000.0):
    """z-scores of a long non-interacting zigzag run (quadratic well, w_amp
    0) against its invariant law, ``N(0, 1)`` times a uniform direction
    (Bierkens, Fearnhead & Roberts, Ann. Statist. 47, 2019): the total flip
    rate is then ``(v z)_+``, split into base flips and residual jumps.

    The coordinates are independent, so each one's time average over unit
    spaced samples after a burn-in of 20 is one draw, and the SE is taken
    across the ``n`` of them.  Returns the z-scores of mean z, mean z^2 and
    the share of ``v = +1``.  Base flips scaled by 0.8 move mean z^2 to
    about 1.14 (12 SE or more at this size).
    """
    system = build_model("zigzag", {"n_particles": n, "w_amp": 0.0}).system
    initial = tuple((4.0 * (k + 0.5) / n - 2.0, 1 if k % 2 else -1) for k in range(n))
    times = [20.0 + j for j in range(int(horizon) - 19)]
    traj = simulate_system(
        system, initial, horizon, make_rng(seed), sample_times=times,
        record_events=False,
    )
    configs = np.array([traj.state_at_sample(t) for t in times], dtype=float)
    z, v = configs[:, :, 0], configs[:, :, 1]
    scores = []
    for per_coordinate, exact in (
        (z.mean(axis=0), 0.0), ((z**2).mean(axis=0), 1.0), ((v > 0).mean(axis=0), 0.5)
    ):
        se = per_coordinate.std(ddof=1) / math.sqrt(n)
        scores.append((per_coordinate.mean() - exact) / se)
    return scores


def test_zigzag_without_interaction_has_the_canonical_invariant_law():
    for score in zigzag_invariant_z(seed=46_000):
        assert abs(score) < 4.0, score


def test_zigzag_independent_coordinates_without_interaction():
    bundle = zigzag(
        ZigZagParams(
            n_particles=2,
            ui=lambda z: 0.5 * z * z,
            ui_prime=lambda z: z,
            w1=None,
            theta_bound=0.1,
        )
    )
    sys = bundle.system
    n = 2000
    table = np.zeros((2, 2), dtype=int)
    for r in range(n):
        traj = simulate_system(
            sys, ((0.5, 1), (-0.3, 1)), 2.0, make_rng(700_000 + r)
        )
        v1 = 0 if traj.final_state[0][1] < 0 else 1
        v2 = 0 if traj.final_state[1][1] < 0 else 1
        table[v1, v2] += 1
    assert stats.chi2_contingency(table).pvalue > 0.01


# ---------------------------------------------------------------------------
# selection with mutation


def test_selection_rate_is_saturated():
    bundle = selection_mutation(
        SelectionParams(
            n_particles=3, lam_star=1.5,
            accept_prob=lambda a, b: 0.5, base_refresh_rate=1.0,
        )
    )
    state = ((0.1,), (0.5,), (0.9,))
    for i in range(3):
        assert bundle.system.rate(i, state) == pytest.approx(1.5)
    assert bundle.system.rate_ceiling == pytest.approx(1.5)


def _selection_kernel(system, i, config) -> dict:
    """The jump kernel of coordinate ``i`` of a selection system, read from
    its pair form: the pair atoms of all ``N`` donors, added up by state."""
    return _weigh(map(system.pair_atoms, repeat(config[i]), config), 1.0 / len(config))


def test_selection_kernel_atoms_exact():
    bundle = selection_mutation(
        SelectionParams(
            n_particles=3, lam_star=1.0,
            accept_prob=lambda a, b: 0.5, base_refresh_rate=1.0,
        )
    )
    state = ((0.1,), (0.5,), (0.9,))
    atoms = _selection_kernel(bundle.system, 0, state)
    assert atoms[(0.1,)] == pytest.approx(2.0 / 3.0)
    assert atoms[(0.5,)] == pytest.approx(1.0 / 6.0)
    assert atoms[(0.9,)] == pytest.approx(1.0 / 6.0)


def test_selection_kernel_tv_lipschitz_in_configuration():
    bundle = selection_mutation(
        SelectionParams(
            n_particles=4, lam_star=1.0,
            accept_prob=lambda a, b: 0.7, base_refresh_rate=1.0,
        )
    )
    sys = bundle.system
    gen = np.random.default_rng(8)
    for _ in range(100):
        x = tuple((float(gen.integers(0, 3)),) for _ in range(4))
        z = tuple(
            (xi[0],) if gen.random() < 0.5 else (float(gen.integers(0, 3)),)
            for xi in x
        )
        for i in range(4):
            if x[i] != z[i]:
                continue
            ax = _selection_kernel(sys, i, x)
            az = _selection_kernel(sys, i, z)
            keys = set(ax) | set(az)
            tv = sum(abs(ax.get(k, 0.0) - az.get(k, 0.0)) for k in keys)
            mismatches = sum(1 for a, b in zip(x, z) if a != b)
            assert tv <= 2.0 * mismatches / 4.0 + 1e-9


def test_selection_null_acceptance_keeps_states(rng):
    bundle = selection_mutation(
        SelectionParams(
            n_particles=3, lam_star=1.0,
            accept_prob=lambda a, b: 0.0, base_refresh_rate=0.0,
        )
    )
    x0 = ((0.1,), (0.5,), (0.9,))
    traj = simulate_system(bundle.system, x0, 5.0, rng)
    assert traj.final_state == x0


def test_selection_full_acceptance_copies_half_the_time():
    bundle = selection_mutation(
        SelectionParams(
            n_particles=2, lam_star=1.0,
            accept_prob=lambda a, b: 1.0, base_refresh_rate=0.0,
        )
    )
    x0 = ((0.25,), (0.75,))
    n = 1000
    changed = 0
    total = 0
    for r in range(n):
        traj = simulate_system(bundle.system, x0, 3.0, make_rng(800_000 + r))
        first = next((e for e in traj.events if e.kind == "jump-accepted"), None)
        if first is None:
            continue
        total += 1
        changed += first.state != x0
    assert total > 900
    p = changed / total
    assert abs(p - 0.5) < 3.0 * math.sqrt(0.25 / total)


# ---------------------------------------------------------------------------
# registry


def test_registry_lists_all_builders():
    assert {"run-tumble", "tcp", "mh", "zigzag", "selection"} <= set(MODEL_REGISTRY)


def test_build_model_from_config_params():
    bundle = build_model("run-tumble", {"theta": 0.1})
    assert bundle.model.rate_ceiling == pytest.approx(2.0)
    with pytest.raises(KeyError):
        build_model("no-such-model", {})
