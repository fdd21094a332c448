"""Closed-form contraction certificates and decay-rate formulas."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfjump.certificates import (
    AssumptionConstants,
    RateCertificate,
    lyapunov_decay_bound,
    nonlinear_certificate,
    particle_certificate,
    particle_tv_rate,
    tv_rate,
)

NL = AssumptionConstants(
    lambda_star=1.0,
    theta=0.2,
    rho=1.0,
    rho_star=0.3,
    eta=0.5,
    M=2.0,
    gamma_star=2.0,
    alpha=0.8,
    t0=1.0,
)

PART = AssumptionConstants(
    lambda_star=1.0,
    theta=0.3,
    rho=1.0,
    rho_star=0.2,
    eta=0.6,
    M=2.0,
    gamma_star=2.0,
    alpha=0.8,
    t0=2.0,
)


# ---------------------------------------------------------------------------
# constants record


@pytest.mark.parametrize(
    "field,value",
    [
        ("lambda_star", 0.0),
        ("lambda_star", -1.0),
        ("theta", -0.1),
        ("rho", 0.0),
        ("eta", 1.0),
        ("eta", -0.2),
        ("M", 0.5),
        ("gamma_star", 0.5),
        ("alpha", 1.5),
        ("alpha", -0.1),
        ("t0", 0.0),
    ],
)
def test_assumption_constants_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(NL, **{field: value})


def test_assumption_constants_accepts_boundaries():
    c = dataclasses.replace(NL, theta=0.0, alpha=0.0, eta=0.0, M=1.0, gamma_star=1.0)
    assert c.theta == 0.0 and c.alpha == 0.0


# ---------------------------------------------------------------------------
# total-variation decay rates


def test_tv_rate_frozen_value():
    assert tv_rate(theta=0.0, t0=1.0, alpha=0.5, lambda_star=1.0, t=3.0) == pytest.approx(
        0.543458917124313, abs=1e-12
    )


def test_tv_rate_uses_floor_of_window_count():
    base = math.exp(0.0) - 0.5 * math.exp(-1.0)
    for t in (3.0, 3.2, 3.9):
        assert tv_rate(0.0, 1.0, 0.5, 1.0, t) == pytest.approx(base**3)


def test_tv_rate_without_merging_never_contracts():
    assert tv_rate(theta=0.0, t0=1.0, alpha=0.0, lambda_star=1.0, t=7.0) == 1.0


def test_tv_rate_reads_inf_where_it_overflows():
    # exp(theta * t0) overflows, and so does a base above 1 to many windows.
    assert tv_rate(10.0, 100.0, 0.5, 1.0, 1000.0) == math.inf
    assert tv_rate(0.5, 1.0, 0.0, 1.0, 2000.0) == math.inf
    assert particle_tv_rate(4, 10.0, 100.0, 0.5, 1.0, 1000.0) == (math.inf, math.inf)


def test_particle_tv_rate_scales_by_system_size():
    total, single = particle_tv_rate(3, theta=0.0, t0=1.0, alpha=0.5, lambda_star=1.0, t=3.0)
    assert single == pytest.approx(0.543458917124313, abs=1e-12)
    assert total == pytest.approx(1.630376751372939, abs=1e-12)
    total1, single1 = particle_tv_rate(1, 0.0, 1.0, 0.5, 1.0, 3.0)
    assert total1 == pytest.approx(single1)


@settings(max_examples=50)
@given(
    st.floats(0.0, 0.05),
    st.floats(0.5, 3.0),
    st.floats(0.1, 1.0),
    st.floats(0.5, 3.0),
)
def test_tv_rate_nonincreasing_in_time_when_base_below_one(theta, t0, alpha, lam):
    base = math.exp(theta * t0) - alpha * math.exp(-lam * t0)
    ts = [k * t0 for k in range(1, 6)]
    rates = [tv_rate(theta, t0, alpha, lam, t) for t in ts]
    if base <= 1.0:
        for a, b in zip(rates, rates[1:]):
            assert b <= a + 1e-12


# ---------------------------------------------------------------------------
# non-linear certificate


def test_nonlinear_certificate_frozen_values():
    cert = nonlinear_certificate(NL)
    assert cert.beta == pytest.approx(21.478522855738063, rel=1e-12)
    assert cert.c_star == pytest.approx(51638.9869737718, rel=1e-10)
    assert cert.kappa == pytest.approx(0.8528482235314231, rel=1e-12)
    assert cert.kappa_tilde == pytest.approx(51639.83982199534, rel=1e-10)
    assert cert.contracts is False
    assert cert.equilibrium_moment_bound == pytest.approx(4.0)
    assert cert.prefactor() == pytest.approx(52.95704571147613, rel=1e-12)
    assert cert.variant == "literal"
    assert cert.kind == "nonlinear"


def test_nonlinear_certificate_no_interaction_drops_coupling_penalty():
    c = dataclasses.replace(NL, theta=0.0)
    cert = nonlinear_certificate(c)
    assert cert.c_star == 0.0
    expected = max(math.exp(-c.rho * (1 - c.eta) * c.t0), cert.kappa)
    assert cert.kappa_tilde == pytest.approx(expected)
    assert cert.contracts is True


def test_nonlinear_certificate_without_merging_cannot_contract():
    c = dataclasses.replace(NL, alpha=0.0)
    cert = nonlinear_certificate(c)
    assert cert.kappa == 1.0
    assert math.isinf(cert.beta)
    assert cert.contracts is False


def test_nonlinear_certificate_strictly_increasing_in_interaction():
    thetas = [0.01 * (k + 1) for k in range(10)]
    values = [
        nonlinear_certificate(dataclasses.replace(NL, theta=th)).kappa_tilde
        for th in thetas
    ]
    for a, b in zip(values, values[1:]):
        assert b > a


def test_nonlinear_vnorm_bound_formula():
    cert = nonlinear_certificate(NL)
    m0v = 3.0
    t = 2.5
    expected = (
        2.0
        * cert.kappa_tilde ** (t / NL.t0 - 1.0)
        * (cert.beta + 1.0 + NL.M / (1.0 - NL.eta))
        * m0v
    )
    assert cert.vnorm_bound(t, m0v) == pytest.approx(expected)


def test_vnorm_bound_of_a_certificate_that_does_not_contract_reads_inf():
    # The ROADMAP snapshot's run-tumble constants: the exponent overflows,
    # so kappa_tilde is inf, and before the first window the decay factor
    # inf ** (t / t0 - 1) would read 0.
    c = AssumptionConstants(
        lambda_star=2.0, theta=0.01, rho=0.1, rho_star=4.57, eta=0.99, M=211.6,
        gamma_star=2.0, alpha=0.85, t0=1.0,
    )
    cert = nonlinear_certificate(c)
    assert cert.kappa_tilde == math.inf
    for t in (0.5, 1.0, 2.0):
        assert cert.vnorm_bound(t, 1.0) == math.inf


def test_lyapunov_decay_bound_formula():
    t, m0v = 2.0, 5.0
    decay = math.exp(-NL.rho * (1.0 - NL.eta) * t)
    expected = decay * m0v + (1.0 - decay) * NL.M / (1.0 - NL.eta)
    assert lyapunov_decay_bound(NL, t, m0v) == pytest.approx(expected)
    assert lyapunov_decay_bound(NL, 0.0, m0v) == pytest.approx(m0v)


@settings(max_examples=50)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.1, 2.0),
    st.floats(0.05, 0.95),
    st.floats(1.0, 5.0),
    st.floats(0.01, 1.0),
    st.floats(0.2, 2.0),
)
def test_nonlinear_certificate_ranges(theta, rho, eta, m, alpha, t0):
    c = AssumptionConstants(
        lambda_star=1.0,
        theta=theta,
        rho=rho,
        rho_star=0.5,
        eta=eta,
        M=m,
        gamma_star=2.0,
        alpha=alpha,
        t0=t0,
    )
    cert = nonlinear_certificate(c)
    assert 0.0 < cert.kappa <= 1.0
    assert cert.beta >= 0.0
    assert cert.c_star >= 0.0
    assert cert.kappa_tilde >= math.exp(-rho * (1.0 - eta) * t0) - 1e-12
    assert cert.contracts == (cert.kappa_tilde < 1.0)


# ---------------------------------------------------------------------------
# particle certificate


def test_particle_certificate_requires_eta_at_least_half():
    with pytest.raises(ValueError):
        particle_certificate(dataclasses.replace(PART, eta=0.4))
    particle_certificate(dataclasses.replace(PART, eta=0.5))


def test_particle_certificate_frozen_values_literal():
    cert = particle_certificate(PART)
    assert cert.variant == "literal"
    assert cert.kind == "particle"
    assert cert.beta == pytest.approx(243.60236745355348, rel=1e-12)
    assert cert.kappa == pytest.approx(0.9458658867053549, rel=1e-12)
    assert cert.kappa_tilde == pytest.approx(37.50597147739277, rel=1e-10)
    assert cert.contracts is False
    assert cert.prefactor(4, 3.0) == pytest.approx(2120.818939628428, rel=1e-10)


def test_particle_certificate_frozen_values_corrected():
    cert = particle_certificate(PART, corrected=True)
    assert cert.variant == "corrected"
    assert cert.kappa_tilde == pytest.approx(45.391062377631826, rel=1e-10)
    assert cert.beta == pytest.approx(243.60236745355348, rel=1e-12)


def test_particle_certificate_variants_agree_without_interaction():
    c = dataclasses.replace(PART, theta=0.0)
    lit = particle_certificate(c)
    cor = particle_certificate(c, corrected=True)
    assert lit.kappa_tilde == pytest.approx(2.0 * lit.kappa)
    assert cor.kappa_tilde == pytest.approx(lit.kappa_tilde)
    assert lit.contracts is False  # 2 * kappa >= 1 always


def test_particle_certificate_variants_agree_at_unit_window():
    c = dataclasses.replace(PART, t0=1.0)
    lit = particle_certificate(c)
    cor = particle_certificate(c, corrected=True)
    assert lit.kappa_tilde == pytest.approx(cor.kappa_tilde)


@settings(max_examples=50)
@given(st.floats(0.0, 1.0), st.floats(0.5, 0.95), st.floats(0.2, 2.0))
def test_particle_certificate_never_contracts(theta, eta, t0):
    c = AssumptionConstants(
        lambda_star=1.0,
        theta=theta,
        rho=1.0,
        rho_star=0.2,
        eta=eta,
        M=2.0,
        gamma_star=2.0,
        alpha=0.8,
        t0=t0,
    )
    for corrected in (False, True):
        cert = particle_certificate(c, corrected=corrected)
        assert cert.kappa_tilde >= 2.0 * cert.kappa - 1e-12
        assert cert.contracts is False


def test_certificate_record_is_immutable():
    cert = nonlinear_certificate(NL)
    assert isinstance(cert, RateCertificate)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.kappa = 0.0
