"""Closed-form contraction certificates for merge/split couplings.

Given a handful of model constants (jump-rate ceiling, interaction strength,
Lyapunov drift parameters, a minorisation constant for the underlying base
motion) these routines produce explicit decay rates for the total-variation
and weighted-norm distances achieved by the couplings in
:mod:`mfjump.coupling`.  Everything here is a plain formula: no simulation,
no randomness.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = [
    "AssumptionConstants",
    "RateCertificate",
    "lyapunov_decay_bound",
    "nonlinear_certificate",
    "particle_certificate",
    "particle_tv_rate",
    "tv_rate",
]


def _capped(fn):
    """``fn``, reading ``inf`` where its float result overflows.  Every
    exponential and power here goes through it, so a certificate whose
    exponent overflows reports ``kappa_tilde = inf`` and does not contract."""

    def capped(*args):
        try:
            return fn(*args)
        except OverflowError:
            return math.inf

    return capped


_exp, _pow = _capped(math.exp), _capped(pow)


def _unbounded(x: float) -> float:
    """``x``, or ``inf`` where it is NaN: a product of an overflowed factor
    and one that rounded to 0 reads as the overflow, as in :func:`_capped`."""
    return math.inf if math.isnan(x) else x


@dataclasses.dataclass(frozen=True)
class AssumptionConstants:
    """Model constants entering the contraction certificates.

    Attributes:
        lambda_star: Uniform ceiling on the total jump rate.
        theta: Lipschitz constant of the jump mechanism in its measure
            argument (interaction strength); ``0`` means no interaction.
        rho: Lyapunov drift rate of the base motion.
        rho_star: Growth bound for the Lyapunov function under jumps.
        eta: Fraction of the Lyapunov drift consumed by jump growth,
            in ``[0, 1)``.
        M: Lyapunov drift offset (``L V <= -rho V + rho M``); at least 1.
        gamma_star: Jump amplification factor of the Lyapunov function,
            at least 1.
        alpha: Base-motion meeting probability over one window, in ``[0, 1]``.
        t0: Window length used by the coupling restarts.
    """

    lambda_star: float
    theta: float
    rho: float
    rho_star: float
    eta: float
    M: float
    gamma_star: float
    alpha: float
    t0: float

    def __post_init__(self) -> None:
        if not self.lambda_star > 0.0:
            raise ValueError("lambda_star must be positive")
        if self.theta < 0.0:
            raise ValueError("theta must be nonnegative")
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        if self.M < 1.0:
            raise ValueError("M must be at least 1")
        if self.gamma_star < 1.0:
            raise ValueError("gamma_star must be at least 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not self.t0 > 0.0:
            raise ValueError("t0 must be positive")


@dataclasses.dataclass(frozen=True)
class RateCertificate:
    """Explicit contraction constants for one coupling construction.

    Attributes:
        kind: ``"nonlinear"`` (two coupled flows) or ``"particle"``
            (coupled interacting systems).
        variant: Which form of the window penalty was used; the
            ``"corrected"`` particle variant multiplies the full jump-growth
            exponent by the window length, the ``"literal"`` one scales only
            its second summand.
        beta: Weight mixing total variation into the weighted distance.
        c_star: Interaction penalty accumulated over one window.
        kappa: One-window contraction factor ignoring interaction.
        kappa_tilde: One-window factor including the interaction penalty;
            the bound contracts iff this is below 1.
        contracts: Whether ``kappa_tilde < 1``.
        equilibrium_moment_bound: Long-run bound ``M / (1 - eta)`` on the
            Lyapunov moment.
        constants: The inputs the certificate was derived from.
    """

    kind: str
    variant: str
    beta: float
    c_star: float
    kappa: float
    kappa_tilde: float
    contracts: bool
    equilibrium_moment_bound: float
    constants: AssumptionConstants

    def prefactor(self, n: int | None = None, m0v: float | None = None) -> float:
        """Constant in front of the geometric decay.

        For ``kind == "nonlinear"`` no arguments are needed.  For
        ``kind == "particle"`` the system size ``n`` and the initial
        Lyapunov moment ``m0v`` enter the constant.
        """
        c = self.constants
        if self.kind == "nonlinear":
            return 2.0 * (self.beta + 1.0 + c.M / (1.0 - c.eta))
        if n is None or m0v is None:
            raise ValueError("particle prefactor needs the system size and initial moment")
        return 2.0 * n * (self.beta + 1.5 + (1.0 + m0v) * c.M / (1.0 - c.eta))

    def vnorm_bound(self, t: float, m0v: float, n: int | None = None) -> float:
        """Weighted-norm bound at time ``t`` from initial moment ``m0v``;
        ``inf`` when ``kappa_tilde`` is, since such a bound does not contract."""
        if self.kappa_tilde == math.inf:
            return math.inf
        c = self.constants
        decay = _pow(self.kappa_tilde, t / c.t0 - 1.0)
        if self.kind == "nonlinear":
            return self.prefactor() * decay * m0v
        return self.prefactor(n, m0v) * decay


def tv_rate(theta: float, t0: float, alpha: float, lambda_star: float, t: float) -> float:
    """Total-variation decay factor for the two-flow coupling at time ``t``.

    One window of length ``t0`` multiplies the bound by
    ``exp(theta t0) - alpha exp(-lambda_star t0)``; the leading
    ``exp(theta t0)`` covers the partial window in progress.
    """
    windows = math.floor(t / t0 + 1e-9)
    base = _exp(theta * t0) - alpha * _exp(-lambda_star * t0)
    return _exp(theta * t0) * _pow(base, windows)


def particle_tv_rate(
    n: int, theta: float, t0: float, alpha: float, lambda_star: float, t: float
) -> tuple[float, float]:
    """Per-system and per-coordinate total-variation decay factors.

    Returns ``(n * r, r)`` where ``r`` is the single-pair rate from
    :func:`tv_rate`: coordinate discrepancies add across the system.
    """
    single = tv_rate(theta, t0, alpha, lambda_star, t)
    return n * single, single


def lyapunov_decay_bound(c: AssumptionConstants, t: float, m0v: float) -> float:
    """Bound on the Lyapunov moment at time ``t`` from initial moment ``m0v``.

    The moment relaxes exponentially at rate ``rho (1 - eta)`` towards the
    equilibrium level ``M / (1 - eta)``.
    """
    decay = _exp(-c.rho * (1.0 - c.eta) * t)
    return decay * m0v + (1.0 - decay) * c.M / (1.0 - c.eta)


def nonlinear_certificate(c: AssumptionConstants) -> RateCertificate:
    """Contraction certificate for the coupling of two measure flows."""
    s = c.M / (1.0 - c.eta) + 1.0
    if c.alpha > 0.0:
        beta = _unbounded(
            2.0 * (1.0 - _exp(-c.rho * c.t0)) * _exp(c.lambda_star * c.t0) / c.alpha * s
        )
    else:
        beta = math.inf
    kappa = max(
        (1.0 + _exp(-c.rho * c.t0)) / 2.0,
        1.0 - (c.alpha / 2.0) * _exp(-c.lambda_star * c.t0),
    )
    if c.theta == 0.0:
        c_star = 0.0
    else:
        c_star = _unbounded(
            c.theta
            * (2.0 * (1.0 + beta) * c.gamma_star * s)
            / ((c.rho + c.theta * c.gamma_star) * s)
            * _exp((c.rho_star + c.lambda_star * (c.gamma_star - 1.0)) * c.t0)
            * (_exp((c.rho + c.theta * c.gamma_star) * s * c.t0) - 1.0)
        )
    kappa_tilde = max(_exp(-c.rho * (1.0 - c.eta) * c.t0), kappa + c_star)
    return RateCertificate(
        kind="nonlinear",
        variant="literal",
        beta=beta,
        c_star=c_star,
        kappa=kappa,
        kappa_tilde=kappa_tilde,
        contracts=bool(kappa_tilde < 1.0),
        equilibrium_moment_bound=c.M / (1.0 - c.eta),
        constants=c,
    )


def particle_certificate(c: AssumptionConstants, corrected: bool = False) -> RateCertificate:
    """Contraction certificate for the coupling of two interacting systems.

    Requires ``eta >= 1/2``.  The ``corrected`` variant applies the window
    length to the whole jump-growth exponent ``rho_star +
    lambda_star (gamma_star - 1)``; the literal variant scales only the
    second summand.  The two agree when ``t0 == 1`` or ``theta == 0``.
    """
    if c.eta < 0.5:
        raise ValueError("the particle certificate requires eta >= 1/2")
    half_rate = 0.5 * c.rho * (1.0 - c.eta) * c.t0
    if c.alpha > 0.0:
        beta = _unbounded(
            4.0
            * (1.0 + c.eta)
            * c.M
            * _exp(c.lambda_star * c.t0)
            / (c.alpha * (1.0 - c.eta) ** 2)
            * (1.0 - _exp(-half_rate))
        )
    else:
        beta = math.inf
    kappa = max(
        (1.0 + _exp(-half_rate)) / 2.0,
        1.0 - (c.alpha / 2.0) * _exp(-c.lambda_star * c.t0),
    )
    if c.theta == 0.0:
        penalty = 0.0
    else:
        if corrected:
            growth = _exp((c.rho_star + c.lambda_star * (c.gamma_star - 1.0)) * c.t0)
        else:
            growth = _exp(c.rho_star + c.lambda_star * (c.gamma_star - 1.0) * c.t0)
        penalty = _unbounded(
            (_exp(c.theta * c.t0) - 1.0)
            * (c.gamma_star + 1.0)
            * growth
            * (1.0 + c.eta)
        )
    kappa_tilde = 2.0 * kappa + penalty
    return RateCertificate(
        kind="particle",
        variant="corrected" if corrected else "literal",
        beta=beta,
        c_star=penalty,
        kappa=kappa,
        kappa_tilde=kappa_tilde,
        contracts=bool(kappa_tilde < 1.0),
        equilibrium_moment_bound=c.M / (1.0 - c.eta),
        constants=c,
    )
