"""Closed-form contraction-rate curves, thresholds, and finite-t envelopes.

Everything here is a pure function of scalars, used both as plot overlays
and as oracles in the test suite. Values are returned unclipped; clipping
at 1 (non-convergence on a plot) is applied only by the reporting layer.

Notation: eps = rho_n * 2**-R is the covering radius of the deployed
quantizer at unit range; sigma with no suffix is the unquantized method's
worst-case contraction factor at the given condition number.
"""

import math

from .hyperparams import (
    agd_lambda,
    gamma_agd,
    gamma_hb,
    optimal_hyperparams,
    sigma_agd,
    sigma_gd,
    sigma_hb,
)

# floating-point equality is measure zero; treat the resonant branch of the
# range recursion as taken inside this relative window
EQUAL_BRANCH_RTOL = 1e-12


def default_rho(n):
    """Covering efficiency of the deployed scalar uniform quantizer."""
    return math.sqrt(n)


def phi(n, R, gamma, rho=None):
    """Momentum amplification of the quantization-error decay rate.

    Equals 1 at gamma = 0, where the second-order range recursion
    degenerates to the first-order one.
    """
    rho = default_rho(n) if rho is None else rho
    eps = rho * 2.0 ** (-R)
    return 0.5 * (1.0 + gamma) + 0.5 * math.sqrt((1.0 + gamma) ** 2 + 4.0 * gamma / eps)


def phi_roots(gamma, rho, R):
    """Both roots of the range recursion's characteristic polynomial."""
    eps = rho * 2.0 ** (-R)
    disc = math.sqrt((1.0 + gamma) ** 2 + 4.0 * gamma / eps)
    plus = eps * (0.5 * (1.0 + gamma) + 0.5 * disc)
    minus = eps * (0.5 * (1.0 + gamma) - 0.5 * disc)
    return plus, minus


def char_poly(r, gamma, rho, R):
    """p(r) = r^2 - r*eps*(1+gamma) - eps*gamma; p(phi_plus) = p(phi_minus) = 0."""
    eps = rho * 2.0 ** (-R)
    return r * r - r * eps * (1.0 + gamma) - eps * gamma


def achievable_rate(algo, kappa, n, R, rho=None):
    """Proven contraction-factor upper bound of a quantized scheme.

    The DQ family takes the max of the unquantized rate and the
    quantization-error rate; naive quantization pays additively.
    """
    rho = default_rho(n) if rho is None else rho
    eps = rho * 2.0 ** (-R)
    if algo == "dq-gd":
        return max(sigma_gd(kappa), eps)
    if algo == "dq-agd":
        return max(sigma_agd(kappa), eps * phi(n, R, gamma_agd(kappa), rho))
    if algo == "dq-hb":
        return max(sigma_hb(kappa), eps * phi(n, R, gamma_hb(kappa), rho))
    if algo == "nq-gd":
        return sigma_gd(kappa) + (2.0 * kappa / (kappa + 1.0)) * eps
    raise ValueError(f"unknown algorithm {algo!r}")


def thresholds(n, sigma, gamma, rho=None):
    """(R1, R2): rates above which a DQ scheme converges linearly / matches
    its unquantized counterpart.

    R2 is None when sigma = 0 (condition number 1, one-step convergence:
    any rate already matches the unquantized method).
    """
    rho = default_rho(n) if rho is None else rho
    r1 = math.log2(1.0 + 2.0 * gamma) + math.log2(rho)
    if sigma == 0.0:
        return r1, None
    r2 = math.log2(((1.0 + gamma) * sigma + gamma) / sigma**2) + math.log2(rho)
    return r1, r2


def converse_curve(family, kappa, R):
    """Information-theoretic floor: no scheme in the class beats this."""
    if family == "gd":
        return max(sigma_gd(kappa), 2.0 ** (-R))
    if family == "gm":
        return max(sigma_hb(kappa), 2.0 ** (-R))
    raise ValueError(f"unknown converse family {family!r}")


def b_coefficient(t, sigma, eps):
    """Transient factor of the first-order range recursion at step t."""
    if abs(sigma - eps) <= EQUAL_BRANCH_RTOL * max(sigma, eps):
        return t + 1.0
    return eps / abs(sigma - eps)


def envelope_dq_gd(t, L, mu, D, n, R, rho=None):
    """max{sigma, eps}^t * (1 + eta*L*b_{t-1}) * D, b treated as 0 at t=0."""
    rho = default_rho(n) if rho is None else rho
    hp = optimal_hyperparams(L, mu, "gd")
    eps = rho * 2.0 ** (-R)
    base = max(hp.sigma, eps) ** t
    if t == 0:
        return float(D)
    return base * (1.0 + hp.eta * L * b_coefficient(t - 1, hp.sigma, eps)) * D


def _second_order_constants(sigma, gamma, leading_scale, rho, R):
    """Particular/homogeneous coefficients of the momentum range recursion.

    leading_scale multiplies sigma**t in the recursion's forcing term
    (L*D*lambda for the accelerated scheme, e**alpha*sqrt(2)*L*D for the
    heavy ball). Returns (c0, c_plus, c_minus, phi_plus, phi_minus); the
    resonant case p(sigma) = 0 yields infinities.
    """
    p_sigma = char_poly(sigma, gamma, rho, R)
    plus, minus = phi_roots(gamma, rho, R)
    if p_sigma == 0.0:
        inf = math.inf
        return inf, -inf, inf, plus, minus
    c0 = sigma**2 / p_sigma * leading_scale
    c_plus = -(c0 * plus**2 / sigma**2) * (sigma - minus) / (plus - minus)
    c_minus = (c0 * minus**2 / sigma**2) * (sigma - plus) / (plus - minus)
    return c0, c_plus, c_minus, plus, minus


def envelope_dq_agd(t, L, mu, D, n, R, rho=None):
    """Distance envelope for the accelerated scheme's gradient-step iterate.

    This is the y-iterate bound; at t = 0 the stored errors are zero and
    the envelope reduces to sqrt(kappa+1) * D.
    """
    rho = default_rho(n) if rho is None else rho
    kappa = L / mu
    hp = optimal_hyperparams(L, mu, "agd")
    if t == 0:
        return math.sqrt(kappa + 1.0) * D
    c0, cp, cm, plus, minus = _second_order_constants(
        hp.sigma, hp.gamma, L * D * agd_lambda(kappa), rho, R
    )
    c = math.sqrt(kappa + 1.0) * D + hp.eta * c0 / hp.sigma
    return hp.sigma**t * c + plus ** (t - 1) * cp * hp.eta + minus ** (t - 1) * cm * hp.eta


def envelope_dq_hb(t, L, mu, D, n, R, alpha, rho=None):
    """Distance envelope for the heavy-ball scheme's iterate.

    alpha is the subexponential exponent of the unquantized heavy-ball
    bound; the envelope only holds for an alpha large enough for the
    instance family (alpha = 1 suffices on least squares), and t**alpha is
    evaluated as max(t,1)**alpha so t = 0 stays meaningful.
    """
    rho = default_rho(n) if rho is None else rho
    kappa = L / mu
    hp = optimal_hyperparams(L, mu, "hb")
    boost = math.e**alpha
    if t == 0:
        return boost * math.sqrt(2.0) * D
    c0, cp, cm, plus, minus = _second_order_constants(
        hp.sigma, hp.gamma, boost * math.sqrt(2.0) * L * D, rho, R
    )
    # the stepsize multiplies the whole stored-error bound; the heavy-ball
    # stepsize can exceed 1, so it cannot be dropped from these terms
    c = boost * math.sqrt(2.0) * D + hp.eta * c0 / hp.sigma
    body = (hp.sigma**t * c
            + hp.eta * (plus ** (t - 1) * cp + minus ** (t - 1) * cm))
    return body * max(t, 1) ** alpha


def nq_sigma(L_list, mu_mean, rates, n, rho=None):
    """Contraction factor of naively quantized descent at deployed rates.

    sigma_gd + eta*rho/K * sum_k L_k 2**-R_k, where (L, mu) of the average
    objective are the means of the local constants.
    """
    rho = default_rho(n) if rho is None else rho
    K = len(L_list)
    L_mean = sum(L_list) / K
    hp = optimal_hyperparams(L_mean, mu_mean, "gd")
    return hp.sigma + hp.eta * rho / K * sum(
        Lk * 2.0 ** (-Rk) for Lk, Rk in zip(L_list, rates)
    )


def envelope_nq_gd(t, sigma_nq, D):
    return sigma_nq**t * D


def finite_t_envelope(algo, t, L, mu, D, n, R, rho=None, alpha=0.0, rates=None):
    """Dispatch to the per-scheme distance envelope at step t."""
    if algo == "dq-gd":
        return envelope_dq_gd(t, L, mu, D, n, R, rho)
    if algo == "dq-agd":
        return envelope_dq_agd(t, L, mu, D, n, R, rho)
    if algo == "dq-hb":
        return envelope_dq_hb(t, L, mu, D, n, R, alpha, rho)
    if algo == "nq-gd":
        rates = [R] if rates is None else rates
        s = nq_sigma([L] * len(rates), mu, rates, n, rho)
        return envelope_nq_gd(t, s, D)
    raise ValueError(f"unknown algorithm {algo!r}")


def agd_unquantized_envelopes(t, kappa, D):
    """(y-envelope, x-envelope) of unquantized accelerated descent."""
    s = sigma_agd(kappa)
    return s**t * math.sqrt(kappa + 1.0) * D, s**t * agd_lambda(kappa) * D


def clip_for_plot(value):
    """Reporting-only clip; oracle comparisons use raw values."""
    return min(value, 1.0)
