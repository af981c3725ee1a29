"""Optimal stepsizes, momentum coefficients, and contraction factors.

For smoothness L and strong convexity mu (condition number k = L/mu):

  gd   eta = 2/(L+mu)                    sigma = (k-1)/(k+1)
  agd  eta = 1/L,  gamma = (rk-1)/(rk+1) sigma = sqrt(1 - 1/rk)
  hb   eta = (2/(rL+rmu))**2,
       gamma = ((rk-1)/(rk+1))**2        sigma = (rk-1)/(rk+1)

with rk = sqrt(k), rL = sqrt(L), rmu = sqrt(mu). sigma is the worst-case
per-step contraction of the unquantized method over the smooth strongly
convex class (for hb, additionally twice continuously differentiable).
"""

import math
from dataclasses import dataclass


class InvalidConstantsError(ValueError):
    pass


@dataclass(frozen=True)
class HyperParams:
    eta: float
    gamma: float
    sigma: float

    def __post_init__(self):
        if self.eta <= 0:
            raise InvalidConstantsError("stepsize must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise InvalidConstantsError("momentum must be in [0, 1)")


def sigma_gd(kappa):
    return (kappa - 1.0) / (kappa + 1.0)


def sigma_agd(kappa):
    return math.sqrt(1.0 - 1.0 / math.sqrt(kappa))


def sigma_hb(kappa):
    rk = math.sqrt(kappa)
    return (rk - 1.0) / (rk + 1.0)


def gamma_agd(kappa):
    rk = math.sqrt(kappa)
    return (rk - 1.0) / (rk + 1.0)


def gamma_hb(kappa):
    return gamma_agd(kappa) ** 2


def agd_lambda(kappa):
    """Constant in the unquantized-AGD x-iterate envelope; inf at kappa=1."""
    s = sigma_agd(kappa)
    g = gamma_agd(kappa)
    if s == 0.0:
        return math.inf
    return (1.0 + g + g / s) * math.sqrt(kappa + 1.0)


def optimal_hyperparams(L, mu, algo):
    if not (L >= mu > 0):
        raise InvalidConstantsError(f"need L >= mu > 0, got L={L}, mu={mu}")
    kappa = L / mu
    if algo == "gd":
        return HyperParams(eta=2.0 / (L + mu), gamma=0.0, sigma=sigma_gd(kappa))
    if algo == "agd":
        return HyperParams(eta=1.0 / L, gamma=gamma_agd(kappa), sigma=sigma_agd(kappa))
    if algo == "hb":
        eta = (2.0 / (math.sqrt(L) + math.sqrt(mu))) ** 2
        return HyperParams(eta=eta, gamma=gamma_hb(kappa), sigma=sigma_hb(kappa))
    raise InvalidConstantsError(f"unknown algorithm {algo!r}")
