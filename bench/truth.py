"""Ground-truth dose-effect laws, written from the model's published formulas.

The generator draws the benchmark's inputs from these laws and the
verifiers judge the program's outputs with them.  Nothing here imports
skewdose, so a change to the program cannot change what counts as a
correct answer.

Curves (see README.md of the package):

* mean        mu(d)    = l1 + 1 / (1/(l2 - l1) + exp(m d + p))
* dispersion  sigma(d) = logistic with l1 = 0, or exp(-m d^2 + p d + q)
* skewness    gamma(d) = l + exp(-m d^2 + p d + q)

The skew-normal law at a dose has the curve values as its mean, standard
deviation and skewness, with the skewness clamped to +-CLAMP_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: the model clamps |skewness| at this value before inverting to a law
CLAMP_LIMIT = 0.995

_MU_KEYS = ("m", "p", "l1", "l2")
_GAUSSIAN_KEYS = ("l", "m", "p", "q")


def logistic(c: dict, d):
    """l1 + 1/(1/(l2 - l1) + exp(m d + p)); saturates to l1 on overflow."""
    with np.errstate(over="ignore"):
        return c["l1"] + 1.0 / (1.0 / (c["l2"] - c["l1"])
                                + np.exp(c["m"] * np.asarray(d) + c["p"]))


def gaussian_type(c: dict, d):
    """l + exp(-m d^2 + p d + q)."""
    d = np.asarray(d, dtype=float)
    return c["l"] + np.exp(-c["m"] * d * d + c["p"] * d + c["q"])


@dataclass
class Model:
    """Three curves and the turning dose, as a model document holds them."""

    mu: dict
    sigma_family: str
    sigma: dict
    gamma: dict
    d0_hat: float

    def mean(self, d):
        return logistic(self.mu, d)

    def sd(self, d):
        if self.sigma_family == "logistic":
            return logistic(self.sigma, d)
        return gaussian_type(self.sigma, d)

    def skew(self, d):
        return gaussian_type(self.gamma, d)

    def to_doc(self) -> str:
        """The flat key=value document that ``skewdose fit`` writes."""
        keys = _MU_KEYS if self.sigma_family == "logistic" else _GAUSSIAN_KEYS
        lines = [f"mu.{k}={self.mu[k]:.17g}" for k in _MU_KEYS]
        lines.append(f"sigma.family={self.sigma_family}")
        lines += [f"sigma.{k}={self.sigma[k]:.17g}" for k in keys]
        lines += [f"gamma.{k}={self.gamma[k]:.17g}" for k in _GAUSSIAN_KEYS]
        lines.append(f"d0_hat={self.d0_hat:.17g}")
        return "\n".join(lines) + "\n"


def parse_doc(text: str) -> Model:
    """Read a model document; raises KeyError/ValueError when malformed."""
    pairs = {}
    for line in text.splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    family = pairs["sigma.family"]
    if family not in ("logistic", "gaussian_type"):
        raise ValueError(f"unknown sigma family {family!r}")
    keys = _MU_KEYS if family == "logistic" else _GAUSSIAN_KEYS
    return Model(
        mu={k: float(pairs[f"mu.{k}"]) for k in _MU_KEYS},
        sigma_family=family,
        sigma={k: float(pairs[f"sigma.{k}"]) for k in keys},
        gamma={k: float(pairs[f"gamma.{k}"]) for k in _GAUSSIAN_KEYS},
        d0_hat=float(pairs["d0_hat"]),
    )


def clamp(gamma):
    return np.clip(gamma, -CLAMP_LIMIT, CLAMP_LIMIT)


def skewnorm_params(mu, sd, gamma):
    """(location, scale, shape) of the skew-normal law with these moments.

    The skewness is clamped first, as the model does.
    """
    g = np.abs(clamp(gamma))
    c = ((4.0 - math.pi) / 2.0) ** (2.0 / 3.0)
    abs_delta = g ** (1 / 3) * math.sqrt(math.pi / 2) / np.sqrt(g ** (2 / 3) + c)
    delta = np.copysign(abs_delta, clamp(gamma))
    alpha = delta / np.sqrt(1.0 - delta * delta)
    omega = sd / np.sqrt(1.0 - 2.0 * delta * delta / math.pi)
    xi = mu - omega * delta * math.sqrt(2.0 / math.pi)
    return xi, omega, alpha


def draw(rng: np.random.Generator, mu: float, sd: float, gamma: float,
         n: int) -> np.ndarray:
    """n skew-normal draws with the given (clamped) moments."""
    xi, omega, alpha = skewnorm_params(mu, sd, gamma)
    delta = alpha / math.hypot(1.0, alpha)
    z0 = rng.standard_normal(n)
    z1 = rng.standard_normal(n)
    return xi + omega * (delta * np.abs(z0) + math.sqrt(1 - delta * delta) * z1)
