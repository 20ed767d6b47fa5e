"""Symmetric Unary Encoding (SUE, a.k.a. basic one-time RAPPOR).

One-hot encode, then flip every bit symmetrically: a bit keeps its value
with probability ``p = e^{eps/2} / (e^{eps/2} + 1)``.  Included as the
classic deployed baseline (Erlingsson et al., CCS 2014); OUE strictly
dominates it in variance.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import SeedLike, ensure_rng
from .base import SupportCountOracle, register_oracle
from .variance import sue_mean_variance


def sue_probabilities(epsilon: float) -> tuple[float, float]:
    """Return SUE's ``(p, q)``: 1-bit keep probability and 0-bit flip rate."""
    s = math.exp(epsilon / 2.0)
    return s / (s + 1.0), 1.0 / (s + 1.0)


@register_oracle
class SUE(SupportCountOracle):
    """Symmetric Unary Encoding (basic RAPPOR)."""

    name = "sue"

    def perturb(self, values, domain_size, epsilon, rng: SeedLike = None):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        values = self._check_values(values, domain_size)
        rng = ensure_rng(rng)
        p, q = sue_probabilities(epsilon)
        n = values.shape[0]
        bits = rng.random((n, domain_size)) < q
        bits[np.arange(n), values] = rng.random(n) < p
        return bits

    def support_probabilities(self, epsilon, domain_size):
        epsilon = self._check_epsilon(epsilon)
        self._check_domain(domain_size)
        return sue_probabilities(epsilon)

    def aggregate_supports(self, reports, domain_size, epsilon):
        self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        reports = np.asarray(reports, dtype=bool)
        if reports.ndim != 2 or reports.shape[1] != domain_size:
            raise ValueError("SUE reports must be an (n, d) bit matrix")
        return reports.sum(axis=0, dtype=np.int64)

    def variance(self, epsilon: float, n: int, domain_size: int) -> float:
        return sue_mean_variance(epsilon, n, domain_size)
