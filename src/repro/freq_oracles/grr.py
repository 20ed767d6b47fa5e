"""Generalized Randomized Response (GRR) frequency oracle.

The paper's primary FO (Section 3.4, Eq. 1): a user with value ``v`` reports
``v`` with probability ``p = e^eps / (e^eps + d - 1)`` and each other value
with probability ``q = 1 / (e^eps + d - 1)``.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import SeedLike, ensure_rng
from .base import FOEstimate, FrequencyOracle, register_oracle
from .variance import grr_mean_variance


def grr_probabilities(epsilon: float, domain_size: int) -> tuple[float, float]:
    """Return GRR's ``(p, q)`` keep/flip probabilities (Eq. 1)."""
    e = math.exp(epsilon)
    p = e / (e + domain_size - 1)
    q = 1.0 / (e + domain_size - 1)
    return p, q


def _liar_spread(domain_size: int) -> np.ndarray:
    """``(d, d)`` multinomial rows: row ``k`` is uniform over the other
    ``d - 1`` values, with a zero on the diagonal."""
    spread = np.full((domain_size, domain_size), 1.0 / (domain_size - 1))
    np.fill_diagonal(spread, 0.0)
    return spread


@register_oracle
class GRR(FrequencyOracle):
    """Generalized Randomized Response (a.k.a. k-RR / direct encoding)."""

    name = "grr"

    def perturb(self, values, domain_size, epsilon, rng: SeedLike = None):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        values = self._check_values(values, domain_size)
        rng = ensure_rng(rng)
        p, _ = grr_probabilities(epsilon, domain_size)
        n = values.shape[0]
        keep = rng.random(n) < p
        # A lying user reports uniformly among the d-1 *other* values: draw
        # from d-1 slots and shift slots >= v up by one to skip v itself.
        alternatives = rng.integers(0, domain_size - 1, size=n)
        alternatives += (alternatives >= values).astype(np.int64)
        return np.where(keep, values, alternatives)

    def support_probabilities(self, epsilon, domain_size):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        return grr_probabilities(epsilon, domain_size)

    def aggregate_supports(self, reports, domain_size, epsilon):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        reports = self._check_values(reports, domain_size)
        return np.bincount(reports, minlength=domain_size)

    def sample_aggregate(self, true_counts, epsilon, rng: SeedLike = None):
        epsilon = self._check_epsilon(epsilon)
        true_counts = np.asarray(true_counts, dtype=np.int64)
        domain_size = self._check_domain(true_counts.shape[0])
        rng = ensure_rng(rng)
        n = int(true_counts.sum())
        p, q = grr_probabilities(epsilon, domain_size)

        # Users with true value k keep it with prob p; the liars spread
        # uniformly over the other d-1 values.  Summing the liar multinomials
        # gives the exact distribution of the perturbed count vector.  One
        # batched multinomial draws all d spreads at once: row k of pvals is
        # uniform over the other values with a zero on the diagonal, so no
        # liar mass ever lands back on its own value.
        keepers = rng.binomial(true_counts, p)
        liars = true_counts - keepers
        perturbed = keepers.astype(np.float64)
        spread = rng.multinomial(liars, _liar_spread(domain_size))
        perturbed += spread.sum(axis=0)
        freqs = self._debias(perturbed, n, p, q)
        return FOEstimate(
            frequencies=freqs,
            n_reports=n,
            epsilon=epsilon,
            variance=self.variance(epsilon, n, domain_size),
            supports=perturbed,
        )

    def run_sampler(self, epsilon, domain_size):
        from ..engine.kernels_fast import debias_rows

        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        p, q = grr_probabilities(epsilon, domain_size)
        uniform_over_others = _liar_spread(domain_size)

        # GRR alternates a binomial with a multinomial per round, so rounds
        # cannot merge into one generator call without reordering the
        # bitstream.  The loop stays, with the liar-spread matrix and the
        # probability setup built once per budget: each iteration issues
        # the exact two draws sample_aggregate would.
        def sample(true_counts, rng):
            counts = self._check_batch_counts(true_counts)
            if counts.shape[0] == 0:
                return np.empty((0, counts.shape[1]), dtype=np.float64)
            n = counts.sum(axis=1)
            if int(n.min()) <= 0:
                raise InvalidParameterError("cannot aggregate zero reports")
            perturbed = np.empty(counts.shape, dtype=np.float64)
            for b, row in enumerate(counts):
                keepers = rng.binomial(row, p)
                liars = row - keepers
                spread = rng.multinomial(liars, uniform_over_others)
                perturbed[b] = keepers
                perturbed[b] += spread.sum(axis=0)
            return debias_rows(perturbed, n.astype(np.float64), p, q)

        return sample

    def round_sampler(self, epsilon, domain_size):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        p, q = grr_probabilities(epsilon, domain_size)
        uniform_over_others = _liar_spread(domain_size)

        # Building the (d, d) liar-spread matrix dominates GRR's per-call
        # cost; hoisting it (plus the probability setup) leaves exactly
        # the two draws sample_aggregate issues — bit-identical per round.
        def sample(true_counts, rng):
            n = int(true_counts.sum())
            keepers = rng.binomial(true_counts, p)
            liars = true_counts - keepers
            perturbed = keepers.astype(np.float64)
            spread = rng.multinomial(liars, uniform_over_others)
            perturbed += spread.sum(axis=0)
            return (perturbed / n - q) / (p - q)

        return sample

    def variance(self, epsilon: float, n: int, domain_size: int) -> float:
        return grr_mean_variance(epsilon, n, domain_size)
