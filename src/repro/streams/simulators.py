"""Generative simulators standing in for the paper's real-world datasets.

The paper evaluates on three proprietary / non-redistributable datasets
(Section 7.1.2).  This environment has no network access, so each dataset
is replaced by a generative simulator matched on the statistics the paper
reports (N, T, d) and on the qualitative dynamics the LDP-IDS mechanisms
are sensitive to — sparsity of the histogram, temporal stickiness of
per-user values, and the drift/burst structure of the population
distribution.  Each class below documents its substitution; the
real-world stand-ins paragraph of docs/ARCHITECTURE.md (section
``repro.streams``) places them in the stream layer.

* :class:`TaxiSimulator` — T-Drive Beijing taxis: N=10,357 taxis, T=886
  ten-minute slots, d=5 grid regions.  Modelled as per-taxi sticky movement
  between regions whose popularity follows a diurnal (rush-hour) cycle.
* :class:`FoursquareSimulator` — check-ins over d=77 countries, N=265,149,
  T=447.  Zipf-skewed country popularity with slow log-weight random-walk
  drift and very sticky users (people rarely change country).
* :class:`TaobaoSimulator` — ad clicks over d=117 categories, N=1,023,154,
  T=432 ten-minute slots (3 days).  Zipf category popularity, strong
  diurnal cycle, occasional short bursts on a random category (flash-sale
  behaviour), fickle users.

All three accept a ``scale`` divisor on N (default keeps benches
laptop-sized; ``scale=1`` reproduces the paper's population).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import SeedLike, ensure_rng
from .base import GenerativeStream
from .markov import MarkovValueProcess

#: Slots per simulated day at 10-minute resolution.
_SLOTS_PER_DAY = 144


def _rng_from_state(state: dict) -> np.random.Generator:
    """Rebuild a generator frozen at a previously captured bit state."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def zipf_weights(domain_size: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf popularity weights ``1/rank^exponent``."""
    ranks = np.arange(1, domain_size + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, exponent)
    return weights / weights.sum()


class _MarkovSimulator(GenerativeStream):
    """Shared scaffolding: a GenerativeStream driven by a Markov process."""

    name = "markov-sim"

    def __init__(
        self,
        n_users: int,
        domain_size: int,
        horizon: Optional[int],
        churn_rate: float,
        seed: SeedLike,
    ):
        super().__init__(n_users, domain_size, horizon)
        self._process = MarkovValueProcess(
            n_users=n_users,
            target_distribution=self.target_distribution,
            churn_rate=churn_rate,
            seed=ensure_rng(seed),
        )
        # Snapshot the process generator *as constructed* (the subclass may
        # have consumed draws from the shared generator first), so reset()
        # replays bit-identically to a fresh build with the same seed —
        # the equivalence the parallel experiment engine relies on when
        # workers rebuild datasets by registry name.
        self._initial_process_state = self._process.rng_state()

    def target_distribution(self, t: int) -> np.ndarray:
        """Population-level value distribution at timestamp ``t``."""
        raise NotImplementedError

    def _advance(self, t: int) -> np.ndarray:
        return self._process.step(t)

    def _reset_state(self) -> None:
        self._process.reset(_rng_from_state(self._initial_process_state))


class TaxiSimulator(_MarkovSimulator):
    """Simulated T-Drive taxi density stream (N=10,357, T=886, d=5)."""

    name = "Taxi"

    def __init__(
        self,
        n_users: int = 10_357,
        horizon: int = 886,
        domain_size: int = 5,
        churn_rate: float = 0.15,
        scale: int = 1,
        seed: SeedLike = None,
    ):
        if scale < 1:
            raise InvalidParameterError("scale must be >= 1")
        rng = ensure_rng(seed)
        self._base = rng.dirichlet(np.full(domain_size, 4.0))
        # Each region gets its own rush-hour phase and modulation depth so
        # density shifts between regions through the day.
        self._phase = rng.uniform(0.0, 2.0 * np.pi, size=domain_size)
        self._depth = rng.uniform(0.2, 0.6, size=domain_size)
        super().__init__(
            n_users=max(2, n_users // scale),
            domain_size=domain_size,
            horizon=horizon,
            churn_rate=churn_rate,
            seed=rng,
        )

    def target_distribution(self, t: int) -> np.ndarray:
        angle = 2.0 * np.pi * (t % _SLOTS_PER_DAY) / _SLOTS_PER_DAY
        weights = self._base * (1.0 + self._depth * np.sin(angle + self._phase))
        weights = np.clip(weights, 1e-6, None)
        return weights / weights.sum()


class FoursquareSimulator(_MarkovSimulator):
    """Simulated Foursquare check-in stream (N=265,149, T=447, d=77)."""

    name = "Foursquare"

    def __init__(
        self,
        n_users: int = 265_149,
        horizon: int = 447,
        domain_size: int = 77,
        churn_rate: float = 0.02,
        zipf_exponent: float = 1.1,
        drift_std: float = 0.01,
        scale: int = 8,
        seed: SeedLike = None,
    ):
        if scale < 1:
            raise InvalidParameterError("scale must be >= 1")
        rng = ensure_rng(seed)
        base = zipf_weights(domain_size, zipf_exponent)
        self._log_weights = np.log(rng.permutation(base))
        self._initial_log_weights = self._log_weights.copy()
        self._drift_std = float(drift_std)
        self._drift_rng = ensure_rng(int(rng.integers(0, 2**31 - 1)))
        self._drift_state = self._drift_rng.bit_generator.state
        self._last_t = -1
        super().__init__(
            n_users=max(2, n_users // scale),
            domain_size=domain_size,
            horizon=horizon,
            churn_rate=churn_rate,
            seed=rng,
        )

    def target_distribution(self, t: int) -> np.ndarray:
        # Slow random-walk drift in log-weight space; one drift step per
        # new timestamp keeps the distribution smooth between snapshots.
        while self._last_t < t:
            self._log_weights = self._log_weights + self._drift_rng.normal(
                0.0, self._drift_std, size=self._log_weights.shape
            )
            self._last_t += 1
        weights = np.exp(self._log_weights - self._log_weights.max())
        return weights / weights.sum()

    def _reset_state(self) -> None:  # re-deterministic drift on replay
        super()._reset_state()
        self._log_weights = self._initial_log_weights.copy()
        self._drift_rng = _rng_from_state(self._drift_state)
        self._last_t = -1


class TaobaoSimulator(_MarkovSimulator):
    """Simulated Taobao ad-click stream (N=1,023,154, T=432, d=117)."""

    name = "Taobao"

    def __init__(
        self,
        n_users: int = 1_023_154,
        horizon: int = 432,
        domain_size: int = 117,
        churn_rate: float = 0.3,
        zipf_exponent: float = 1.2,
        diurnal_depth: float = 0.5,
        burst_probability: float = 0.02,
        burst_boost: float = 4.0,
        burst_length: int = 12,
        scale: int = 32,
        seed: SeedLike = None,
    ):
        if scale < 1:
            raise InvalidParameterError("scale must be >= 1")
        rng = ensure_rng(seed)
        self._base = rng.permutation(zipf_weights(domain_size, zipf_exponent))
        self._diurnal_depth = float(diurnal_depth)
        self._burst_probability = float(burst_probability)
        self._burst_boost = float(burst_boost)
        self._burst_length = int(burst_length)
        self._burst_rng = ensure_rng(int(rng.integers(0, 2**31 - 1)))
        self._burst_state = self._burst_rng.bit_generator.state
        self._burst_category = -1
        self._burst_until = -1
        self._last_t = -1
        super().__init__(
            n_users=max(2, n_users // scale),
            domain_size=domain_size,
            horizon=horizon,
            churn_rate=churn_rate,
            seed=rng,
        )

    def target_distribution(self, t: int) -> np.ndarray:
        while self._last_t < t:
            self._last_t += 1
            if (
                self._last_t >= self._burst_until
                and self._burst_rng.random() < self._burst_probability
            ):
                self._burst_category = int(
                    self._burst_rng.integers(0, self.domain_size)
                )
                self._burst_until = self._last_t + self._burst_length
        angle = 2.0 * np.pi * (t % _SLOTS_PER_DAY) / _SLOTS_PER_DAY
        # Overall click intensity dips at night; express it as tilting mass
        # toward the head of the Zipf distribution during the day.
        tilt = 1.0 + self._diurnal_depth * np.sin(angle)
        weights = np.power(self._base, 1.0 / max(tilt, 0.25))
        if t < self._burst_until and self._burst_category >= 0:
            weights = weights.copy()
            weights[self._burst_category] *= self._burst_boost
        return weights / weights.sum()

    def _reset_state(self) -> None:
        super()._reset_state()
        self._burst_rng = _rng_from_state(self._burst_state)
        self._burst_category = -1
        self._burst_until = -1
        self._last_t = -1
