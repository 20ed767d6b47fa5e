"""Frequency-oracle (FO) abstraction.

A frequency oracle is the LDP building block used throughout the paper
(Section 3.4): each user holds a private value ``v`` in a categorical domain
of size ``d`` and sends a randomized report; the aggregator turns the set of
reports into an unbiased estimate of the value-frequency histogram.

Two execution paths are provided by every oracle:

``perturb``
    Per-user simulation: maps an array of true values to an array of
    reports.  This is the literal protocol and is used in unit and property
    tests, and anywhere per-user artefacts matter.

``sample_aggregate``
    Count-level simulation: directly samples the aggregator's *perturbed
    count vector* from its exact sampling distribution (sums of independent
    Bernoullis become binomials/multinomials).  Statistically identical to
    running ``perturb`` + counting, but orders of magnitude faster for the
    large populations in the paper's experiments.

Both paths end in :meth:`FrequencyOracle.estimate_from_supports`, the
standard unbiased debiasing ``(c'/n - q) / (p - q)`` (Section 3.4).

There are two count-level draw shapes.  GRR spreads its liars with a
multinomial; OUE, SUE, OLH and HR all draw ``Binomial(n_k, p) +
Binomial(n - n_k, q)`` per cell with their own ``(p, q)``, so they share
one implementation, :class:`SupportCountOracle`.  Each shape comes with
prepared samplers (``round_sampler``, ``run_sampler``) that hoist the
per-budget setup and stay bit-identical to ``sample_aggregate``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, Optional, Type

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class FOEstimate:
    """Result of one frequency-oracle aggregation round.

    Attributes
    ----------
    frequencies:
        Unbiased estimate of the *reporting group's* value frequencies, one
        entry per domain element.  Not clipped and not normalised; see
        :mod:`repro.freq_oracles.postprocess` for consistency steps.
    n_reports:
        Number of users that contributed a report.
    epsilon:
        Per-report LDP budget used for this round.
    variance:
        Closed-form per-cell estimation variance, averaged over the domain,
        using the frequency-independent approximation of Eq. (2).
    supports:
        The round's *sufficient statistic*: the perturbed support-count
        vector the estimate was debiased from (``None`` on estimates
        built before support tracking, e.g. hand-constructed ones).
        Supports are additive across disjoint reporting groups — summing
        shard supports and re-debiasing reproduces the whole-group
        estimate bit-for-bit, which is what makes collection rounds
        shard-mergeable (see :meth:`repro.engine.collector.Collector.merge`).
    """

    frequencies: np.ndarray
    n_reports: int
    epsilon: float
    variance: float
    supports: Optional[np.ndarray] = None

    @property
    def domain_size(self) -> int:
        return int(self.frequencies.shape[0])


class FrequencyOracle(abc.ABC):
    """Abstract base class for LDP frequency oracles over ``{0, ..., d-1}``.

    Subclasses implement a specific randomized-response encoding.  Oracles
    are stateless with respect to data: domain size and budget are passed per
    call, so a single oracle instance can serve every round of a streaming
    session (where the budget varies between rounds under budget division).
    """

    #: Registry name, e.g. ``"grr"``; set by subclasses.
    name: str = ""

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def perturb(
        self,
        values: np.ndarray,
        domain_size: int,
        epsilon: float,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Perturb an integer array of true values; return per-user reports.

        The report representation is oracle specific (a value for GRR, a bit
        vector row for unary encodings) but is always consumable by
        :meth:`aggregate`.
        """

    def aggregate(
        self,
        reports: np.ndarray,
        domain_size: int,
        epsilon: float,
    ) -> FOEstimate:
        """Debias per-user reports into an unbiased frequency estimate."""
        supports = self.aggregate_supports(reports, domain_size, epsilon)
        n = np.asarray(reports).shape[0]
        return self.estimate_from_supports(supports, n, domain_size, epsilon)

    # ------------------------------------------------------------------
    # Sufficient statistics (shard mergeability)
    # ------------------------------------------------------------------
    # Every oracle in this library estimates frequencies as an affine map
    # of an integer *support-count* vector: ``f = (c/n - q) / (p - q)``
    # with oracle-specific constants ``(p, q)``.  The support counts of a
    # union of report sets are the integer sums of the per-set counts, so
    # exposing the two halves of ``aggregate`` separately makes collection
    # rounds mergeable across population shards with *no* loss:
    # ``estimate_from_supports(sum of shard supports)`` is bit-identical
    # to aggregating the whole population's reports in one process.

    def support_probabilities(
        self, epsilon: float, domain_size: int
    ) -> tuple[float, float]:
        """The ``(p, q)`` constants of this oracle's support-count debias.

        ``p`` is the probability a report supports its owner's value,
        ``q`` the probability it supports any other fixed value (for HR
        the baseline is exactly 1/2 by Hadamard orthogonality).

        Not abstract so minimal third-party subclasses keep working; all
        five built-in oracles implement it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose support probabilities"
        )

    def aggregate_supports(
        self,
        reports: np.ndarray,
        domain_size: int,
        epsilon: float,
    ) -> np.ndarray:
        """Integer support-count vector of a report set (length ``d``).

        This is the additive half of :meth:`aggregate`: supports of
        disjoint report sets sum exactly (they are integers), and
        :meth:`estimate_from_supports` turns a (summed) vector back into
        the estimate :meth:`aggregate` would have produced for the union.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not decompose aggregation into "
            f"support counts"
        )

    def estimate_from_supports(
        self,
        supports: np.ndarray,
        n_reports: int,
        domain_size: int,
        epsilon: float,
    ) -> FOEstimate:
        """Debias a support-count vector into an :class:`FOEstimate`.

        Composes with :meth:`aggregate_supports`: for every oracle,
        ``aggregate(reports, d, eps)`` equals
        ``estimate_from_supports(aggregate_supports(reports, d, eps),
        len(reports), d, eps)`` bit-for-bit — same floating-point
        expressions on the same integers.
        """
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        supports = np.asarray(supports, dtype=np.float64)
        if supports.shape != (domain_size,):
            raise InvalidParameterError(
                f"supports must have shape ({domain_size},), got "
                f"{supports.shape}"
            )
        n = int(n_reports)
        p, q = self.support_probabilities(epsilon, domain_size)
        freqs = self._debias(supports, n, p, q)
        return FOEstimate(
            frequencies=freqs,
            n_reports=n,
            epsilon=epsilon,
            variance=self.variance(epsilon, n, domain_size),
            supports=supports,
        )

    @abc.abstractmethod
    def sample_aggregate(
        self,
        true_counts: np.ndarray,
        epsilon: float,
        rng: SeedLike = None,
    ) -> FOEstimate:
        """Sample an aggregation outcome directly from true per-value counts.

        ``true_counts`` is the exact histogram of the reporting group's
        values (length ``d``, sums to the group size).  The returned
        estimate is distributed exactly as ``aggregate(perturb(...))``.
        """

    def sample_aggregate_run(
        self,
        true_counts: np.ndarray,
        epsilon: float,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Sample a *run* of consecutive rounds, replaying the per-round
        draw order exactly.

        ``true_counts`` is a ``(B, d)`` matrix of exact per-round value
        histograms (rows may have different totals); the result is the
        ``(B, d)`` matrix of unbiased frequency estimates.  The output
        is **bit-identical** to calling :meth:`sample_aggregate` row by
        row on the same generator — the run consumes the generator's
        bitstream in the same element order the streaming engine's
        per-round loop would.  This is what lets the chunked ingestion
        path (:meth:`repro.engine.session.StreamSession.observe_many`)
        batch whole spans of collection rounds without changing a
        single released float.

        This is the eager form of :meth:`run_sampler`.
        """
        counts = self._check_batch_counts(true_counts)
        return self.run_sampler(epsilon, counts.shape[1])(
            counts, ensure_rng(rng)
        )

    def run_sampler(self, epsilon: float, domain_size: int):
        """Build a prepared *run* sampler for a fixed budget.

        Returns a callable ``sample(true_counts, rng) -> (B, d)`` that is
        **bit-identical** to sequential :meth:`sample_aggregate` calls
        on the same generator (see :meth:`sample_aggregate_run`).  The
        collector memoizes one prepared sampler per budget
        (:meth:`repro.engine.collector.Collector.run_sampler`), so an
        oracle's per-budget setup runs once per session instead of once
        per chunk.

        The base implementation is literally the sequential loop; the
        two draw shapes (:class:`SupportCountOracle` and GRR) override
        it with their hoisted kernels.
        """
        epsilon = self._check_epsilon(epsilon)
        self._check_domain(domain_size)

        def sample(true_counts: np.ndarray, rng) -> np.ndarray:
            counts = self._check_batch_counts(true_counts)
            if counts.shape[0] == 0:
                return np.empty((0, counts.shape[1]), dtype=np.float64)
            return np.stack(
                [
                    self.sample_aggregate(row, epsilon, rng=rng).frequencies
                    for row in counts
                ]
            )

        return sample

    def round_sampler(self, epsilon: float, domain_size: int):
        """Build a prepared single-round sampler for a fixed budget.

        Returns a callable ``sample(true_counts, rng) -> frequencies``
        that is **bit-identical** to
        ``sample_aggregate(true_counts, epsilon, rng=rng).frequencies``
        — same generator draws in the same order, same floating-point
        expressions — with every round-invariant (parameter validation,
        probability constants, GRR's liar-spread matrix) hoisted out of
        the per-round path.  The adaptive population kernels (LPD/LPA)
        lean on this: their pool draws interleave with the oracle draws
        on the shared generator, so rounds cannot batch, and the per-call
        setup becomes the dominant cost worth hoisting.

        ``domain_size`` is the fixed domain every round will use; counts
        passed to the sampler must have exactly that length.
        """
        epsilon = self._check_epsilon(epsilon)
        self._check_domain(domain_size)

        def sample(true_counts: np.ndarray, rng) -> np.ndarray:
            return self.sample_aggregate(true_counts, epsilon, rng=rng).frequencies

        return sample

    @staticmethod
    def _check_batch_counts(true_counts: np.ndarray) -> np.ndarray:
        counts = np.asarray(true_counts, dtype=np.int64)
        if counts.ndim != 2:
            raise InvalidParameterError(
                f"true_counts must be a (B, d) matrix, got shape {counts.shape}"
            )
        if counts.size and counts.min() < 0:
            raise InvalidParameterError("true_counts must be non-negative")
        return counts

    # ------------------------------------------------------------------
    # Closed-form error model
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def variance(self, epsilon: float, n: int, domain_size: int) -> float:
        """Mean per-cell estimation variance ``V(eps, n)``.

        This is the frequency-independent form of Eq. (2) (the ``f_k`` term
        enters with weight ``(1/d)·Σf_k = 1/d``), used to predict the
        *potential publication error* before any data is collected
        (Section 5.3.2).
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_epsilon(epsilon: float) -> float:
        if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon)):
            raise InvalidParameterError(f"epsilon must be finite, got {epsilon!r}")
        if epsilon <= 0:
            raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
        return float(epsilon)

    @staticmethod
    def _check_domain(domain_size: int) -> int:
        if domain_size < 2:
            raise InvalidParameterError(
                f"domain_size must be at least 2, got {domain_size}"
            )
        return int(domain_size)

    @staticmethod
    def _check_values(values: np.ndarray, domain_size: int) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 1:
            raise InvalidParameterError("values must be a 1-D integer array")
        if values.size and (values.min() < 0 or values.max() >= domain_size):
            raise InvalidParameterError(
                "values contain entries outside [0, domain_size)"
            )
        return values.astype(np.int64, copy=False)

    @staticmethod
    def _debias(
        perturbed_counts: np.ndarray, n: int, p: float, q: float
    ) -> np.ndarray:
        """Standard unbiased FO estimator ``(c'/n - q) / (p - q)``."""
        if n <= 0:
            raise InvalidParameterError("cannot aggregate zero reports")
        return (perturbed_counts / n - q) / (p - q)


class SupportCountOracle(FrequencyOracle):
    """Oracles whose support counts are two binomials per cell.

    For OUE, SUE, OLH and HR a report supports its owner's value with
    probability ``p`` and any other fixed value with probability ``q``,
    independently per cell, so cell ``k``'s perturbed support count is
    ``Binomial(n_k, p) + Binomial(n - n_k, q)`` with ``(p, q)`` from
    :meth:`support_probabilities`.  That is exact for the unary encodings
    and for OLH (over the hash randomness); for HR it is cell-wise exact
    and drops the cross-cell correlations of the true protocol.

    Subclasses supply only their own parts: ``support_probabilities``,
    ``perturb``, ``aggregate_supports`` and ``variance``.
    """

    def sample_aggregate(self, true_counts, epsilon, rng: SeedLike = None):
        epsilon = self._check_epsilon(epsilon)
        true_counts = np.asarray(true_counts, dtype=np.int64)
        domain_size = self._check_domain(true_counts.shape[0])
        rng = ensure_rng(rng)
        n = int(true_counts.sum())
        p, q = self.support_probabilities(epsilon, domain_size)
        own = rng.binomial(true_counts, p)
        other = rng.binomial(n - true_counts, q)
        supports = (own + other).astype(np.float64)
        return FOEstimate(
            frequencies=self._debias(supports, n, p, q),
            n_reports=n,
            epsilon=epsilon,
            variance=self.variance(epsilon, n, domain_size),
            supports=supports,
        )

    def round_sampler(self, epsilon, domain_size):
        epsilon = self._check_epsilon(epsilon)
        domain_size = self._check_domain(domain_size)
        p, q = self.support_probabilities(epsilon, domain_size)
        probs = np.empty((2, domain_size))
        probs[0] = p
        probs[1] = q
        trials = np.empty((2, domain_size), dtype=np.int64)

        # One stacked (2, d) binomial call: numpy fills it element-wise in
        # C order (owner row, then background row), consuming the exact
        # bitstream of sample_aggregate's two sequential binomials, while
        # paying one call's fixed overhead instead of two.
        def sample(true_counts, rng):
            n = int(true_counts.sum())
            trials[0] = true_counts
            np.subtract(n, true_counts, out=trials[1])
            draws = rng.binomial(trials, probs)
            supports = (draws[0] + draws[1]).astype(np.float64)
            return (supports / n - q) / (p - q)

        return sample

    def run_sampler(self, epsilon, domain_size):
        from ..engine.kernels_fast import debias_rows

        epsilon = self._check_epsilon(epsilon)
        self._check_domain(domain_size)
        p, q = self.support_probabilities(epsilon, domain_size)
        pq_plane = np.array([p, q]).reshape(1, 2, 1)

        # Interleaved (B, 2, d) stack: row b's owner draws (prob p) come
        # immediately before its background draws (prob q), in C order —
        # exactly the order sample_aggregate's two binomials consume the
        # generator round by round, so the run is bit-identical to the
        # per-round path.
        def sample(true_counts, rng):
            counts = self._check_batch_counts(true_counts)
            if counts.shape[0] == 0:
                return np.empty((0, counts.shape[1]), dtype=np.float64)
            n = counts.sum(axis=1, keepdims=True)
            if int(n.min()) <= 0:
                raise InvalidParameterError("cannot aggregate zero reports")
            trials = np.stack([counts, n - counts], axis=1)
            probs = np.broadcast_to(pq_plane, trials.shape)
            draws = rng.binomial(trials, probs)
            supports = (draws[:, 0, :] + draws[:, 1, :]).astype(np.float64)
            return debias_rows(supports, n[:, 0].astype(np.float64), p, q)

        return sample


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[FrequencyOracle]] = {}


def register_oracle(cls: Type[FrequencyOracle]) -> Type[FrequencyOracle]:
    """Class decorator adding an oracle to the by-name registry."""
    if not cls.name:
        raise InvalidParameterError(f"{cls.__name__} must define a name")
    _REGISTRY[cls.name] = cls
    return cls


def get_oracle(name_or_instance) -> FrequencyOracle:
    """Resolve an oracle by registry name, class, or pass an instance through."""
    if isinstance(name_or_instance, FrequencyOracle):
        return name_or_instance
    if isinstance(name_or_instance, type) and issubclass(
        name_or_instance, FrequencyOracle
    ):
        return name_or_instance()
    try:
        return _REGISTRY[str(name_or_instance).lower()]()
    except KeyError:
        raise InvalidParameterError(
            f"unknown frequency oracle {name_or_instance!r}; "
            f"available: {sorted(_REGISTRY)}"
        ) from None


def available_oracles() -> list[str]:
    """Names of all registered frequency oracles."""
    return sorted(_REGISTRY)
