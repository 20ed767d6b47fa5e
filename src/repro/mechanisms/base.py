"""Mechanism interface for ``w``-event LDP stream release.

A mechanism is a server-side strategy: at every timestamp it receives a
:class:`~repro.engine.collector.TimestepContext` and must return a
:class:`~repro.engine.records.StepRecord` containing the released histogram
``r_t`` and metadata about how it was produced.  All data access goes
through ``ctx.collect`` so the engine's accountant and communication meter
see everything.

Mechanisms are stateful across timestamps (last release, remaining budget
or users, publication history) but are re-initialised per session via
:meth:`StreamMechanism.setup`.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Type

import numpy as np

from ..engine.collector import ChunkContext, TimestepContext
from ..engine.records import StepRecord
from ..exceptions import InvalidParameterError
from ..freq_oracles import FrequencyOracle, get_oracle
from ..rng import SeedLike, ensure_rng


class StreamMechanism(abc.ABC):
    """Base class for all LDP stream-release mechanisms."""

    #: Registry/display name, e.g. ``"LBD"``.
    name: str = ""
    #: Whether the method adapts to stream dissimilarity (LBD/LBA/LPD/LPA).
    adaptive: bool = False
    #: Which framework the method belongs to: ``"budget"`` or ``"population"``.
    framework: str = ""

    def __init__(self) -> None:
        self.n_users = 0
        self.domain_size = 0
        self.epsilon = 0.0
        self.window = 0
        self.oracle: Optional[FrequencyOracle] = None
        self.rng = ensure_rng(None)
        self.last_release: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def setup(
        self,
        *,
        n_users: int,
        domain_size: int,
        epsilon: float,
        window: int,
        oracle: FrequencyOracle,
        rng: SeedLike = None,
    ) -> None:
        """Initialise per-session state.  Subclasses extend via ``_setup``."""
        if n_users <= 0:
            raise InvalidParameterError(f"n_users must be positive, got {n_users}")
        if domain_size < 2:
            raise InvalidParameterError(f"domain_size must be >= 2, got {domain_size}")
        if epsilon <= 0:
            raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
        if window <= 0:
            raise InvalidParameterError(f"window must be positive, got {window}")
        self.n_users = int(n_users)
        self.domain_size = int(domain_size)
        self.epsilon = float(epsilon)
        self.window = int(window)
        self.oracle = get_oracle(oracle)
        self.rng = ensure_rng(rng)
        # r_0 = <0, ..., 0> (Algorithms 1-4, line 1).
        self.last_release = np.zeros(self.domain_size, dtype=np.float64)
        self._setup()

    def _setup(self) -> None:
        """Hook for subclass state; called at the end of :meth:`setup`."""

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def step(self, ctx: TimestepContext) -> StepRecord:
        """Process one timestamp and return the release record."""

    def step_many(self, ctx: ChunkContext) -> List[StepRecord]:
        """Process a contiguous chunk of timestamps; one record per step.

        Must be bit-identical to calling :meth:`step` per timestamp —
        same RNG draws in the same order, same records, same final
        mechanism state.  The base implementation *is* that loop; its
        timestep contexts collect from the chunk's prefetched value
        block, so it is legal on sequential streams too.

        All seven core mechanisms override it with a chunk kernel whose
        data access goes through the
        :class:`~repro.engine.collector.ChunkContext` run primitives.
        The non-adaptive ones (LBU/LSP/LPU) batch a whole chunk's rounds
        through :meth:`ChunkContext.collect_run`, since their collection
        schedule is a pure function of the timestamp.  LBD *speculates*
        on quiet stretches: batch-draw a lookahead of M1 rounds, scan
        the publish decisions closed-form, and rewind/replay the
        generator when a publication invalidates the speculated tail.
        LBA runs a sequential loop over
        :meth:`ChunkContext.budget_round_runner` (it publishes too often
        for lookahead to pay).  The adaptive population methods (LPD/LPA)
        run a streamlined sequential loop over
        :meth:`ChunkContext.round_collector` (pool draws interleave with
        oracle draws, so rounds cannot be batched — the win is hoisted
        dispatch).
        """
        return [self.step(step_ctx) for step_ctx in ctx.timesteps()]

    # ------------------------------------------------------------------
    # SoA fusion protocol
    # ------------------------------------------------------------------
    def uniform_run_epsilon(self) -> Optional[float]:
        """SoA fusion hook: the fixed per-step all-user budget, if any.

        Mechanisms whose chunk is always *one all-user FO round per
        timestamp at one fixed budget* (LBU's ``eps/w``) return that
        budget; the SoA scheduler (:mod:`repro.engine.soa`) then fuses a
        whole bucket of such sessions into a single stacked oracle call
        per chunk, pairing it with :meth:`absorb_run` to rebuild each
        session's records.  ``None`` (the default) means no such fusion
        applies and the session runs through its ordinary chunk kernel.
        """
        return None

    def absorb_run(self, t0, frequencies, n_reports) -> List[StepRecord]:
        """Build a chunk's records from already-collected FO rounds.

        Counterpart of :meth:`uniform_run_epsilon`: ``frequencies`` /
        ``n_reports`` are exactly what the mechanism's own
        ``collect_run`` call would have returned for the chunk starting
        at ``t0``, already charged and metered by the caller.  Must
        update mechanism state (``last_release``) exactly as
        :meth:`step_many` would.  Only meaningful on mechanisms that
        return a budget from :meth:`uniform_run_epsilon`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support fused runs"
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable per-session state for :mod:`repro.persist`.

        Covers the base-class state (``last_release``) plus whatever the
        subclass reports via :meth:`_state`.  Constructor *configuration*
        (e.g. LSP's ``offset``) belongs in :meth:`_state` too: restore
        builds the mechanism from the registry with default arguments
        and :meth:`load_state` must put every knob back.
        """
        return {
            "name": self.name,
            "last_release": (
                None if self.last_release is None else self.last_release.copy()
            ),
            "extra": self._state(),
        }

    def load_state(self, state: dict) -> None:
        """Install state captured by :meth:`state_dict` (post-``setup``)."""
        if state.get("name") != self.name:
            raise InvalidParameterError(
                f"cannot load {state.get('name')!r} state into {self.name}"
            )
        last = state["last_release"]
        self.last_release = (
            None if last is None else np.asarray(last, dtype=np.float64).copy()
        )
        self._load_state(state["extra"])

    def _state(self) -> dict:
        """Hook: subclass-owned state (empty for memoryless mechanisms)."""
        return {}

    def _load_state(self, state: dict) -> None:
        """Hook: install subclass state captured by :meth:`_state`."""

    # ------------------------------------------------------------------
    def predicted_error(self, epsilon: float, n: int) -> float:
        """Closed-form potential publication error ``V(eps, n)`` for the
        session's oracle and domain (Section 5.3.2, Eq. 6)."""
        assert self.oracle is not None, "setup() must run before predicted_error"
        return self.oracle.variance(epsilon, n, self.domain_size)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[StreamMechanism]] = {}


def register_mechanism(cls: Type[StreamMechanism]) -> Type[StreamMechanism]:
    """Class decorator adding a mechanism to the by-name registry."""
    if not cls.name:
        raise InvalidParameterError(f"{cls.__name__} must define a name")
    _REGISTRY[cls.name.lower()] = cls
    return cls


def get_mechanism(name_or_instance, **kwargs) -> StreamMechanism:
    """Resolve a mechanism by name/class/instance (names as in the paper:
    LBU, LSP, LBD, LBA, LPU, LPD, LPA)."""
    if isinstance(name_or_instance, StreamMechanism):
        return name_or_instance
    if isinstance(name_or_instance, type) and issubclass(
        name_or_instance, StreamMechanism
    ):
        return name_or_instance(**kwargs)
    try:
        return _REGISTRY[str(name_or_instance).lower()](**kwargs)
    except KeyError:
        raise InvalidParameterError(
            f"unknown mechanism {name_or_instance!r}; available: "
            f"{sorted(_REGISTRY)}"
        ) from None


def available_mechanisms() -> list[str]:
    """Registered mechanism names (lower-case)."""
    return sorted(_REGISTRY)
