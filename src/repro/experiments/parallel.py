"""The cell evaluator: self-describing cells run as shared stream passes.

The paper's evaluation is a large mechanism × epsilon × window × dataset
grid.  This module decomposes any sweep into an explicit list of
:class:`CellSpec` jobs and executes them, inline or over a
:class:`concurrent.futures.ProcessPoolExecutor`, then merges the results
back into the ``results[mechanism][(epsilon, window)]`` shape the rest of
the experiments layer expects.  :func:`sweep` (a grid),
:func:`evaluate` (one cell, its repeats optionally split over workers)
and :func:`execute_cells` (any list of specs) all run through
:func:`run_shared_pass`, the one place a cell becomes sessions and
results.

Determinism contract
--------------------
Under :func:`execute_cells` and :func:`sweep`, a cell's randomness is a
pure function of the campaign seed and the cell's *coordinates*
(dataset identity, mechanism, epsilon, window, oracle, tag), derived
through :func:`repro.rng.derive_seed_sequence`, never from sequential
draws off a shared generator; :func:`evaluate` takes the cell's seed
directly.  Within a cell, repeat ``i`` runs on spawn child ``i`` of the
cell seed (:func:`~repro.experiments.runner.repeat_seed_sequences`).
Consequences:

* ``jobs=1`` and ``jobs=N`` produce bit-identical
  :class:`~repro.experiments.runner.CellResult`\\ s;
* reordering the grid (or running a single cell in isolation) does not
  change any cell's result;
* repeats split across workers reproduce the serial average exactly,
  because spawn children are prefix-stable and the average is taken in
  repeat order.

Workers reconstruct datasets from a :class:`DatasetSpec` (registry name +
size/overrides + seed) rather than receiving pickled value matrices, so
fanning out a paper-tier grid ships a few hundred bytes per job instead
of gigabytes.  Passing a live :class:`~repro.streams.base.StreamDataset`
still works (it is pickled to the workers), but specs are the fast path.

Shared passes
-------------
:func:`coalesce_specs` groups cells that target the same dataset, and
:func:`run_shared_pass` executes a group as one
:class:`~repro.engine.SessionGroup`: a single pass over the stream whose
per-timestamp values and true frequencies fan out to one
:class:`~repro.engine.StreamSession` per (cell, repeat), each with its
own generator.  A 7-mechanism × 4-epsilon grid over one simulator-backed
dataset becomes 1 stream pass instead of 28.  ``coalesce=False`` runs a
one-cell pass per spec instead; the results are the same bytes either
way (see ``benchmarks/bench_shared_pass.py``).

The group runs through the structure-of-arrays scheduler
(:mod:`repro.engine.soa`): each ``truth_chunk``-timestamp span is read
and histogrammed once for the whole group, and every session's chunk
context is pre-warmed with the shared arrays.  This holds on generative
simulators too, since the block fetch consumes each span exactly once.
"""

from __future__ import annotations

import copy
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis import ROCCurve, monitoring_roc
from ..engine import SessionGroup
from ..exceptions import InvalidParameterError
from ..mechanisms.base import StreamMechanism
from ..rng import SeedLike, as_seed_sequence, derive_seed, derive_seed_sequence
from ..streams.base import StreamDataset
from .datasets import make_dataset
from .runner import (
    CellResult,
    cell_from_session,
    merge_repeat_cells,
    repeat_seed_sequences,
)

#: Hashable scalar parameter value inside a DatasetSpec.
ParamValue = Union[int, float, str, bool]


@dataclass(frozen=True)
class DatasetSpec:
    """A dataset described by registry coordinates, not by its data.

    ``build()`` reconstructs the actual stream via
    :func:`repro.experiments.datasets.make_dataset`; two equal specs
    always build bit-identical streams, which is what lets worker
    processes rebuild datasets locally instead of unpickling them.
    """

    name: str
    size: str = "default"
    n_users: Optional[int] = None
    horizon: Optional[int] = None
    seed: Optional[int] = None
    params: Tuple[Tuple[str, ParamValue], ...] = ()

    @classmethod
    def of(
        cls,
        name: str,
        size: str = "default",
        n_users: Optional[int] = None,
        horizon: Optional[int] = None,
        seed: Optional[int] = None,
        **params: ParamValue,
    ) -> "DatasetSpec":
        """Build a spec; extra kwargs become sorted ``params`` entries."""
        return cls(
            name=str(name),
            size=str(size),
            n_users=None if n_users is None else int(n_users),
            horizon=None if horizon is None else int(horizon),
            seed=None if seed is None else int(seed),
            params=tuple(sorted(params.items())),
        )

    def build(self) -> StreamDataset:
        """Instantiate the dataset this spec describes."""
        return make_dataset(
            self.name,
            size=self.size,
            n_users=self.n_users,
            horizon=self.horizon,
            seed=self.seed,
            **dict(self.params),
        )

    def seed_keys(self) -> Tuple[Union[int, float, str], ...]:
        """Stable coordinate keys identifying this dataset for seeding."""
        keys: List[Union[int, float, str]] = [
            self.name,
            self.size,
            -1 if self.n_users is None else self.n_users,
            -1 if self.horizon is None else self.horizon,
            -1 if self.seed is None else self.seed,
        ]
        for key, value in self.params:
            keys.append(key)
            keys.append(value if isinstance(value, (int, float)) else str(value))
        return tuple(keys)


DatasetLike = Union[DatasetSpec, StreamDataset, str]


def as_dataset_spec(dataset: DatasetLike, size: str = "default") -> DatasetLike:
    """Normalise a dataset argument: names become specs, the rest pass."""
    if isinstance(dataset, str):
        return DatasetSpec.of(dataset, size=size)
    return dataset


def _pin_dataset_seed(
    dataset: DatasetLike, seed: SeedLike, tag: str
) -> DatasetLike:
    """Give a seedless DatasetSpec a campaign-derived seed.

    Workers rebuild DatasetSpec streams locally; without a pinned seed a
    seedless spec would materialise differently in every process.  The
    pin happens once, in the parent, so serial and parallel runs agree.
    """
    dataset = as_dataset_spec(dataset)
    if isinstance(dataset, DatasetSpec) and dataset.seed is None:
        return replace(
            dataset, seed=derive_seed(seed, tag, "dataset", dataset.name)
        )
    return dataset


@dataclass(frozen=True)
class CellSpec:
    """One self-describing experiment job.

    ``kind`` selects the result type: ``"cell"`` averages its
    ``repeats`` sessions into a :class:`CellResult`, ``"roc"`` runs a
    single session and returns its event-monitoring
    :class:`~repro.analysis.ROCCurve` (Fig. 7).  When ``repeat_index`` is
    set, only that repeat runs, with the exact seed the full cell would
    hand it.
    """

    mechanism: str
    dataset: Union[DatasetSpec, StreamDataset]
    epsilon: float
    window: int
    oracle: str = "grr"
    repeats: int = 1
    horizon: Optional[int] = None
    with_roc: bool = False
    kind: str = "cell"
    tag: str = ""
    repeat_index: Optional[int] = None
    #: Record top-k heavy-hitter precision alongside full-vector error.
    #: Pure trace post-processing: deliberately excluded from
    #: ``seed_keys`` so toggling it never changes any random draw.
    query_k: Optional[int] = None

    def seed_keys(self) -> Tuple[Union[int, float, str], ...]:
        """The cell's seeding coordinates (excludes ``repeat_index``
        and ``query_k``)."""
        if isinstance(self.dataset, DatasetSpec):
            dataset_keys = self.dataset.seed_keys()
        else:  # live dataset: identify by its observable shape
            dataset_keys = (
                type(self.dataset).__name__,
                self.dataset.n_users,
                self.dataset.domain_size,
                -1 if self.dataset.horizon is None else self.dataset.horizon,
            )
        return (
            self.tag,
            self.kind,
            *dataset_keys,
            _mechanism_key(self.mechanism),
            float(self.epsilon),
            int(self.window),
            _oracle_key(self.oracle),
            -1 if self.horizon is None else int(self.horizon),
        )

    def seed_sequence(self, base: SeedLike) -> np.random.SeedSequence:
        """The cell's SeedSequence under campaign seed ``base``."""
        return derive_seed_sequence(base, *self.seed_keys())


def _mechanism_key(mechanism) -> str:
    if isinstance(mechanism, str):
        return mechanism.upper()
    name = getattr(mechanism, "name", None)
    if name:
        return str(name).upper()
    return getattr(mechanism, "__name__", str(mechanism)).upper()


def _oracle_key(oracle) -> str:
    if isinstance(oracle, str):
        return oracle.lower()
    return str(getattr(oracle, "name", oracle)).lower()


# --------------------------------------------------------------------------
# Cell execution


@functools.lru_cache(maxsize=4)
def _build_dataset(spec: DatasetSpec) -> StreamDataset:
    """Per-process LRU of materialised DatasetSpec streams.

    Long campaigns visit many distinct datasets; an unbounded cache would
    pin every paper-tier value matrix in worker RAM for the lifetime of
    the pool.  Four entries keep the handful of streams a figure's cells
    revisit while letting cold ones be garbage collected.
    """
    return spec.build()


def _materialize(dataset: Union[DatasetSpec, StreamDataset]) -> StreamDataset:
    if not isinstance(dataset, DatasetSpec):
        return dataset
    return _build_dataset(dataset)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument: ``None``/``0`` mean all CPUs."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise InvalidParameterError(f"jobs must be >= 0 or None, got {jobs}")
    return int(jobs)


#: One cell to execute: its spec and the SeedSequence its sessions
#: derive from (repeat ``i`` runs on spawn child ``i``).
SeededCell = Tuple[CellSpec, np.random.SeedSequence]


def _dataset_key(spec: CellSpec):
    """Hashable identity under which cells may share a stream pass."""
    if isinstance(spec.dataset, DatasetSpec):
        return spec.dataset
    return id(spec.dataset)  # live stream: share only the same object


def coalesce_specs(specs: Sequence[CellSpec]) -> List[List[int]]:
    """Group spec indices by shared dataset, in first-seen order."""
    groups: Dict[object, List[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(_dataset_key(spec), []).append(index)
    return list(groups.values())


def _split_for_workers(groups: List[List[int]], jobs: int) -> List[List[int]]:
    """Split the largest shared-pass groups until every worker has a job.

    Sessions are seeded per cell, and stream replay is bit-identical, so
    chunking a group re-runs the pass for the chunk without changing any
    result — it only trades generation time for parallelism when the
    grid has fewer datasets than workers.
    """
    groups = [list(group) for group in groups]
    target = min(jobs, sum(len(group) for group in groups))
    while len(groups) < target:
        largest = max(range(len(groups)), key=lambda i: len(groups[i]))
        group = groups[largest]
        if len(group) <= 1:
            break
        mid = (len(group) + 1) // 2
        groups[largest : largest + 1] = [group[:mid], group[mid:]]
    return groups


def _session_seeds(
    spec: CellSpec, seed: np.random.SeedSequence
) -> List[np.random.SeedSequence]:
    """The SeedSequences of a cell's sessions, one per session."""
    if spec.kind == "roc":
        return [seed]
    if spec.kind != "cell":
        raise InvalidParameterError(f"unknown cell kind {spec.kind!r}")
    if spec.repeat_index is not None:
        if spec.repeat_index < 0:
            raise InvalidParameterError(
                f"repeat index must be >= 0, got {spec.repeat_index}"
            )
        return repeat_seed_sequences(seed, spec.repeat_index + 1)[-1:]
    if spec.repeats < 1:
        raise InvalidParameterError(f"repeats must be >= 1, got {spec.repeats}")
    return repeat_seed_sequences(seed, spec.repeats)


def _fresh_mechanism(mechanism):
    """A private copy of a mechanism instance (names and classes pass).

    Sessions of one pass advance in lockstep, so two of them must never
    share a mechanism object's state.
    """
    if isinstance(mechanism, StreamMechanism):
        return copy.deepcopy(mechanism)
    return mechanism


def run_shared_pass(
    cells: Sequence[SeededCell],
) -> List[Union[CellResult, ROCCurve]]:
    """Execute cells sharing one dataset over a single stream pass.

    Every (cell, session) becomes one :class:`~repro.engine.SessionGroup`
    session: a ``"roc"`` cell runs on its seed, a ``"cell"`` runs repeat
    ``i`` on spawn child ``i`` of its seed (only repeat ``repeat_index``
    when that is set) and averages its repeats with
    :func:`~repro.experiments.runner.merge_repeat_cells`.  This is the
    one place an experiment cell turns into sessions and results; a
    lone cell is a one-cell group.
    """
    if not cells:
        return []
    group = SessionGroup(_materialize(cells[0][0].dataset))
    plan: List[Tuple[CellSpec, int]] = []
    for spec, seed in cells:
        seeds = _session_seeds(spec, seed)
        for child in seeds:
            group.add_session(
                _fresh_mechanism(spec.mechanism),
                spec.epsilon,
                spec.window,
                oracle=spec.oracle,
                seed=np.random.default_rng(child),
                horizon=spec.horizon,
            )
        plan.append((spec, len(seeds)))
    sessions = group.run()
    results: List[Union[CellResult, ROCCurve]] = []
    cursor = 0
    for spec, count in plan:
        chunk = sessions[cursor : cursor + count]
        cursor += count
        if spec.kind == "roc":
            results.append(
                monitoring_roc(chunk[0].releases, chunk[0].true_frequencies)
            )
            continue
        results.append(
            merge_repeat_cells(
                [
                    cell_from_session(
                        result,
                        spec.epsilon,
                        spec.window,
                        with_roc=spec.with_roc,
                        query_k=spec.query_k,
                    )
                    for result in chunk
                ]
            )
        )
    return results


def _execute(
    cells: Sequence[SeededCell], jobs: Optional[int], coalesce: bool
) -> List[Union[CellResult, ROCCurve]]:
    """Group seeded cells into shared passes and run them, in cell order.

    ``jobs <= 1`` runs the passes inline; anything larger fans them out
    over a process pool.  Each session's seed is fixed before the split,
    so neither the worker count nor the grouping changes a result.
    """
    jobs = resolve_jobs(jobs)
    if coalesce:
        groups = coalesce_specs([spec for spec, _ in cells])
        if jobs > 1:
            groups = _split_for_workers(groups, jobs)
    else:
        groups = [[index] for index in range(len(cells))]
    passes = [[cells[index] for index in group] for group in groups]
    if jobs <= 1 or len(passes) <= 1:
        outputs = [run_shared_pass(cell_pass) for cell_pass in passes]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(passes))) as pool:
            outputs = list(pool.map(run_shared_pass, passes, chunksize=1))
    results: List[Optional[Union[CellResult, ROCCurve]]] = [None] * len(cells)
    for group, group_outputs in zip(groups, outputs):
        for index, output in zip(group, group_outputs):
            results[index] = output
    return results


def execute_cells(
    specs: Sequence[CellSpec],
    *,
    base_seed: SeedLike = 0,
    jobs: Optional[int] = 1,
    coalesce: bool = True,
) -> List[Union[CellResult, ROCCurve]]:
    """Run every spec, returning results in spec order.

    Each cell is seeded by ``spec.seed_sequence(base_seed)``.  By default
    cells that share a dataset are coalesced into one shared pass; pass
    ``coalesce=False`` to run a one-cell pass per spec instead.
    ``jobs <= 1`` runs inline; anything larger fans the passes out over
    a process pool.  The outputs are bit-identical regardless of worker
    count or coalescing.
    """
    # Normalise entropy once in the parent so seed=None still gives every
    # cell a distinct (if irreproducible) stream under any worker count.
    base = as_seed_sequence(base_seed)
    return _execute(
        [(spec, spec.seed_sequence(base)) for spec in specs], jobs, coalesce
    )


def evaluate(
    mechanism,
    dataset: DatasetLike,
    epsilon: float,
    window: int,
    oracle="grr",
    seed: SeedLike = None,
    repeats: int = 1,
    with_roc: bool = False,
    horizon: Optional[int] = None,
    query_k: Optional[int] = None,
    jobs: Optional[int] = 1,
) -> CellResult:
    """Run one cell's ``repeats`` sessions and average all metrics.

    ``seed`` is the cell's SeedSequence: repeat ``i`` runs on its spawn
    child ``i`` (:func:`~repro.experiments.runner.repeat_seed_sequences`).
    ``dataset`` may be a live stream, a registry name or a
    :class:`DatasetSpec`.  With ``jobs > 1`` the repeats are split over
    worker processes; the average is still taken in repeat order, so the
    result is bit-identical at any worker count.  ``query_k``
    additionally scores the released stream's top-``k`` heavy-hitter
    precision; it is pure post-processing of the trace, so setting it
    never changes any other metric or any random draw.
    """
    seed = as_seed_sequence(seed)
    spec = CellSpec(
        mechanism=mechanism,
        dataset=_pin_dataset_seed(dataset, seed, "evaluate"),
        epsilon=float(epsilon),
        window=int(window),
        oracle=oracle,
        repeats=repeats,
        with_roc=with_roc,
        horizon=horizon,
        query_k=query_k,
    )
    if repeats > 1 and resolve_jobs(jobs) > 1:
        split = [
            (replace(spec, repeats=1, repeat_index=i), seed)
            for i in range(repeats)
        ]
        return merge_repeat_cells(_execute(split, jobs, coalesce=True))
    return run_shared_pass([(spec, seed)])[0]


# --------------------------------------------------------------------------
# Grid sweeps

def grid_specs(
    mechanisms: Iterable,
    dataset: DatasetLike,
    *,
    epsilons: Iterable[float] = (1.0,),
    windows: Iterable[int] = (20,),
    oracle="grr",
    repeats: int = 1,
    with_roc: bool = False,
    horizon: Optional[int] = None,
    tag: str = "sweep",
    query_k: Optional[int] = None,
) -> List[CellSpec]:
    """Decompose a sweep grid into its cell jobs (row-major order)."""
    dataset = as_dataset_spec(dataset)
    return [
        CellSpec(
            mechanism=mechanism,
            dataset=dataset,
            epsilon=float(epsilon),
            window=int(window),
            oracle=oracle,
            repeats=repeats,
            with_roc=with_roc,
            horizon=horizon,
            tag=tag,
            query_k=query_k,
        )
        for mechanism in mechanisms
        for epsilon in epsilons
        for window in windows
    ]


def merge_grid(
    specs: Sequence[CellSpec], cells: Sequence[CellResult]
) -> Dict[str, Dict[tuple, CellResult]]:
    """Fold executed cells back into ``results[mechanism][(eps, w)]``."""
    results: Dict[str, Dict[tuple, CellResult]] = {}
    for spec, cell in zip(specs, cells):
        name = str(spec.mechanism)
        results.setdefault(name, {})[(spec.epsilon, spec.window)] = cell
    return results


def sweep(
    mechanisms: Iterable,
    dataset: DatasetLike,
    *,
    epsilons: Iterable[float] = (1.0,),
    windows: Iterable[int] = (20,),
    oracle="grr",
    seed: SeedLike = None,
    repeats: int = 1,
    with_roc: bool = False,
    jobs: Optional[int] = 1,
    query_k: Optional[int] = None,
) -> Dict[str, Dict[tuple, CellResult]]:
    """Full grid: mechanism × epsilon × window → :class:`CellResult`.

    Result keys are ``results[mechanism][(epsilon, window)]``.
    ``dataset`` may be a live stream, a registry name (``"LNS"``) or a
    :class:`DatasetSpec`.  Every cell's randomness derives from ``seed``
    and the cell's coordinates alone, so results are bit-identical at
    any ``jobs`` value.  ``query_k`` records per-cell top-k
    heavy-hitter precision (trace post-processing; no random draw).
    """
    seed = as_seed_sequence(seed)
    specs = grid_specs(
        mechanisms,
        _pin_dataset_seed(dataset, seed, "sweep"),
        epsilons=epsilons,
        windows=windows,
        oracle=oracle,
        repeats=repeats,
        with_roc=with_roc,
        query_k=query_k,
    )
    cells = execute_cells(specs, base_seed=seed, jobs=jobs)
    return merge_grid(specs, cells)
