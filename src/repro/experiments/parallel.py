"""Parallel experiment engine: self-describing cells over worker processes.

The paper's evaluation is a large mechanism × epsilon × window × dataset
grid.  This module decomposes any sweep into an explicit list of
:class:`CellSpec` jobs and executes them either inline or over a
:class:`concurrent.futures.ProcessPoolExecutor`, then merges the results
back into the ``results[mechanism][(epsilon, window)]`` shape the rest of
the experiments layer expects.

Determinism contract
--------------------
A cell's randomness is a pure function of the campaign seed and the
cell's *coordinates* (dataset identity, mechanism, epsilon, window,
oracle, tag) — derived through :func:`repro.rng.derive_seed_sequence`,
never from sequential draws off a shared generator.  Consequences:

* ``jobs=1`` and ``jobs=N`` produce bit-identical
  :class:`~repro.experiments.runner.CellResult`\\ s;
* reordering the grid (or running a single cell in isolation) does not
  change any cell's result;
* repeats split across workers reproduce the serial average exactly,
  because per-repeat seeds are prefix-stable ``SeedSequence.spawn``
  children (see :func:`repro.experiments.runner.evaluate_repeat`).

Workers reconstruct datasets from a :class:`DatasetSpec` (registry name +
size/overrides + seed) rather than receiving pickled value matrices, so
fanning out a paper-tier grid ships a few hundred bytes per job instead
of gigabytes.  Passing a live :class:`~repro.streams.base.StreamDataset`
still works — it is pickled to the workers — but specs are the fast path.

Shared-pass coalescing
----------------------
Cells that target the same dataset no longer each re-simulate the stream:
:func:`coalesce_specs` groups them and :func:`run_shared_pass` executes a
group as one :class:`~repro.engine.SessionGroup` — a single pass over the
stream whose per-timestamp values and true frequencies fan out to one
:class:`~repro.engine.StreamSession` per (cell, repeat).  Each session is
seeded with the exact coordinate-derived SeedSequence the solo path
uses, so coalescing changes wall-clock only, never results.  A
7-mechanism × 4-epsilon grid over one simulator-backed dataset becomes 1
stream pass instead of 28 (see ``benchmarks/bench_shared_pass.py``).

The shared pass runs through the group's structure-of-arrays scheduler
(:mod:`repro.engine.soa`): each :data:`_SHARED_PASS_CHUNK`-timestamp
span is read and histogrammed once for the whole group, every
session's chunk context is pre-warmed with the shared arrays, and
buckets of uniform-round sessions (e.g. all the LBU cells of an epsilon
sweep) collapse into single stacked oracle calls.  This holds on
generative simulators too — the SoA block fetch consumes each span
exactly once — and is bit-identical to per-cell execution (see
``benchmarks/bench_shared_pass.py``).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis import ROCCurve, monitoring_roc
from ..engine import SessionGroup
from ..exceptions import InvalidParameterError
from ..rng import SeedLike, as_seed_sequence, derive_seed, derive_seed_sequence
from ..streams.base import StreamDataset
from .datasets import make_dataset
from .runner import (
    CellResult,
    cell_from_session,
    evaluate,
    evaluate_repeat,
    merge_repeat_cells,
    repeat_seed_sequences,
    run_single,
)

#: Hashable scalar parameter value inside a DatasetSpec.
ParamValue = Union[int, float, str, bool]

#: Timestamps per bulk-ingestion step on shared-pass groups (drives both
#: the truth-histogram prefetch and each session's observe_many spans).
_SHARED_PASS_CHUNK = 128


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

    ``kind`` selects the result type: ``"cell"`` runs
    :func:`~repro.experiments.runner.evaluate` (averaged
    :class:`CellResult`), ``"roc"`` runs a single session and returns its
    event-monitoring :class:`~repro.analysis.ROCCurve` (Fig. 7).  When
    ``repeat_index`` is set, only that repeat runs — with the exact seed
    the full serial evaluation would hand it.
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


class _DatasetLRU:
    """Small per-process LRU of materialised DatasetSpec streams.

    Long campaigns visit many distinct datasets; an unbounded cache would
    pin every paper-tier value matrix in worker RAM for the lifetime of
    the pool.  The LRU keeps the handful of streams a figure's cells
    revisit while letting cold ones be garbage collected.  Size is
    tunable via ``REPRO_DATASET_CACHE`` (0 disables caching).
    """

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[DatasetSpec, StreamDataset]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get_or_build(self, spec: DatasetSpec) -> StreamDataset:
        if self.maxsize <= 0:
            self.misses += 1
            return spec.build()
        cached = self._entries.get(spec)
        if cached is not None:
            self._entries.move_to_end(spec)
            self.hits += 1
            return cached
        self.misses += 1
        built = spec.build()
        self._entries[spec] = built
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return built

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_DATASET_CACHE = _DatasetLRU(
    maxsize=int(os.environ.get("REPRO_DATASET_CACHE", "4"))
)


def _materialize(dataset: Union[DatasetSpec, StreamDataset]) -> StreamDataset:
    if not isinstance(dataset, DatasetSpec):
        return dataset
    return _DATASET_CACHE.get_or_build(dataset)


def run_cell(
    spec: CellSpec, base_seed: SeedLike = 0
) -> Union[CellResult, ROCCurve]:
    """Execute one cell; pure in (spec, base_seed) by construction."""
    dataset = _materialize(spec.dataset)
    seed = spec.seed_sequence(base_seed)
    if spec.kind == "roc":
        result = run_single(
            spec.mechanism,
            dataset,
            spec.epsilon,
            spec.window,
            oracle=spec.oracle,
            seed=np.random.default_rng(seed),
            horizon=spec.horizon,
        )
        return monitoring_roc(result.releases, result.true_frequencies)
    if spec.kind != "cell":
        raise InvalidParameterError(f"unknown cell kind {spec.kind!r}")
    if spec.repeat_index is not None:
        return evaluate_repeat(
            spec.mechanism,
            dataset,
            spec.epsilon,
            spec.window,
            index=spec.repeat_index,
            oracle=spec.oracle,
            seed=seed,
            with_roc=spec.with_roc,
            horizon=spec.horizon,
            query_k=spec.query_k,
        )
    return evaluate(
        spec.mechanism,
        dataset,
        spec.epsilon,
        spec.window,
        oracle=spec.oracle,
        seed=seed,
        repeats=spec.repeats,
        with_roc=spec.with_roc,
        horizon=spec.horizon,
        query_k=spec.query_k,
    )


def _run_cell_job(job: Tuple[CellSpec, np.random.SeedSequence]):
    """Top-level worker entry point (must be picklable)."""
    spec, base = job
    return run_cell(spec, base)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument: ``None``/``0`` mean all CPUs."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise InvalidParameterError(f"jobs must be >= 0 or None, got {jobs}")
    return int(jobs)


# --------------------------------------------------------------------------
# Shared-pass coalescing
#
# Cells that target the same dataset re-simulate the same stream and
# recompute the same true frequencies.  The coalescer folds such cells
# into one job executed as a SessionGroup — a single pass over the stream
# fanned out to one StreamSession per (cell, repeat), each with the exact
# SeedSequence the solo path would derive.  Results are therefore
# bit-identical to per-cell execution; only the wall-clock changes.

def _dataset_key(spec: CellSpec):
    """Hashable identity under which cells may share a stream pass."""
    if isinstance(spec.dataset, DatasetSpec):
        return spec.dataset
    return id(spec.dataset)  # live stream: share only the same object


def coalesce_specs(specs: Sequence[CellSpec]) -> List[List[int]]:
    """Group spec indices by shared dataset, in first-seen order."""
    groups: Dict[object, List[int]] = {}
    order: List[object] = []
    for index, spec in enumerate(specs):
        key = _dataset_key(spec)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(index)
    return [groups[key] for key in order]


def _split_for_workers(groups: List[List[int]], jobs: int) -> List[List[int]]:
    """Split the largest shared-pass groups until every worker has a job.

    Sessions are seeded by coordinates, and stream replay is
    bit-identical, so chunking a group re-runs the pass for the chunk
    without changing any result — it only trades generation time for
    parallelism when the grid has fewer datasets than workers.
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


def run_shared_pass(
    specs: Sequence[CellSpec], base_seed: SeedLike = 0
) -> List[Union[CellResult, ROCCurve]]:
    """Execute cells sharing one dataset over a single stream pass.

    Every (cell, repeat) becomes one :class:`~repro.engine.SessionGroup`
    session seeded with the exact SeedSequence the solo path derives
    (``spec.seed_sequence(base)`` and its prefix-stable spawn children),
    so each returned result is bit-identical to :func:`run_cell` on the
    same spec.
    """
    if not specs:
        return []
    if len(specs) == 1 and specs[0].kind == "cell" and specs[0].repeats == 1:
        # Nothing to share; keep the battle-tested solo path.
        return [run_cell(specs[0], base_seed)]
    base = as_seed_sequence(base_seed)
    dataset = _materialize(specs[0].dataset)
    group = SessionGroup(dataset, truth_chunk=_SHARED_PASS_CHUNK)
    plan: List[Tuple[CellSpec, int]] = []
    for spec in specs:
        seed = spec.seed_sequence(base)
        if spec.kind == "roc":
            group.add_session(
                spec.mechanism,
                spec.epsilon,
                spec.window,
                oracle=spec.oracle,
                seed=np.random.default_rng(seed),
                horizon=spec.horizon,
            )
            plan.append((spec, 1))
        elif spec.kind != "cell":
            raise InvalidParameterError(f"unknown cell kind {spec.kind!r}")
        elif spec.repeat_index is not None:
            if spec.repeat_index < 0:
                raise InvalidParameterError(
                    f"repeat index must be >= 0, got {spec.repeat_index}"
                )
            child = repeat_seed_sequences(seed, spec.repeat_index + 1)[
                spec.repeat_index
            ]
            group.add_session(
                spec.mechanism,
                spec.epsilon,
                spec.window,
                oracle=spec.oracle,
                seed=np.random.default_rng(child),
                horizon=spec.horizon,
            )
            plan.append((spec, 1))
        else:
            if spec.repeats < 1:
                raise InvalidParameterError(
                    f"repeats must be >= 1, got {spec.repeats}"
                )
            for child in repeat_seed_sequences(seed, spec.repeats):
                group.add_session(
                    spec.mechanism,
                    spec.epsilon,
                    spec.window,
                    oracle=spec.oracle,
                    seed=np.random.default_rng(child),
                    horizon=spec.horizon,
                )
            plan.append((spec, spec.repeats))
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
        elif spec.repeat_index is not None:
            results.append(
                cell_from_session(
                    chunk[0],
                    spec.epsilon,
                    spec.window,
                    with_roc=spec.with_roc,
                    query_k=spec.query_k,
                )
            )
        else:
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


def _run_group_job(job: Tuple[List[CellSpec], np.random.SeedSequence]):
    """Top-level shared-pass worker entry point (must be picklable)."""
    specs, base = job
    return run_shared_pass(specs, base)


def execute_cells(
    specs: Sequence[CellSpec],
    *,
    base_seed: SeedLike = 0,
    jobs: Optional[int] = 1,
    coalesce: bool = True,
) -> List[Union[CellResult, ROCCurve]]:
    """Run every spec, returning results in spec order.

    By default cells that share a dataset are coalesced into shared-pass
    :class:`~repro.engine.SessionGroup` jobs (one stream pass fanned out
    to every cell) — pass ``coalesce=False`` to force the historical
    one-process-call-per-cell execution.  ``jobs <= 1`` runs inline;
    anything larger fans the jobs out over a process pool.  All paths
    derive each session's randomness from the cell's coordinates alone,
    so the outputs are bit-identical regardless of worker count or
    coalescing.
    """
    # Normalise entropy once in the parent so seed=None still gives every
    # cell a distinct (if irreproducible) stream under any worker count.
    base = as_seed_sequence(base_seed)
    jobs = resolve_jobs(jobs)
    if coalesce:
        groups = coalesce_specs(specs)
        if jobs > 1:
            groups = _split_for_workers(groups, jobs)
    else:
        groups = [[index] for index in range(len(specs))]
    results: List[Optional[Union[CellResult, ROCCurve]]] = [None] * len(specs)
    if jobs <= 1 or len(groups) <= 1:
        for group_indices in groups:
            outputs = run_shared_pass(
                [specs[index] for index in group_indices], base
            )
            for index, output in zip(group_indices, outputs):
                results[index] = output
        return results
    workers = min(jobs, len(groups))
    payloads = [
        ([specs[index] for index in group_indices], base)
        for group_indices in groups
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for group_indices, outputs in zip(
            groups, pool.map(_run_group_job, payloads, chunksize=1)
        ):
            for index, output in zip(group_indices, outputs):
                results[index] = output
    return results


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


def parallel_sweep(
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
    """Grid sweep through the parallel engine (see :func:`runner.sweep`)."""
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


def evaluate_parallel(
    mechanism,
    dataset: DatasetLike,
    epsilon: float,
    window: int,
    *,
    oracle="grr",
    seed: SeedLike = None,
    repeats: int = 1,
    with_roc: bool = False,
    horizon: Optional[int] = None,
    jobs: Optional[int] = 1,
    tag: str = "evaluate",
    query_k: Optional[int] = None,
) -> CellResult:
    """One cell, with its repeats optionally split across workers.

    Bit-identical to :func:`repro.experiments.runner.evaluate` on the
    same coordinates: repeat ``i`` always runs with spawn child ``i`` of
    the cell seed, and the final average is taken in repeat order.
    """
    seed = as_seed_sequence(seed)
    spec = CellSpec(
        mechanism=mechanism,
        dataset=_pin_dataset_seed(dataset, seed, tag),
        epsilon=float(epsilon),
        window=int(window),
        oracle=oracle,
        repeats=repeats,
        with_roc=with_roc,
        horizon=horizon,
        tag=tag,
        query_k=query_k,
    )
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or repeats <= 1:
        return run_cell(spec, seed)
    repeat_specs = [
        replace(spec, repeats=1, repeat_index=i) for i in range(repeats)
    ]
    cells = execute_cells(repeat_specs, base_seed=seed, jobs=jobs)
    return merge_repeat_cells(cells)
