"""Cell metrics: what one experiment grid cell reports.

One (mechanism, dataset, epsilon, window) cell runs ``repeats`` sessions
(see :func:`repro.experiments.parallel.evaluate`); this module turns
each finished session into a :class:`CellResult` carrying every metric
of Section 7.1.4 (:func:`cell_from_session`) and averages the repeats
(:func:`merge_repeat_cells`).

Seeding discipline
------------------
Per-repeat randomness derives from ``numpy.random.SeedSequence.spawn`` of
the cell seed (:func:`repeat_seed_sequences`), never from sequential
draws off a shared generator.  Spawn children are prefix-stable (child
``i`` is the same whether 1 or ``n`` children are spawned), so any
single repeat can be re-run in isolation: this is what lets
:mod:`repro.experiments.parallel` split a cell's repeats over worker
processes and still return bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..analysis import (
    mean_absolute_error,
    mean_relative_error,
    mean_squared_error,
    monitoring_roc,
)
from ..analysis.topk import topk_precision as _topk_precision
from ..engine import SessionResult
from ..exceptions import InvalidParameterError
from ..rng import SeedLike, as_seed_sequence


@dataclass
class CellResult:
    """Averaged metrics for one experiment grid cell.

    ``topk_precision`` is the query-level utility of the released stream
    — mean per-timestamp overlap between the released and true top-k
    heavy-hitter sets — populated when the cell ran with a ``query_k``
    (NaN otherwise).  Full-vector error (MRE/MAE/MSE) measures the whole
    histogram; top-k precision measures what a dashboard consumer of the
    query layer actually sees.
    """

    mechanism: str
    epsilon: float
    window: int
    mre: float
    mae: float
    mse: float
    cfpu: float
    publication_rate: float
    auc: float = float("nan")
    topk_precision: float = float("nan")
    repeats: int = 1

    def as_dict(self) -> Dict[str, float]:
        return {
            "mre": self.mre,
            "mae": self.mae,
            "mse": self.mse,
            "cfpu": self.cfpu,
            "publication_rate": self.publication_rate,
            "auc": self.auc,
            "topk_precision": self.topk_precision,
        }


def repeat_seed_sequences(
    seed: SeedLike, repeats: int
) -> List[np.random.SeedSequence]:
    """The per-repeat seed sequences of a cell seeded by ``seed``.

    Child ``i`` is spawn child ``i`` of ``seed``.  Children are
    prefix-stable: ``repeat_seed_sequences(s, n)[i]`` equals
    ``repeat_seed_sequences(s, m)[i]`` for any ``n, m > i``, so individual
    repeats can be re-executed (or farmed out to workers) independently.
    ``seed`` itself is never advanced: the spawn runs on a fresh copy, so
    asking twice gives the same children.
    """
    seq = as_seed_sequence(seed)
    fresh = np.random.SeedSequence(
        seq.entropy, spawn_key=seq.spawn_key, pool_size=seq.pool_size
    )
    return fresh.spawn(repeats)


def cell_from_session(
    result: SessionResult,
    epsilon: float,
    window: int,
    *,
    with_roc: bool,
    query_k: Optional[int] = None,
) -> CellResult:
    """Compute one repeat's :class:`CellResult` from a finished session.

    This is the single place session traces turn into cell metrics.
    """
    auc = float("nan")
    if with_roc:
        try:
            auc = monitoring_roc(result.releases, result.true_frequencies).auc
        except InvalidParameterError:
            pass  # degenerate truth (no events); AUC stays NaN
    topk = float("nan")
    if query_k is not None:
        topk = _topk_precision(
            result.releases, result.true_frequencies, query_k
        )
    return CellResult(
        mechanism=result.mechanism,
        epsilon=float(epsilon),
        window=int(window),
        mre=mean_relative_error(result.releases, result.true_frequencies),
        mae=mean_absolute_error(result.releases, result.true_frequencies),
        mse=mean_squared_error(result.releases, result.true_frequencies),
        cfpu=result.cfpu,
        publication_rate=result.publication_rate,
        auc=auc,
        topk_precision=topk,
        repeats=1,
    )


def merge_repeat_cells(cells: List[CellResult]) -> CellResult:
    """Average per-repeat :class:`CellResult`\\ s into one cell.

    The inverse of splitting a cell's repeats across workers; NaN AUCs
    (ROC disabled or degenerate truth) are excluded from the AUC mean.
    """
    if not cells:
        raise InvalidParameterError("cannot merge an empty list of cells")
    first = cells[0]
    for cell in cells[1:]:
        if (
            cell.mechanism != first.mechanism
            or cell.epsilon != first.epsilon
            or cell.window != first.window
        ):
            raise InvalidParameterError(
                "merge_repeat_cells needs cells from one grid cell; got "
                f"{(cell.mechanism, cell.epsilon, cell.window)} vs "
                f"{(first.mechanism, first.epsilon, first.window)}"
            )
    aucs = [c.auc for c in cells if not np.isnan(c.auc)]
    topks = [
        c.topk_precision for c in cells if not np.isnan(c.topk_precision)
    ]
    return CellResult(
        mechanism=first.mechanism,
        epsilon=first.epsilon,
        window=first.window,
        mre=float(np.mean([c.mre for c in cells])),
        mae=float(np.mean([c.mae for c in cells])),
        mse=float(np.mean([c.mse for c in cells])),
        cfpu=float(np.mean([c.cfpu for c in cells])),
        publication_rate=float(np.mean([c.publication_rate for c in cells])),
        auc=float(np.mean(aucs)) if aucs else float("nan"),
        topk_precision=float(np.mean(topks)) if topks else float("nan"),
        repeats=sum(c.repeats for c in cells),
    )

