"""Lower DSL queries onto ``QueryEngine``/``ReleaseStore`` primitives.

:class:`QueryPlanner` is the execution half of the query DSL
(:mod:`repro.query.dsl`).  It owns a set of named *sources* — each one a
:class:`~repro.query.engine.QueryEngine` over some release store — and
turns an AST node into a :class:`Plan`: an ordered list of engine/store
primitive calls plus the arithmetic that combines them.

The lowering is deliberately **transparent**: every composite answer is
produced by the exact primitive call sequence a user would hand-compose,
in the same order, with the same float operations — so a DSL answer is
bit-identical to the equivalent direct ``QueryEngine`` usage (the
property ``tests/query/test_planner.py`` pins).  The rules:

* ``Point``/``TopK``/``Range``/``Sliding`` — one engine call each.
* ``Filter(TopK(k), items)`` — ``engine.point(i, t)`` per item in
  ascending order, ranked by ``(-estimate, item)`` (the engine's own
  stable tie-break), truncated to ``min(k, len(items))``.
* ``Filter(Range(lo, hi), items)`` / each ``GroupBy`` group — a subset
  sum: ``engine.point(i, t)`` estimates accumulated in ascending item
  order, with variance ``m · V(t)`` (``m`` cells of independent noise —
  the same rule ``range_count`` applies to a contiguous range).  An
  empty subset answers 0 with a zero-width interval, like an empty
  range.
* ``Join(how="diff")`` — each side's windowed mean via
  ``engine.sliding(t0, t1, "mean", item)``; the difference carries
  stderr ``hypot(σ_L, σ_R)`` (cross-session independence).
* ``Join(how="corr")`` — Pearson correlation of the two retained
  release series (``store.span_releases``), Fisher-approximation stderr
  ``(1 − r²)/√(n − 3)`` (needs a span of ≥ 4 timestamps).
* ``Changepoint`` — the item's retained series through
  :func:`repro.analysis.changepoint.cusum_detect`, alarms reported as
  absolute timestamps.
* ``Threshold`` — the inner scalar answer, then THRESH's noise-multiple
  rule: triggered iff the estimate clears ``value`` by
  ``sigmas · stderr``.

``answer()`` wraps ``evaluate()`` results in the serve wire shapes —
field-for-field identical to the legacy per-op replies for the four
classic verbs, so the servers route every query through the planner
without changing a byte on the wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..analysis.changepoint import cusum_detect
from ..exceptions import InvalidParameterError
from .dsl import (
    Changepoint,
    Filter,
    GroupBy,
    Join,
    Point,
    Query,
    Range,
    Sliding,
    Threshold,
    TopK,
)
from .engine import IntervalEstimate, QueryEngine, TopKEntry

#: The planner's catch-all source name when built over a single engine.
DEFAULT_SOURCE = "default"


@dataclass(frozen=True)
class ChangepointResult:
    """CUSUM alarms for one item over a resolved ``[t0, t1]`` span."""

    item: int
    t0: int
    t1: int
    alarms: Tuple[int, ...]


@dataclass(frozen=True)
class ThresholdResult:
    """A threshold predicate's verdict plus the interval it judged."""

    interval: IntervalEstimate
    margin: float
    triggered: bool


@dataclass(frozen=True)
class Plan:
    """A lowered query: primitive-call descriptions + an executor."""

    query: Query
    steps: Tuple[str, ...]
    _run: Callable[[], object]

    def run(self):
        """Execute the primitive sequence and combine the answers."""
        return self._run()

    def explain(self) -> str:
        return "\n".join(self.steps)


class QueryPlanner:
    """Evaluate DSL queries against one or more named engines.

    Parameters
    ----------
    engines:
        Either a single :class:`QueryEngine` (registered under the
        source name ``"default"``) or a mapping of source names to
        engines (e.g. two sessions' engines for a :class:`Join`).
    default:
        The source a query with ``source=None`` resolves to.  Inferred
        when there is exactly one engine; required otherwise.
    """

    def __init__(
        self,
        engines: Union[QueryEngine, Mapping[str, QueryEngine]],
        *,
        default: Optional[str] = None,
    ):
        if isinstance(engines, QueryEngine):
            engines = {DEFAULT_SOURCE: engines}
        if not isinstance(engines, Mapping) or not engines:
            raise InvalidParameterError(
                "engines must be a QueryEngine or a non-empty mapping "
                f"of source names to engines, got {engines!r}"
            )
        self._engines: Dict[str, QueryEngine] = {}
        for name, engine in engines.items():
            if not isinstance(name, str) or not name:
                raise InvalidParameterError(
                    f"source names must be non-empty strings, got {name!r}"
                )
            if not isinstance(engine, QueryEngine):
                raise InvalidParameterError(
                    f"source {name!r} must be a QueryEngine, got "
                    f"{engine!r}"
                )
            self._engines[name] = engine
        if default is None and len(self._engines) == 1:
            default = next(iter(self._engines))
        if default is not None and default not in self._engines:
            raise InvalidParameterError(
                f"default source {default!r} is not registered "
                f"(sources: {sorted(self._engines)})"
            )
        self._default = default

    @property
    def sources(self) -> Tuple[str, ...]:
        return tuple(self._engines)

    def engine_for(self, source: Optional[str]) -> QueryEngine:
        """Resolve a query's ``source`` name to its engine."""
        if source is None:
            if self._default is None:
                raise InvalidParameterError(
                    "this planner has several sources and no default; "
                    f"set source= to one of {sorted(self._engines)}"
                )
            return self._engines[self._default]
        engine = self._engines.get(source)
        if engine is None:
            raise InvalidParameterError(
                f"unknown source {source!r} "
                f"(sources: {sorted(self._engines)})"
            )
        return engine

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> Plan:
        """Lower one AST node into its primitive-call plan."""
        if not isinstance(query, Query):
            raise InvalidParameterError(
                f"plan() takes a DSL query node, got {query!r}"
            )
        steps, run = self._lower(query)
        return Plan(query=query, steps=tuple(steps), _run=run)

    def evaluate(self, query: Query):
        """Plan and execute in one call."""
        return self.plan(query).run()

    def _lower(self, query: Query):
        if isinstance(query, Point):
            return self._lower_point(query)
        if isinstance(query, TopK):
            return self._lower_topk(query)
        if isinstance(query, Range):
            return self._lower_range(query)
        if isinstance(query, Sliding):
            return self._lower_sliding(query)
        if isinstance(query, Filter):
            return self._lower_filter(query)
        if isinstance(query, GroupBy):
            return self._lower_groupby(query)
        if isinstance(query, Join):
            return self._lower_join(query)
        if isinstance(query, Changepoint):
            return self._lower_changepoint(query)
        if isinstance(query, Threshold):
            return self._lower_threshold(query)
        raise InvalidParameterError(
            f"no lowering for query node {type(query).__name__}"
        )

    def _lower_point(self, query: Point):
        engine = self.engine_for(query.source)
        steps = [f"point(item={query.item}, t={query.t})"]
        return steps, lambda: engine.point(query.item, t=query.t)

    def _lower_topk(self, query: TopK):
        engine = self.engine_for(query.source)
        steps = [f"topk(k={query.k}, t={query.t})"]
        return steps, lambda: engine.topk(query.k, t=query.t)

    def _lower_range(self, query: Range):
        engine = self.engine_for(query.source)
        steps = [f"range_count(lo={query.lo}, hi={query.hi}, t={query.t})"]
        return steps, lambda: engine.range_count(
            query.lo, query.hi, t=query.t
        )

    def _lower_sliding(self, query: Sliding):
        engine = self.engine_for(query.source)
        steps = [
            f"sliding(t0={query.t0}, t1={query.t1}, agg={query.agg!r}, "
            f"item={query.item})"
        ]
        return steps, lambda: engine.sliding(
            query.t0, query.t1, query.agg, item=query.item
        )

    # -- composite nodes ----------------------------------------------
    def _subset_sum(
        self, engine: QueryEngine, items, t: Optional[int]
    ) -> IntervalEstimate:
        """Subset sum over ``items`` at ``t`` through the store's fused
        :meth:`~repro.query.store.ReleaseStore.subset_sum` operator.

        One slot fetch instead of one :meth:`~repro.query.engine.
        QueryEngine.point` call (and release copy) per item —
        byte-identical, because the store accumulates the same cells
        sequentially in the same (ascending, AST-fixed) order and
        validates each item with the same domain error."""
        if not items:
            return IntervalEstimate(0.0, 0.0, engine.confidence)
        t_eff = engine.store.require_latest_t() if t is None else t
        estimate = engine.store.subset_sum(t_eff, items)
        variance = len(items) * engine.store.variance_at(t_eff)
        return IntervalEstimate(
            estimate=estimate,
            stderr=float(math.sqrt(variance)),
            confidence=engine.confidence,
        )

    def _lower_filter(self, query: Filter):
        inner = query.query
        engine = self.engine_for(inner.source)
        items = query.items
        if isinstance(inner, (Point, Sliding)):
            # Membership was validated by the AST; the filter is a
            # no-op guard around the plain verb.
            return self._lower(inner)
        if isinstance(inner, TopK):
            k = min(inner.k, len(items))
            steps = [
                f"point(item={i}, t={inner.t})" for i in items
            ] + [f"rank by (-estimate, item), keep {k}"]

            def run_topk():
                answers = [
                    (i, engine.point(i, t=inner.t)) for i in items
                ]
                answers.sort(key=lambda pair: (-pair[1].estimate, pair[0]))
                return [
                    TopKEntry(rank=rank, item=item, interval=interval)
                    for rank, (item, interval) in enumerate(
                        answers[:k], start=1
                    )
                ]

            return steps, run_topk
        # Range: fused subset-sum over the intersection with [lo, hi).
        subset = tuple(
            i for i in items if inner.lo <= i < inner.hi
        )
        steps = [
            f"subset_sum(items={list(subset)}, t={inner.t}) "
            f"[fused: one release fetch]",
            f"stderr = sqrt({len(subset)} * V(t))",
        ]
        return steps, lambda: self._subset_sum(engine, subset, inner.t)

    def _lower_groupby(self, query: GroupBy):
        engine = self.engine_for(query.source)
        steps = []
        for name, items in query.groups:
            steps.append(
                f"group {name!r}: subset_sum(items={list(items)}, "
                f"t={query.t}) [fused: one release fetch]"
            )

        def run():
            return {
                name: self._subset_sum(engine, items, query.t)
                for name, items in query.groups
            }

        return steps, run

    def _lower_join(self, query: Join):
        left = self.engine_for(query.left)
        right = self.engine_for(query.right)
        for side, engine in (("left", left), ("right", right)):
            if not 0 <= query.item < engine.store.domain_size:
                raise InvalidParameterError(
                    f"item {query.item} outside the {side} source's "
                    f"domain [0, {engine.store.domain_size})"
                )
        if query.how == "diff":
            steps = [
                f"{side}.sliding(t0={query.t0}, t1={query.t1}, "
                f"agg='mean', item={query.item})"
                for side in (query.left, query.right)
            ] + ["difference; stderr = hypot(stderr_L, stderr_R)"]

            def run_diff():
                a = left.sliding(
                    query.t0, query.t1, "mean", item=query.item
                )
                b = right.sliding(
                    query.t0, query.t1, "mean", item=query.item
                )
                return IntervalEstimate(
                    estimate=a.estimate - b.estimate,
                    stderr=float(np.hypot(a.stderr, b.stderr)),
                    confidence=left.confidence,
                )

            return steps, run_diff
        # corr: Pearson over the retained release series.
        n = query.t1 - query.t0 + 1
        if n < 4:
            raise InvalidParameterError(
                f"a corr join needs a span of at least 4 timestamps, "
                f"got [{query.t0}, {query.t1}]"
            )
        steps = [
            f"{side}.store.span_releases({query.t0}, {query.t1})"
            f"[:, {query.item}]"
            for side in (query.left, query.right)
        ] + [f"pearson r; stderr = (1 - r^2)/sqrt({n} - 3)"]

        def run_corr():
            a = left.store.span_releases(query.t0, query.t1)[:, query.item]
            b = right.store.span_releases(query.t0, query.t1)[
                :, query.item
            ]
            da = a - a.mean()
            db = b - b.mean()
            denom = math.sqrt(float(da @ da) * float(db @ db))
            if denom == 0.0:
                raise InvalidParameterError(
                    "correlation is undefined: a release series is "
                    "constant over the join span"
                )
            r = float(da @ db) / denom
            return IntervalEstimate(
                estimate=r,
                stderr=(1.0 - r * r) / math.sqrt(n - 3),
                confidence=left.confidence,
            )

        return steps, run_corr

    def _lower_changepoint(self, query: Changepoint):
        engine = self.engine_for(query.source)
        store = engine.store
        if not 0 <= query.item < store.domain_size:
            raise InvalidParameterError(
                f"item {query.item} outside the domain "
                f"[0, {store.domain_size})"
            )
        steps = [
            f"span_releases(t0={query.t0 or 'oldest'}, "
            f"t1={query.t1 if query.t1 is not None else 'latest'})"
            f"[:, {query.item}]",
            f"cusum_detect(drift={query.drift}, "
            f"threshold={query.threshold})",
        ]

        def run():
            store.require_latest_t()
            t0 = query.t0 if query.t0 is not None else store.oldest_t
            t1 = query.t1 if query.t1 is not None else store.latest_t
            if t0 > t1:
                raise InvalidParameterError(
                    f"changepoint span resolved to [{t0}, {t1}] "
                    f"(t0 > t1)"
                )
            series = store.span_releases(t0, t1)[:, query.item]
            alarms = cusum_detect(series, query.drift, query.threshold)
            return ChangepointResult(
                item=query.item,
                t0=t0,
                t1=t1,
                alarms=tuple(t0 + a for a in alarms),
            )

        return steps, run

    def _lower_threshold(self, query: Threshold):
        inner_steps, inner_run = self._lower(query.query)
        steps = list(inner_steps) + [
            f"trigger iff estimate {query.cmp} {query.value} by "
            f"{query.sigmas} sigma"
        ]

        def run():
            interval = inner_run()
            margin = query.sigmas * interval.stderr
            estimate = interval.estimate
            if query.cmp == ">":
                triggered = estimate - margin > query.value
            elif query.cmp == ">=":
                triggered = estimate - margin >= query.value
            elif query.cmp == "<":
                triggered = estimate + margin < query.value
            else:  # "<="
                triggered = estimate + margin <= query.value
            return ThresholdResult(
                interval=interval, margin=margin, triggered=triggered
            )

        return steps, run

    # ------------------------------------------------------------------
    # Wire answers
    # ------------------------------------------------------------------
    def answer(self, query: Query) -> dict:
        """Evaluate and shape the reply as the serve protocol sends it.

        For the four classic verbs the shape is field-for-field the
        legacy per-op reply; composite nodes extend the same
        conventions (documented in ``docs/SERVING.md``).
        """
        result = self.evaluate(query)
        return self._shape(query, result)

    def _shape(self, query: Query, result) -> dict:
        if isinstance(query, Point):
            return {"op": "point", "item": query.item, **result.as_dict()}
        if isinstance(query, TopK):
            return {"op": "topk", "items": [e.as_dict() for e in result]}
        if isinstance(query, Range):
            return {
                "op": "range",
                "lo": query.lo,
                "hi": query.hi,
                **result.as_dict(),
            }
        if isinstance(query, Sliding):
            return {
                "op": "sliding",
                "item": query.item,
                **result.as_dict(),
            }
        if isinstance(query, Filter):
            reply = self._shape(query.query, result)
            if isinstance(query.query, TopK):
                reply["items"] = [e.as_dict() for e in result]
            reply["where"] = list(query.items)
            return reply
        if isinstance(query, GroupBy):
            reply = {
                "op": "groupby",
                "groups": {
                    name: interval.as_dict()
                    for name, interval in result.items()
                },
            }
            if query.t is not None:
                reply["t"] = query.t
            return reply
        if isinstance(query, Join):
            return {
                "op": "join",
                "how": query.how,
                "item": query.item,
                "t0": query.t0,
                "t1": query.t1,
                "left": query.left,
                "right": query.right,
                **result.as_dict(),
            }
        if isinstance(query, Changepoint):
            return {
                "op": "changepoint",
                "item": result.item,
                "drift": query.drift,
                "threshold": query.threshold,
                "t0": result.t0,
                "t1": result.t1,
                "alarms": list(result.alarms),
            }
        if isinstance(query, Threshold):
            return {
                "op": "threshold",
                "query": query.query.to_wire(),
                "cmp": query.cmp,
                "value": query.value,
                "sigmas": query.sigmas,
                **result.interval.as_dict(),
                "margin": result.margin,
                "triggered": result.triggered,
            }
        raise InvalidParameterError(
            f"no wire shape for query node {type(query).__name__}"
        )
