"""Online query layer over released estimates.

The mechanisms exist to *answer queries* over private streams; this
package is the serving surface that makes that real:

* :class:`ReleaseStore` — memory-bounded ring buffer of released
  histograms that sessions publish into (prefix sums, publication-group
  correlation tracking, optional full-history retention);
* :class:`QueryEngine` — point frequency, top-k heavy hitters,
  categorical range counts, and sliding-window aggregates, each with a
  variance-propagated confidence interval from the closed-form oracle
  variances;
* the **query DSL** (:mod:`repro.query.dsl`) — a typed AST over those
  verbs plus filters, group-bys, two-source joins, and
  changepoint/threshold alert predicates, expressible as JSON wire
  objects or a one-line text syntax;
* :class:`QueryPlanner` (:mod:`repro.query.planner`) — lowers the AST
  onto engine/store primitives, bit-identical to hand-composed calls;
* :class:`StandingRegistry` (:mod:`repro.query.standing`) — alert
  predicates evaluated incrementally per ingest chunk inside
  ``repro serve`` (solo and sharded).

Attach a store to a live :class:`~repro.engine.session.StreamSession`
(``store=`` argument, or ``SessionGroup.add_session(..., store=...)``)
or rebuild one from a finalized run with
:meth:`QueryEngine.from_result`.  The ``repro serve`` and ``repro
query`` CLI commands expose both paths; see ``docs/QUERIES.md``.

The numeric-stream estimators (mean-oriented mechanisms over bounded
numeric values) live here too: :mod:`repro.query.numeric` and
:mod:`repro.query.stream_mean`.
"""

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
    format_expr,
    parse_expr,
    pin_t,
    query_from_request,
    query_from_wire,
)
from .engine import IntervalEstimate, QueryEngine, TopKEntry
from .numeric import (
    DuchiMechanism,
    HybridMechanism,
    NumericMechanism,
    PiecewiseMechanism,
    get_numeric_mechanism,
)
from .planner import (
    ChangepointResult,
    Plan,
    QueryPlanner,
    ThresholdResult,
)
from .propagation import PRIOR_VARIANCE, next_release_variance
from .standing import StandingQuery, StandingRegistry
from .store import ReleaseStore, merge_release_rows
from .stream_mean import (
    MeanPopulationAbsorption,
    MeanPopulationUniform,
    MeanSessionResult,
    MeanStepRecord,
    NumericStream,
    make_sine_numeric_stream,
)

__all__ = [
    "ReleaseStore",
    "QueryEngine",
    "IntervalEstimate",
    "TopKEntry",
    "PRIOR_VARIANCE",
    "next_release_variance",
    "merge_release_rows",
    # DSL
    "Query",
    "Point",
    "TopK",
    "Range",
    "Sliding",
    "Filter",
    "GroupBy",
    "Join",
    "Changepoint",
    "Threshold",
    "parse_expr",
    "format_expr",
    "pin_t",
    "query_from_wire",
    "query_from_request",
    # Planner
    "QueryPlanner",
    "Plan",
    "ChangepointResult",
    "ThresholdResult",
    # Standing
    "StandingQuery",
    "StandingRegistry",
    # Numeric streams
    "NumericMechanism",
    "DuchiMechanism",
    "PiecewiseMechanism",
    "HybridMechanism",
    "get_numeric_mechanism",
    "NumericStream",
    "make_sine_numeric_stream",
    "MeanPopulationUniform",
    "MeanPopulationAbsorption",
    "MeanSessionResult",
    "MeanStepRecord",
]
