"""Experiment harness regenerating every figure and table of Section 7.

* :mod:`~repro.experiments.datasets` — the six evaluation datasets at
  smoke/default/paper sizes;
* :mod:`~repro.experiments.parallel` — the cell evaluator: every cell
  (:func:`evaluate`, :func:`sweep`, :func:`execute_cells`) is a
  self-describing :class:`CellSpec` run as a shared stream pass, inline
  or over worker processes (bit-identical at any worker count);
* :mod:`~repro.experiments.runner` — per-cell metrics
  (:class:`CellResult`) and the averaging of repeats;
* :mod:`~repro.experiments.figures` — series generators for Figs. 4-8;
* :mod:`~repro.experiments.tables` — Table 2 (+ the paper's reported values);
* :mod:`~repro.experiments.reporting` — text rendering of the series.
"""

from .campaign import ARTIFACTS, run_campaign
from .datasets import (
    ALL_DATASETS,
    REALWORLD_DATASETS,
    SYNTHETIC_DATASETS,
    dataset_names,
    dataset_size,
    make_dataset,
)
from .figures import (
    FIG7_METHODS,
    fig4_utility_vs_epsilon,
    fig5_utility_vs_window,
    fig6_fluctuation,
    fig6_population,
    fig7_event_monitoring,
    fig8_communication,
)
from .reporting import (
    format_figure,
    format_roc_summary,
    format_series_table,
    format_table2,
)
from .parallel import (
    CellSpec,
    DatasetSpec,
    coalesce_specs,
    evaluate,
    execute_cells,
    grid_specs,
    merge_grid,
    run_shared_pass,
    sweep,
)
from .runner import CellResult, merge_repeat_cells
from .tables import PAPER_TABLE2, TABLE2_DATASETS, TABLE2_SETTINGS, table2_cfpu

__all__ = [
    "run_campaign",
    "ARTIFACTS",
    "ALL_DATASETS",
    "SYNTHETIC_DATASETS",
    "REALWORLD_DATASETS",
    "dataset_names",
    "dataset_size",
    "make_dataset",
    "CellResult",
    "CellSpec",
    "DatasetSpec",
    "coalesce_specs",
    "run_shared_pass",
    "evaluate",
    "execute_cells",
    "grid_specs",
    "merge_grid",
    "merge_repeat_cells",
    "sweep",
    "fig4_utility_vs_epsilon",
    "fig5_utility_vs_window",
    "fig6_population",
    "fig6_fluctuation",
    "fig7_event_monitoring",
    "fig8_communication",
    "FIG7_METHODS",
    "table2_cfpu",
    "TABLE2_DATASETS",
    "TABLE2_SETTINGS",
    "PAPER_TABLE2",
    "format_series_table",
    "format_figure",
    "format_roc_summary",
    "format_table2",
]
