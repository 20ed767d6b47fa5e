"""Full evaluation campaign: regenerate every figure and table in one call.

:data:`ARTIFACTS` is the one registry of the paper's Section-7 artifacts:
each name maps to how its series are generated at a size tier and how
they render as text.  :func:`run_campaign` walks the registry, writes one
text artifact per entry (plus CSV series for external plotting) into an
output directory, and returns the in-memory results.  The CLI's
``campaign``, ``figure`` and ``table2`` commands are lookups into it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from ..io import series_to_csv
from ..rng import SeedLike
from .figures import (
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
    format_table2,
)
from .tables import PAPER_TABLE2, table2_cfpu

PathLike = Union[str, Path]


@dataclass(frozen=True)
class Artifact:
    """One paper artifact.

    ``generate(size, seed, repeats, jobs)`` returns its series at a size
    tier; ``render(series)`` formats them as text; ``csv`` says whether
    the series also export as CSV (ROC curves and Table 2 do not).
    """

    generate: Callable[[str, SeedLike, int, Optional[int]], object]
    render: Callable[[object], str]
    csv: bool = True


def _at_smoke(size: str, **workload) -> dict:
    """Workload overrides for figures sized by explicit parameters, not
    a tier: smoke campaigns shrink them so CI stays fast."""
    return workload if size == "smoke" else {}


#: The registry, in campaign run order.
ARTIFACTS: Dict[str, Artifact] = {
    "fig4": Artifact(
        lambda size, seed, repeats, jobs: fig4_utility_vs_epsilon(
            size=size, repeats=repeats, seed=seed, jobs=jobs
        ),
        lambda series: format_figure(series, x_label="epsilon"),
    ),
    "fig5": Artifact(
        lambda size, seed, repeats, jobs: fig5_utility_vs_window(
            size=size, repeats=repeats, seed=seed, jobs=jobs
        ),
        lambda series: format_figure(series, x_label="w"),
    ),
    "fig6_population": Artifact(
        lambda size, seed, repeats, jobs: fig6_population(
            repeats=repeats,
            seed=seed,
            jobs=jobs,
            **_at_smoke(size, populations=(2_000, 4_000, 8_000), horizon=60),
        ),
        lambda series: format_figure(series, x_label="N"),
    ),
    "fig6_fluctuation": Artifact(
        lambda size, seed, repeats, jobs: fig6_fluctuation(
            repeats=repeats,
            seed=seed,
            jobs=jobs,
            **_at_smoke(size, n_users=6_000, horizon=60),
        ),
        lambda series: format_figure(series, x_label="fluctuation"),
    ),
    "fig7": Artifact(
        lambda size, seed, repeats, jobs: fig7_event_monitoring(
            size=size, seed=seed, jobs=jobs
        ),
        format_roc_summary,
        csv=False,
    ),
    "fig8": Artifact(
        lambda size, seed, repeats, jobs: fig8_communication(
            repeats=repeats,
            seed=seed,
            jobs=jobs,
            **_at_smoke(
                size, populations=(2_000, 4_000), n_users=6_000, horizon=60
            ),
        ),
        lambda series: format_figure(series, x_label="x"),
    ),
    "table2": Artifact(
        lambda size, seed, repeats, jobs: table2_cfpu(
            size=size, seed=seed, jobs=jobs
        ),
        lambda table: format_table2(table, PAPER_TABLE2),
        csv=False,
    ),
}


def run_campaign(
    output_dir: Optional[PathLike] = None,
    size: str = "smoke",
    repeats: int = 1,
    seed: SeedLike = 0,
    verbose: bool = True,
    jobs: Optional[int] = 1,
) -> Dict[str, object]:
    """Run the full evaluation; optionally write artifacts to ``output_dir``.

    Returns a dict with one entry per artifact name in :data:`ARTIFACTS`
    holding the raw series, plus ``"elapsed_seconds"``.  ``jobs=N`` fans
    every figure/table grid out over N worker processes (``None`` uses
    all CPUs) without changing any result — see
    :mod:`repro.experiments.parallel` for the determinism contract.
    """
    out = Path(output_dir) if output_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    started = time.time()
    results: Dict[str, object] = {}
    for name, artifact in ARTIFACTS.items():
        series = results[name] = artifact.generate(size, seed, repeats, jobs)
        text = artifact.render(series)
        if verbose:
            print(f"== {name} ==")
            print(text)
            print()
        if out is not None:
            (out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
            if artifact.csv:
                series_to_csv(series, out / f"{name}.csv")

    results["elapsed_seconds"] = time.time() - started
    if verbose:
        print(f"campaign finished in {results['elapsed_seconds']:.1f}s")
    return results
