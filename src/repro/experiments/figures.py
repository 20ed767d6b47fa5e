"""Series generators for every figure in Section 7.

Each ``figN_*`` function regenerates the data series behind the paper's
figure — the same methods, the same x-axes, the same metric — and returns a
plain nested dict that :mod:`repro.experiments.reporting` can print.  The
paper's exact parameter values are the defaults; sizes default to the
``default`` tier of :mod:`repro.experiments.datasets` (scaled, shape
preserving) and can be raised to ``paper``.

Every generator decomposes its grid into
:class:`~repro.experiments.parallel.CellSpec` jobs and executes them
through :func:`~repro.experiments.parallel.execute_cells`, so passing
``jobs=N`` fans the figure out over N worker processes with bit-identical
results to the serial run (each cell's randomness derives from the figure
seed and the cell's coordinates alone).

Figure index (the real-world datasets are the simulator stand-ins of
docs/ARCHITECTURE.md, section ``repro.streams``):

* Fig. 4 — MRE vs epsilon, w = 20, 6 datasets, 7 methods;
* Fig. 5 — MRE vs window, eps = 1, 6 datasets, 7 methods;
* Fig. 6 — MRE vs population N and fluctuation (Q, b), eps = 1, w = 30;
* Fig. 7 — event-monitoring ROC curves, eps = 1, w = 50;
* Fig. 8 — CFPU vs N, Q, eps, w on LNS.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import ROCCurve
from ..mechanisms import ALL_METHODS
from ..rng import SeedLike, as_seed_sequence, derive_seed
from .datasets import ALL_DATASETS
from .parallel import CellSpec, DatasetSpec, execute_cells

#: Methods on the paper's Fig. 7 ROC plots.
FIG7_METHODS = ("LBA", "LSP", "LPU", "LPD", "LPA")

SeriesDict = Dict[str, Dict[str, Dict[float, float]]]

#: (panel, method, x) coordinates tracked alongside each CellSpec so the
#: executed cells can be folded back into the figure's nested-dict shape.
_Coord = Tuple[str, str, float]


def _fill(
    specs: List[CellSpec],
    coords: List[_Coord],
    *,
    base: np.random.SeedSequence,
    jobs: Optional[int],
    metric: str = "mre",
) -> SeriesDict:
    """Execute specs and fold ``metric`` into ``series[panel][method][x]``."""
    cells = execute_cells(specs, base_seed=base, jobs=jobs)
    series: SeriesDict = {}
    for (panel, method, x), cell in zip(coords, cells):
        series.setdefault(panel, {}).setdefault(method, {})[x] = getattr(
            cell, metric
        )
    return series


def fig4_utility_vs_epsilon(
    datasets: Sequence[str] = ALL_DATASETS,
    methods: Sequence[str] = ALL_METHODS,
    epsilons: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5),
    window: int = 20,
    size: str = "default",
    repeats: int = 1,
    seed: SeedLike = 0,
    jobs: Optional[int] = 1,
) -> SeriesDict:
    """Fig. 4: ``series[dataset][method][epsilon] = MRE``."""
    base = as_seed_sequence(seed)
    specs: List[CellSpec] = []
    coords: List[_Coord] = []
    for name in datasets:
        dataset = DatasetSpec.of(
            name, size=size, seed=derive_seed(base, "fig4", name)
        )
        for method in methods:
            for epsilon in epsilons:
                specs.append(
                    CellSpec(
                        mechanism=method,
                        dataset=dataset,
                        epsilon=float(epsilon),
                        window=int(window),
                        repeats=repeats,
                        tag="fig4",
                    )
                )
                coords.append((name, method, epsilon))
    return _fill(specs, coords, base=base, jobs=jobs)


def fig5_utility_vs_window(
    datasets: Sequence[str] = ALL_DATASETS,
    methods: Sequence[str] = ALL_METHODS,
    windows: Sequence[int] = (10, 20, 30, 40, 50),
    epsilon: float = 1.0,
    size: str = "default",
    repeats: int = 1,
    seed: SeedLike = 0,
    jobs: Optional[int] = 1,
) -> SeriesDict:
    """Fig. 5: ``series[dataset][method][window] = MRE``."""
    base = as_seed_sequence(seed)
    specs: List[CellSpec] = []
    coords: List[_Coord] = []
    for name in datasets:
        dataset = DatasetSpec.of(
            name, size=size, seed=derive_seed(base, "fig5", name)
        )
        for method in methods:
            for window in windows:
                specs.append(
                    CellSpec(
                        mechanism=method,
                        dataset=dataset,
                        epsilon=float(epsilon),
                        window=int(window),
                        repeats=repeats,
                        tag="fig5",
                    )
                )
                coords.append((name, method, window))
    return _fill(specs, coords, base=base, jobs=jobs)


def fig6_population(
    populations: Sequence[int] = (10_000, 20_000, 40_000, 80_000),
    datasets: Sequence[str] = ("LNS", "Sin"),
    methods: Sequence[str] = ALL_METHODS,
    epsilon: float = 1.0,
    window: int = 30,
    horizon: int = 200,
    repeats: int = 1,
    seed: SeedLike = 0,
    jobs: Optional[int] = 1,
) -> SeriesDict:
    """Fig. 6(a,b): MRE vs population N (frequency process held fixed).

    The paper's x-axis is {1e5, 2e5, 4e5, 8e5}; the default here is the
    same geometric ladder scaled by 10 for bench speed.
    """
    base = as_seed_sequence(seed)
    specs: List[CellSpec] = []
    coords: List[_Coord] = []
    for name in datasets:
        # One process seed per dataset: the frequency process stays fixed
        # while N varies, exactly as in the paper's Fig. 6(a,b).
        process_seed = derive_seed(base, "fig6", name)
        for n_users in populations:
            dataset = DatasetSpec.of(
                name, n_users=n_users, horizon=horizon, seed=process_seed
            )
            for method in methods:
                specs.append(
                    CellSpec(
                        mechanism=method,
                        dataset=dataset,
                        epsilon=float(epsilon),
                        window=int(window),
                        repeats=repeats,
                        tag="fig6",
                    )
                )
                coords.append((name, method, float(n_users)))
    return _fill(specs, coords, base=base, jobs=jobs)


def fig6_fluctuation(
    q_values: Sequence[float] = (0.001, 0.002, 0.004, 0.008),
    b_values: Sequence[float] = (1 / 200, 1 / 100, 1 / 50, 1 / 25),
    methods: Sequence[str] = ALL_METHODS,
    epsilon: float = 1.0,
    window: int = 30,
    n_users: int = 20_000,
    horizon: int = 200,
    repeats: int = 1,
    seed: SeedLike = 0,
    jobs: Optional[int] = 1,
) -> SeriesDict:
    """Fig. 6(c,d): MRE vs fluctuation — sqrt(Q) for LNS and b for Sin."""
    base = as_seed_sequence(seed)
    specs: List[CellSpec] = []
    coords: List[_Coord] = []
    for q_std in q_values:
        dataset = DatasetSpec.of(
            "LNS",
            n_users=n_users,
            horizon=horizon,
            seed=derive_seed(base, "fig6", "LNS", float(q_std)),
            q_std=float(q_std),
        )
        for method in methods:
            specs.append(
                CellSpec(
                    mechanism=method,
                    dataset=dataset,
                    epsilon=float(epsilon),
                    window=int(window),
                    repeats=repeats,
                    tag="fig6",
                )
            )
            coords.append(("LNS", method, q_std))
    for b in b_values:
        dataset = DatasetSpec.of(
            "Sin",
            n_users=n_users,
            horizon=horizon,
            seed=derive_seed(base, "fig6", "Sin", float(b)),
            b=float(b),
        )
        for method in methods:
            specs.append(
                CellSpec(
                    mechanism=method,
                    dataset=dataset,
                    epsilon=float(epsilon),
                    window=int(window),
                    repeats=repeats,
                    tag="fig6",
                )
            )
            coords.append(("Sin", method, b))
    series = _fill(specs, coords, base=base, jobs=jobs)
    # Preserve the paper's panel order even when a panel is empty.
    return {
        "LNS": series.get("LNS", {m: {} for m in methods}),
        "Sin": series.get("Sin", {m: {} for m in methods}),
    }


def fig7_event_monitoring(
    datasets: Sequence[str] = ALL_DATASETS,
    methods: Sequence[str] = FIG7_METHODS,
    epsilon: float = 1.0,
    window: int = 50,
    size: str = "default",
    seed: SeedLike = 0,
    jobs: Optional[int] = 1,
) -> Dict[str, Dict[str, ROCCurve]]:
    """Fig. 7: ``curves[dataset][method]`` = ROC curve (with ``.auc``)."""
    base = as_seed_sequence(seed)
    specs: List[CellSpec] = []
    coords: List[Tuple[str, str]] = []
    for name in datasets:
        dataset = DatasetSpec.of(
            name, size=size, seed=derive_seed(base, "fig7", name)
        )
        for method in methods:
            specs.append(
                CellSpec(
                    mechanism=method,
                    dataset=dataset,
                    epsilon=float(epsilon),
                    window=int(window),
                    kind="roc",
                    tag="fig7",
                )
            )
            coords.append((name, method))
    cells = execute_cells(specs, base_seed=base, jobs=jobs)
    curves: Dict[str, Dict[str, ROCCurve]] = {}
    for (name, method), curve in zip(coords, cells):
        curves.setdefault(name, {})[method] = curve
    return curves


def fig8_communication(
    methods: Sequence[str] = ALL_METHODS,
    populations: Sequence[int] = (5_000, 10_000, 15_000, 20_000),
    q_values: Sequence[float] = (0.01, 0.02, 0.04, 0.08),
    epsilons: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
    windows: Sequence[int] = (10, 20, 30, 40),
    n_users: int = 20_000,
    horizon: int = 200,
    epsilon: float = 1.0,
    window: int = 20,
    repeats: int = 1,
    seed: SeedLike = 0,
    jobs: Optional[int] = 1,
) -> Dict[str, SeriesDict]:
    """Fig. 8(a-d): CFPU on LNS vs N, Q, epsilon and window.

    Returns ``panels[panel][method][x] = CFPU`` with panels
    ``"N"``, ``"Q"``, ``"epsilon"``, ``"window"``.
    """
    base = as_seed_sequence(seed)
    specs: List[CellSpec] = []
    coords: List[_Coord] = []

    def add(panel: str, dataset: DatasetSpec, method: str, eps: float, w: int, x: float) -> None:
        specs.append(
            CellSpec(
                mechanism=method,
                dataset=dataset,
                epsilon=float(eps),
                window=int(w),
                repeats=repeats,
                tag=f"fig8:{panel}",
            )
        )
        coords.append((panel, method, x))

    for n in populations:
        dataset = DatasetSpec.of(
            "LNS",
            n_users=n,
            horizon=horizon,
            seed=derive_seed(base, "fig8", "N", int(n)),
        )
        for method in methods:
            add("N", dataset, method, epsilon, window, float(n))
    for q_std in q_values:
        dataset = DatasetSpec.of(
            "LNS",
            n_users=n_users,
            horizon=horizon,
            seed=derive_seed(base, "fig8", "Q", float(q_std)),
            q_std=float(q_std),
        )
        for method in methods:
            add("Q", dataset, method, epsilon, window, q_std)
    shared = DatasetSpec.of(
        "LNS",
        n_users=n_users,
        horizon=horizon,
        seed=derive_seed(base, "fig8", "base"),
    )
    for eps in epsilons:
        for method in methods:
            add("epsilon", shared, method, eps, window, eps)
    for w in windows:
        for method in methods:
            add("window", shared, method, epsilon, w, float(w))

    panels = _fill(specs, coords, base=base, jobs=jobs, metric="cfpu")
    for panel in ("N", "Q", "epsilon", "window"):
        panels.setdefault(panel, {m: {} for m in methods})
    return panels
