"""Registry of the paper's six evaluation datasets (Section 7.1).

Every dataset is available at three sizes:

* ``smoke`` — seconds-fast sizes for CI and the tier-1 shape tests;
* ``default`` — laptop-scale sizes that preserve every qualitative result;
* ``paper`` — the exact N/T the paper reports (minutes per grid point).

The three real-world datasets are generative simulators (see
:mod:`repro.streams.simulators` for the substitution rationale, and the
real-world stand-ins paragraph of docs/ARCHITECTURE.md, section
``repro.streams``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..exceptions import InvalidParameterError
from ..rng import SeedLike
from ..streams import (
    FoursquareSimulator,
    StreamDataset,
    TaobaoSimulator,
    TaxiSimulator,
    make_lns,
    make_log,
    make_sin,
)

#: Dataset names in the paper's plotting order.
SYNTHETIC_DATASETS = ("LNS", "Sin", "Log")
REALWORLD_DATASETS = ("Taxi", "Foursquare", "Taobao")
ALL_DATASETS = SYNTHETIC_DATASETS + REALWORLD_DATASETS

#: (n_users, horizon) per size tier.  ``paper`` matches Section 7.1.
_SIZES: Dict[str, Dict[str, Tuple[int, int]]] = {
    "LNS": {"smoke": (4_000, 60), "default": (20_000, 200), "paper": (200_000, 800)},
    "Sin": {"smoke": (4_000, 60), "default": (20_000, 200), "paper": (200_000, 800)},
    "Log": {"smoke": (4_000, 60), "default": (20_000, 200), "paper": (200_000, 800)},
    "Taxi": {"smoke": (4_000, 60), "default": (10_357, 200), "paper": (10_357, 886)},
    "Foursquare": {
        "smoke": (4_000, 60),
        "default": (33_143, 150),
        "paper": (265_149, 447),
    },
    "Taobao": {
        "smoke": (4_000, 60),
        "default": (31_973, 150),
        "paper": (1_023_154, 432),
    },
}


def dataset_names() -> tuple[str, ...]:
    """All registered dataset names in paper order."""
    return ALL_DATASETS


def dataset_size(name: str, size: str = "default") -> Tuple[int, int]:
    """The (n_users, horizon) pair used for ``name`` at a size tier."""
    try:
        return _SIZES[name][size]
    except KeyError:
        raise InvalidParameterError(
            f"unknown dataset/size {name!r}/{size!r}; datasets: {ALL_DATASETS}, "
            "sizes: smoke/default/paper"
        ) from None


def make_dataset(
    name: str,
    size: str = "default",
    n_users: Optional[int] = None,
    horizon: Optional[int] = None,
    seed: SeedLike = None,
    **kwargs,
) -> StreamDataset:
    """Instantiate a paper dataset by name.

    ``n_users`` / ``horizon`` override the tier defaults; extra ``kwargs``
    reach the underlying generator (e.g. ``q_std`` for LNS, ``b`` for Sin).
    """
    default_n, default_t = dataset_size(name, size)
    n = n_users if n_users is not None else default_n
    t = horizon if horizon is not None else default_t
    if name == "LNS":
        return make_lns(n_users=n, horizon=t, seed=seed, **kwargs)
    if name == "Sin":
        return make_sin(n_users=n, horizon=t, seed=seed, **kwargs)
    if name == "Log":
        return make_log(n_users=n, horizon=t, seed=seed, **kwargs)
    if name == "Taxi":
        return TaxiSimulator(n_users=n, horizon=t, seed=seed, **kwargs)
    if name == "Foursquare":
        return FoursquareSimulator(n_users=n, horizon=t, scale=1, seed=seed, **kwargs)
    if name == "Taobao":
        return TaobaoSimulator(n_users=n, horizon=t, scale=1, seed=seed, **kwargs)
    raise InvalidParameterError(
        f"unknown dataset {name!r}; available: {ALL_DATASETS}"
    )
