"""LDP frequency oracles (Section 3.4 substrate).

Public surface:

* :class:`FrequencyOracle` — the oracle interface (perturb / aggregate /
  count-level ``sample_aggregate`` / closed-form ``variance``).
* :class:`SupportCountOracle` — the shared count-level sampler of the
  oracles whose support counts are two binomials per cell.
* Concrete oracles: :class:`GRR`, :class:`OUE`, :class:`OLH`, :class:`SUE`,
  :class:`HadamardResponse` (``"hr"``), all registered by name for
  :func:`get_oracle`.
* :mod:`~repro.freq_oracles.variance` — closed-form ``V(eps, n)`` helpers.
* :mod:`~repro.freq_oracles.postprocess` — consistency post-processing.
"""

from .base import (
    FOEstimate,
    FrequencyOracle,
    SupportCountOracle,
    available_oracles,
    get_oracle,
    register_oracle,
)
from .grr import GRR, grr_probabilities
from .hadamard import HadamardResponse, hadamard_order, hr_probability
from .olh import OLH, olh_hash_range
from .oue import OUE, oue_probabilities
from .postprocess import (
    clip,
    get_postprocessor,
    norm_sub,
    normalize,
    project_simplex,
)
from .sue import SUE, sue_probabilities
from .variance import (
    grr_cell_variance,
    grr_mean_variance,
    laplace_mean_variance,
    olh_mean_variance,
    oue_mean_variance,
    sue_mean_variance,
)

__all__ = [
    "FOEstimate",
    "FrequencyOracle",
    "SupportCountOracle",
    "available_oracles",
    "get_oracle",
    "register_oracle",
    "GRR",
    "OUE",
    "OLH",
    "SUE",
    "HadamardResponse",
    "hadamard_order",
    "hr_probability",
    "grr_probabilities",
    "oue_probabilities",
    "sue_probabilities",
    "olh_hash_range",
    "grr_cell_variance",
    "grr_mean_variance",
    "oue_mean_variance",
    "sue_mean_variance",
    "olh_mean_variance",
    "laplace_mean_variance",
    "clip",
    "normalize",
    "norm_sub",
    "project_simplex",
    "get_postprocessor",
]
