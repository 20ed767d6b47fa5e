"""repro — a full reproduction of *LDP-IDS: Local Differential Privacy for
Infinite Data Streams* (Ren et al., SIGMOD 2022).

The library provides, end to end:

* LDP **frequency oracles** (GRR, OUE, OLH, SUE, HR) with exact count-level
  samplers and closed-form variances (:mod:`repro.freq_oracles`);
* **stream datasets** — the paper's synthetic LNS/Sin/Log processes and
  generative simulators for its three real-world workloads
  (:mod:`repro.streams`);
* a **collection engine** with a runtime ``w``-event LDP accountant and
  communication metering (:mod:`repro.engine`);
* the seven **mechanisms** LBU, LSP, LBD, LBA, LPU, LPD, LPA
  (:mod:`repro.mechanisms`);
* the **centralized-DP substrate** the paper builds on — Laplace, BD, BA,
  FAST, PeGaSus (:mod:`repro.cdp`);
* **analysis** utilities — MRE/MAE/MSE, event-monitoring ROC, CFPU, and
  the paper's closed-form utility theory (:mod:`repro.analysis`);
* an **experiment harness** regenerating every figure and table of
  Section 7 (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import make_lns, run_stream
>>> from repro.analysis import mean_relative_error
>>> stream = make_lns(n_users=20_000, horizon=100, seed=7)
>>> result = run_stream("LPA", stream, epsilon=1.0, window=20, seed=7)
>>> mre = mean_relative_error(result.releases, result.true_frequencies)
"""

from .engine import (
    SessionGroup,
    SessionResult,
    StepRecord,
    StreamSession,
    UserPool,
    WEventAccountant,
    run_stream,
)
from .query import IntervalEstimate, QueryEngine, ReleaseStore, TopKEntry
from .extensions import LPF
from .related import THRESH
from .exceptions import (
    InvalidParameterError,
    PopulationExhaustedError,
    PrivacyViolationError,
    ReproError,
    StreamAccessError,
)
from .freq_oracles import GRR, OLH, OUE, SUE, FrequencyOracle, get_oracle
from .mechanisms import (
    ALL_METHODS,
    BUDGET_METHODS,
    LBA,
    LBD,
    LBU,
    LPA,
    LPD,
    LPU,
    LSP,
    POPULATION_METHODS,
    StreamMechanism,
    available_mechanisms,
    get_mechanism,
)
from .streams import (
    BinaryStream,
    FoursquareSimulator,
    GenerativeStream,
    MaterializedStream,
    StreamDataset,
    TaobaoSimulator,
    TaxiSimulator,
    make_constant,
    make_lns,
    make_log,
    make_sin,
    make_step,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # engine
    "run_stream",
    "StreamSession",
    "SessionGroup",
    "SessionResult",
    "StepRecord",
    "WEventAccountant",
    "UserPool",
    # query layer
    "ReleaseStore",
    "QueryEngine",
    "IntervalEstimate",
    "TopKEntry",
    # errors
    "ReproError",
    "InvalidParameterError",
    "PrivacyViolationError",
    "PopulationExhaustedError",
    "StreamAccessError",
    # oracles
    "FrequencyOracle",
    "get_oracle",
    "GRR",
    "OUE",
    "OLH",
    "SUE",
    # mechanisms
    "StreamMechanism",
    "get_mechanism",
    "available_mechanisms",
    "LBU",
    "LSP",
    "LBD",
    "LBA",
    "LPU",
    "LPD",
    "LPA",
    "ALL_METHODS",
    "BUDGET_METHODS",
    "POPULATION_METHODS",
    # streams
    "StreamDataset",
    "MaterializedStream",
    "GenerativeStream",
    "BinaryStream",
    "make_lns",
    "make_sin",
    "make_log",
    "make_step",
    "make_constant",
    "TaxiSimulator",
    "FoursquareSimulator",
    "TaobaoSimulator",
]
