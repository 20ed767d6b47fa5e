"""Black-box ε-LDP check of every oracle's ``perturb``.

An ε-LDP randomizer M satisfies ``P[M(v) = o] <= e^ε · P[M(v') = o]``
for every pair of inputs ``v, v'`` and every output ``o``.  These tests
run the literal per-user protocol on each input of a small domain
(d <= 4), count how often each output appears, and check that no
output-probability ratio between neighbouring inputs exceeds ``e^ε``
beyond what sampling noise allows.  They read only the reports, never
the oracle's ``(p, q)``, so they check the implementation against the
definition rather than against its own constants.

The noise allowance is a Wilson score interval per output probability:
a pair fails only if the *lower* confidence bound of ``P[M(v) = o]``
exceeds ``e^ε`` times the *upper* bound of ``P[M(v') = o]``.  The
interval's z is set by a Bonferroni split of a 1e-6 family-wise error
rate over every bound a case computes, so a correct oracle fails with
probability below 1e-6 (and never, at the fixed seeds).  The canary
runs GRR at ``2ε`` and checks it against ``ε``: the check must catch it.

OLH's report is ``(a, b, y)``; the hash coefficients ``(a, b)`` do not
depend on the input, so the check runs on the marginal of ``y``.
"""

import math

import numpy as np
import pytest

from repro.freq_oracles import get_oracle

N_PER_VALUE = 40_000
FAMILY_ERROR = 1e-6


def _z_for_tail(tail: float) -> float:
    """One-sided standard-normal quantile, by bisection on ``math.erfc``."""
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > tail:
            lo = mid
        else:
            hi = mid
    return hi


def _wilson(count: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion ``count / n``."""
    phat = count / n
    denom = 1.0 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def _output_ids(name: str, reports: np.ndarray, domain_size: int):
    """Map reports to integer output ids and return ``(ids, n_outputs)``."""
    if name == "grr":
        return reports, domain_size
    if name in ("oue", "sue"):
        weights = 1 << np.arange(domain_size)
        return reports.astype(np.int64) @ weights, 1 << domain_size
    if name == "hr":
        return reports, int(reports.max()) + 1
    if name == "olh":
        y = reports[:, 2]
        return y, int(y.max()) + 1
    raise AssertionError(name)


def _max_lower_ratio(name, domain_size, run_epsilon, seed) -> float:
    """Largest lower-confidence bound of ``P[o | v] / P[o | v']`` over
    every output ``o`` and ordered input pair ``v != v'``."""
    oracle = get_oracle(name)
    rng = np.random.default_rng(seed)
    histograms = []
    n_outputs = 0
    for v in range(domain_size):
        values = np.full(N_PER_VALUE, v, dtype=np.int64)
        reports = oracle.perturb(values, domain_size, run_epsilon, rng=rng)
        ids, n_out = _output_ids(name, reports, domain_size)
        n_outputs = max(n_outputs, n_out)
        histograms.append(ids)
    histograms = [np.bincount(ids, minlength=n_outputs) for ids in histograms]
    n_bounds = 2 * n_outputs * domain_size * (domain_size - 1)
    z = _z_for_tail(FAMILY_ERROR / n_bounds)
    bounds = [
        [_wilson(int(c), N_PER_VALUE, z) for c in hist] for hist in histograms
    ]
    worst = 0.0
    for v in range(domain_size):
        for w in range(domain_size):
            if v == w:
                continue
            for o in range(n_outputs):
                lower = bounds[v][o][0]
                upper = bounds[w][o][1]
                if lower > 0.0:
                    worst = max(worst, lower / upper)
    return worst


@pytest.mark.parametrize(
    "name, domain_size, epsilon",
    [
        ("grr", 2, 0.5),
        ("grr", 4, 1.0),
        ("oue", 4, 1.0),
        ("sue", 3, 1.5),
        ("hr", 3, 2.0),
        ("hr", 4, 1.0),
        ("olh", 4, 1.0),
    ],
)
def test_perturb_is_epsilon_ldp(name, domain_size, epsilon):
    worst = _max_lower_ratio(name, domain_size, epsilon, seed=2024)
    assert worst <= math.exp(epsilon)


def test_canary_grr_at_double_budget_is_caught():
    """GRR run at 2ε violates ε-LDP; the check must say so."""
    worst = _max_lower_ratio("grr", 4, 2.0, seed=2024)
    assert worst > math.exp(1.0)
