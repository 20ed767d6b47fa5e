"""Ablations — closed-form theory vs simulation, design choices, extensions.

Not paper figures, but the quantitative backbone of Sections 5.4 / 6.3
and the numbers behind the beyond-paper extensions:

* Theorem 6.1: measured MSE(LPU) < MSE(LBU), and both match their
  closed forms V(eps, N/w) / V(eps/w, N) on a static stream;
* Eq. (8)-(11): the per-publication variance ordering LPD < LBD and
  LPA < LBA across publication counts;
* design choices: frequency oracle choice (GRR vs OUE at small/large
  domains) and the dissimilarity bias correction of Theorem 5.2;
* extensions: LPF (Remark 3, population-division FAST) vs LPU, THRESH
  vs LPA, post-release smoothing on LBU, MPA vs MPU for the mean query.
"""

import numpy as np
import pytest

from repro.analysis import (
    mean_squared_error,
    mse_lbu,
    mse_lpu,
    publication_variance_lba,
    publication_variance_lbd,
    publication_variance_lpa,
    publication_variance_lpd,
)
from repro.engine import run_stream
from repro.extensions import exponential_smoothing
from repro.freq_oracles import get_oracle
from repro.query import (
    MeanPopulationAbsorption,
    MeanPopulationUniform,
    make_sine_numeric_stream,
)
from repro.streams import make_constant, make_lns, make_sin


def _mse(method, stream, epsilon, window, seeds=range(4)):
    values = []
    for seed in seeds:
        result = run_stream(
            method, stream, epsilon=epsilon, window=window, seed=seed
        )
        values.append(
            mean_squared_error(result.releases, result.true_frequencies)
        )
    return float(np.mean(values))


class TestTheory:
    def test_theorem_6_1_theory_vs_simulation(self):
        stream = make_constant(n_users=10_000, horizon=60, p=0.1, seed=2)
        eps, w = 1.0, 10
        measured = {}
        for method in ("LBU", "LPU"):
            mses = [
                mean_squared_error(
                    run_stream(
                        method, stream, epsilon=eps, window=w, seed=s
                    ).releases,
                    stream.frequency_matrix(),
                )
                for s in range(8)
            ]
            measured[method] = float(np.mean(mses))
        predicted = {
            "LBU": mse_lbu(eps, stream.n_users, w, 2),
            "LPU": mse_lpu(eps, stream.n_users, w, 2),
        }
        assert measured["LPU"] < measured["LBU"]
        for method in ("LBU", "LPU"):
            assert measured[method] == pytest.approx(
                predicted[method], rel=0.35
            )

    def test_eq_8_to_11_variance_orderings(self):
        for m in (1, 2, 4, 8, 16):
            assert publication_variance_lpd(
                1.0, 200_000, m, 2
            ) < publication_variance_lbd(1.0, 200_000, m, 2)
            assert publication_variance_lpa(
                1.0, 200_000, m, 20, 2
            ) < publication_variance_lba(1.0, 200_000, m, 20, 2)

    def test_oracle_choice_ablation(self):
        """GRR wins for small domains, OUE for large domains — the standard
        FO crossover, which justifies making the oracle pluggable."""
        variances = {
            d: {
                name: get_oracle(name).variance(1.0, 10_000, d)
                for name in ("grr", "oue")
            }
            for d in (2, 64)
        }
        assert variances[2]["grr"] < variances[2]["oue"]
        assert variances[64]["oue"] < variances[64]["grr"]

    def test_dissimilarity_bias_correction_ablation(self):
        """Theorem 5.2's variance subtraction matters: the uncorrected raw
        squared distance overestimates dis* by exactly the FO variance,
        which would push adaptive methods toward needless publications."""
        from repro.freq_oracles import GRR
        from repro.mechanisms import estimate_dissimilarity

        oracle = GRR()
        rng = np.random.default_rng(0)
        true_counts = np.array([1_000, 9_000])
        last = np.array([0.1, 0.9])  # equals the truth: dis* = 0
        corrected, raw = [], []
        for _ in range(300):
            est = oracle.sample_aggregate(true_counts, 1.0, rng=rng)
            corrected.append(estimate_dissimilarity(est, last))
            raw.append(float(np.mean((est.frequencies - last) ** 2)))
        corrected_mean = float(np.mean(corrected))
        raw_mean = float(np.mean(raw))
        assert abs(corrected_mean) < raw_mean / 5
        assert raw_mean == pytest.approx(est.variance, rel=0.2)


class TestExtensions:
    def test_lpf_filtering_payoff(self):
        stream = make_sin(n_users=10_000, horizon=120, b=0.005, seed=3)
        assert _mse("LPF", stream, 0.5, 10) < _mse("LPU", stream, 0.5, 10), (
            "Kalman filtering should beat raw LPU"
        )

    def test_thresh_vs_lpa(self):
        for stream in (
            make_lns(n_users=20_000, horizon=120, seed=21),
            make_sin(n_users=20_000, horizon=120, seed=21),
        ):
            lpa = _mse("LPA", stream, 1.0, 20)
            assert lpa < _mse("THRESH", stream, 1.0, 20)

    def test_smoothing_payoff_on_lbu(self):
        stream = make_lns(n_users=10_000, horizon=120, seed=5)
        raw_mse, smooth_mse = [], []
        for seed in range(4):
            result = run_stream(
                "LBU", stream, epsilon=1.0, window=20, seed=seed
            )
            raw_mse.append(
                mean_squared_error(result.releases, result.true_frequencies)
            )
            smoothed = exponential_smoothing(result.releases, alpha=0.15)
            smooth_mse.append(
                mean_squared_error(smoothed, result.true_frequencies)
            )
        assert np.mean(smooth_mse) < np.mean(raw_mse)

    def test_mean_query_adaptivity(self):
        stream = make_sine_numeric_stream(
            n_users=8_000, horizon=100, amplitude=0.3, period=80, seed=5
        )
        mpu = MeanPopulationUniform().run(stream, 1.0, 10, seed=1)
        mpa = MeanPopulationAbsorption().run(stream, 1.0, 10, seed=1)
        # Both must track; adaptivity should not lose by more than 2x and
        # typically wins on streams with slow segments.
        assert mpa.mse < 2.0 * mpu.mse
