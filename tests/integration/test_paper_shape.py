"""Integration tests asserting the paper's headline results hold in shape.

These are the claims a reader takes away from Section 7, checked on scaled
workloads:

1. Population division beats budget division on utility (Figs. 4-5).
2. Error decreases with epsilon and increases with w (Figs. 4-5).
3. Error decreases with population N (Fig. 6a/b).
4. Adaptive population methods beat budget methods on communication, with
   LPD/LPA below LPU's 1/w and LBD/LBA above 1 (Table 2, Fig. 8).
5. LBA stays usable as w grows while LBD degrades toward/below LBU
   (Fig. 5 discussion).

:class:`TestPaperArtifacts` checks the same claims on the regenerated
series of each figure and of Table 2, through the generators the
``repro figure`` / ``table2`` / ``campaign`` commands use.  Each claim
has its own seed, datasets and grid rather than reading the campaign's
output: a claim holds only where its workload supports it (Fig. 8's
"LPD below LPU" needs a horizon of at least 2w).  The BENCH_SIZE
environment variable selects their size tier (``smoke`` | ``default`` |
``paper``, default ``smoke``).
"""

import math
import os

import numpy as np
import pytest

from repro.engine import run_stream
from repro.experiments import (
    PAPER_TABLE2,
    TABLE2_SETTINGS,
    dataset_size,
    evaluate,
    fig4_utility_vs_epsilon,
    fig5_utility_vs_window,
    fig6_fluctuation,
    fig6_population,
    fig7_event_monitoring,
    fig8_communication,
    format_figure,
    format_roc_summary,
    format_table2,
    table2_cfpu,
)
from repro.streams import make_lns, make_sin

#: Size tier of the :class:`TestPaperArtifacts` claims.
SIZE = os.environ.get("BENCH_SIZE", "smoke")


def mre_of(method, stream, epsilon, window, seed=0, repeats=3):
    return evaluate(
        method, stream, epsilon, window, seed=seed, repeats=repeats
    ).mre


@pytest.fixture(scope="module")
def lns_stream():
    return make_lns(n_users=20_000, horizon=120, seed=21)


@pytest.fixture(scope="module")
def sin_stream():
    return make_sin(n_users=20_000, horizon=120, seed=21)


class TestPopulationBeatsBudget:
    @pytest.mark.parametrize(
        "budget_method,population_method",
        [("LBU", "LPU"), ("LBD", "LPD"), ("LBA", "LPA")],
    )
    def test_pairwise_on_lns(self, lns_stream, budget_method, population_method):
        budget = mre_of(budget_method, lns_stream, 1.0, 20)
        population = mre_of(population_method, lns_stream, 1.0, 20)
        assert population < budget, (
            f"{population_method} ({population:.3f}) should beat "
            f"{budget_method} ({budget:.3f})"
        )

    def test_family_gap_is_large(self, lns_stream):
        """The paper reports multi-x gaps between the families."""
        lbu = mre_of("LBU", lns_stream, 1.0, 20)
        lpa = mre_of("LPA", lns_stream, 1.0, 20)
        assert lpa < lbu / 2


class TestTrends:
    def test_error_decreases_with_epsilon(self, lns_stream):
        for method in ("LBU", "LPU", "LPA"):
            low = mre_of(method, lns_stream, 0.5, 20)
            high = mre_of(method, lns_stream, 2.5, 20)
            assert high < low, f"{method} MRE should fall as eps grows"

    def test_error_increases_with_window(self, sin_stream):
        for method in ("LBU", "LPU"):
            small = mre_of(method, sin_stream, 1.0, 10)
            large = mre_of(method, sin_stream, 1.0, 50)
            assert large > small, f"{method} MRE should grow with w"

    def test_error_decreases_with_population(self):
        small = make_lns(n_users=5_000, horizon=80, seed=4)
        large = make_lns(n_users=40_000, horizon=80, seed=4)
        for method in ("LPU", "LPA"):
            assert mre_of(method, large, 1.0, 20) < mre_of(method, small, 1.0, 20)


class TestCommunicationShape:
    def test_cfpu_ordering(self, lns_stream):
        """LPA < LPD < LPU = LSP = 1/w << 1 = LBU < LBA < LBD."""
        w = 20
        cells = {
            m: evaluate(m, lns_stream, 1.0, w, seed=1) for m in (
                "LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA"
            )
        }
        assert cells["LBU"].cfpu == pytest.approx(1.0)
        assert cells["LSP"].cfpu == pytest.approx(1 / w, rel=0.05)
        assert cells["LPU"].cfpu == pytest.approx(1 / w, rel=0.05)
        assert cells["LBD"].cfpu > 1.0
        assert cells["LBA"].cfpu > 1.0
        assert cells["LBD"].cfpu > cells["LBA"].cfpu  # LBD publishes more
        assert cells["LPD"].cfpu < 1 / w + 1e-9
        assert cells["LPA"].cfpu < cells["LPD"].cfpu  # Table 2 ordering

    def test_population_methods_cut_communication_20x(self, lns_stream):
        lba = evaluate("LBA", lns_stream, 1.0, 20, seed=1).cfpu
        lpa = evaluate("LPA", lns_stream, 1.0, 20, seed=1).cfpu
        assert lba / lpa > 20


class TestWindowGrowthBehaviour:
    def test_lba_more_robust_than_lbd_at_large_w(self, sin_stream):
        """Fig. 5: with large w, LBD's exponential decay hurts it; LBA
        stays closer to (or better than) LBU."""
        w = 50
        lbd = mre_of("LBD", sin_stream, 1.0, w)
        lba = mre_of("LBA", sin_stream, 1.0, w)
        assert lba < lbd


class TestEventMonitoringShape:
    def test_adaptive_population_detects_better_than_lsp(self):
        """Fig. 7 discussion: LSP's fixed sampling hinders real-time
        detection; the adaptive population methods beat it."""
        from repro.analysis import monitoring_roc

        # Paper setting: w = 50, and a stream that moves fast enough that
        # LSP's once-per-window snapshots go stale between samples.
        stream = make_lns(n_users=40_000, horizon=300, q_std=0.008, seed=13)
        aucs = {}
        for method in ("LSP", "LPD", "LPA"):
            scores = []
            for seed in range(3):
                result = run_stream(method, stream, epsilon=1.0, window=50, seed=seed)
                scores.append(
                    monitoring_roc(result.releases, result.true_frequencies).auc
                )
            aucs[method] = np.mean(scores)
        assert aucs["LPA"] > aucs["LSP"]
        assert aucs["LPD"] > aucs["LSP"]


def _table2_deterministic_expected(method, dataset, window, size):
    """Horizon-exact CFPU of Table 2's non-adaptive methods.

    The paper's 1/w for LSP assumes T divisible by w; at finite horizons
    LSP publishes ceil(T/w) times, so we compare against the exact value.
    """
    _, horizon = dataset_size(dataset, size)
    if method == "LBU":
        return 1.0
    if method == "LSP":
        return math.ceil(horizon / window) / horizon
    if method == "LPU":
        return 1.0 / window
    raise KeyError(method)


class TestPaperArtifacts:
    """The qualitative shape (who wins, by roughly what factor) of each
    regenerated figure and of Table 2.  The rendered series are printed,
    so a failing claim shows its whole table."""

    def test_fig4_series(self):
        """Fig. 4 — MRE vs epsilon (w=20), LNS and Taxi panels."""
        series = fig4_utility_vs_epsilon(
            datasets=("LNS", "Taxi"),
            epsilons=(0.5, 1.0, 1.5, 2.0, 2.5),
            window=20,
            size=SIZE,
            repeats=2,
            seed=42,
        )
        print(format_figure(series, x_label="epsilon"))
        for dataset, methods in series.items():
            # Trend: more budget, less error (compare the endpoints).
            for method, values in methods.items():
                assert values[2.5] < values[0.5] * 1.3, (
                    f"{method} on {dataset}: MRE should fall with epsilon"
                )
            # Family ordering at eps = 1 (the paper's headline).
            assert methods["LPU"][1.0] < methods["LBU"][1.0]
            assert methods["LPA"][1.0] < methods["LBA"][1.0]
            assert methods["LPD"][1.0] < methods["LBD"][1.0]

    def test_fig5_series(self):
        """Fig. 5 — MRE vs window size (eps=1): MRE grows with w, LBD
        degrades fastest, the population family keeps its margin."""
        windows = (10, 20, 30, 40, 50)
        series = fig5_utility_vs_window(
            datasets=("Sin", "Foursquare"),
            windows=windows,
            epsilon=1.0,
            size=SIZE,
            repeats=2,
            seed=42,
        )
        print(format_figure(series, x_label="w"))
        for dataset, methods in series.items():
            # Non-adaptive methods grow monotonically-ish with w (endpoints).
            for method in ("LBU", "LPU"):
                assert methods[method][50] > methods[method][10], (
                    f"{method} on {dataset}: MRE should grow with w"
                )
            # Population division keeps its advantage at every window size.
            for w in windows:
                assert methods["LPU"][w] < methods["LBU"][w]
            # LBA more robust than LBD at the largest window (Fig. 5 text).
            assert methods["LBA"][50] < methods["LBD"][50]

    def test_fig6_population_panels(self):
        """Fig. 6(a,b) — MRE vs population N (eps=1, w=30) on LNS and
        Sin: error falls with N for every method."""
        series = fig6_population(
            populations=(
                (2_000, 4_000, 8_000, 16_000)
                if SIZE == "smoke"
                else (10_000, 20_000, 40_000, 80_000)
            ),
            horizon=60 if SIZE == "smoke" else 200,
            epsilon=1.0,
            window=30,
            repeats=2,
            seed=7,
        )
        print(format_figure(series, x_label="N"))
        for dataset, methods in series.items():
            xs = sorted(next(iter(methods.values())))
            for method, values in methods.items():
                assert values[xs[-1]] < values[xs[0]], (
                    f"{method} on {dataset}: MRE should fall with N"
                )

    def test_fig6_fluctuation_panels(self):
        """Fig. 6(c,d) — MRE vs fluctuation (Q for LNS, b for Sin): the
        population family dominates throughout; LSP degrades."""
        series = fig6_fluctuation(
            n_users=6_000 if SIZE == "smoke" else 20_000,
            horizon=60 if SIZE == "smoke" else 200,
            epsilon=1.0,
            window=30,
            repeats=2,
            seed=7,
        )
        print(format_figure(series, x_label="fluctuation"))
        for methods in series.values():
            xs = sorted(next(iter(methods.values())))
            # Budget family stays worse than population family at every x.
            for x in xs:
                assert methods["LPU"][x] < methods["LBU"][x]
        # LSP is hurt by fluctuation: compare its endpoints on LNS.
        lns = series["LNS"]["LSP"]
        xs = sorted(lns)
        assert lns[xs[-1]] > lns[xs[0]]

    def test_fig7_roc_curves(self):
        """Fig. 7 — event-monitoring ROC curves are well formed (the
        family ordering is TestEventMonitoringShape's claim)."""
        curves = fig7_event_monitoring(
            datasets=("LNS", "Sin", "Taxi"),
            epsilon=1.0,
            window=50 if SIZE != "smoke" else 20,
            size=SIZE,
            seed=11,
        )
        print(format_roc_summary(curves))
        for dataset, methods in curves.items():
            for method, curve in methods.items():
                assert 0.0 <= curve.auc <= 1.0
                assert curve.false_positive_rate[-1] == pytest.approx(1.0)

    def test_fig8_cfpu_panels(self):
        """Fig. 8 — CFPU on LNS vs N, Q, epsilon and w: budget CFPU >= 1,
        population CFPU ~ 1/w with LPD and LPA below LPU."""
        smoke = SIZE == "smoke"
        panels = fig8_communication(
            populations=(
                (2_000, 4_000, 8_000) if smoke else (5_000, 10_000, 20_000)
            ),
            q_values=(0.01, 0.02, 0.04, 0.08),
            epsilons=(0.5, 1.0, 1.5, 2.0),
            windows=(10, 20, 30, 40),
            n_users=6_000 if smoke else 20_000,
            horizon=80 if smoke else 200,
            epsilon=1.0,
            window=20,
            seed=23,
        )
        print(format_figure(panels, x_label="x"))
        for panel_name, methods in panels.items():
            for x, value in methods["LBU"].items():
                assert value == pytest.approx(1.0), (
                    "LBU reports exactly once/step"
                )
            for x in methods["LBD"]:
                assert methods["LBD"][x] > 1.0
                assert methods["LBA"][x] > 1.0
                assert methods["LPD"][x] < methods["LPU"][x] + 1e-9
                assert methods["LPA"][x] < methods["LPU"][x] + 1e-9

        # Panel-specific trends.
        eps_panel = panels["epsilon"]
        assert eps_panel["LPA"][2.0] >= eps_panel["LPA"][0.5] - 1e-3, (
            "more budget -> cheaper publications -> CFPU should not fall"
        )
        w_panel = panels["window"]
        assert w_panel["LPU"][40.0] < w_panel["LPU"][10.0], (
            "LPU CFPU scales as 1/w"
        )
        assert w_panel["LSP"][40.0] < w_panel["LSP"][10.0]

    def test_table2_cfpu(self):
        """Table 2 — CFPU of all methods: the non-adaptive rows match
        their exact values, the adaptive rows sit inside per-method bands
        (Sections 5.4.3 / 6.3.3 at smoke, 15% of the paper above it)."""
        kwargs = {"size": SIZE, "seed": 31}
        if SIZE == "smoke":
            kwargs["datasets"] = ("Sin", "Log", "Taxi")
        table = table2_cfpu(settings=TABLE2_SETTINGS, **kwargs)
        print(format_table2(table, PAPER_TABLE2))
        for setting, methods in table.items():
            _, window = setting
            paper_block = PAPER_TABLE2[setting]
            for method, per_dataset in methods.items():
                for dataset, measured in per_dataset.items():
                    reference = paper_block[method][dataset]
                    cell = f"{method}/{dataset}{setting}: {measured}"
                    if method in ("LBU", "LSP", "LPU"):
                        expected = _table2_deterministic_expected(
                            method, dataset, window, SIZE
                        )
                        assert measured == pytest.approx(
                            expected, abs=2e-3
                        ), f"{cell} vs {expected}"
                    elif SIZE == "smoke":
                        # Short horizons inflate adaptive CFPU (the initial
                        # publication doesn't amortise); assert the
                        # structural bands instead.
                        if method in ("LBD", "LBA"):
                            assert 1.0 < measured <= 2.0, cell
                        else:  # LPD / LPA
                            assert 1.0 / (2 * window) - 2e-3 <= measured <= (
                                1.0 / window + 5e-3
                            ), cell
                    else:
                        # Adaptive rows depend on the data and the
                        # simulators: a relative band around the paper.
                        assert measured == pytest.approx(
                            reference, rel=0.15
                        ), f"{cell} vs {reference}"
