"""Unit tests for the w-event LDP accountant."""

from collections import deque

import numpy as np
import pytest

from repro.engine import WEventAccountant
from repro.exceptions import InvalidParameterError, PrivacyViolationError


class TestBasicCharging:
    def test_single_charge_within_budget(self):
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=5)
        acc.charge(0, None, 0.5)
        assert acc.window_spend(0) == pytest.approx(0.5)

    def test_exact_budget_is_allowed(self):
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=5)
        for t in range(5):
            acc.charge(t, None, 0.2)
        assert acc.max_window_spend == pytest.approx(1.0)

    def test_overspend_raises(self):
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=5)
        acc.charge(0, None, 0.9)
        with pytest.raises(PrivacyViolationError):
            acc.charge(1, None, 0.2)

    def test_zero_charge_is_free(self):
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=5)
        acc.charge(0, None, 1.0)
        acc.charge(1, None, 0.0)  # must not raise
        assert acc.window_spend(0) == pytest.approx(1.0)

    def test_negative_charge_rejected(self):
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=5)
        with pytest.raises(InvalidParameterError):
            acc.charge(0, None, -0.1)


class TestWindowEviction:
    def test_budget_recovers_after_window(self):
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=3)
        acc.charge(0, None, 1.0)
        # t=1, 2 are inside the window of the t=0 charge.
        with pytest.raises(PrivacyViolationError):
            acc.charge(2, None, 0.5)
        # Rebuild: the failed charge above still recorded spend? No — it
        # raised before recording?  It records then raises; use a fresh one.
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=3)
        acc.charge(0, None, 1.0)
        acc.charge(3, None, 1.0)  # t=0 charge expired: window [1..3]
        assert acc.window_spend(0) == pytest.approx(1.0)

    def test_sliding_sum_is_over_w_timestamps(self):
        acc = WEventAccountant(n_users=4, epsilon=1.0, window=4)
        for t in range(12):
            acc.charge(t, None, 0.25)
        assert acc.max_window_spend == pytest.approx(1.0)

    def test_time_must_be_monotone(self):
        acc = WEventAccountant(n_users=4, epsilon=1.0, window=4)
        acc.charge(5, None, 0.1)
        with pytest.raises(InvalidParameterError):
            acc.charge(4, None, 0.1)


class TestSubsetCharging:
    def test_disjoint_groups_full_budget(self):
        """Parallel composition: disjoint groups can each spend eps."""
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=5)
        acc.charge(0, np.array([0, 1, 2]), 1.0)
        acc.charge(1, np.array([3, 4, 5]), 1.0)
        acc.charge(2, np.array([6, 7]), 1.0)
        assert acc.max_window_spend == pytest.approx(1.0)

    def test_same_user_twice_in_window_raises(self):
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=5)
        acc.charge(0, np.array([0, 1]), 1.0)
        with pytest.raises(PrivacyViolationError):
            acc.charge(1, np.array([1, 2]), 1.0)

    def test_same_user_after_window_ok(self):
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=3)
        acc.charge(0, np.array([0]), 1.0)
        acc.charge(3, np.array([0]), 1.0)

    def test_out_of_range_ids_rejected(self):
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=3)
        with pytest.raises(InvalidParameterError):
            acc.charge(0, np.array([10]), 0.1)

    def test_empty_group_is_noop(self):
        acc = WEventAccountant(n_users=10, epsilon=1.0, window=3)
        acc.charge(0, np.empty(0, dtype=np.int64), 1.0)
        assert acc.max_window_spend == 0.0


class TestEnforceFlag:
    def test_disabled_enforcement_records_only(self):
        acc = WEventAccountant(n_users=5, epsilon=1.0, window=5, enforce=False)
        acc.charge(0, None, 0.8)
        acc.charge(1, None, 0.8)  # would violate, but only recorded
        assert acc.max_window_spend == pytest.approx(1.6)

    def test_snapshot_copy(self):
        acc = WEventAccountant(n_users=3, epsilon=1.0, window=5)
        acc.charge(0, np.array([1]), 0.4)
        snap = acc.spend_snapshot()
        snap[1] = 99.0
        assert acc.window_spend(1) == pytest.approx(0.4)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0, "epsilon": 1.0, "window": 5},
            {"n_users": 10, "epsilon": 0.0, "window": 5},
            {"n_users": 10, "epsilon": 1.0, "window": 0},
        ],
    )
    def test_bad_constructor_args(self, kwargs):
        with pytest.raises(InvalidParameterError):
            WEventAccountant(**kwargs)


class TestWindowEdgeCases:
    """Boundary regimes: w larger than the run, w == 1, and re-release
    spend accounting exactly at the window boundary."""

    def test_window_larger_than_horizon_never_evicts(self):
        # w = 100 over a 10-step run: nothing ever leaves the window, so
        # the whole run must fit inside one epsilon.
        acc = WEventAccountant(n_users=5, epsilon=1.0, window=100)
        for t in range(10):
            acc.charge(t, None, 0.1)
        assert acc.max_window_spend == pytest.approx(1.0)
        acc2 = WEventAccountant(n_users=5, epsilon=1.0, window=100)
        for t in range(10):
            acc2.charge(t, None, 0.1)
        with pytest.raises(PrivacyViolationError):
            acc2.charge(10, None, 0.1)

    def test_window_larger_than_horizon_via_mechanism(self):
        """Uniform methods stay private even when w exceeds the horizon."""
        from repro.engine import run_stream
        from repro.streams import make_lns

        dataset = make_lns(n_users=200, horizon=6, seed=1)
        result = run_stream("LBU", dataset, epsilon=1.0, window=50, seed=0)
        assert result.horizon == 6
        assert result.max_window_spend <= 1.0 + 1e-9

    def test_window_one_full_budget_every_timestamp(self):
        # w = 1: each timestamp is its own window; full epsilon every t.
        acc = WEventAccountant(n_users=5, epsilon=1.0, window=1)
        for t in range(20):
            acc.charge(t, None, 1.0)
        assert acc.max_window_spend == pytest.approx(1.0)

    def test_window_one_two_charges_same_timestamp_violate(self):
        acc = WEventAccountant(n_users=5, epsilon=1.0, window=1)
        acc.charge(0, None, 0.6)
        with pytest.raises(PrivacyViolationError):
            acc.charge(0, None, 0.6)

    def test_window_one_via_mechanism(self):
        from repro.engine import run_stream
        from repro.streams import make_lns

        dataset = make_lns(n_users=200, horizon=8, seed=1)
        result = run_stream("LBU", dataset, epsilon=1.0, window=1, seed=0)
        assert result.max_window_spend <= 1.0 + 1e-9

    def test_re_release_exactly_at_window_boundary(self):
        # A full-budget release at t may be repeated no earlier than
        # t + w: at t + w - 1 the old charge is still inside the window.
        acc = WEventAccountant(n_users=5, epsilon=1.0, window=4)
        acc.charge(0, None, 1.0)
        with pytest.raises(PrivacyViolationError):
            acc.charge(3, None, 1.0)  # window [0..3] still holds t=0
        acc = WEventAccountant(n_users=5, epsilon=1.0, window=4)
        acc.charge(0, None, 1.0)
        acc.charge(4, None, 1.0)  # window [1..4]: t=0 spend evicted
        assert acc.max_window_spend == pytest.approx(1.0)
        assert acc.window_spend(0) == pytest.approx(1.0)

    def test_boundary_spend_recovers_incrementally(self):
        # Partial spends expire charge by charge, not all at once.
        acc = WEventAccountant(n_users=3, epsilon=1.0, window=3)
        acc.charge(0, None, 0.5)
        acc.charge(1, None, 0.5)  # window [/-1..1] holds 1.0 exactly
        with pytest.raises(PrivacyViolationError):
            acc.charge(2, None, 0.5)
        acc = WEventAccountant(n_users=3, epsilon=1.0, window=3)
        acc.charge(0, None, 0.5)
        acc.charge(1, None, 0.5)
        acc.charge(3, None, 0.5)  # t=0 expired, 1.0 in window [1..3]
        assert acc.max_window_spend == pytest.approx(1.0)
        with pytest.raises(PrivacyViolationError):
            acc.charge(3, None, 0.1)  # anything more at t=3 violates


class TestUniformFastPathAndChargeMany:
    """The scalar uniform ledger and its bulk kernel must be observably
    indistinguishable from the per-user array path."""

    def _mirror(self, n_users=12, epsilon=1.0, window=4, enforce=True):
        return (
            WEventAccountant(n_users, epsilon, window, enforce),
            WEventAccountant(n_users, epsilon, window, enforce),
        )

    def test_charge_many_equals_charge_loop(self):
        bulk, loop = self._mirror()
        bulk.charge_many(range(10), 0.2)
        for t in range(10):
            loop.charge(t, None, 0.2)
        assert bulk.max_window_spend == loop.max_window_spend
        assert bulk.total_charges == loop.total_charges
        assert np.array_equal(bulk.spend_snapshot(), loop.spend_snapshot())

    def test_charge_many_violation_at_same_timestamp(self):
        bulk, loop = self._mirror(window=5)
        with pytest.raises(PrivacyViolationError):
            bulk.charge_many(range(8), 0.3)
        with pytest.raises(PrivacyViolationError):
            for t in range(8):
                loop.charge(t, None, 0.3)
        assert bulk.max_window_spend == loop.max_window_spend
        assert bulk.total_charges == loop.total_charges

    def test_charge_many_evicts_like_charges(self):
        bulk, loop = self._mirror(window=3)
        bulk.charge_many(range(20), 0.3)
        for t in range(20):
            loop.charge(t, None, 0.3)
        assert bulk.window_spend(0) == loop.window_spend(0)
        assert bulk.max_window_spend == pytest.approx(0.9)

    def test_charge_many_time_order_enforced(self):
        acc = WEventAccountant(n_users=5, epsilon=1.0, window=4)
        acc.charge_many([0, 1, 2], 0.1)
        with pytest.raises(InvalidParameterError):
            acc.charge_many([1], 0.1)

    def test_charge_many_rejects_negative_budget(self):
        acc = WEventAccountant(n_users=5, epsilon=1.0, window=4)
        with pytest.raises(InvalidParameterError):
            acc.charge_many([0], -0.1)

    def test_group_charge_materializes_uniform_ledger(self):
        acc = WEventAccountant(n_users=6, epsilon=2.0, window=4)
        acc.charge_many([0, 1], 0.25)
        acc.charge(2, np.array([1, 3]), 0.5)
        snapshot = acc.spend_snapshot()
        assert snapshot[1] == pytest.approx(1.0)
        assert snapshot[0] == pytest.approx(0.5)
        assert acc.max_window_spend == pytest.approx(1.0)

    def test_charge_many_after_group_charge_falls_back(self):
        acc = WEventAccountant(n_users=6, epsilon=2.0, window=4)
        acc.charge(0, np.array([0]), 0.5)
        acc.charge_many([1, 2], 0.25)
        assert acc.window_spend(0) == pytest.approx(1.0)
        assert acc.window_spend(5) == pytest.approx(0.5)

    def test_uniform_window_spend_bounds_checked(self):
        acc = WEventAccountant(n_users=4, epsilon=1.0, window=2)
        acc.charge(0, None, 0.5)
        with pytest.raises(IndexError):
            acc.window_spend(4)

    def test_empty_charge_many_is_noop(self):
        acc = WEventAccountant(n_users=4, epsilon=1.0, window=2)
        acc.charge_many([], 0.5)
        assert acc.total_charges == 0


class TestLedgerRestore:
    """state_dict/load_state round trips: the satellite gap — a restored
    ledger must make the *same* future decisions as the live one, in
    both the scalar-uniform and the materialised per-event regimes,
    including charge_many spans that straddle window boundaries."""

    def _roundtrip(self, acc):
        twin = WEventAccountant(
            acc.n_users, acc.epsilon, acc.window, acc.enforce
        )
        twin.load_state(acc.state_dict())
        return twin

    def test_scalar_and_per_event_ledgers_agree_after_restore(self):
        """The same charge history through the uniform fast path and
        through the materialised array path leaves identical remaining
        budget after a snapshot/restore of each."""
        uniform = WEventAccountant(n_users=8, epsilon=1.0, window=4)
        perevent = WEventAccountant(n_users=8, epsilon=1.0, window=4)
        uniform.charge_many(range(6), 0.2)
        for t in range(6):
            perevent.charge(t, np.arange(8), 0.2)

        u_twin = self._roundtrip(uniform)
        p_twin = self._roundtrip(perevent)
        assert u_twin._uniform and not p_twin._uniform
        assert np.array_equal(u_twin.spend_snapshot(), p_twin.spend_snapshot())
        assert u_twin.max_window_spend == p_twin.max_window_spend

        # Identical remaining budget: both accept the same boundary
        # charge and both reject the same overdraft.
        for twin in (u_twin, p_twin):
            assert twin.window_spend(0) == pytest.approx(0.8)
            # Charging at t=6 evicts t=2 first (0.6 left in window), so
            # 0.4 exactly exhausts the budget.
            twin.charge(6, None, 0.4)
        for twin in (u_twin, p_twin):
            with pytest.raises(PrivacyViolationError):
                twin.charge(7, None, 0.5)

    def test_restore_preserves_uniform_regime(self):
        acc = WEventAccountant(n_users=8, epsilon=1.0, window=4)
        acc.charge_many(range(5), 0.1)
        twin = self._roundtrip(acc)
        assert twin._uniform
        assert twin._window_spend is None
        assert twin.window_spend(3) == acc.window_spend(3)

    def test_restore_preserves_materialized_regime(self):
        acc = WEventAccountant(n_users=8, epsilon=1.0, window=4)
        acc.charge(0, None, 0.1)
        acc.charge(1, np.array([2, 5]), 0.3)
        twin = self._roundtrip(acc)
        assert not twin._uniform
        assert np.array_equal(twin.spend_snapshot(), acc.spend_snapshot())
        # Group eviction still works on the restored deque.
        twin.charge(4, None, 0.1)
        acc.charge(4, None, 0.1)
        assert np.array_equal(twin.spend_snapshot(), acc.spend_snapshot())

    def test_charge_many_across_window_boundary_after_restore(self):
        """Restore mid-span, then a charge_many that evicts restored
        charges as it crosses the window boundary — the twin's evictions
        must mirror the live accountant's exactly."""
        acc = WEventAccountant(n_users=8, epsilon=1.0, window=3)
        acc.charge_many([0, 1, 2], 0.3)  # window full at 0.9
        twin = self._roundtrip(acc)
        # Crossing t=3 evicts the t=0 charge; t=4 evicts t=1; the span
        # is only legal because eviction keeps the window at 0.9.
        acc.charge_many([3, 4, 5], 0.3)
        twin.charge_many([3, 4, 5], 0.3)
        assert twin.window_spend(0) == acc.window_spend(0)
        assert twin.max_window_spend == acc.max_window_spend
        assert twin.total_charges == acc.total_charges
        assert twin._current_t == acc._current_t

    def test_restored_ledger_rejects_what_live_rejects(self):
        acc = WEventAccountant(n_users=4, epsilon=1.0, window=2)
        acc.charge(0, None, 0.9)
        twin = self._roundtrip(acc)
        with pytest.raises(PrivacyViolationError):
            acc.charge(1, None, 0.2)
        with pytest.raises(PrivacyViolationError):
            twin.charge(1, None, 0.2)
        # ... and both recover once the offending charge leaves the window.
        acc2 = WEventAccountant(n_users=4, epsilon=1.0, window=2)
        acc2.charge(0, None, 0.9)
        twin2 = self._roundtrip(acc2)
        twin2.charge(2, None, 0.9)
        acc2.charge(2, None, 0.9)
        assert twin2.window_spend(0) == acc2.window_spend(0)

    def test_state_dict_is_a_deep_copy(self):
        acc = WEventAccountant(n_users=4, epsilon=1.0, window=3)
        acc.charge(0, np.array([1]), 0.2)
        state = acc.state_dict()
        state["window_spend"][1] = 99.0
        state["charges"][0][1][0] = 3
        assert acc.window_spend(1) == pytest.approx(0.2)
        assert acc.state_dict()["charges"][0][1][0] == 1


class _FullClipLedger:
    """Reference ledger: per-user array, full-array clip on every eviction."""

    def __init__(self, n_users, window):
        self.spend = np.zeros(n_users)
        self.window = window
        self.charges = deque()
        self.max_window_spend = 0.0
        self.clipped = 0  # entries the clip actually moved

    def charge(self, t, ids, eps):
        cutoff = t - self.window + 1
        evicted = False
        while self.charges and self.charges[0][0] < cutoff:
            _, old_ids, old_eps = self.charges.popleft()
            if old_ids is None:
                self.spend -= old_eps
            else:
                self.spend[old_ids] -= old_eps
            evicted = True
        if evicted:
            self.clipped += int((self.spend < 0).sum())
            np.clip(self.spend, 0.0, None, out=self.spend)
        if eps == 0:
            return
        if ids is None:
            self.spend += eps
            touched = self.spend
        else:
            self.spend[ids] += eps
            touched = self.spend[ids]
        self.charges.append((t, ids, eps))
        self.max_window_spend = max(
            self.max_window_spend, float(touched.max())
        )


class TestGroupEvictionMatchesFullClip:
    """Evicting group charges clips only the evicted ids; the ledger must
    stay bit-identical to one that clips the whole array every time."""

    BUDGETS = (0.1, 0.2, 0.3, 0.7, 1 / 3, 1 / 7, 0.0)

    @pytest.mark.parametrize("gaps", (False, True))
    @pytest.mark.parametrize("population_every", (0, 7))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_overlapping_group_charges(
        self, gaps, population_every, seed
    ):
        rng = np.random.default_rng(seed)
        n_users, window = 40, 4
        acc = WEventAccountant(n_users, epsilon=1.0, window=window,
                               enforce=False)
        ref = _FullClipLedger(n_users, window)
        steps = (0, 1, 2, 3, 6) if gaps else (0, 1)
        t = 0
        for i in range(400):
            t += int(rng.choice(steps))
            eps = float(rng.choice(self.BUDGETS))
            if population_every and i % population_every == 0:
                ids = None
            else:
                k = int(rng.integers(1, 25))
                # With repeats: a group may name a user twice.
                ids = rng.integers(0, n_users, size=k)
            acc.charge(t, ids, eps)
            ref.charge(t, ids, eps)
            assert np.array_equal(acc.spend_snapshot(), ref.spend)
            assert acc.max_window_spend == ref.max_window_spend
        # The drift guard really clipped something along the way.
        assert ref.clipped > 0
