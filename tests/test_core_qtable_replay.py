"""Tests for the Q table (eq. 2) and the experience-replay buffer."""

from __future__ import annotations

import pytest

from repro.core.config import SearchConfig
from repro.core.qtable import QTable
from repro.core.search import SeedRun
from repro.errors import SearchError
from tests.helpers import synthetic_chain_lut


class TestQTableUpdate:
    def test_single_update_matches_eq2(self):
        q = QTable([2, 2], learning_rate=0.05, discount=0.9)
        new = q.update(0, 0, 1, reward=-3.0)
        # Q starts at 0; next-state max is 0 -> target = -3.
        assert new == pytest.approx(0.05 * -3.0)

    def test_bootstrap_from_next_state(self):
        q = QTable([2, 2], learning_rate=1.0, discount=0.9)
        q.update(1, 1, 0, reward=-1.0)  # Q[1][1,0] = -1
        q.update(1, 1, 1, reward=-5.0)  # Q[1][1,1] = -5
        new = q.update(0, 0, 1, reward=-2.0)
        # next_best = max Q[1][1] = -1 -> target = -2 + 0.9*(-1).
        assert new == pytest.approx(-2.0 - 0.9)

    def test_terminal_layer_has_zero_bootstrap(self):
        q = QTable([2, 2], learning_rate=1.0, discount=0.9)
        new = q.update(1, 0, 1, reward=-4.0)
        assert new == pytest.approx(-4.0)

    def test_update_is_exponential_average(self):
        q = QTable([2], learning_rate=0.5, discount=0.9)
        q.update(0, 0, 0, reward=-2.0)  # -> -1.0
        new = q.update(0, 0, 0, reward=-2.0)  # -> -1.5
        assert new == pytest.approx(-1.5)

    def test_greedy_action_picks_max(self):
        q = QTable([3], learning_rate=1.0, discount=0.9)
        q.update(0, 0, 0, reward=-5.0)
        q.update(0, 0, 1, reward=-1.0)
        q.update(0, 0, 2, reward=-3.0)
        assert q.greedy_action(0, 0) == 1

    def test_greedy_rollout_follows_chain(self):
        q = QTable([2, 2], learning_rate=1.0, discount=0.9)
        q.update(0, 0, 1, reward=1.0)
        q.update(1, 1, 0, reward=1.0)
        assert q.greedy_rollout() == [1, 0]

    def test_best_value(self):
        q = QTable([2, 2], learning_rate=1.0, discount=0.9)
        q.update(1, 0, 1, reward=-2.0)
        assert q.best_value(1, 0) == pytest.approx(-0.0)
        q.update(1, 0, 0, reward=3.0)
        assert q.best_value(1, 0) == pytest.approx(3.0)

    def test_best_value_past_terminal_is_zero(self):
        q = QTable([2, 2], learning_rate=1.0, discount=0.9)
        assert q.best_value(2, 0) == 0.0

    def test_explicit_next_row_bootstrap(self):
        """DAG semantics: the successor row need not equal the action."""
        q = QTable([2, 3], learning_rate=1.0, discount=0.9,
                   row_sizes=[1, 2])
        q.update(1, 0, 0, reward=-3.0)
        q.update(1, 0, 1, reward=-2.0)
        q.update(1, 0, 2, reward=-1.0)  # row 0 of layer 1: [-3, -2, -1]
        new = q.update(0, 0, 1, reward=-2.0, next_row=0)
        assert new == pytest.approx(-2.0 + 0.9 * -1.0)

    def test_custom_row_sizes(self):
        q = QTable([3, 3], learning_rate=0.5, discount=0.9, row_sizes=[1, 1])
        q.update(1, 0, 2, reward=-4.0)
        assert q.greedy_action(1, 0) in range(3)

    def test_bad_row_sizes_rejected(self):
        with pytest.raises(SearchError):
            QTable([2, 2], 0.1, 0.9, row_sizes=[1])
        with pytest.raises(SearchError):
            QTable([2, 2], 0.1, 0.9, row_sizes=[1, 0])

    def test_first_visit_bootstrap_writes_target(self):
        q = QTable([2], learning_rate=0.05, discount=0.9,
                   first_visit_bootstrap=True)
        new = q.update(0, 0, 0, reward=-7.0)
        assert new == pytest.approx(-7.0)  # alpha = 1 on first visit
        new = q.update(0, 0, 0, reward=-9.0)
        assert new == pytest.approx(-7.0 * 0.95 + 0.05 * -9.0)

    def test_bootstrap_greedy_prefers_visited(self):
        q = QTable([2], learning_rate=1.0, discount=0.9,
                   first_visit_bootstrap=True)
        q.update(0, 0, 1, reward=-5.0)
        # Action 0 is unvisited (Q=0 > -5) but greedy must pick 1.
        assert q.greedy_action(0, 0) == 1

    def test_greedy_rollout_with_parents(self):
        # Layer 2's parent is layer 0 (a branch join), not layer 1.
        q = QTable([2, 2, 2], learning_rate=1.0, discount=0.9,
                   row_sizes=[1, 2, 2])
        q.update(0, 0, 1, reward=1.0)   # layer 0 picks 1
        q.update(1, 1, 0, reward=1.0)   # layer 1 (row=choice@0=1) picks 0
        q.update(2, 1, 1, reward=1.0)   # layer 2 keyed on layer 0's choice
        rollout = q.greedy_rollout(parents=[-1, 0, 0])
        assert rollout == [1, 0, 1]

    def test_copy_is_independent(self):
        q = QTable([2, 2], learning_rate=1.0, discount=0.9)
        clone = q.copy()
        q.update(0, 0, 0, reward=-1.0)
        assert clone.q_values(0, 0)[0] == 0.0

    def test_len(self):
        assert len(QTable([2, 3, 4], 0.1, 0.9)) == 3


class TestQTableValidation:
    def test_empty_layers_rejected(self):
        with pytest.raises(SearchError):
            QTable([], 0.1, 0.9)

    def test_zero_actions_rejected(self):
        with pytest.raises(SearchError):
            QTable([2, 0], 0.1, 0.9)

    def test_bad_learning_rate(self):
        with pytest.raises(SearchError):
            QTable([2], 0.0, 0.9)

    def test_bad_discount(self):
        with pytest.raises(SearchError):
            QTable([2], 0.1, 1.5)


class TestReplayBuffer:
    """The paper's experience replay (§IV-C), as a search run carries it."""

    @staticmethod
    def _run(num_layers, capacity):
        lut = synthetic_chain_lut(num_layers, 3, seed=1)
        return SeedRun(
            lut,
            SearchConfig(episodes=20, replay_capacity=capacity, kernel="reference"),
        )

    def test_push_and_len(self):
        run = self._run(num_layers=3, capacity=4)
        run.step(1.0)
        assert run.runner.export_ring()["fill"] == 3

    def test_fifo_eviction(self):
        run = self._run(num_layers=1, capacity=2)
        for _ in range(3):
            run.step(1.0)  # the third episode evicts the first
        ring = run.runner.export_ring()
        assert ring["fill"] == 2
        assert {row[4] for row in ring["rows"]} == {-t for t in run.curve[1:]}

    def test_default_capacity_is_paper_128(self):
        assert SearchConfig().replay_capacity == 128
