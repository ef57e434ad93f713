"""Episode-kernel equivalence: compiled backends are bit-identical.

Three layers of evidence:

* the kernel-driven :class:`QSDNNSearch` reproduces a from-scratch
  Algorithm 1 written against the scalar :class:`QTable` /
  replay-list reference semantics (``best_ms``, the whole curve, the
  greedy policy) — on every available backend;
* driving the runner protocol directly with identical pre-drawn
  randomness yields bitwise-equal flat Q states and per-episode cost
  vectors across backends, property-tested on branchy zoo networks
  (googlenet, resnet50) with replay on/off and
  ``first_visit_bootstrap`` both ways;
* the reference runner's replay ring replays exactly like
  per-transition ``QTable.update`` calls in ``rng.permutation`` order.

Without numba installed the cross-backend cases reduce to the
reference backend (the numba side is exercised by the CI matrix leg
that installs numba).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Mode, jetson_tx2
from repro.core import (
    QSDNNSearch,
    QTable,
    SearchConfig,
    numba_available,
    resolve_backend,
)
from repro.core.kernels import ENV_VAR
from repro.core.search import SeedRun
from repro.engine import InferenceEngineOptimizer
from repro.errors import ConfigError
from repro.utils.rng import RngStream, derive_rng
from repro.zoo import build_network
from tests.helpers import synthetic_chain_lut

BACKENDS = ["reference"] + (["numba"] if numba_available() else [])

needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed"
)


@pytest.fixture(scope="session")
def googlenet_lut_gpgpu(tx2):
    """GoogLeNet (inception branches) profiled in GPGPU mode."""
    return InferenceEngineOptimizer(
        build_network("googlenet"), tx2, mode=Mode.GPGPU
    ).profile()


@pytest.fixture(scope="session")
def resnet50_lut_gpgpu(tx2):
    """ResNet-50 (residual joins) profiled in GPGPU mode."""
    return InferenceEngineOptimizer(
        build_network("resnet50"), tx2, mode=Mode.GPGPU
    ).profile()


# -- Algorithm 1 reference reimplementation ---------------------------------


def _naive_search(lut, config):
    """Algorithm 1 straight from the paper, on the scalar QTable API.

    Pure per-update ``QTable.update`` calls, a plain-list replay ring,
    ``rng.permutation`` replay order — the pre-kernel reference
    implementation the fused episode kernels must reproduce exactly.
    Returns (best_total, curve, qtable, best_choices).
    """
    indexed = lut.indexed()
    engine = indexed.engine()
    num_layers = len(indexed)
    q_parent = indexed.q_parent
    action_counts = np.asarray(indexed.num_actions, dtype=np.int64)
    row_sizes = [
        1 if parent < 0 else int(indexed.num_actions[parent])
        for parent in q_parent
    ]
    qtable = QTable(
        list(indexed.num_actions),
        config.learning_rate,
        config.discount,
        row_sizes=row_sizes,
        first_visit_bootstrap=config.first_visit_bootstrap,
    )
    items: list[tuple] = []
    ring_next = 0
    stream = RngStream(config.seed, "qsdnn", lut.graph_name, lut.mode)
    policy_rng = stream.child("policy")
    replay_rng = stream.child("replay")
    best_total = np.inf
    best_choices = None
    curve = []
    for episode in range(config.episodes):
        epsilon = config.epsilon.epsilon_for(episode)
        choices = [0] * num_layers
        rows = [0] * num_layers
        if epsilon >= 1.0:
            explored = policy_rng.integers(0, action_counts).tolist()
            for i in range(num_layers):
                parent = q_parent[i]
                rows[i] = 0 if parent < 0 else choices[parent]
                choices[i] = explored[i]
        elif epsilon <= 0.0:
            for i in range(num_layers):
                parent = q_parent[i]
                row = 0 if parent < 0 else choices[parent]
                rows[i] = row
                choices[i] = qtable.greedy_action(i, row)
        else:
            explore = (policy_rng.random(num_layers) < epsilon).tolist()
            explored = policy_rng.integers(0, action_counts).tolist()
            for i in range(num_layers):
                parent = q_parent[i]
                row = 0 if parent < 0 else choices[parent]
                rows[i] = row
                choices[i] = (
                    explored[i] if explore[i] else qtable.greedy_action(i, row)
                )
        costs = engine.layer_costs(choices)
        total = float(costs.sum())
        if config.reward_shaping:
            rewards = (-costs).tolist()
        else:
            rewards = [0.0] * (num_layers - 1) + [-total]
        for i in range(num_layers):
            next_row = rows[i + 1] if i < num_layers - 1 else 0
            qtable.update(i, rows[i], choices[i], rewards[i], next_row)
            if config.replay_enabled:
                item = (i, rows[i], choices[i], rewards[i], next_row)
                if len(items) < config.replay_capacity:
                    items.append(item)
                else:
                    items[ring_next] = item
                ring_next = (ring_next + 1) % config.replay_capacity
        if config.replay_enabled and items:
            for pick in replay_rng.permutation(len(items)).tolist():
                qtable.update(*items[pick])
        if total < best_total:
            best_total = total
            best_choices = choices
        curve.append(total)
    return best_total, curve, qtable, best_choices


class TestSearchMatchesNaiveAlgorithm1:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_synthetic_chains(self, backend, data):
        lut = synthetic_chain_lut(
            data.draw(st.integers(2, 8), label="layers"),
            data.draw(st.integers(2, 6), label="actions"),
            seed=data.draw(st.integers(0, 99), label="lut_seed"),
        )
        config = SearchConfig(
            episodes=data.draw(st.sampled_from([12, 40, 90]), label="episodes"),
            replay_enabled=data.draw(st.booleans(), label="replay"),
            reward_shaping=data.draw(st.booleans(), label="shaping"),
            first_visit_bootstrap=data.draw(st.booleans(), label="fvb"),
            replay_capacity=data.draw(
                st.sampled_from([3, 16, 128]), label="capacity"
            ),
            seed=data.draw(st.integers(0, 500), label="seed"),
            polish_sweeps=0,
            kernel=backend,
        )
        best_total, curve, qtable, _ = _naive_search(lut, config)
        result = QSDNNSearch(lut, config).run()
        assert result.kernel_backend == backend
        assert result.best_ms == best_total
        assert result.curve_ms == curve
        engine = lut.indexed().engine()
        naive_greedy = engine.price(
            qtable.greedy_rollout(parents=lut.indexed().q_parent)
        )
        assert result.greedy_ms == naive_greedy

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("replay", [False, True])
    @pytest.mark.parametrize("fvb", [False, True])
    def test_branchy_googlenet(self, googlenet_lut_gpgpu, backend, replay, fvb):
        config = SearchConfig(
            episodes=60,
            replay_enabled=replay,
            first_visit_bootstrap=fvb,
            seed=3,
            polish_sweeps=0,
            kernel=backend,
        )
        best_total, curve, _, _ = _naive_search(googlenet_lut_gpgpu, config)
        result = QSDNNSearch(googlenet_lut_gpgpu, config).run()
        assert result.best_ms == best_total
        assert result.curve_ms == curve


# -- runner-level cross-backend bitwise state equality ----------------------


def _plan_episodes(rng, num_layers, action_counts, episodes, replay, capacity):
    """Pre-draw every episode's randomness (shared across backends)."""
    plan = []
    stored = 0
    for _ in range(episodes):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            explore, explored = None, None
        elif kind == 1:
            explore, explored = None, rng.integers(0, action_counts)
        else:
            explore = rng.random(num_layers) < 0.5
            explored = rng.integers(0, action_counts)
        if replay:
            stored = min(stored + num_layers, capacity)
            perm = rng.permutation(stored)
        else:
            perm = None
        split = bool(rng.integers(0, 2))
        plan.append((explore, explored, perm, split))
    return plan


def _runner_for(backend, engine, qtable, q_parent, replay, capacity):
    """Construct a backend runner directly, bypassing availability
    dispatch: without numba installed the "numba" kernels run as plain
    Python over the same flat arrays (slow, but the identical
    algorithm), which lets these bitwise tests cover both code paths
    everywhere."""
    if backend == "numba":
        from repro.core.kernels import numba_backend

        return numba_backend.NumbaRunner(
            engine, qtable, q_parent, replay, capacity
        )
    from repro.core.kernels import reference

    return reference.ReferenceRunner(engine, qtable, q_parent, replay, capacity)


def _drive_runner(backend, lut, plan, *, replay, capacity, fvb):
    """Run a pre-drawn episode plan through one backend's runner."""
    indexed = lut.indexed()
    engine = indexed.engine()
    num_layers = len(indexed)
    row_sizes = [
        1 if parent < 0 else int(indexed.num_actions[parent])
        for parent in indexed.q_parent
    ]
    qtable = QTable(
        list(indexed.num_actions),
        0.05,
        0.9,
        row_sizes=row_sizes,
        first_visit_bootstrap=fvb,
    )
    runner = _runner_for(
        backend, engine, qtable, indexed.q_parent, replay, capacity
    )
    costs_log = []
    choices_log = []
    for explore, explored, perm, split in plan:
        if split:
            # The two-call path (terminal-reward / shaping-off driver).
            costs = runner.rollout_price(explore, explored)
            rewards = np.zeros(num_layers, dtype=np.float64)
            rewards[num_layers - 1] = -float(costs.sum())
            costs_log.append(costs.copy())
            runner.learn(rewards, perm)
        else:
            costs = runner.episode(explore, explored, perm)
            costs_log.append(costs.copy())
        choices_log.append(list(runner.snapshot()))
    runner.finalize()
    return qtable, costs_log, choices_log


class TestCrossBackendBitwise:
    """Reference vs numba-kernel state equality.

    Runs everywhere: without numba the numba kernels execute as plain
    Python (same algorithm, same flat arrays); with numba (the CI
    matrix leg) they run JIT-compiled.
    """

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_synthetic_chains(self, data):
        lut = synthetic_chain_lut(
            data.draw(st.integers(2, 9), label="layers"),
            data.draw(st.integers(2, 6), label="actions"),
            seed=data.draw(st.integers(0, 99), label="lut_seed"),
        )
        self._assert_backends_agree(
            lut,
            episodes=data.draw(st.sampled_from([10, 35]), label="episodes"),
            replay=data.draw(st.booleans(), label="replay"),
            capacity=data.draw(st.sampled_from([4, 32]), label="capacity"),
            fvb=data.draw(st.booleans(), label="fvb"),
            rng_seed=data.draw(st.integers(0, 999), label="rng_seed"),
        )

    @pytest.mark.parametrize("replay", [False, True])
    @pytest.mark.parametrize("fvb", [False, True])
    def test_googlenet(self, googlenet_lut_gpgpu, replay, fvb):
        self._assert_backends_agree(
            googlenet_lut_gpgpu, episodes=40, replay=replay, capacity=128,
            fvb=fvb, rng_seed=7,
        )

    @pytest.mark.parametrize("replay", [False, True])
    @pytest.mark.parametrize("fvb", [False, True])
    def test_resnet50(self, resnet50_lut_gpgpu, replay, fvb):
        self._assert_backends_agree(
            resnet50_lut_gpgpu, episodes=40, replay=replay, capacity=128,
            fvb=fvb, rng_seed=11,
        )

    @staticmethod
    def _assert_backends_agree(lut, *, episodes, replay, capacity, fvb, rng_seed):
        indexed = lut.indexed()
        action_counts = np.asarray(indexed.num_actions, dtype=np.int64)
        plan = _plan_episodes(
            np.random.default_rng(rng_seed), len(indexed), action_counts,
            episodes, replay, capacity,
        )
        ref_q, ref_costs, ref_choices = _drive_runner(
            "reference", lut, plan, replay=replay, capacity=capacity, fvb=fvb
        )
        nb_q, nb_costs, nb_choices = _drive_runner(
            "numba", lut, plan, replay=replay, capacity=capacity, fvb=fvb
        )
        ref_flat = ref_q.flat()
        nb_flat = nb_q.flat()
        assert np.array_equal(ref_flat.data, nb_flat.data)
        assert np.array_equal(ref_flat.row_max, nb_flat.row_max)
        assert np.array_equal(ref_flat.visited, nb_flat.visited)
        assert ref_choices == nb_choices
        for a, b in zip(ref_costs, nb_costs):
            assert np.array_equal(a, b)


@needs_numba
class TestNumbaSearchEndToEnd:
    def test_search_results_match_reference(self, resnet50_lut_gpgpu):
        for replay in (False, True):
            results = {}
            for backend in ("reference", "numba"):
                config = SearchConfig(
                    episodes=80, seed=5, replay_enabled=replay, kernel=backend
                )
                results[backend] = QSDNNSearch(resnet50_lut_gpgpu, config).run()
            ref, nb = results["reference"], results["numba"]
            assert nb.best_ms == ref.best_ms
            assert nb.curve_ms == ref.curve_ms
            assert nb.greedy_ms == ref.greedy_ms
            assert nb.best_assignments == ref.best_assignments
            assert nb.kernel_backend == "numba"


# -- replay ring -------------------------------------------------------------


def _reference_run(lut, **overrides):
    """A fresh reference-backend :class:`SeedRun` with replay on."""
    return SeedRun(lut, SearchConfig(episodes=20, kernel="reference", **overrides))


class TestReplayRing:
    def test_sample_order_matches_permutation_stream(self):
        runner = _reference_run(
            synthetic_chain_lut(4, 3, seed=0), replay_capacity=16
        ).runner
        explored = np.zeros(4, dtype=np.int64)
        fill_rng = derive_rng(0, "fill")
        for _ in range(2):
            runner.episode(None, explored, runner.draw_replay_order(fill_rng))
        a = derive_rng(42, "replay")
        b = derive_rng(42, "replay")
        # 8 rows stored plus this episode's 4 pushes.
        order = runner.draw_replay_order(a)
        assert order.tolist() == b.permutation(12).tolist()
        # The generators stay in lockstep afterwards.
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_replay_equals_per_transition_updates(self):
        run = _reference_run(synthetic_chain_lut(3, 2, seed=4), replay_capacity=8)
        runner = run.runner
        manual = run.qtable.copy()
        applied_rng = derive_rng(9, "r")
        manual_rng = derive_rng(9, "r")
        items = []
        for picks in ([1, 0, 1], [0, 1, 1]):
            explored = np.asarray(picks, dtype=np.int64)
            perm = runner.draw_replay_order(applied_rng)
            costs = runner.rollout_price(None, explored)
            runner.learn(-costs, perm)
            rows = [0] + picks[:-1]
            for i in range(3):
                next_row = picks[i] if i < 2 else 0
                item = (i, rows[i], picks[i], float(-costs[i]), next_row)
                manual.update(*item)
                items.append(item)
            for pick in manual_rng.permutation(len(items)).tolist():
                manual.update(*items[pick])
        runner.finalize()
        assert np.array_equal(run.qtable.flat().data, manual.flat().data)
        assert np.array_equal(run.qtable.flat().row_max, manual.flat().row_max)

    def test_ring_overwrites_oldest_first(self):
        run = _reference_run(synthetic_chain_lut(1, 4, seed=2), replay_capacity=3)
        for _ in range(5):
            run.step(1.0)
        ring = run.runner.export_ring()
        assert ring["fill"] == 3
        assert ring["pos"] == 5 % 3
        rewards = sorted(row[4] for row in ring["rows"])
        assert rewards == sorted(-total for total in run.curve[-3:])


# -- backend selection surface ----------------------------------------------


class TestBackendSelection:
    def test_auto_resolution(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        expected = "numba" if numba_available() else "reference"
        assert resolve_backend("auto") == expected
        assert resolve_backend() == expected

    def test_env_override_forces_reference(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert resolve_backend("auto") == "reference"

    def test_explicit_choice_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numba")
        assert resolve_backend("reference") == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            resolve_backend("cuda")

    def test_missing_numba_fails_loudly(self, monkeypatch):
        import repro.core.kernels as kernels

        monkeypatch.setattr(kernels, "_numba_cache", False)
        with pytest.raises(ConfigError):
            kernels.resolve_backend("numba")

    def test_config_validates_kernel(self):
        with pytest.raises(ConfigError):
            SearchConfig(kernel="cython")

    def test_search_result_reports_backend_and_throughput(self):
        lut = synthetic_chain_lut(4, 3, seed=0)
        result = QSDNNSearch(
            lut, SearchConfig(episodes=30, kernel="reference")
        ).run()
        assert result.kernel_backend == "reference"
        assert result.episodes_per_s > 0
        summary = result.summary()
        assert "eps/s" in summary and "[reference]" in summary

    def test_cli_search_kernel_flag(self, tmp_path, capsys, lenet_lut_gpgpu):
        from repro.cli import main

        lut_path = tmp_path / "lut.json"
        lut_path.write_text(lenet_lut_gpgpu.to_json())
        code = main([
            "search", "--lut", str(lut_path), "--episodes", "40",
            "--kernel", "reference",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "eps/s" in out and "[reference]" in out

    def test_campaign_job_kernel_validated(self):
        from repro.runtime.campaign import CampaignJob

        job = CampaignJob(network="lenet5", kernel="reference")
        assert job.kernel == "reference"
        with pytest.raises(ConfigError):
            CampaignJob(network="lenet5", kernel="gpu")
