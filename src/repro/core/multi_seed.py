"""Multi-seed QS-DNN: K independent searches over one LUT, in lockstep.

Robustness sweeps and portfolio searches run the same
(network, platform, mode) scenario under many seeds.  A sweep's K
searches advance episode by episode together over one shared
:class:`~repro.engine.pricing.CostEngine`, and each seed draws its
episode randomness from the *same* named streams as
:class:`~repro.core.search.QSDNNSearch` (policy and replay streams,
identical call sequence).  Exactness is the contract: every member's
``best_ms``, curve and greedy policy are bit-identical to an
independent single-seed ``run()`` with that seed (property-tested).

A sweep takes one of three routes:

* **Shared loop** (the default) — :func:`~repro.core.search.run_lockstep`
  steps one :class:`~repro.core.search.SeedRun` per seed, the very loop
  ``QSDNNSearch.run`` runs with one seed, so lockstep == independent
  holds by construction.  It carries replay, ``first_visit_bootstrap``,
  warm starts, checkpoints and resume, on either per-seed backend.
* **Mega** (``kernel="mega"``, or ``"auto"`` with K >=
  :data:`~repro.core.kernels.MEGA_SEED_THRESHOLD` under numba) — the
  structure-of-arrays path: one ``numba.prange`` dispatch per episode
  runs all K seeds (:mod:`repro.core.kernels.mega`).  It exists because
  large sweeps amortize dispatch and parallelize across cores.
* **Vectorized** (replay off, plain eq. (2), reference backend, cold,
  not anytime) — batches the whole learning pass across seeds and
  layers in numpy.  It exists because without the sequential replay
  chain the online updates of an episode are order-independent;
  ``MULTI_SEED_MAX_RATIO`` in ``benchmarks/bench_search_runtime.py``
  gates its speed against independent runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core import checkpoint as ckpt_mod
from repro.core.config import SearchConfig
from repro.core.kernels import mega_selected, resolve_backend
from repro.core.polish import coordinate_descent
from repro.core.priors import prior_row_max
from repro.core.result import SearchResult
from repro.core.search import run_lockstep, warm_prior
from repro.engine.lut import LatencyTable
from repro.errors import ConfigError, PreemptedError
from repro.utils.rng import RngStream
from repro.utils.units import format_ms


def seed_range(base_seed: int, count: int) -> list[int]:
    """The K consecutive seeds ``base_seed .. base_seed + count - 1``."""
    if count < 1:
        raise ConfigError(f"seed count must be >= 1, got {count}")
    return list(range(base_seed, base_seed + count))


@dataclass
class MultiSeedResult:
    """Outcome of one lockstep multi-seed search.

    ``results[i]`` is seed ``seeds[i]``'s :class:`SearchResult`,
    bit-identical to an independent single-seed run; each carries an
    equal share of the total wall clock.  ``batched_pricings`` counts
    the all-seed pricing dispatches (one per episode, regardless of K)
    of the mega and vectorized routes; the shared loop prices each seed
    inside its own episode kernel and reports 0.
    """

    results: list[SearchResult]
    wall_clock_s: float
    batched_pricings: int = 0
    lockstep: bool = True

    @property
    def seeds(self) -> list[int]:
        """The seed of each member run, in result order."""
        return [r.config.seed if r.config else i for i, r in enumerate(self.results)]

    @property
    def best(self) -> SearchResult:
        """The member run with the lowest ``best_ms``."""
        return min(self.results, key=lambda r: r.best_ms)

    @property
    def best_ms_per_seed(self) -> list[float]:
        """``best_ms`` of each member run, in result order."""
        return [r.best_ms for r in self.results]

    def summary(self) -> str:
        """One-line description of the whole sweep."""
        best = self.best
        spread = max(self.best_ms_per_seed) - min(self.best_ms_per_seed)
        mode = "lockstep" if self.lockstep else "sequential"
        throughput = (
            f", {len(self.results) / self.wall_clock_s:.0f} seeds/s"
            if self.wall_clock_s > 0
            else ""
        )
        return (
            f"multi-seed qs-dnn on {best.graph_name}: {len(self.results)} seeds "
            f"({mode}), best {format_ms(best.best_ms)} "
            f"(seed {best.config.seed if best.config else '?'}, "
            f"spread {format_ms(spread)}) in {self.wall_clock_s:.2f}s"
            f"{throughput}"
        )


class MultiSeedSearch:
    """K independent QS-DNN searches over one LUT, run in lockstep.

    ``prior`` seeds every member's Q table with the same flat block
    (see :mod:`repro.core.priors`) when ``config.warm_start`` is not
    ``"off"`` — exactly what each member's independent single-seed run
    would load, preserving the lockstep == independent contract.
    """

    def __init__(
        self,
        lut: LatencyTable,
        config: SearchConfig | None = None,
        seeds: Sequence[int] = (0,),
        prior=None,
    ) -> None:
        self.lut = lut
        self.config = config or SearchConfig()
        self.seeds = [int(s) for s in seeds]
        if not self.seeds:
            raise ConfigError("multi-seed search needs at least one seed")
        self.prior = prior
        self.indexed = lut.indexed()
        self.engine = self.indexed.engine()

    def run(
        self,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        resume: dict | None = None,
    ) -> MultiSeedResult:
        """Run every seed to completion; results come back in seed order.

        ``checkpoint_every``/``on_checkpoint``/``resume`` behave as in
        :meth:`QSDNNSearch.run`, with the whole lockstep sweep captured
        in one checkpoint (one snapshot per seed).
        """
        cfg = self.config
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        anytime = bool(checkpoint_every and on_checkpoint) or resume is not None
        # Resolved once per sweep: every seed loads the same block,
        # exactly what its independent single-seed run would load.
        prior_values = warm_prior(self.prior, self.lut, cfg, resume)
        if mega_selected(cfg.kernel, len(self.seeds)):
            return self._run_mega(
                checkpoint_every, on_checkpoint, resume, prior_values
            )
        # The vectorized route batches eq. (2) across seeds, which holds
        # only without the replay chain and visit bookkeeping; it keeps
        # no checkpointable or prior-loaded state, and under numba the
        # compiled per-seed kernels beat it on every config.
        if not (
            cfg.replay_enabled
            or cfg.first_visit_bootstrap
            or resolve_backend(cfg.kernel) == "numba"
            or anytime
            or prior_values is not None
        ):
            return self._run_lockstep_vectorized()
        results, wall = run_lockstep(
            self.lut,
            [replace(cfg, seed=seed) for seed in self.seeds],
            kind="multi-seed",
            prior_values=prior_values,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            resume=resume,
        )
        return MultiSeedResult(results=results, wall_clock_s=wall)

    # -- the mega SoA path (K seeds per kernel dispatch) --------------------

    def _run_mega(
        self,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        resume: dict | None = None,
        prior_values: np.ndarray | None = None,
    ) -> MultiSeedResult:
        """Run all K seeds as structure-of-arrays mega-kernel dispatches.

        One :class:`~repro.core.kernels.mega.MegaState` holds every
        seed's flat Q block, row-max cache and replay ring along a
        leading seed axis; each episode issues a single fused kernel
        call (two when reward shaping is off, which needs the totals
        before learning — same split as ``QSDNNSearch``).  The driver
        keeps every random draw per seed, in the exact stream order of
        an independent single-seed run: consecutive full-exploration
        episodes block-draw per seed (a row-major ``(run, L)`` block is
        bitwise the same stream as ``run`` per-episode draws), mixed
        episodes draw per (seed, episode), exploitation draws nothing,
        and replay permutations shuffle a per-seed scratch row exactly
        like ``draw_replay_order``.
        """
        from repro.core.kernels import mega as mega_kernels

        cfg = self.config
        idx = self.indexed
        engine = self.engine
        num_layers = len(idx)
        num_seeds = len(self.seeds)
        action_counts = np.asarray(idx.num_actions, dtype=np.int64)
        q_parent = np.asarray(idx.q_parent, dtype=np.int64)
        row_sizes = [
            1 if parent < 0 else int(idx.num_actions[parent])
            for parent in idx.q_parent
        ]
        views = engine.kernel_views()
        mega_kernels.ensure_warm()
        state = mega_kernels.MegaState(
            num_seeds=num_seeds,
            num_actions=list(idx.num_actions),
            row_sizes=row_sizes,
            q_parent=q_parent,
            pricing=views[:6],
            max_actions=views[6],
            learning_rate=cfg.learning_rate,
            discount=cfg.discount,
            first_visit_bootstrap=cfg.first_visit_bootstrap,
            replay_enabled=cfg.replay_enabled,
            replay_capacity=cfg.replay_capacity,
        )

        streams = [
            RngStream(seed, "qsdnn", self.lut.graph_name, self.lut.mode)
            for seed in self.seeds
        ]
        policy_rngs = [s.child("policy") for s in streams]
        replay_rngs = [s.child("replay") for s in streams]

        if resume is not None:
            ckpt_mod.check_resume(
                resume,
                kind="multi-seed",
                graph=self.lut.graph_name,
                mode=self.lut.mode,
                episodes=cfg.episodes,
                seeds=self.seeds,
                warm_start=cfg.warm_start,
            )
            for s in range(num_seeds):
                snap = resume["seeds"][s]
                ckpt_mod.restore_mega_seed(snap, state, s)
                ckpt_mod.set_rng_state(policy_rngs[s], snap["policy_rng"])
                ckpt_mod.set_rng_state(replay_rngs[s], snap["replay_rng"])
        elif prior_values is not None:
            # Tile the prior block across the seed axis — ``q[s]`` is
            # each seed's flat ``QTable`` block, so this is exactly
            # what K independent ``load_prior`` calls would write.
            prior_rm = prior_row_max(
                prior_values, list(idx.num_actions), row_sizes
            )
            for s in range(num_seeds):
                state.q[s] = prior_values
                state.row_max[s] = prior_rm

        shaping = cfg.reward_shaping
        track_curve = cfg.track_curve
        eps_list = [cfg.epsilon.epsilon_for(e) for e in range(cfg.episodes)]

        explored_buf = np.empty((num_seeds, num_layers), dtype=np.int64)
        explore_buf = np.empty((num_seeds, num_layers), dtype=np.bool_)
        perm_buf = (
            np.empty((num_seeds, cfg.replay_capacity), dtype=np.int64)
            if cfg.replay_enabled
            else None
        )
        iota = np.arange(cfg.replay_capacity, dtype=np.int64)
        # Full-exploration blocks: cap the pre-drawn run so a K=1000
        # sweep over a 500-episode explore phase never materializes
        # hundreds of megabytes of entropy at once.
        block_cap = max(1, 8192 // max(num_layers, 1))
        blocks: np.ndarray | None = None
        block_pos = block_len = 0

        best_total = np.full(num_seeds, np.inf, dtype=np.float64)
        best_choices = np.zeros((num_seeds, num_layers), dtype=np.int64)
        episode_totals: list[np.ndarray] = []
        epsilon_trace: list[float] = []
        batched_pricings = 0
        start_episode = 0
        elapsed_s = 0.0
        if resume is not None:
            for s in range(num_seeds):
                snap = resume["seeds"][s]
                best_total[s] = snap["best_total"]
                if snap["best_choices"] is not None:
                    best_choices[s] = snap["best_choices"]
            start_episode = int(resume["episode"])
            elapsed_s = float(resume.get("elapsed_s", 0.0))
            epsilon_trace = list(resume["epsilon_trace"])
            if track_curve:
                episode_totals = [
                    np.array(
                        [resume["seeds"][s]["curve"][e] for s in range(num_seeds)],
                        dtype=np.float64,
                    )
                    for e in range(start_episode)
                ]
        started = time.perf_counter()

        for episode in range(start_episode, cfg.episodes):
            epsilon = eps_list[episode]
            # -- decision entropy (per seed, stream-identical draws)
            if epsilon >= 1.0:
                if block_pos == block_len:
                    run = 1
                    while (
                        episode + run < cfg.episodes
                        and eps_list[episode + run] >= 1.0
                        and run < block_cap
                        # A block must never span a checkpoint boundary:
                        # capture would otherwise find the policy stream
                        # already advanced past the boundary.  Capping
                        # changes only the draw *grouping* — a (run, L)
                        # row-major block is bitwise the same stream as
                        # run per-episode draws — so results are
                        # unchanged.
                        and not (
                            checkpoint_every
                            and (episode + run) % checkpoint_every == 0
                        )
                    ):
                        run += 1
                    if blocks is None or blocks.shape[1] < run:
                        blocks = np.empty(
                            (num_seeds, run, num_layers), dtype=np.int64
                        )
                    for s, rng in enumerate(policy_rngs):
                        blocks[s, :run] = rng.integers(
                            0, action_counts[None, :], size=(run, num_layers)
                        )
                    block_len = run
                    block_pos = 0
                np.copyto(explored_buf, blocks[:, block_pos, :])
                block_pos += 1
                mode = mega_kernels._MODE_EXPLORE
                explore2, explored2 = None, explored_buf
            elif epsilon <= 0.0:
                mode = mega_kernels._MODE_GREEDY
                explore2 = explored2 = None
            else:
                for s, rng in enumerate(policy_rngs):
                    explore_buf[s] = rng.random(num_layers) < epsilon
                    explored_buf[s] = rng.integers(0, action_counts)
                mode = mega_kernels._MODE_MIXED
                explore2, explored2 = explore_buf, explored_buf
            # -- replay entropy (per seed, same shuffle as the runners)
            if perm_buf is not None:
                stored = state.stored()
                perm2 = perm_buf[:, :stored]
                for s, rng in enumerate(replay_rngs):
                    row = perm_buf[s, :stored]
                    row[:] = iota[:stored]
                    rng.shuffle(row)
            else:
                perm2 = None
            # -- one (or two) mega dispatches for all K seeds
            if shaping:
                costs = state.episode(mode, explore2, explored2, perm2)
                totals = costs.sum(axis=1)
            else:
                costs = state.rollout_price(mode, explore2, explored2)
                totals = costs.sum(axis=1)
                rewards = np.zeros((num_seeds, num_layers), dtype=np.float64)
                rewards[:, num_layers - 1] = -totals
                state.learn(rewards, perm2)
            batched_pricings += 1
            # -- vectorized best tracking
            improved = totals < best_total
            if improved.any():
                best_total[improved] = totals[improved]
                best_choices[improved] = state.choices[improved]
            if track_curve:
                episode_totals.append(totals.copy())
                epsilon_trace.append(epsilon)
            # -- anytime checkpoint (episode boundary; draws no RNG).
            # The block-run cap above guarantees no pre-drawn policy
            # entropy extends past this boundary, so the captured RNG
            # states correspond exactly to "episodes < boundary drawn".
            if (
                checkpoint_every
                and on_checkpoint is not None
                and (episode + 1) % checkpoint_every == 0
                and episode + 1 < cfg.episodes
            ):
                snapshot = ckpt_mod.build_checkpoint(
                    kind="multi-seed",
                    graph=self.lut.graph_name,
                    mode=self.lut.mode,
                    episodes=cfg.episodes,
                    episode=episode + 1,
                    kernel=cfg.kernel,
                    elapsed_s=elapsed_s + (time.perf_counter() - started),
                    epsilon_trace=epsilon_trace,
                    warm_start=cfg.warm_start,
                    seed_snaps=[
                        ckpt_mod.mega_seed_snapshot(
                            state,
                            s,
                            seed,
                            policy_rngs[s],
                            replay_rngs[s],
                            float(best_total[s]),
                            best_choices[s],
                            [float(t[s]) for t in episode_totals],
                        )
                        for s, seed in enumerate(self.seeds)
                    ],
                )
                if on_checkpoint(snapshot) is False:
                    raise PreemptedError(snapshot)

        # -- finalization: one greedy mega dispatch, per-seed packaging
        greedy_choices = state.greedy_choices().copy()
        curve_matrix = (
            np.stack(episode_totals) if episode_totals else None
        )
        results = []
        for s, seed in enumerate(self.seeds):
            chosen = best_choices[s].copy()
            total = float(best_total[s])
            if cfg.polish_sweeps > 0:
                chosen, total = coordinate_descent(
                    engine, chosen, max_sweeps=cfg.polish_sweeps
                )
            greedy_ms = engine.price(greedy_choices[s])
            results.append(
                SearchResult(
                    graph_name=self.lut.graph_name,
                    method="qs-dnn",
                    best_assignments=engine.assignments(chosen),
                    best_ms=float(total),
                    episodes=cfg.episodes,
                    curve_ms=(
                        curve_matrix[:, s].tolist()
                        if curve_matrix is not None
                        else []
                    ),
                    epsilon_trace=list(epsilon_trace) if track_curve else [],
                    config=replace(cfg, seed=seed),
                    greedy_ms=float(greedy_ms),
                    kernel_backend="mega",
                    warm_start=cfg.warm_start,
                )
            )
        wall = elapsed_s + (time.perf_counter() - started)
        for result in results:
            result.wall_clock_s = wall / num_seeds
        #: Test hook: the final SoA state (Q, row_max, visited, ring)
        #: the exactness property compares against per-seed runs.
        self._mega_state = state
        return MultiSeedResult(
            results=results,
            wall_clock_s=wall,
            batched_pricings=batched_pricings,
            lockstep=True,
        )

    # -- the lockstep vectorized path (replay off) --------------------------

    def _run_lockstep_vectorized(self) -> MultiSeedResult:
        """Batch the whole learning pass across seeds and layers.

        Within one episode the online eq. (2) updates are
        order-independent: the update of layer ``i`` bootstraps from
        layer ``i + 1``'s row max, which this episode only writes
        *after* reading (the reference loop runs in ascending layer
        order), and every (seed, layer) pair is updated exactly once.
        All ``K x L`` updates of an episode therefore batch into a
        handful of flat-array numpy operations while reproducing the
        sequential reference bit-for-bit.

        Greedy decisions never scan Q rows: an argmax cache per
        (seed, layer, row) is maintained under the exact
        ``values.index(row_max)`` first-index semantics of
        :meth:`QTable.greedy_action`, mirrored into nested Python lists
        (lazily, on first non-exploration episode) for fast scalar
        reads in the sequential decision walk.
        """
        cfg = self.config
        idx = self.indexed
        engine = self.engine
        num_layers = len(idx)
        num_seeds = len(self.seeds)
        action_counts = np.asarray(idx.num_actions, dtype=np.int64)
        q_parent = idx.q_parent
        parent_idx = np.asarray(q_parent, dtype=np.int64)
        virtual_start = parent_idx < 0
        parent_gather = np.maximum(parent_idx, 0)
        row_counts = np.where(virtual_start, 1, action_counts[parent_gather])
        max_rows = int(row_counts.max())
        max_actions = int(action_counts.max())

        keep = 1.0 - cfg.learning_rate
        lr = cfg.learning_rate
        gamma = cfg.discount
        shaping = cfg.reward_shaping
        track_curve = cfg.track_curve
        epsilon_for = cfg.epsilon.epsilon_for

        # Dense per-seed Q storage.  Invalid (row, action) slots are
        # -inf so row-wise rescans ignore them; valid entries start at
        # 0.0 exactly like QTable.
        valid = (
            np.arange(max_rows)[None, :, None] < row_counts[:, None, None]
        ) & (np.arange(max_actions)[None, None, :] < action_counts[:, None, None])
        q = np.full(
            (num_seeds, num_layers, max_rows, max_actions),
            -np.inf,
            dtype=np.float64,
        )
        q[:, valid] = 0.0
        row_max = np.zeros((num_seeds, num_layers, max_rows), dtype=np.float64)
        arg_max = np.zeros((num_seeds, num_layers, max_rows), dtype=np.int64)
        q_flat = q.reshape(-1)
        q_rows = q.reshape(-1, max_actions)
        rm_flat = row_max.reshape(-1)
        am_flat = arg_max.reshape(-1)
        #: Python-list mirror of arg_max for the scalar decision walk.
        mirror: list[list[list[int]]] | None = None
        #: Per seed: the last full-exploitation walk is still valid (no
        #: greedy-cache entry changed since it was computed).
        walk_fresh = [False] * num_seeds

        policy_rngs = [
            RngStream(seed, "qsdnn", self.lut.graph_name, self.lut.mode).child(
                "policy"
            )
            for seed in self.seeds
        ]

        seed_col = np.arange(num_seeds)[:, None]
        layer_row = np.arange(num_layers)[None, :]
        row_base_of = (seed_col * num_layers + layer_row) * max_rows

        batch = np.empty((num_seeds, num_layers), dtype=np.int64)
        rows_np = np.empty((num_seeds, num_layers), dtype=np.int64)
        best_total = [np.inf] * num_seeds
        best_choices: list[np.ndarray | None] = [None] * num_seeds
        curves: list[list[float]] = [[] for _ in range(num_seeds)]
        epsilon_trace: list[float] = []
        batched_pricings = 0
        eps_list = [epsilon_for(e) for e in range(cfg.episodes)]
        blocks: list[np.ndarray] = []
        block_pos = block_len = 0
        started = time.perf_counter()

        for episode in range(cfg.episodes):
            epsilon = eps_list[episode]
            # -- decision pass (same RNG calls per seed as QSDNNSearch)
            if epsilon >= 1.0:
                if block_pos == block_len:
                    # Pre-draw a whole run of consecutive
                    # full-exploration episodes per seed in one RNG
                    # call: a (run, L) block fills row-major, so it is
                    # bit-identical to `run` successive per-episode
                    # draws from the same stream.
                    run = 1
                    while (
                        episode + run < cfg.episodes
                        and eps_list[episode + run] >= 1.0
                    ):
                        run += 1
                    blocks = [
                        rng.integers(
                            0, action_counts[None, :], size=(run, num_layers)
                        )
                        for rng in policy_rngs
                    ]
                    block_len = run
                    block_pos = 0
                for s in range(num_seeds):
                    batch[s] = blocks[s][block_pos]
                block_pos += 1
                rows_np[:, :] = np.where(
                    virtual_start[None, :], 0, batch[:, parent_gather]
                )
                if mirror is not None:
                    walk_fresh = [False] * num_seeds
            else:
                if mirror is None:
                    mirror = arg_max.tolist()
                if epsilon <= 0.0:
                    for s in range(num_seeds):
                        if walk_fresh[s]:
                            # No greedy-cache entry changed since this
                            # seed's last full-exploitation walk, so the
                            # walk (still in batch[s] / rows_np[s]) would
                            # come out identical — skip recomputing it.
                            continue
                        greedy = mirror[s]
                        choices = [0] * num_layers
                        rows = [0] * num_layers
                        for i in range(num_layers):
                            parent = q_parent[i]
                            row = 0 if parent < 0 else choices[parent]
                            rows[i] = row
                            choices[i] = greedy[i][row]
                        batch[s] = choices
                        rows_np[s] = rows
                        walk_fresh[s] = True
                else:
                    for s, rng in enumerate(policy_rngs):
                        walk_fresh[s] = False
                        greedy = mirror[s]
                        explore = (rng.random(num_layers) < epsilon).tolist()
                        explored = rng.integers(0, action_counts).tolist()
                        choices = [0] * num_layers
                        rows = [0] * num_layers
                        for i in range(num_layers):
                            parent = q_parent[i]
                            row = 0 if parent < 0 else choices[parent]
                            rows[i] = row
                            choices[i] = (
                                explored[i] if explore[i] else greedy[i][row]
                            )
                        batch[s] = choices
                        rows_np[s] = rows
            # -- pricing pass: all K rollouts in one engine call
            costs = engine.layer_costs_batch(batch, checked=False)
            totals = costs.sum(axis=1)
            totals_list = totals.tolist()
            batched_pricings += 1
            # -- learning pass: K x L online updates in one batch
            if shaping:
                rewards = -costs
            else:
                rewards = np.zeros_like(costs)
                rewards[:, num_layers - 1] = -totals
            row_idx = row_base_of + rows_np
            q_idx = row_idx * max_actions + batch
            old = q_flat.take(q_idx)
            boot = np.zeros((num_seeds, num_layers), dtype=np.float64)
            # The bootstrap of layer i reads (seed, i + 1, rows[i + 1]),
            # which is exactly the next column of row_idx; the terminal
            # layer bootstraps from 0.
            boot[:, :-1] = rm_flat.take(row_idx[:, 1:])
            new = old * keep + lr * (rewards + gamma * boot)
            q_flat[q_idx.reshape(-1)] = new.reshape(-1)
            cur = rm_flat.take(row_idx)
            am_pre = am_flat.take(row_idx)
            raised = new > cur
            tied_earlier = (new == cur) & (batch < am_pre)
            dropped = (old == cur) & (new < old)
            pokes: list[tuple] = []
            target = row_idx[raised]
            winners = batch[raised]
            rm_flat[target] = new[raised]
            am_flat[target] = winners
            pokes.append((target, winners))
            target = row_idx[tied_earlier]
            winners = batch[tied_earlier]
            am_flat[target] = winners
            pokes.append((target, winners))
            # The maximal entry decreased: rescan those rows (the batch
            # writes are already applied, and each row is touched at
            # most once per episode).
            target = row_idx[dropped]
            rescanned = q_rows[target]
            rm_flat[target] = rescanned.max(axis=1)
            winners = rescanned.argmax(axis=1)
            am_flat[target] = winners
            pokes.append((target, winners))
            if mirror is not None:
                for target, winners in pokes:
                    for flat, winner in zip(target.tolist(), winners.tolist()):
                        row, flat = flat % max_rows, flat // max_rows
                        layer, s = flat % num_layers, flat // num_layers
                        greedy = mirror[s]
                        if greedy[layer][row] != winner:
                            greedy[layer][row] = winner
                            walk_fresh[s] = False
            # -- bookkeeping
            for s in range(num_seeds):
                total = totals_list[s]
                if total < best_total[s]:
                    best_total[s] = total
                    best_choices[s] = batch[s].copy()
                if track_curve:
                    curves[s].append(total)
            if track_curve:
                epsilon_trace.append(epsilon)

        if mirror is None:
            mirror = arg_max.tolist()
        results = []
        for s, seed in enumerate(self.seeds):
            chosen = best_choices[s]
            assert chosen is not None
            total = best_total[s]
            if cfg.polish_sweeps > 0:
                chosen, total = coordinate_descent(
                    engine, chosen, max_sweeps=cfg.polish_sweeps
                )
            greedy = mirror[s]
            walk = [0] * num_layers
            for i in range(num_layers):
                parent = q_parent[i]
                walk[i] = greedy[i][0 if parent < 0 else walk[parent]]
            results.append(
                SearchResult(
                    graph_name=self.lut.graph_name,
                    method="qs-dnn",
                    best_assignments=engine.assignments(chosen),
                    best_ms=float(total),
                    episodes=cfg.episodes,
                    curve_ms=curves[s],
                    epsilon_trace=list(epsilon_trace) if track_curve else [],
                    config=replace(cfg, seed=seed),
                    greedy_ms=float(engine.price(walk)),
                    warm_start=cfg.warm_start,
                )
            )
        wall = time.perf_counter() - started
        for result in results:
            result.wall_clock_s = wall / num_seeds
        return MultiSeedResult(
            results=results,
            wall_clock_s=wall,
            batched_pricings=batched_pricings,
            lockstep=True,
        )
