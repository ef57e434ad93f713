"""QS-DNN's search phase: Algorithm 1 of the paper.

Per episode the agent walks the network in topological order choosing a
primitive per layer with an epsilon-greedy policy over the Q table.
Rewards are shaped: each layer receives minus its own LUT latency, with
any compatibility penalties on its incoming edges charged to it (paper
§IV-C and §V-B: "If any incompatibility has been found between two
layers, the extra penalty is added to the inference time of the latter
layer").  After the rollout every transition is learned online (eq. 2)
and pushed to the replay buffer, which is then replayed in full.

Branch handling: the Q state chain follows topological order, but the
reward of a layer sums the penalty matrices of *all* its graph
predecessors — so residual joins and inception branches price their
conversions exactly, even though the MDP sees a linear state sequence
(the paper's Fig. 3 "exceptions and branches are handled").

The whole per-episode hot path — rollout walk, pricing, the eq. (2)
sweep and the replay chain — runs inside an episode kernel
(:mod:`repro.core.kernels`): one fused call per episode on the numba
backend, the bit-identical pure-Python reference backend otherwise.
A :class:`SeedRun` holds one seed's state and only draws the episode's
randomness (same named streams as ever), dispatches the kernel, and
tracks the best configuration.  :func:`run_lockstep` steps a list of
them episode by episode: :class:`QSDNNSearch` runs it with one seed,
and :class:`~repro.core.multi_seed.MultiSeedSearch` with K — so a
sweep member is bitwise an independent run by construction.

The search is *anytime*: ``run(checkpoint_every=N, on_checkpoint=f)``
captures a :mod:`repro.core.checkpoint` snapshot at every Nth episode
boundary (drawing no randomness, so the RNG streams are untouched) and
hands it to the callback; a callback returning ``False`` stops the run
with a :class:`~repro.errors.PreemptedError` carrying that snapshot.
``run(resume=ckpt)`` continues from a snapshot and finishes
bitwise-identical — same ``best_ms``, ``curve_ms`` and flat Q state —
to the run that was never interrupted (exactness contract 8,
``docs/architecture.md``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import checkpoint as ckpt_mod
from repro.core.config import SearchConfig
from repro.core.kernels import make_runner
from repro.core.polish import coordinate_descent
from repro.core.qtable import QTable
from repro.core.result import SearchResult
from repro.engine.lut import LatencyTable
from repro.engine.pricing import CostEngine
from repro.errors import ConfigError, PreemptedError
from repro.utils.rng import RngStream


class SeedRun:
    """One seed's Algorithm 1 state, advanced one episode per :meth:`step`.

    Holds the QTable, its episode-kernel runner, the policy and replay
    RNG streams, and the best total, best choices and latency curve.
    ``snap`` (a checkpoint's per-seed snapshot) restores all of it;
    otherwise ``prior_values`` (a flat Q block) warm-starts the table.
    """

    def __init__(
        self,
        lut: LatencyTable,
        config: SearchConfig,
        *,
        prior_values: np.ndarray | None = None,
        snap: dict | None = None,
    ) -> None:
        idx = lut.indexed()
        self.config = config
        self._lut = lut
        self._engine = idx.engine()
        self._q_parent = idx.q_parent
        self._num_layers = len(idx)
        self._action_counts = np.asarray(idx.num_actions, dtype=np.int64)
        self._shaping = config.reward_shaping
        self._track_curve = config.track_curve
        self.qtable = QTable(
            list(idx.num_actions),
            config.learning_rate,
            config.discount,
            row_sizes=[
                1 if parent < 0 else int(idx.num_actions[parent])
                for parent in idx.q_parent
            ],
            first_visit_bootstrap=config.first_visit_bootstrap,
        )
        # The flat arrays must hold the checkpointed (or prior) Q state
        # before the runner mirrors them at construction.  A resumed
        # run never re-applies the prior — the snapshot's Q block
        # already carries it.
        if snap is not None:
            ckpt_mod.restore_seed_arrays(snap, self.qtable)
        elif prior_values is not None:
            self.qtable.load_prior(prior_values)
        self.runner = make_runner(
            self._engine,
            self.qtable,
            idx.q_parent,
            replay_enabled=config.replay_enabled,
            replay_capacity=config.replay_capacity,
            backend=config.kernel,
        )
        stream = RngStream(config.seed, "qsdnn", lut.graph_name, lut.mode)
        self.policy_rng = stream.child("policy")
        self.replay_rng = stream.child("replay")
        self.best_total = np.inf
        self.best_choices = None
        self.curve: list[float] = []
        if snap is not None:
            self.runner.import_ring(snap["ring"])
            ckpt_mod.set_rng_state(self.policy_rng, snap["policy_rng"])
            ckpt_mod.set_rng_state(self.replay_rng, snap["replay_rng"])
            self.best_total = snap["best_total"]
            self.best_choices = snap["best_choices"]
            self.curve = list(snap["curve"])

    def step(self, epsilon: float) -> None:
        """Run one episode at exploration rate ``epsilon``."""
        # -- the episode's randomness, from the usual named streams
        policy_rng = self.policy_rng
        if epsilon >= 1.0:
            explore = None
            explored = policy_rng.integers(0, self._action_counts)
        elif epsilon <= 0.0:
            explore = None
            explored = None
        else:
            explore = policy_rng.random(self._num_layers) < epsilon
            explored = policy_rng.integers(0, self._action_counts)
        runner = self.runner
        perm = runner.draw_replay_order(self.replay_rng)
        # -- one kernel-fused episode: rollout + eq. (2) + replay
        if self._shaping:
            total = float(runner.episode(explore, explored, perm).sum())
        else:
            # The terminal reward needs the episode total, so the
            # rollout/pricing and learning halves run as two calls.
            total = float(runner.rollout_price(explore, explored).sum())
            rewards = np.zeros(self._num_layers, dtype=np.float64)
            rewards[-1] = -total
            runner.learn(rewards, perm)
        if total < self.best_total:
            self.best_total = total
            self.best_choices = runner.snapshot()
        if self._track_curve:
            self.curve.append(total)

    def snapshot(self) -> dict:
        """This seed's checkpoint snapshot (draws no randomness)."""
        return ckpt_mod.seed_snapshot(
            self.config.seed,
            self.qtable,
            self.runner,
            self.policy_rng,
            self.replay_rng,
            self.best_total,
            self.best_choices,
            self.curve,
        )

    def result(self, epsilon_trace: list[float]) -> SearchResult:
        """Finalize, polish and package this seed's search result.

        ``wall_clock_s`` is left to :func:`run_lockstep`, which owns the
        clock.
        """
        cfg = self.config
        engine = self._engine
        self.runner.finalize()
        assert self.best_choices is not None
        best_choices = np.asarray(self.best_choices, dtype=np.int64)
        best_total = self.best_total
        if cfg.polish_sweeps > 0:
            best_choices, best_total = coordinate_descent(
                engine, best_choices, max_sweeps=cfg.polish_sweeps
            )
        greedy_ms = engine.price(self.qtable.greedy_rollout(parents=self._q_parent))
        return SearchResult(
            graph_name=self._lut.graph_name,
            method="qs-dnn",
            best_assignments=engine.assignments(best_choices),
            best_ms=float(best_total),
            episodes=cfg.episodes,
            curve_ms=self.curve,
            epsilon_trace=list(epsilon_trace),
            config=cfg,
            greedy_ms=float(greedy_ms),
            kernel_backend=self.runner.backend,
            warm_start=cfg.warm_start,
        )


def warm_prior(prior, lut: LatencyTable, config: SearchConfig, resume=None):
    """The flat Q block a warm start loads, or None for a cold start.

    None when ``config.warm_start`` is ``"off"``, when there is no
    prior, when the prior has nothing for ``lut``, and on resume (the
    snapshot's Q block already carries the prior).
    """
    if resume is not None or config.warm_start == "off" or prior is None:
        return None
    return prior.prior_for(lut, config.discount)


def run_lockstep(
    lut: LatencyTable,
    configs: list[SearchConfig],
    *,
    kind: str,
    prior_values: np.ndarray | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint=None,
    resume: dict | None = None,
) -> tuple[list[SearchResult], float]:
    """Algorithm 1 for one :class:`SeedRun` per config, in lockstep.

    ``configs`` differ only in ``seed``.  Every episode steps each run
    once, in order; every ``checkpoint_every`` episodes one checkpoint
    of ``kind`` captures all of them.  Returns the per-seed results,
    each carrying an equal share of the wall clock, and the total wall
    clock (including time carried in by ``resume``).
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    cfg = configs[0]
    snaps: list = [None] * len(configs)
    epsilon_trace: list[float] = []
    start_episode = 0
    elapsed_s = 0.0
    if resume is not None:
        ckpt_mod.check_resume(
            resume,
            kind=kind,
            graph=lut.graph_name,
            mode=lut.mode,
            episodes=cfg.episodes,
            seeds=[c.seed for c in configs],
            warm_start=cfg.warm_start,
        )
        snaps = resume["seeds"]
        epsilon_trace = list(resume["epsilon_trace"])
        start_episode = int(resume["episode"])
        elapsed_s = float(resume.get("elapsed_s", 0.0))
    runs = [
        SeedRun(lut, c, prior_values=prior_values, snap=snap)
        for c, snap in zip(configs, snaps)
    ]
    steps = [run.step for run in runs]
    track_curve = cfg.track_curve
    epsilon_for = cfg.epsilon.epsilon_for
    every = checkpoint_every if on_checkpoint is not None else None
    started = time.perf_counter()

    for episode in range(start_episode, cfg.episodes):
        epsilon = epsilon_for(episode)
        for step in steps:
            step(epsilon)
        if track_curve:
            epsilon_trace.append(epsilon)
        # -- anytime checkpoint (episode boundary; draws no RNG), never
        # after the last episode — the run is about to finish anyway
        done = episode + 1
        if every and done % every == 0 and done < cfg.episodes:
            snapshot = ckpt_mod.build_checkpoint(
                kind=kind,
                graph=lut.graph_name,
                mode=lut.mode,
                episodes=cfg.episodes,
                episode=done,
                kernel=cfg.kernel,
                elapsed_s=elapsed_s + (time.perf_counter() - started),
                epsilon_trace=epsilon_trace,
                warm_start=cfg.warm_start,
                seed_snaps=[run.snapshot() for run in runs],
            )
            if on_checkpoint(snapshot) is False:
                raise PreemptedError(snapshot)

    results = [run.result(epsilon_trace) for run in runs]
    wall = elapsed_s + (time.perf_counter() - started)
    for result in results:
        result.wall_clock_s = wall / len(results)
    return results, wall


class QSDNNSearch:
    """The RL-based search engine over a profiled latency table.

    ``prior`` (any :class:`~repro.core.priors.QPrior`) seeds the Q
    table when ``config.warm_start`` is not ``"off"``; a prior that
    resolves to None leaves the zero init (cold start).  The knob and
    the prior travel together: ``warm_start`` labels the result and
    checkpoints, the prior supplies the values.
    """

    def __init__(
        self,
        lut: LatencyTable,
        config: SearchConfig | None = None,
        prior=None,
    ) -> None:
        self.lut = lut
        self.config = config or SearchConfig()
        self.prior = prior
        self.indexed = lut.indexed()
        self.engine: CostEngine = self.indexed.engine()

    # -- the search (Algorithm 1) ----------------------------------------------

    def run(
        self,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        resume: dict | None = None,
    ) -> SearchResult:
        """Run the full epsilon-schedule search; returns the best result.

        ``checkpoint_every=N`` with a callback captures a checkpoint
        after every Nth completed episode (never after the last — the
        run is about to finish anyway) and calls ``on_checkpoint(ckpt)``;
        a ``False`` return preempts the run with
        :class:`~repro.errors.PreemptedError` carrying the snapshot.
        ``resume`` continues from a decoded checkpoint dict.
        """
        results, _ = run_lockstep(
            self.lut,
            [self.config],
            kind="search",
            prior_values=warm_prior(self.prior, self.lut, self.config, resume),
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            resume=resume,
        )
        return results[0]
