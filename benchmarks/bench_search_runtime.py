"""E7 — search runtime (paper §VI-A), kernel backends, multi-seed amortization.

"The design space search is carried out in a standard Intel CPU and
takes less than 10 min to converge"; the abstract quotes ~5 minutes.
Our tabular search over the same LUT structure runs in seconds — this
bench records the wall-clock and episode throughput per network so the
claim is auditable, and writes the machine-readable
``BENCH_search.json`` next to the repo root so CI (and speedup
comparisons between revisions) can diff it.
``scripts/check_bench_regression.py`` gates CI on the recorded wall
clocks and multi-seed ratios.

The profile bench records the other stage of a ``repro search`` run:
the wall clock of one cold ``Profiler.profile`` (paper §V-A, every
board pass of the inference phase) per network, so the artifact holds
the profile → search stage split.

The kernel bench measures the compiled episode kernels
(:mod:`repro.core.kernels`): the same replay-on search run on the
pure-Python reference backend and the numba backend, which must be
bit-identical and substantially faster.  It is skipped (and the
``kernel.speedup`` section left empty) when numba is not installed.

The multi-seed benches measure the lockstep runner's amortization: K=8
seeds sharing one engine, every episode's K rollouts priced in a single
``layer_costs_batch`` call and the eq. (2) updates batched across
seeds.  Both sides run the vectorized-friendly configuration (replay
off — replay is an inherently sequential per-seed update chain) so the
ratio isolates what lockstep batching buys; results are bit-identical
to K independent runs either way.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro import Mode, __version__
from repro.analysis._cache import cached_lut
from repro.backends import gpgpu_space
from repro.core import (
    MultiSeedSearch,
    QSDNNSearch,
    SearchConfig,
    numba_available,
    resolve_backend,
    seed_range,
)
from repro.engine import Profiler
from repro.zoo import build_network

from benchmarks.conftest import EPISODES, SEED

NETWORKS = ["lenet5", "alexnet", "mobilenet_v1", "googlenet", "resnet50", "vgg19"]

#: Networks the multi-seed amortization claim is checked on.
MULTI_SEED_NETWORKS = ["mobilenet_v1", "resnet50"]
MULTI_SEED_K = 8
#: K=8 lockstep seeds must cost < this many single-seed wall clocks.
#: (Recalibrated from 4.0 when the episode kernels made single-seed
#: searches ~30% faster — the ratio's denominator; the regression gate
#: tracks growth of the committed ratios from there.)
MULTI_SEED_MAX_RATIO = 6.0

#: Networks the compiled-kernel speedup claim is checked on.
KERNEL_NETWORKS = ["mobilenet_v1", "resnet50"]
#: numba must beat the reference backend by at least this factor on
#: replay-on searches (the acceptance bar of the kernels subsystem).
KERNEL_MIN_SPEEDUP = 5.0

#: Networks the anytime-checkpoint overhead bound is checked on.
CHECKPOINT_NETWORKS = ["mobilenet_v1"]
#: Captures per run for the overhead measurement (every N episodes).
CHECKPOINT_EVERY = EPISODES // 10
#: A checkpointing run must cost at most this many plain wall clocks
#: (the anytime subsystem's acceptance bar: < 5% overhead).
CHECKPOINT_MAX_RATIO = 1.05

#: Networks the mega-batch (thousand-seed SoA) claim is checked on.
MEGA_NETWORKS = ["mobilenet_v1"]
MEGA_K = 1000
#: K=1000 mega-batch seeds must cost <= this many single-seed wall
#: clocks under numba (the acceptance bar of the SoA kernel path —
#: tens-of-x for a thousand seeds).
MEGA_MAX_RATIO = 40.0

#: Held-out networks the warm-start transfer claim is checked on —
#: deliberately absent from every other bench list in this file, so
#: nothing about the prior machinery was tuned on them.
WARM_NETWORKS = ["squeezenet_v1.1", "tiny_yolo_v2"]
#: A warm-started run must reach the cold best_ms (bitwise-equal or
#: better) within this fraction of the cold episode budget (the
#: acceptance bar of the warm-start subsystem).
WARM_MAX_RATIO = 0.5

#: Machine-readable artifact consumed by CI and revision comparisons.
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_search.json"
#: Artifact layout version (validated by the CI artifact check).
#: v4 added the ``mega_batch`` section; v5 the ``warm_start`` section;
#: v6 the ``profile_wall_clock_s`` section.
BENCH_SCHEMA_VERSION = 6

#: Fresh profiles per network; the recorded wall is the fastest.
PROFILE_ROUNDS = 3

_wall_clocks: dict[str, float] = {}
_profile_wall_clocks: dict[str, float] = {}
_episodes_per_s: dict[str, float] = {}
_best_ms: dict[str, float] = {}
_multi_seed: dict[str, dict[str, float]] = {}
_kernel_speedup: dict[str, dict[str, float]] = {}
_mega_batch: dict[str, dict[str, float]] = {}
_warm_start: dict[str, dict[str, float]] = {}


@pytest.mark.parametrize("network", NETWORKS)
def test_search_wall_clock(benchmark, network, tx2):
    lut = cached_lut(network, Mode.GPGPU, tx2, seed=SEED)

    def run():
        config = SearchConfig(episodes=EPISODES, seed=SEED, track_curve=False)
        return QSDNNSearch(lut, config).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _wall_clocks[network] = result.wall_clock_s
    _episodes_per_s[network] = result.episodes_per_s or 0.0
    _best_ms[network] = result.best_ms
    # Paper bound: well under 10 minutes per search.
    assert result.wall_clock_s < 600.0


@pytest.mark.parametrize("network", NETWORKS)
def test_profile_wall_clock(network, tx2):
    """Cold inference phase: one ``Profiler.profile`` per round.

    Each round profiles through a freshly built design space, so no
    round reuses another's work; the profiled LUT must be the one the
    search benches run on.
    """
    graph = build_network(network)
    walls = []
    for _ in range(PROFILE_ROUNDS):
        profiler = Profiler(graph, gpgpu_space(tx2), tx2, seed=SEED)
        started = time.perf_counter()
        lut, _report = profiler.profile()
        walls.append(time.perf_counter() - started)
    assert lut.to_json() == cached_lut(network, Mode.GPGPU, tx2, seed=SEED).to_json()
    _profile_wall_clocks[network] = min(walls)


@pytest.mark.parametrize("network", KERNEL_NETWORKS)
def test_kernel_backend_speedup(network, tx2):
    """Replay-on search: numba kernels >= 5x the reference backend.

    Both backends run back-to-back in this process (reference vs numba,
    min of two runs each), so the speedup is robust to the absolute
    speed of the machine.  Results must be bit-identical.
    """
    if not numba_available():
        pytest.skip("numba not installed — reference backend only")
    lut = cached_lut(network, Mode.GPGPU, tx2, seed=SEED)
    lut.indexed().engine()  # compile once, outside both timings

    def config(kernel: str) -> SearchConfig:
        return SearchConfig(
            episodes=EPISODES, seed=SEED, track_curve=False, kernel=kernel
        )

    # First numba run also warms the JIT cache, outside the timings.
    warm = QSDNNSearch(lut, config("numba")).run()
    reference = min(
        _timed(lambda: QSDNNSearch(lut, config("reference")).run())
        for _ in range(2)
    )
    compiled = min(
        _timed(lambda: QSDNNSearch(lut, config("numba")).run()) for _ in range(2)
    )
    check = QSDNNSearch(lut, config("reference")).run()
    assert check.best_ms == warm.best_ms, "backends disagree on best_ms"
    speedup = reference / compiled
    _kernel_speedup[network] = {
        "reference_wall_clock_s": reference,
        "numba_wall_clock_s": compiled,
        "speedup": speedup,
    }
    assert speedup >= KERNEL_MIN_SPEEDUP, (
        f"numba kernels on {network}: {speedup:.2f}x over reference "
        f"(need >= {KERNEL_MIN_SPEEDUP}x)"
    )


@pytest.mark.parametrize("network", MULTI_SEED_NETWORKS)
def test_multi_seed_lockstep_amortization(network, tx2):
    """K=8 lockstep seeds well under K single-seed wall clocks.

    Single and multi run back-to-back in this process, so the ratio is
    robust to the absolute speed of the machine.
    """
    lut = cached_lut(network, Mode.GPGPU, tx2, seed=SEED)
    lut.indexed().engine()  # compile once, outside both timings

    def config(seed: int) -> SearchConfig:
        return SearchConfig(
            episodes=EPISODES, seed=seed, track_curve=False,
            replay_enabled=False,
        )

    single = min(
        _timed(lambda: QSDNNSearch(lut, config(SEED)).run()) for _ in range(2)
    )
    multi = min(
        _timed(
            lambda: MultiSeedSearch(
                lut, config(SEED), seeds=seed_range(SEED, MULTI_SEED_K)
            ).run()
        )
        for _ in range(2)
    )
    ratio = multi / single
    _multi_seed[network] = {
        "seeds": MULTI_SEED_K,
        "wall_clock_s": multi,
        "single_wall_clock_s": single,
        "ratio": ratio,
    }
    assert ratio < MULTI_SEED_MAX_RATIO, (
        f"{MULTI_SEED_K} lockstep seeds on {network} took {ratio:.2f}x one "
        f"seed (limit {MULTI_SEED_MAX_RATIO}x)"
    )


@pytest.mark.parametrize("network", CHECKPOINT_NETWORKS)
def test_checkpoint_overhead_bound(network, tx2, monkeypatch):
    """Anytime checkpoint capture costs < 5% of the search wall clock.

    The capture functions (``seed_snapshot`` + ``build_checkpoint``,
    everything the anytime path adds beyond a trivial per-episode
    boundary check) are instrumented in-place and their accumulated
    time divided by the *same run's* wall clock — numerator and
    denominator share whatever contention the machine has, so the
    fraction is robust where differencing two separately-timed runs is
    not.  Results must be bit-identical either way — the capture draws
    no randomness.
    """
    from repro.core import checkpoint as ckpt_mod

    lut = cached_lut(network, Mode.GPGPU, tx2, seed=SEED)
    lut.indexed().engine()  # compile once, outside the timing

    config = SearchConfig(episodes=EPISODES, seed=SEED, track_curve=False)
    plain_result = QSDNNSearch(lut, config).run()

    capture_s: list[float] = []

    def _instrument(name):
        original = getattr(ckpt_mod, name)

        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = original(*args, **kwargs)
            capture_s.append(time.perf_counter() - started)
            return result

        monkeypatch.setattr(ckpt_mod, name, timed)

    _instrument("seed_snapshot")
    _instrument("build_checkpoint")
    wall = _timed(
        lambda: QSDNNSearch(lut, config).run(
            checkpoint_every=CHECKPOINT_EVERY,
            on_checkpoint=lambda _ckpt: True,
        )
    )
    captured = QSDNNSearch(lut, config).run(
        checkpoint_every=CHECKPOINT_EVERY, on_checkpoint=lambda _ckpt: True
    )
    assert captured.best_ms == plain_result.best_ms, (
        "checkpoint capture perturbed the search"
    )
    expected = (EPISODES // CHECKPOINT_EVERY - 1) * 2  # never after the last
    assert len(capture_s) >= expected, "instrumented capture never ran"

    ratio = 1.0 + sum(capture_s[:expected]) / (wall - sum(capture_s[:expected]))
    assert ratio <= CHECKPOINT_MAX_RATIO, (
        f"{EPISODES // CHECKPOINT_EVERY - 1} checkpoints on {network} cost "
        f"{(ratio - 1.0) * 100:.1f}% of the wall clock "
        f"(limit {(CHECKPOINT_MAX_RATIO - 1.0) * 100:.0f}%)"
    )


@pytest.mark.parametrize("network", MEGA_NETWORKS)
def test_mega_batch_thousand_seeds(network, tx2):
    """K=1000 SoA mega-batch seeds in tens-of-x one-seed wall clock.

    The mega kernel fuses the across-seed loop into one ``prange``
    dispatch per episode; a thousand lockstep seeds should amortize to
    well under a thousand single-seed runs.  Single and mega run
    back-to-back in this process (numba backend both sides), so the
    ratio is robust to the absolute speed of the machine.
    """
    if not numba_available():
        pytest.skip("numba not installed — mega path needs the JIT")
    from repro.utils.proc import peak_rss_mb

    lut = cached_lut(network, Mode.GPGPU, tx2, seed=SEED)
    lut.indexed().engine()  # compile once, outside both timings

    def config(kernel: str) -> SearchConfig:
        return SearchConfig(
            episodes=EPISODES, seed=SEED, track_curve=False,
            replay_enabled=False, kernel=kernel,
        )

    QSDNNSearch(lut, config("numba")).run()  # warm the JIT cache
    single = min(
        _timed(lambda: QSDNNSearch(lut, config("numba")).run())
        for _ in range(2)
    )
    mega = _timed(
        lambda: MultiSeedSearch(
            lut, config("mega"), seeds=seed_range(SEED, MEGA_K)
        ).run()
    )
    ratio = mega / single
    _mega_batch[network] = {
        "seeds": MEGA_K,
        "wall_clock_s": mega,
        "single_wall_clock_s": single,
        "ratio": ratio,
        "peak_rss_mb": peak_rss_mb(),
    }
    assert ratio <= MEGA_MAX_RATIO, (
        f"{MEGA_K} mega-batch seeds on {network} took {ratio:.2f}x one "
        f"seed (limit {MEGA_MAX_RATIO}x)"
    )


@pytest.mark.parametrize("network", WARM_NETWORKS)
def test_warm_start_episodes_to_match(network, tx2):
    """A stored-prior warm start matches the cold best at half budget.

    The cold run's result is written to a (in-memory) ``ResultStore``
    — the same corpus a running service mines — and a stored Q-prior
    is resolved from it, exactly the production path.  The warm run
    gets ``WARM_MAX_RATIO`` of the cold episode budget and must still
    end bitwise-equal to or better than the cold ``best_ms``.  The
    recorded ``ratio`` is episodes-to-match over the cold budget
    (curve-based when an episode rollout reaches the cold best before
    the budget runs out, the full warm budget otherwise) — a
    deterministic episode count, not a wall clock, so the regression
    gate compares it without a noise floor.
    """
    from repro.analysis.transfer import episodes_to_match
    from repro.core.priors import make_prior
    from repro.runtime.campaign import CampaignJob
    from repro.runtime.store import ResultStore

    lut = cached_lut(network, Mode.GPGPU, tx2, seed=SEED)
    cold = QSDNNSearch(
        lut, SearchConfig(episodes=EPISODES, seed=SEED)
    ).run()
    warm_budget = int(EPISODES * WARM_MAX_RATIO)
    with ResultStore() as store:  # in-memory corpus
        store.put(
            CampaignJob(
                network=network, platform=tx2.name, mode="gpgpu",
                seed=SEED, episodes=EPISODES, kind="search",
            ),
            cold,
            cold.wall_clock_s,
        )
        warm = QSDNNSearch(
            lut,
            SearchConfig(
                episodes=warm_budget, seed=SEED, warm_start="stored"
            ),
            prior=make_prior("stored", store),
        ).run()
    match = episodes_to_match(warm.curve_ms, cold.best_ms)
    if match is not None:
        ratio = match / EPISODES
    elif warm.best_ms <= cold.best_ms:  # matched via the final polish
        ratio = warm_budget / EPISODES
    else:
        ratio = float("inf")
    _warm_start[network] = {
        "kind": "stored",
        "cold_best_ms": cold.best_ms,
        "warm_best_ms": warm.best_ms,
        "cold_episodes": EPISODES,
        "warm_episodes": warm_budget,
        "episodes_to_match": match,
        "ratio": ratio,
        "wall_clock_s": warm.wall_clock_s,
    }
    assert warm.best_ms <= cold.best_ms, (
        f"warm start on {network}: {warm.best_ms}ms at {warm_budget} "
        f"episodes vs cold {cold.best_ms}ms at {EPISODES}"
    )
    assert ratio <= WARM_MAX_RATIO, (
        f"warm start on {network} needed {ratio:.2f}x the cold budget "
        f"(limit {WARM_MAX_RATIO}x)"
    )


def _timed(run) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def test_search_runtime_summary(benchmark, emit, tx2):
    from repro.utils.tables import AsciiTable

    def summarize():
        table = AsciiTable(
            [
                "network",
                "profile (s)",
                f"{EPISODES}-episode search (s)",
                "eps/s",
                "8-seed lockstep",
                f"K={MEGA_K} mega",
                "numba speedup",
            ],
            title="E7 | QS-DNN search wall-clock (paper: < 10 min)",
        )
        for network in NETWORKS:
            if network in _wall_clocks:
                sweep = _multi_seed.get(network)
                mega = _mega_batch.get(network)
                kernel = _kernel_speedup.get(network)
                profile = _profile_wall_clocks.get(network)
                table.add_row([
                    network,
                    f"{profile:.3f}" if profile is not None else "-",
                    f"{_wall_clocks[network]:.2f}",
                    f"{_episodes_per_s[network]:,.0f}",
                    f"{sweep['ratio']:.2f}x" if sweep else "-",
                    f"{mega['ratio']:.1f}x" if mega else "-",
                    f"{kernel['speedup']:.1f}x" if kernel else "-",
                ])
        return table.render()

    emit("search_runtime", benchmark.pedantic(summarize, rounds=1, iterations=1))
    # Always write the v3-schema artifact — even a run that measured
    # nothing (e.g. -k summary alone) or that only has the reference
    # backend must leave a well-formed BENCH_search.json behind, or the
    # tracking harness sees an empty trajectory and the CI artifact
    # check has nothing to validate.  Merging into any existing
    # artifact means a partial run (-k lenet5) refreshes only the
    # networks it measured instead of clobbering a complete file.
    payload = {
        "version": __version__,
        "schema_version": BENCH_SCHEMA_VERSION,
        "platform": tx2.name,
        "episodes": EPISODES,
        "seed": SEED,
        "mode": "gpgpu",
        "kernel": {
            "backend": resolve_backend("auto"),
            "numba_available": numba_available(),
            "speedup": {},
        },
        "search_wall_clock_s": {},
        "profile_wall_clock_s": {},
        "episodes_per_s": {},
        "best_ms": {},
        "multi_seed": {},
        "mega_batch": {},
        "warm_start": {},
    }
    if BENCH_JSON.exists():
        try:
            previous = json.loads(BENCH_JSON.read_text())
        except (json.JSONDecodeError, OSError):
            previous = {}
        previous_backend = previous.get("kernel", {}).get("backend", "reference")
        mergeable = (
            previous.get("version") == __version__
            and previous.get("episodes") == EPISODES
            and previous.get("seed") == SEED
            # Clocks measured on another kernel backend must not be
            # merged under this run's backend label — the regression
            # gate's comparability skip trusts that label.
            and previous_backend == payload["kernel"]["backend"]
        )
        if not mergeable and not any(
            (_wall_clocks, _profile_wall_clocks, _multi_seed,
             _kernel_speedup, _mega_batch, _warm_start)
        ):
            # Nothing measured and nothing mergeable: overwriting the
            # existing artifact would replace real data (a different
            # backend's or revision's) with an empty skeleton.
            return
        if mergeable:
            payload["search_wall_clock_s"] = dict(
                previous.get("search_wall_clock_s", {})
            )
            payload["profile_wall_clock_s"] = dict(
                previous.get("profile_wall_clock_s", {})
            )
            payload["episodes_per_s"] = dict(previous.get("episodes_per_s", {}))
            payload["best_ms"] = dict(previous.get("best_ms", {}))
            payload["multi_seed"] = dict(previous.get("multi_seed", {}))
            payload["mega_batch"] = dict(previous.get("mega_batch", {}))
            payload["warm_start"] = dict(previous.get("warm_start", {}))
            kernel_prev = previous.get("kernel", {})
            if kernel_prev.get("numba_available") == numba_available():
                payload["kernel"]["speedup"] = dict(
                    kernel_prev.get("speedup", {})
                )
    payload["search_wall_clock_s"].update(_wall_clocks)
    payload["profile_wall_clock_s"].update(_profile_wall_clocks)
    payload["episodes_per_s"].update(_episodes_per_s)
    payload["best_ms"].update(_best_ms)
    payload["multi_seed"].update(_multi_seed)
    payload["mega_batch"].update(_mega_batch)
    payload["warm_start"].update(_warm_start)
    payload["kernel"]["speedup"].update(_kernel_speedup)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
