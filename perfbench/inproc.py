"""The two in-process workloads: ``search_cached`` and ``profile_cold``.

Both are closed loops in one process: the next job starts when the
previous one returns.  A *pass* is the workload's fixed job list; a run
repeats whole passes until ``--seconds`` is spent, so every pass does
the same deterministic work and the pass count is the only thing the
run length changes.  A calibration sample is taken before every job and
after the last (:func:`benchstats.calibrate`); the pass's job walls are
scaled to the reference host speed by the median of those samples.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchstats
import spans

#: search_cached: the networks and modes of the single-seed search jobs.
SEARCH_NETWORKS = ("resnet50", "googlenet", "mobilenet_v1", "squeezenet_v1.1")
MODES = ("cpu", "gpgpu")
#: Multi-seed jobs (K seeds, replay on, default kernel) on this network
#: carry about half of a pass's seed-episodes.
MULTI_SEED_NETWORK = "squeezenet_v1.1"
MULTI_SEED_K = 8
#: profile_cold: the paper's short-time budget (the Fig. 5 regime).
COLD_EPISODES = 100
#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
#: Calibration samples taken before and after each set-up.
SETUP_CAL_SAMPLES = 5
#: Relative tolerance of the dict-walk re-pricing check.
REPRICE_RTOL = 1e-9
#: The program's sources in the checkout the benchmark runs from.
SRC = Path(__file__).resolve().parent.parent / "src"


def program_env() -> dict:
    """The environment program processes run with (``src`` importable)."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_program() -> None:
    """Import the program's runtime in a fresh interpreter: the import
    share of every set-up (interpreter start-up included), paid again on
    each repetition instead of once per run."""
    subprocess.run(
        [sys.executable, "-c", "import repro.runtime.campaign, repro.runtime.service"],
        env=program_env(), check=True,
    )


def search_cached_jobs(seed: int) -> list:
    """One pass of search_cached: 8 auto-budget searches on the
    reference kernel plus two K=8 multi-seed sweeps that reuse the
    squeezenet LUTs (same job seed, so the same LUT key)."""
    from repro.runtime.campaign import CampaignJob

    rng = random.Random(seed)
    seeds = {(n, m): rng.randrange(1, 1 << 20) for n in SEARCH_NETWORKS for m in MODES}
    jobs = [
        CampaignJob(network=n, mode=m, seed=seeds[n, m], kind="search", kernel="reference")
        for n in SEARCH_NETWORKS
        for m in MODES
    ]
    jobs += [
        CampaignJob(
            network=MULTI_SEED_NETWORK,
            mode=m,
            seed=seeds[MULTI_SEED_NETWORK, m],
            kind="multi-seed",
            seeds=MULTI_SEED_K,
        )
        for m in MODES
    ]
    return jobs


def profile_cold_jobs(seed: int) -> list:
    """One pass of profile_cold: every zoo network in both modes at
    the short-time budget, profiled from scratch (no LUT cache)."""
    from repro.runtime.campaign import CampaignJob
    from repro.zoo import available_networks

    job_seed = random.Random(seed).randrange(1, 1 << 20)
    return [
        CampaignJob(
            network=n, mode=m, seed=job_seed, kind="search",
            episodes=COLD_EPISODES, kernel="reference",
        )
        for n in available_networks()
        for m in MODES
    ]


def search_members(payload) -> list:
    """The SearchResults a job payload carries (one, or one per seed)."""
    return list(getattr(payload, "results", None) or [payload])


def episodes_of(payload) -> int:
    """Seed-episodes a job payload ran."""
    return sum(r.episodes for r in search_members(payload))


class OutputChecker:
    """The output checks of one job result against its LUT.

    * ``best_assignments`` re-priced by ``LatencyTable.schedule_time``
      (the dict-walk pricer, independent of ``CostEngine``) agrees with
      ``best_ms`` to ``REPRICE_RTOL``;
    * the schedule passes ``NetworkSchedule.validate``;
    * on chain networks ``best_ms`` is no lower than ``chain_dp``'s
      optimum (the exact oracle).
    """

    def __init__(self) -> None:
        self._context: dict = {}
        self._optimum: dict = {}

    def _graph_space(self, job):
        key = (job.network, job.platform, job.mode)
        if key not in self._context:
            from repro.backends.registry import DesignSpace, Mode
            from repro.runtime.campaign import PLATFORM_FACTORIES
            from repro.zoo import build_network

            platform = PLATFORM_FACTORIES[job.platform]()
            self._context[key] = (
                build_network(job.network),
                DesignSpace(Mode(job.mode), platform),
            )
        return self._context[key]

    def chain_optimum(self, job, lut) -> float | None:
        """``chain_dp``'s optimum for the job's LUT, or None off chains."""
        from repro.baselines import chain_dp, is_chain
        from repro.runtime.lutcache import LutKey

        key = LutKey.from_job(job)
        if key not in self._optimum:
            self._optimum[key] = chain_dp(lut).best_ms if is_chain(lut) else None
        return self._optimum[key]

    def failures(self, job, payload, lut) -> list[str]:
        """The names of the checks the payload fails (empty when all pass)."""
        from repro.errors import ReproError

        graph, space = self._graph_space(job)
        optimum = self.chain_optimum(job, lut)
        out = []
        for result in search_members(payload):
            repriced = lut.schedule_time(result.best_assignments)
            if abs(repriced - result.best_ms) > REPRICE_RTOL * abs(result.best_ms):
                out.append("reprice_mismatch")
            try:
                result.schedule().validate(graph, space)
            except ReproError:
                out.append("invalid_schedule")
            if optimum is not None and result.best_ms < optimum * (1 - REPRICE_RTOL):
                out.append("below_chain_dp")
        return out


def _best_ms(payload) -> float:
    return min(r.best_ms for r in search_members(payload))


class InProcessWorkload:
    """Shared driver: set-up, timed passes, checks, traced passes."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.jobs = self.make_jobs(seed)
        self.cache_dir: Path | None = None
        self.checker = OutputChecker()
        self.errors = benchstats.ErrorTally()
        #: job index -> best_ms of its first run (later passes must match).
        self.first_best: dict[int, float] = {}

    # -- hooks -----------------------------------------------------------
    def make_jobs(self, seed: int) -> list:
        """The pass's job list for a workload seed."""
        raise NotImplementedError

    def set_up_once(self, rep: int) -> None:
        """One set-up; ``rep`` numbers the repetition."""
        raise NotImplementedError

    def lut_for(self, job):
        """The LUT a job ran against, for the output checks."""
        raise NotImplementedError

    # -- driver ----------------------------------------------------------
    def set_up(self) -> list[tuple[float, float]]:
        """Set up ``SETUP_REPEATS`` times; returns each set-up's
        ``(wall, host scale)``."""
        times = []
        for rep in range(SETUP_REPEATS):
            cals = [benchstats.calibrate() for _ in range(SETUP_CAL_SAMPLES)]
            started = time.perf_counter()
            import_program()
            self.set_up_once(rep)
            wall = time.perf_counter() - started
            cals += [benchstats.calibrate() for _ in range(SETUP_CAL_SAMPLES)]
            times.append((wall, benchstats.host_scale(cals)))
        return times

    def run_pass(self) -> dict:
        """One closed-loop pass: per-job walls, the pass's host scale and
        its seed-episodes."""
        from repro.runtime import campaign

        walls, cals, episodes, results = [], [], 0, []
        for job in self.jobs:
            cals.append(benchstats.calibrate())
            t0 = time.perf_counter()
            try:
                result = campaign.execute_job(job, self.cache_dir)
            except Exception as error:  # a failed job is counted, not fatal
                result = error
            walls.append(time.perf_counter() - t0)
            results.append(result)
            if not isinstance(result, Exception):
                episodes += episodes_of(result.payload)
        cals.append(benchstats.calibrate())
        self.check_pass(results)
        return {"walls": walls, "scale": benchstats.host_scale(cals), "episodes": episodes}

    def check_pass(self, results: list) -> None:
        """Count every job of a pass as a success or a failure."""
        for index, (job, result) in enumerate(zip(self.jobs, results)):
            if isinstance(result, Exception):
                self.errors.fail(f"exception_{type(result).__name__}")
                continue
            best = _best_ms(result.payload)
            if index in self.first_best:
                # A repeat of a checked job must reproduce it bitwise.
                if best != self.first_best[index]:
                    self.errors.fail("not_bitwise_repeatable")
                else:
                    self.errors.ok()
                continue
            problems = self.checker.failures(job, result.payload, self.lut_for(job))
            if problems:
                self.errors.fail(problems[0])
            else:
                self.errors.ok()
            self.first_best[index] = best

    def run_passes(self, seconds: float, min_passes: int = 1) -> list[dict]:
        """Whole passes (at least ``min_passes``) while at least half of
        the next one fits in ``seconds``; a run overruns by at most half
        a pass."""
        passes = []
        started = time.perf_counter()
        last = 0.0
        while len(passes) < min_passes or time.perf_counter() - started + last / 2 < seconds:
            t0 = time.perf_counter()
            passes.append(self.run_pass())
            last = time.perf_counter() - t0
        return passes

    def measure(self, seconds: float) -> dict:
        """The untraced run's end-to-end metrics, in reference-host
        seconds (each job wall times its pass's host scale)."""
        passes = self.run_passes(seconds, min_passes=2)
        raw = [w for p in passes for w in p["walls"]]
        scaled = [w * p["scale"] for p in passes for w in p["walls"]]
        p50 = benchstats.hd_median(scaled)
        if p50 is None:
            raise RuntimeError(f"too few jobs ({len(scaled)}) for a supported median")
        episodes = sum(p["episodes"] for p in passes)
        return {
            "metrics": {
                "jobs_per_s": len(scaled) / sum(scaled),
                "job_p50_s": p50,
                "best_ms_geomean": benchstats.geomean(self.first_best.values()),
            },
            "extra": {
                "episodes_per_s": episodes / sum(scaled),
                "passes": len(passes),
                "jobs": len(scaled),
                "host_scale_each_pass": [p["scale"] for p in passes],
                "raw_pass_walls_s": [sum(p["walls"]) for p in passes],
                "raw_jobs_per_s": len(raw) / sum(raw),
                "raw_job_p50_s": benchstats.hd_median(raw),
            },
        }

    def measure_traced(self, seconds: float) -> dict:
        """Half the time untraced, half traced, on the same passes;
        pass walls are in reference-host seconds."""
        untraced = self.run_passes(seconds / 2)
        tracer = spans.Tracer()
        shims = spans.install_layer_shims(tracer)
        try:
            traced = self.run_passes(seconds / 2)
        finally:
            shims.remove()
        passes = len(traced)
        untraced_pass = statistics.fmean(sum(p["walls"]) * p["scale"] for p in untraced)
        traced_raw = statistics.fmean(sum(p["walls"]) for p in traced)
        traced_pass = statistics.fmean(sum(p["walls"]) * p["scale"] for p in traced)
        # Span times are raw; the traced passes' wall-weighted host scale
        # puts them in reference-host seconds like the pass walls.
        scale = traced_pass / traced_raw
        layers = {
            name: value / passes * (scale if name.endswith("_s") else 1.0)
            for name, value in spans.layer_metrics(tracer).items()
        }
        layers["trace.overhead_share"] = traced_pass / untraced_pass - 1
        # Self times add up to the root spans by construction, so the
        # job root's own self time (work in no named layer) is left out:
        # this is the share of the traced wall the named layers explain.
        named = tracer.stage_sum_s() - tracer.self_s.get("runtime.execute_job", 0.0)
        layers["trace.accounted_share"] = named / passes / traced_raw
        layers["core.multi_seed_ratio"] = self.multi_seed_ratio(untraced)
        return {
            "metrics": layers,
            "extra": {
                "untraced_passes": len(untraced),
                "traced_passes": passes,
                "untraced_pass_s": untraced_pass,
                "traced_pass_s": traced_pass,
                "named_layers_per_pass_s": named / passes * scale,
            },
        }

    def multi_seed_ratio(self, untraced: list[dict]) -> float:
        """Wall of each multi-seed job over the single-seed search job on
        the same LUT and budget, from the untraced passes (mean ratio)."""
        ratios = []
        for i, job in enumerate(self.jobs):
            if job.kind != "multi-seed":
                continue
            twin = next(
                j for j, other in enumerate(self.jobs)
                if other.kind == "search" and (other.network, other.mode, other.seed)
                == (job.network, job.mode, job.seed)
            )
            multi = sum(p["walls"][i] for p in untraced)
            single = sum(p["walls"][twin] for p in untraced)
            ratios.append(multi / single)
        return statistics.fmean(ratios) if ratios else 0.0


class SearchCached(InProcessWorkload):
    """Every job a LUT-memo hit: the search core does the work."""

    name = "search_cached"

    def make_jobs(self, seed: int) -> list:
        """The search_cached job list."""
        return search_cached_jobs(seed)

    def set_up_once(self, rep: int) -> None:
        """LUT-cache prewarm: resolve (profile and write through) every
        LUT of the pass into a fresh cache tier, and build each LUT's
        pricing engine, so every timed job is a memo hit."""
        from repro.runtime.campaign import load_or_profile_lut

        self.cache_dir = self.workdir / f"lutcache-{rep}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        for job in self.jobs:
            lut, _ = load_or_profile_lut(job, self.cache_dir)
            lut.engine()

    def lut_for(self, job):
        """The memoized LUT (a memo hit, no profiling)."""
        from repro.runtime.campaign import load_or_profile_lut

        return load_or_profile_lut(job, self.cache_dir)[0]


class ProfileCold(InProcessWorkload):
    """No LUT cache: profiling does most of the work."""

    name = "profile_cold"

    def make_jobs(self, seed: int) -> list:
        """The profile_cold job list."""
        return profile_cold_jobs(seed)

    def set_up_once(self, rep: int) -> None:
        """A warm-up job on the smallest network loads every lazily
        imported module the pass uses; nothing is cached."""
        from repro.runtime.campaign import CampaignJob, execute_job

        execute_job(CampaignJob(network="fig1_toy", seed=rep, kind="search",
                                episodes=COLD_EPISODES, kernel="reference"))

    def lut_for(self, job):
        """A fresh profile of the job's LUT (deterministic per seed)."""
        from repro.runtime.campaign import profile_lut

        return profile_lut(job)


WORKLOADS = {w.name: w for w in (SearchCached, ProfileCold)}


def peak_rss_mb() -> float:
    """VmHWM of this process, in MB."""
    return vm_hwm_mb("self")


def vm_hwm_mb(pid) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return math.nan
