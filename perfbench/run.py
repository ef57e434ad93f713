"""The repo benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload search_cached --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` installs timing shims and
prints every per-layer metric.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inproc import SRC, program_env  # noqa: E402

WORKLOADS = ("search_cached", "profile_cold", "service_flood", "fleet_mixed")


def parse_args(argv=None) -> argparse.Namespace:
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_units() -> tuple[dict, dict]:
    """``({end_to_end name: unit}, {per_layer name: unit})``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def source_digest() -> str:
    """sha256 over the program's sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """The checkout's git commit, or ``unknown`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    """The environment stamp printed with every result."""
    import numpy

    from repro.core.kernels import numba_available, resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "kernel_backend": resolve_backend("auto"),
        "numba_available": numba_available(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def scaled_setup_s(setups) -> float:
    """Median set-up, each in reference-host seconds."""
    return statistics.median(wall * scale for wall, scale in setups)


def setups_detail(setups) -> list[dict]:
    """Each set-up's raw wall and host scale, for ``details``."""
    return [{"raw_s": wall, "host_scale": scale} for wall, scale in setups]


def run_inproc(args, workdir: Path) -> dict:
    """Set up and measure one in-process workload."""
    import inproc

    workload = inproc.WORKLOADS[args.workload](args.seed, workdir)
    setups = workload.set_up()
    if args.trace:
        measured = workload.measure_traced(args.seconds)
        metrics = measured["metrics"]
    else:
        measured = workload.measure(args.seconds)
        metrics = {
            "setup_s": scaled_setup_s(setups),
            **measured["metrics"],
            "peak_rss_mb": inproc.peak_rss_mb(),
        }
    return {
        "metrics": metrics,
        "tally": workload.errors,
        "details": {
            "setup_each": setups_detail(setups),
            "jobs_per_pass": len(workload.jobs),
            "failures": workload.errors.reasons,
            **measured["extra"],
        },
    }


def run_service(args, workdir: Path) -> dict:
    """Deploy, drive and measure one service workload."""
    import benchstats
    import servicebench as sb

    profile = sb.FLOOD if args.workload == "service_flood" else sb.FLEET
    workload = sb.ServiceWorkload(profile, args.seed, workdir, program_env(), args.seconds,
                                  baseline=bool(args.trace))
    scrapes = []
    try:
        setups = workload.set_up()
        port = workload.deployment.port
        window = []

        def before_measured():
            window.append(time.perf_counter())
            if args.trace:
                scrapes.append(sb.scrape(port))

        phases = workload.run_phases(before_measured)
        window_s = time.perf_counter() - window[0]
        if args.trace:
            scrapes.append(sb.scrape(port))
        rss = workload.deployment.peak_rss_mb()
        flags = {
            "serve": workload.deployment.serve_args,
            "work": workload.deployment.work_args,
        }
    finally:
        stopping = time.perf_counter()
        worker_stats = workload.stop()
        stop_s = time.perf_counter() - stopping
    tally = benchstats.ErrorTally()
    tally.merge(workload.setup_tally)
    for group in phases.values():
        for phase in group:
            tally.merge(phase["tally"])
    if args.trace:
        workers = profile.fleet_workers or profile.pool_workers
        metrics = sb.layer_metrics(phases, *scrapes, worker_stats, window_s, workers,
                                   profile.tail_limit_s)
        # Nothing is shimmed in the service processes, so this compares
        # the measured low chunks with the baseline chunk before them:
        # a phase-to-phase noise figure, not a cost of tracing.
        metrics["trace.overhead_share"] = (
            metrics["e2e.p50_s.low"]
            / benchstats.hd_median(sb.pooled(phases["baseline"], "latencies")) - 1
        )
    else:
        metrics = {
            "setup_s": scaled_setup_s(setups),
            **sb.end_to_end(phases),
            "peak_rss_mb": rss,
        }
    return {
        "metrics": metrics,
        "tally": tally,
        "details": {
            "setup_each": setups_detail(setups),
            "phases_s": window_s,
            "stop_s": stop_s,
            "flags": flags,
            "tail_limit_s": profile.tail_limit_s,
            "tail_percentile": sb.TAIL_Q,
            "gen_lag_bound_s": sb.GEN_LAG_BOUND_S,
            "connections": sb.CONNECTIONS,
            "phases": {
                name: [sb.phase_summary(p) for p in group] for name, group in phases.items()
            },
            "rungs": {
                name: sb.rung_verdict(phases[name], profile.tail_limit_s)
                for name in ("low", "high")
            },
            "worker_stats": worker_stats,
            "raw_jobs_per_s": statistics.fmean(p["steady_per_s"] for p in phases["saturation"]),
            "failures": tally.reasons,
        },
    }


def main(argv=None) -> int:
    """Run one workload and print its result; 2 without program sources."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    end_units, layer_units = metric_units()
    sys.path.insert(0, str(SRC))
    stamp = environment(args)
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload in ("search_cached", "profile_cold"):
            result = run_inproc(args, workdir)
        else:
            result = run_service(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    units = layer_units if args.trace else end_units
    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics)) if not args.trace else []
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    tally = result["tally"]
    print("environment: " + json.dumps(stamp))
    print("details: " + json.dumps(result["details"], default=str))
    for name, unit in units.items():
        print(f"{name} = {metrics.get(name, 0.0):.6g} {unit}")
    print(f"attempted = {tally.attempted}, failed = {tally.failed}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
