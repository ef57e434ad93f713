#!/usr/bin/env python
"""Fail CI when the search benchmark regresses against the committed baseline.

Compares the freshly generated ``BENCH_search.json`` against the
baseline committed in the repository (snapshotted before the bench
runs) and exits non-zero if any ``search_wall_clock_s`` or
``profile_wall_clock_s`` entry got more than ``--threshold`` times
slower, or any ``multi_seed`` amortization ``ratio`` grew by more than
the same factor.  Profile wall clocks are gated only when the baseline
has them (schema >= 6).  Entries measured below
``--min-seconds`` on both sides are ignored (for ratios: the
underlying multi-seed wall clocks): at sub-50ms scales shared CI
runners produce ratios that say more about the neighbor's workload
than about this commit.

Usage (mirrors the CI step)::

    python scripts/check_bench_regression.py \
        --baseline BENCH_baseline.json --current BENCH_search.json

Dry-run the gate locally by injecting a slowdown into a copy of the
artifact (doubling every wall clock must exit 1)::

    python scripts/check_bench_regression.py \
        --baseline BENCH_search.json --current /tmp/slowed.json

Service data-plane artifacts (``BENCH_service.json``, carrying
``"kind": "service_throughput"``) are detected automatically and gated
on per-mode ``jobs_per_s`` instead of wall clocks, plus a hard floor
on the batched-over-legacy fleet speedup (``--min-speedup``)::

    python scripts/check_bench_regression.py \
        --baseline BENCH_service_baseline.json \
        --current BENCH_service.json --min-speedup 2.5
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 1.5
DEFAULT_MIN_SECONDS = 0.05
#: Hard floor on the batched-over-legacy fleet speedup of a service
#: artifact — the tentpole claim the data plane must keep proving.
#: Deliberately below the committed artifact's margin: this gate
#: catches "the batching stopped working", not CI-runner noise.
DEFAULT_MIN_SPEEDUP = 2.0


def load_payload(path: Path) -> dict:
    """One bench artifact, parsed."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"cannot read bench artifact {path}: {error}")


def wall_clocks_of(payload: dict, path: Path) -> dict[str, float]:
    """The ``search_wall_clock_s`` mapping of one bench artifact."""
    clocks = payload.get("search_wall_clock_s")
    if not isinstance(clocks, dict) or not clocks:
        raise SystemExit(f"{path} has no search_wall_clock_s entries")
    return {str(key): float(value) for key, value in clocks.items()}


def load_wall_clocks(path: Path) -> dict[str, float]:
    """The ``search_wall_clock_s`` mapping, straight from disk."""
    return wall_clocks_of(load_payload(path), path)


def profile_clocks_of(payload: dict) -> dict[str, float]:
    """The ``profile_wall_clock_s`` mapping; empty when the artifact
    predates it (schema < 6), so such a baseline gates nothing."""
    clocks = payload.get("profile_wall_clock_s")
    if not isinstance(clocks, dict):
        return {}
    return {str(key): float(value) for key, value in clocks.items()}


def backend_of(payload: dict) -> str:
    """The kernel backend an artifact was measured with ("reference"
    for pre-kernel schemas, which had no other backend)."""
    kernel = payload.get("kernel")
    if isinstance(kernel, dict):
        return str(kernel.get("backend", "reference"))
    return "reference"


def ratio_section_of(payload: dict, section: str) -> dict[str, dict[str, float]]:
    """One ratio-bearing section (``multi_seed`` or ``mega_batch``);
    empty when the artifact lacks it — older schemas or partial runs
    are not gated on ratios."""
    entries = payload.get(section)
    if not isinstance(entries, dict):
        return {}
    return {
        str(network): entry
        for network, entry in entries.items()
        if isinstance(entry, dict) and "ratio" in entry
    }


def multi_seed_of(payload: dict) -> dict[str, dict[str, float]]:
    """The ``multi_seed`` entries (back-compat spelling)."""
    return ratio_section_of(payload, "multi_seed")


def check(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float,
    min_seconds: float,
) -> list[str]:
    """Human-readable regression lines (empty means the gate passes)."""
    failures = []
    for network in sorted(set(baseline) & set(current)):
        base = baseline[network]
        now = current[network]
        if base < min_seconds and now < min_seconds:
            continue
        ratio = now / base if base > 0 else float("inf")
        if ratio > threshold:
            detail = f"{base:.3f}s -> {now:.3f}s ({ratio:.2f}x > {threshold}x)"
            failures.append(f"{network}: {detail}")
    return failures


def check_ratios(
    baseline: dict[str, dict[str, float]],
    current: dict[str, dict[str, float]],
    threshold: float,
    min_seconds: float,
    section: str = "multi_seed",
) -> list[str]:
    """Regression lines for one section's amortization ratios
    (``multi_seed`` K=8 lockstep, ``mega_batch`` K=1000 SoA).

    A ratio entry is skipped under the same noise floor as the wall
    clocks, judged on the batch wall clocks behind the ratio.
    """
    failures = []
    for network in sorted(set(baseline) & set(current)):
        base = baseline[network]
        now = current[network]
        base_wall = float(base.get("wall_clock_s", 0.0))
        now_wall = float(now.get("wall_clock_s", 0.0))
        if base_wall < min_seconds and now_wall < min_seconds:
            continue
        base_ratio = float(base["ratio"])
        now_ratio = float(now["ratio"])
        growth = now_ratio / base_ratio if base_ratio > 0 else float("inf")
        if growth > threshold:
            detail = (
                f"ratio {base_ratio:.2f}x -> {now_ratio:.2f}x "
                f"({growth:.2f}x > {threshold}x)"
            )
            failures.append(f"{network} [{section}]: {detail}")
    return failures


def jobs_per_s_of(payload: dict, path: Path) -> dict[str, float]:
    """Per-mode ``jobs_per_s`` of one service-throughput artifact."""
    modes = payload.get("modes")
    if not isinstance(modes, dict) or not modes:
        raise SystemExit(f"{path} has no service modes to compare")
    clocks = {}
    for name, entry in modes.items():
        if isinstance(entry, dict) and "jobs_per_s" in entry:
            clocks[str(name)] = float(entry["jobs_per_s"])
    if not clocks:
        raise SystemExit(f"{path} has no jobs_per_s entries")
    return clocks


def check_service(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float,
) -> list[str]:
    """Regression lines for per-mode service throughput (jobs/s went
    *down* by more than ``threshold``)."""
    failures = []
    for mode in sorted(set(baseline) & set(current)):
        base = baseline[mode]
        now = current[mode]
        slowdown = base / now if now > 0 else float("inf")
        if slowdown > threshold:
            detail = (
                f"{base:.0f} jobs/s -> {now:.0f} jobs/s "
                f"({slowdown:.2f}x slower > {threshold}x)"
            )
            failures.append(f"{mode}: {detail}")
    return failures


def _gate_service(args, base_payload: dict, cur_payload: dict) -> int:
    """The service-throughput arm of the gate (auto-dispatched)."""
    if base_payload.get("kind") != cur_payload.get("kind"):
        print(
            "bench-regression gate FAILED: baseline "
            f"{args.baseline} and current {args.current} are different "
            "artifact kinds"
        )
        return 1
    baseline = jobs_per_s_of(base_payload, args.baseline)
    current = jobs_per_s_of(cur_payload, args.current)
    compared = sorted(set(baseline) & set(current))
    if not compared:
        print("bench-regression gate: no overlapping service modes to compare")
        return 1
    for mode in compared:
        print(
            f"  {mode}: baseline {baseline[mode]:.0f} jobs/s, "
            f"current {current[mode]:.0f} jobs/s"
        )
    failures = check_service(baseline, current, args.threshold)
    speedup = cur_payload.get("speedup", {})
    fleet = float(speedup.get("fleet", 0.0)) if isinstance(speedup, dict) else 0.0
    print(f"  fleet speedup (batched vs legacy): {fleet:.2f}x")
    if fleet < args.min_speedup:
        failures.append(
            f"fleet speedup {fleet:.2f}x below the {args.min_speedup}x floor"
        )
    if failures:
        print("bench-regression gate FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        f"bench-regression gate passed: {len(compared)} service mode(s) "
        f"within {args.threshold}x, fleet speedup >= {args.min_speedup}x"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("BENCH_baseline.json"),
        help="bench artifact of the previous revision (committed baseline)",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=Path("BENCH_search.json"),
        help="bench artifact of this revision",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fail when current/baseline exceeds this factor",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="skip entries below this wall clock on both sides",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=DEFAULT_MIN_SPEEDUP,
        help=(
            "service artifacts only: fail when the current batched-fleet "
            "speedup over legacy falls below this factor"
        ),
    )
    args = parser.parse_args(argv)

    # A missing artifact must fail with marching orders, not pass
    # silently (an empty gate run looks exactly like a healthy one in
    # CI logs) and not with a bare stack trace.
    if not args.baseline.exists():
        print(
            f"bench-regression gate FAILED: baseline artifact "
            f"{args.baseline} does not exist.\n"
            "  The committed BENCH_search.json is the baseline; CI "
            "snapshots it before the bench runs.\n"
            "  To (re)create it: PYTHONPATH=src python -m pytest "
            "benchmarks/bench_search_runtime.py -q\n"
            "  then commit the refreshed BENCH_search.json."
        )
        return 1
    if not args.current.exists():
        print(
            f"bench-regression gate FAILED: current artifact "
            f"{args.current} does not exist.\n"
            "  The bench smoke must run first (it always writes the "
            "v3 schema file, even when nothing was measured):\n"
            "  PYTHONPATH=src python -m pytest "
            "benchmarks/bench_search_runtime.py -q -k summary"
        )
        return 1
    base_payload = load_payload(args.baseline)
    cur_payload = load_payload(args.current)
    if "service_throughput" in (
        base_payload.get("kind"),
        cur_payload.get("kind"),
    ):
        return _gate_service(args, base_payload, cur_payload)
    base_backend = backend_of(base_payload)
    cur_backend = backend_of(cur_payload)
    if base_backend != cur_backend:
        # Wall clocks (and the ratios derived from them) are only
        # comparable within one kernel backend; a numba run against a
        # reference baseline would pass vacuously, and the reverse
        # would fail spuriously.  The numba-vs-reference bar lives in
        # the bench itself (kernel speedup >= 5x).
        print(
            "bench-regression gate skipped: baseline measured on "
            f"{base_backend!r} kernels, current on {cur_backend!r} — "
            "not comparable"
        )
        return 0
    baseline = wall_clocks_of(base_payload, args.baseline)
    current = wall_clocks_of(cur_payload, args.current)
    compared = sorted(set(baseline) & set(current))
    if not compared:
        print("bench-regression gate: no overlapping networks to compare")
        return 1
    for network in compared:
        base = baseline[network]
        now = current[network]
        ratio = now / base if base > 0 else float("inf")
        print(f"  {network}: baseline {base:.3f}s, current {now:.3f}s ({ratio:.2f}x)")
    failures = check(baseline, current, args.threshold, args.min_seconds)

    base_profile = profile_clocks_of(base_payload)
    cur_profile = profile_clocks_of(cur_payload)
    if not base_profile:
        print("  profile_wall_clock_s: not in the baseline, not gated")
    for network in sorted(set(base_profile) & set(cur_profile)):
        print(
            f"  {network} [profile]: baseline {base_profile[network]:.3f}s, "
            f"current {cur_profile[network]:.3f}s"
        )
    failures += [
        f"{line} [profile]"
        for line in check(base_profile, cur_profile, args.threshold, args.min_seconds)
    ]

    ratio_count = 0
    for section in ("multi_seed", "mega_batch", "warm_start"):
        base_ms = ratio_section_of(base_payload, section)
        cur_ms = ratio_section_of(cur_payload, section)
        overlap = sorted(set(base_ms) & set(cur_ms))
        ratio_count += len(overlap)
        for network in overlap:
            print(
                f"  {network} [{section}]: "
                f"baseline {base_ms[network]['ratio']:.2f}x, "
                f"current {cur_ms[network]['ratio']:.2f}x"
            )
        # warm_start ratios are episode counts over a fixed budget —
        # deterministic, machine-independent — so no noise floor: any
        # growth past the threshold is a real transfer regression.
        floor = 0.0 if section == "warm_start" else args.min_seconds
        failures += check_ratios(
            base_ms, cur_ms, args.threshold, floor, section
        )

    if failures:
        print("bench-regression gate FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    count = len(compared)
    print(
        f"bench-regression gate passed: {count} network(s) and "
        f"{ratio_count} amortization ratio(s) within {args.threshold}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
