#!/usr/bin/env python
"""Validate the schema of a freshly generated bench artifact.

The bench smoke writes ``BENCH_search.json``; this gate asserts the
artifact still carries everything downstream consumers rely on — the
regression gate (wall clocks, ratio sections), the uploaded artifact's
human readers (platform, kernel section) and the numba CI leg's proof
obligations (recorded speedups, a mega-batch run).  It replaces an
inline heredoc that used to live in ``.github/workflows/ci.yml``, so
the assertions are unit-testable (``tests/test_check_bench_artifact.py``)
instead of only failing in CI.

The same gate also understands the service data-plane artifact
(``BENCH_service.json``, written by ``bench_service_throughput.py``):
artifacts carrying ``"kind": "service_throughput"`` are dispatched to
:func:`check_service_artifact` automatically.

Usage (mirrors the CI steps)::

    python scripts/check_bench_artifact.py BENCH_search.json
    python scripts/check_bench_artifact.py BENCH_service.json

Exits non-zero with one line per violation; prints the artifact when
``--print`` is given (the CI step does, for the build log).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Oldest artifact schema the gate accepts (schema 4 added the kernel
#: section and the mega_batch ratios).
MIN_SCHEMA_VERSION = 4

#: Schema that introduced the ``warm_start`` section; older artifacts
#: are not required to carry it.
WARM_SCHEMA_VERSION = 5

#: Schema that introduced the ``profile_wall_clock_s`` section (the
#: cold inference-phase wall per network); older artifacts are not
#: required to carry it.
PROFILE_SCHEMA_VERSION = 6

#: Fraction of the cold episode budget a warm-started run may spend to
#: match the cold best (the warm-start subsystem's acceptance bar).
WARM_MAX_RATIO = 0.5

#: Networks the warm-start claim must cover, at minimum.
WARM_MIN_NETWORKS = 2

#: Prior kinds a warm-start entry may report.
KNOWN_PRIOR_KINDS = ("stored", "surrogate")

#: Kernel backends an artifact may legitimately report.
KNOWN_BACKENDS = ("numba", "reference")

#: Oldest service-throughput artifact schema the gate accepts.
SERVICE_MIN_SCHEMA_VERSION = 1

#: Modes every service-throughput artifact must have measured.
SERVICE_MODES = ("local", "fleet_legacy", "fleet_batched")


def _check_warm_entry(name: str, entry) -> list[str]:
    """Violations in one network row of the ``warm_start`` section."""
    if not isinstance(entry, dict):
        return [f"warm_start.{name} must be an object"]
    problems: list[str] = []
    if entry.get("kind") not in KNOWN_PRIOR_KINDS:
        problems.append(
            f"warm_start.{name}.kind {entry.get('kind')!r} not one of "
            f"{list(KNOWN_PRIOR_KINDS)}"
        )
    for field in ("cold_best_ms", "warm_best_ms"):
        if not isinstance(entry.get(field), (int, float)):
            problems.append(f"warm_start.{name}.{field} must be a number")
    for field in ("cold_episodes", "warm_episodes"):
        if not isinstance(entry.get(field), int) or entry.get(field, 0) < 1:
            problems.append(
                f"warm_start.{name}.{field} must be a positive int"
            )
    ratio = entry.get("ratio")
    if not isinstance(ratio, (int, float)) or not ratio <= WARM_MAX_RATIO:
        # The acceptance bar itself: a warm run that needed more than
        # half the cold budget (ratio > 0.5, including the inf a
        # never-matching run records) fails the artifact, not just the
        # bench assert — regenerating the artifact on a machine where
        # the bench was skipped must not launder the claim away.
        problems.append(
            f"warm_start.{name}.ratio must be a number <= "
            f"{WARM_MAX_RATIO}, got {ratio!r}"
        )
    cold = entry.get("cold_best_ms")
    warm = entry.get("warm_best_ms")
    if (
        isinstance(cold, (int, float))
        and isinstance(warm, (int, float))
        and warm > cold
    ):
        problems.append(
            f"warm_start.{name}: warm_best_ms {warm} worse than "
            f"cold_best_ms {cold}"
        )
    return problems


def _check_profile_clocks(clocks) -> list[str]:
    """Violations in the ``profile_wall_clock_s`` section."""
    if not isinstance(clocks, dict) or not clocks:
        return ["no profile wall clocks recorded (profile_wall_clock_s)"]
    return [
        f"profile_wall_clock_s.{name} must be a positive number"
        for name in sorted(clocks)
        if not isinstance(clocks[name], (int, float)) or not clocks[name] > 0
    ]


def check_artifact(payload: dict) -> list[str]:
    """Every schema violation in one parsed artifact (empty = valid)."""
    problems: list[str] = []
    if not payload.get("search_wall_clock_s"):
        problems.append("no wall clocks recorded (search_wall_clock_s)")
    if payload.get("schema_version", 0) < MIN_SCHEMA_VERSION:
        problems.append(
            f"bench schema too old: need >= {MIN_SCHEMA_VERSION}, got "
            f"{payload.get('schema_version', 0)}"
        )
    if not payload.get("platform"):
        problems.append("bench artifact missing platform")
    if "multi_seed" not in payload:
        problems.append("bench artifact missing multi_seed")
    if "mega_batch" not in payload:
        problems.append("bench artifact missing mega_batch")
    if not payload.get("episodes_per_s"):
        problems.append("no episode throughput recorded (episodes_per_s)")
    if payload.get("schema_version", 0) >= WARM_SCHEMA_VERSION:
        warm = payload.get("warm_start")
        if not isinstance(warm, dict):
            problems.append("bench artifact missing warm_start")
        elif len(warm) < WARM_MIN_NETWORKS:
            problems.append(
                f"warm_start must cover >= {WARM_MIN_NETWORKS} held-out "
                f"networks, got {len(warm)}"
            )
        else:
            for name in sorted(warm):
                problems += _check_warm_entry(name, warm[name])
    if payload.get("schema_version", 0) >= PROFILE_SCHEMA_VERSION:
        problems += _check_profile_clocks(payload.get("profile_wall_clock_s"))
    kernel = payload.get("kernel")
    if not isinstance(kernel, dict):
        problems.append("bench artifact missing kernel section")
        return problems
    if kernel.get("backend") not in KNOWN_BACKENDS:
        problems.append(
            f"unknown kernel backend {kernel.get('backend')!r} "
            f"(expected one of {list(KNOWN_BACKENDS)})"
        )
    if not isinstance(kernel.get("numba_available"), bool):
        problems.append("kernel.numba_available must be a bool")
    if not isinstance(kernel.get("speedup"), dict):
        problems.append("kernel.speedup must be a dict")
    if kernel.get("numba_available") is True:
        # The compiled-kernel CI leg exists to prove the numba paths;
        # an empty speedup table or a skipped mega-batch run means the
        # leg silently proved nothing.
        if not kernel.get("speedup"):
            problems.append("numba leg recorded no kernel speedups")
        if not payload.get("mega_batch"):
            problems.append("numba leg recorded no mega_batch run")
    return problems


def _check_service_mode(name: str, entry) -> list[str]:
    """Violations in one mode row of a service-throughput artifact."""
    if not isinstance(entry, dict):
        return [f"modes.{name} must be an object"]
    problems: list[str] = []
    for field in ("jobs_per_s", "wall_clock_s", "p50_latency_s", "p99_latency_s"):
        value = entry.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(f"modes.{name}.{field} must be a positive number")
    store = entry.get("store")
    if not isinstance(store, dict):
        problems.append(f"modes.{name} missing store flush stats")
    else:
        if not isinstance(store.get("wal"), bool):
            problems.append(f"modes.{name}.store.wal must be a bool")
        for field in ("flushes", "rows"):
            if not isinstance(store.get(field), int):
                problems.append(f"modes.{name}.store.{field} must be an int")
    return problems


def check_service_artifact(payload: dict) -> list[str]:
    """Every schema violation in one service-throughput artifact.

    Beyond field presence, this asserts the two fleet modes actually
    measured what their names claim (the legacy row on the
    one-job-per-lease, connection-per-request protocol; the batched
    row with multi-job leases over keep-alive connections) — a bench
    refactor that silently measured batched against batched would
    otherwise still produce a plausible-looking artifact.
    """
    problems: list[str] = []
    if payload.get("kind") != "service_throughput":
        problems.append(
            f"unexpected kind {payload.get('kind')!r} "
            "(expected 'service_throughput')"
        )
    if payload.get("schema_version", 0) < SERVICE_MIN_SCHEMA_VERSION:
        problems.append(
            f"service bench schema too old: need >= "
            f"{SERVICE_MIN_SCHEMA_VERSION}, got "
            f"{payload.get('schema_version', 0)}"
        )
    jobs = payload.get("jobs")
    if not isinstance(jobs, int) or jobs < 1:
        problems.append("service artifact missing job count (jobs)")
    modes = payload.get("modes")
    if not isinstance(modes, dict):
        problems.append("service artifact missing modes section")
        return problems
    for name in SERVICE_MODES:
        if name not in modes:
            problems.append(f"service artifact missing mode {name!r}")
        else:
            problems += _check_service_mode(name, modes[name])
    legacy = modes.get("fleet_legacy")
    if isinstance(legacy, dict):
        if legacy.get("lease_batch") != 1:
            problems.append("fleet_legacy must lease one job at a time")
        if legacy.get("keep_alive") is not False:
            problems.append("fleet_legacy must use a connection per request")
    batched = modes.get("fleet_batched")
    if isinstance(batched, dict):
        if not isinstance(batched.get("lease_batch"), int) or (
            batched.get("lease_batch", 0) < 2
        ):
            problems.append("fleet_batched must lease multi-job batches")
        if batched.get("keep_alive") is not True:
            problems.append("fleet_batched must reuse connections")
    speedup = payload.get("speedup")
    if not isinstance(speedup, dict) or not isinstance(
        speedup.get("fleet"), (int, float)
    ):
        problems.append("service artifact missing speedup.fleet")
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifact",
        nargs="?",
        default="BENCH_search.json",
        help="bench artifact path (default: BENCH_search.json)",
    )
    parser.add_argument(
        "--print",
        dest="print_artifact",
        action="store_true",
        help="pretty-print the artifact before checking (for CI logs)",
    )
    args = parser.parse_args(argv)
    path = Path(args.artifact)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read bench artifact {path}: {error}")
        return 1
    if args.print_artifact:
        print(json.dumps(payload, indent=2))
    if payload.get("kind") == "service_throughput":
        problems = check_service_artifact(payload)
        floor = SERVICE_MIN_SCHEMA_VERSION
    else:
        problems = check_artifact(payload)
        floor = MIN_SCHEMA_VERSION
    for problem in problems:
        print(f"bench artifact: {problem}")
    if problems:
        return 1
    print(f"bench artifact {path} ok (schema >= {floor})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
