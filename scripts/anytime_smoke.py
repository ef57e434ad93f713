#!/usr/bin/env python
"""End-to-end smoke of anytime search against a live service.

The acceptance script for the anytime subsystem (CI runs it):

1. start ``python -m repro serve`` with one local worker and
   ``--checkpoint-every`` enabled;
2. submit a deliberately long scenario and read its SSE stream until a
   live ``progress`` event arrives — proof the event came from an
   in-loop checkpoint while the job was still *running*;
3. ``DELETE`` the running job — the service must answer 202, preempt
   the worker at the next episode boundary, persist its checkpoint
   into the result store and land the record ``cancelled``;
4. resubmit the same scenario with ``"resume": true`` — the job must
   finish from the checkpoint, and its ``best_ms``/``curve_ms`` must
   be **bitwise-equal** to the same scenario run uninterrupted via
   ``repro search`` — preemption must cost wall clock, never bits;
   with ``--seeds K`` the victim is a ``kind: "multi-seed"`` sweep and
   every member's ``best_ms`` and ``curve_ms`` must equal those of an
   uninterrupted in-process ``MultiSeedSearch`` over the same LUT;
5. scrape ``GET /metrics`` and assert the preemption, the resume and
   the checkpoint writes were counted, and that completion deleted
   the checkpoint row; then shut down gracefully.

Usage::

    PYTHONPATH=src python scripts/anytime_smoke.py [--seeds K]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# The script imports repro.runtime.client itself; make it runnable
# without an exported PYTHONPATH too.
sys.path.insert(0, str(REPO_ROOT / "src"))

PLATFORM = "jetson_tx2"
MODE = "gpgpu"
#: Capture an in-episode checkpoint every N episodes.
EVERY = 100

#: The preemption victim: a long scenario (reference kernel episode
#: rate -> seconds of execution) so the DELETE reliably lands while
#: the search is mid-flight with checkpoints already spooled.
JOB = {
    "network": "fig1_toy",
    "platform": PLATFORM,
    "mode": MODE,
    "episodes": 20000,
    "seed": 0,
}


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _repro(*args: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_env(),
        cwd=REPO_ROOT,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"repro {' '.join(args)} failed ({result.returncode}):\n"
            f"{result.stdout}{result.stderr}"
        )
    return result


def _wait_for(predicate, timeout_s: float, what: str):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise SystemExit(f"timed out after {timeout_s}s waiting for {what}")


def _reference_members(lut_path: Path, job: dict) -> list[dict]:
    """Per-member ``best_ms``/``curve_ms`` of the job's multi-seed sweep,
    run uninterrupted in this process over the profiled LUT."""
    from repro.core import MultiSeedSearch, SearchConfig, seed_range
    from repro.engine.lut import LatencyTable

    lut = LatencyTable.from_json(lut_path.read_text())
    config = SearchConfig(episodes=job["episodes"], seed=job["seed"])
    sweep = MultiSeedSearch(
        lut, config, seeds=seed_range(job["seed"], job["seeds"])
    ).run()
    return [{"best_ms": r.best_ms, "curve_ms": r.curve_ms} for r in sweep.results]


def main(argv: list[str] | None = None) -> int:
    """Run the smoke; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="K > 1 preempts and resumes a K-seed multi-seed sweep",
    )
    seeds = parser.parse_args(argv).seeds
    if seeds < 1:
        parser.error(f"--seeds must be >= 1, got {seeds}")
    job = dict(JOB) if seeds == 1 else {**JOB, "kind": "multi-seed", "seeds": seeds}
    with tempfile.TemporaryDirectory(prefix="anytime-smoke-") as tmp:
        tmp_path = Path(tmp)
        serve_args = [
            "--port", "0",
            "--workers", "1",
            "--store", str(tmp_path / "results.sqlite"),
            "--cache-dir", str(tmp_path / "luts"),
            "--checkpoint-every", str(EVERY),
        ]  # fmt: skip
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *serve_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env(),
            cwd=REPO_ROOT,
        )
        try:
            banner = server.stdout.readline()
            assert "serving on http://" in banner, banner
            url = banner.split()[2]
            print(f"[1/5] service up at {url} (checkpoint every {EVERY})")

            from repro.runtime.client import ServiceClient
            from repro.runtime.metrics import parse_samples

            client = ServiceClient(url, timeout=60)
            record = client.submit(job)[0]

            # A live progress event must arrive while the job is still
            # running — emitted from an in-loop checkpoint, not from
            # the post-hoc curve replay of a finished search.
            first = None
            for event, data in client.stream_progress(record["id"]):
                if event == "progress":
                    first = data
                    state = client.job(record["id"])["state"]
                    break
            assert first is not None, "stream ended without a progress event"
            assert state == "running", f"progress arrived in state {state!r}"
            assert first["episode"] % EVERY == 0 and first["episode"] > 0
            print(
                f"[2/5] live progress at episode {first['episode']} "
                f"(best {first['best_ms']:.3f} ms) while running"
            )

            cancelled = client.cancel(record["id"])
            assert cancelled["preempting"] is True, cancelled
            final = _wait_for(
                lambda: (
                    client.job(record["id"])
                    if client.job(record["id"])["state"] == "cancelled"
                    else None
                ),
                60,
                "the preempted job to land cancelled",
            )
            assert "preempted at episode" in final["error"], final["error"]
            print(f"[3/5] DELETE preempted the running job ({final['error']})")

            resumed = client.submit({**job, "resume": True})[0]
            assert resumed["id"] != record["id"]
            done = client.wait(resumed["id"], timeout=600)
            assert done["state"] == "done", done
            print(
                f"[4/5] resumed job done: best_ms={done['best_ms']!r} "
                f"({done['wall_clock_s']:.2f}s)"
            )

            # Bitwise equality with an uninterrupted local run of the
            # same scenario over the same (deterministic) LUT.
            lut_path = tmp_path / "lut.json"
            _repro(
                "profile",
                "--network", job["network"],
                "--platform", PLATFORM,
                "--mode", MODE,
                "--out", str(lut_path),
            )  # fmt: skip
            if seeds == 1:
                members = [done["payload"]]
                sched_path = tmp_path / "sched.json"
                _repro(
                    "search",
                    "--lut", str(lut_path),
                    "--episodes", str(job["episodes"]),
                    "--seed", str(job["seed"]),
                    "--out", str(sched_path),
                )  # fmt: skip
                local_best = json.loads(sched_path.read_text())["total_ms"]
                assert done["best_ms"] == local_best, (
                    f"preempt+resume best_ms {done['best_ms']!r} != local "
                    f"repro search {local_best!r} (must be bitwise-equal)"
                )
            else:
                members = done["payload"]["results"]
                reference = _reference_members(lut_path, job)
                assert len(members) == len(reference) == seeds, members
                for s, (got, want) in enumerate(zip(members, reference)):
                    assert got["best_ms"] == want["best_ms"], (
                        f"member {s}: preempt+resume best_ms "
                        f"{got['best_ms']!r} != uninterrupted "
                        f"{want['best_ms']!r} (must be bitwise-equal)"
                    )
                    assert got["curve_ms"] == want["curve_ms"], (
                        f"member {s}: preempt+resume curve_ms differs from "
                        "the uninterrupted run"
                    )
            # The live progress event of the *preempted* run must agree
            # bitwise with the resumed run's full curves at that episode
            # (its best_ms is the best across members).
            seen = min(min(m["curve_ms"][: first["episode"]]) for m in members)
            assert seen == first["best_ms"], (
                "resumed curve disagrees with the preempted run's live "
                f"progress at episode {first['episode']}"
            )
            print(
                f"[5/5] preempt+resume result of {seeds} seed(s) "
                "bitwise-equal to an uninterrupted run"
            )

            samples = parse_samples(client.metrics())
            written = samples["repro_checkpoints_written_total"][()]
            preempted = samples["repro_jobs_preempted_total"][()]
            resumed_n = samples["repro_jobs_resumed_total"][()]
            assert written >= 1, samples.get("repro_checkpoints_written_total")
            assert preempted == 1, samples.get("repro_jobs_preempted_total")
            assert resumed_n == 1, samples.get("repro_jobs_resumed_total")
            # Completion hygiene: the checkpoint row is gone from the
            # store once the resumed job finished.
            results = client.results(network=job["network"])
            assert len(results) == 1, results
            print(
                f"metrics ok: written={written:g} preempted={preempted:g} "
                f"resumed={resumed_n:g}"
            )

            client.shutdown()
            code = server.wait(timeout=60)
            assert code == 0, f"serve exited {code}"
            print("graceful shutdown, exit 0")
            print("anytime smoke OK")
            return 0
        finally:
            if server.poll() is None:
                server.kill()
                try:
                    server.wait(10)
                except subprocess.TimeoutExpired:
                    pass
                # Orphaned pool children of a killed server share its
                # stdout pipe: a blocking read() here would hang, so
                # drain whatever is already buffered and move on.
                os.set_blocking(server.stdout.fileno(), False)
                print(server.stdout.read() or "")


if __name__ == "__main__":
    sys.exit(main())
