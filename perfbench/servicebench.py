"""The two service workloads: ``service_flood`` and ``fleet_mixed``.

Both drive ``repro serve`` (and, for the fleet, ``repro work``) as their
own processes from an open-loop generator in this process.  The
generator sends each job at its due time on one of at most ``nproc``
keep-alive connections, whether or not earlier jobs are done, and times
every job from its due time.  A run sends the ``low`` and ``high``
fixed-rate phases and, between them, ``ROUNDS`` ``saturation`` bursts
offered far above what the service can serve; their mean steady
completion rate is the service's capacity.  Every phase sends at most
``PHASE_JOBS`` jobs, below the service's ``keep_records`` cap of 1024,
and is collected from ``GET /jobs`` before the next phase starts, so no
acknowledged job can be evicted unseen.

Capacity is reported at the reference host's speed: the host is
calibrated on every core just before and just after each phase, while
the service idles (:func:`benchstats.calibrate_cores`), and a burst's
rate is divided by that phase's host scale.  This halved the five-seed
spread of both services' capacity.  Latencies stay raw wall times: at
the fixed rates they are mostly waiting (admission, polls, dispatch),
and scaled by the same factor their spread grew.  Set-up is scaled
like the in-process set-ups.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import benchstats
from inproc import SETUP_CAL_SAMPLES, SETUP_REPEATS, import_program, vm_hwm_mb

#: The low rate runs as ROUNDS chunks of LOW_SHARE of ``--seconds``
#: each, spread over the run and pooled; the high rate runs once for
#: HIGH_SHARE.
ROUNDS = 5
LOW_SHARE = 0.11
HIGH_SHARE = 0.2
#: Jobs per phase at most: below ServiceConfig.keep_records (1024).
PHASE_JOBS = 1000
#: Before anything is measured, FILL_PHASES saturation bursts of
#: FILL_JOBS jobs each fill the service's record table past
#: ``keep_records``.  A long-running service holds that many records;
#: from an empty table, capacity fell by ~1.5x over the first thousand
#: jobs, which made the measured bursts depend on their position in the
#: run.
FILL_PHASES = 2
FILL_JOBS = 520
#: ROUNDS saturation bursts of (by default) this many jobs per second
#: of ``--seconds``, offered at SATURATION_RATE, far above either
#: service's capacity.  They are spread over the run and their mean
#: steady rate is reported.
SATURATION_JOBS_PER_S = 15
SATURATION_RATE = 5000.0
#: A fixed-rate rung is judged on this percentile of its pooled
#: phases.  A rung at these rates holds a few hundred jobs (the five
#: low chunks together, or the one high phase): enough for a supported
#: p95 (>= 10 samples beyond it, so >= 200 samples), not for a p99
#: (>= 1000 samples).
TAIL_Q = 0.95
#: Generator connections (this host's core count, at most 2).
CONNECTIONS = min(2, os.cpu_count() or 1)
#: A rate phase is unmet when the generator's p95 lateness exceeds this.
GEN_LAG_BOUND_S = 0.05
#: How long a phase may take to drain after its last send.
DRAIN_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 10.0


@dataclass
class Profile:
    """What differs between the two service workloads."""

    #: The fixed rates (jobs/s), well inside the capacity this 2-core
    #: host showed at its slowest (service_flood ~100 jobs/s,
    #: fleet_mixed ~150 jobs/s; up to 3x more at quiet times).
    low: float
    high: float
    #: Latency limit on a rate phase's p95.
    tail_limit_s: float
    #: ``repro serve --workers`` (its local pool) and the number of
    #: ``repro work`` processes; one of the two is 0.
    pool_workers: int
    fleet_workers: int = 0
    work_flags: list = field(default_factory=list)
    #: Share of ``--seconds`` each low chunk runs for, and the size of
    #: each saturation burst in jobs per second of ``--seconds``.  The
    #: fleet's bursts vary more from one to the next, so it spends part
    #: of its low-rate time on larger bursts.
    low_share: float = LOW_SHARE
    burst_jobs_per_s: float = SATURATION_JOBS_PER_S

    @property
    def serve_flags(self) -> list:
        """The ``repro serve`` flags this profile runs with."""
        return ["--workers", str(self.pool_workers), *QUEUE_LIMIT, "--drain-timeout", "2"]


#: Both services admit the whole saturation burst: the queue limit is
#: above the largest phase, so a refusal is a failure, never load shedding.
QUEUE_LIMIT = ["--queue-limit", "1024"]

FLOOD = Profile(
    low=40.0,
    high=70.0,
    tail_limit_s=0.25,
    pool_workers=2,
)

FLEET = Profile(
    low=40.0,
    high=80.0,
    tail_limit_s=0.5,
    pool_workers=0,
    fleet_workers=2,
    work_flags=["--poll", "0.05", "--lease-batch", "4"],
    low_share=0.09,
    burst_jobs_per_s=25,
)


# -- job generation ---------------------------------------------------------

#: fleet_mixed: networks of the new small jobs, and the one network
#: warm jobs run on.  Warm jobs resolve a ``stored`` prior at admission
#: from the lowest-``best_ms`` row of their scenario (ties keep the
#: oldest).  They run on the LUT of the set-up row, which sits at the
#: chain-DP optimum of that LUT, so the rows warm jobs add can only tie
#: it: the prior, and with it every warm result, is fixed for the whole
#: run.
#:
#: Only the fixed-rate phases (:data:`RATED`) send warm jobs; the fill
#: and saturation bursts give their share to new small jobs.  Admission
#: scans every stored row of the scenario and each warm job adds one,
#: so with warm jobs in the bursts capacity fell by ~40% from the first
#: burst of a run to the last, and the mean's run-to-run spread passed
#: its bound.
SMALL_NETWORKS = ("fig1_toy", "mtcnn_pnet")
WARM_NETWORK = "lenet5"
FLEET_MODES = ("cpu", "gpgpu")
SMALL_EPISODES = 20
WARM_EPISODES = 60
REPEAT_SHARE = 0.25
WARM_SHARE = 0.10
#: The fixed-rate phases: the only ones that send warm-start jobs.
RATED = ("low", "high", "baseline")
FLOOD_EPISODES = 4


class JobFactory:
    """Job bodies drawn from the workload seed.

    ``seeds`` (the K of multi-seed jobs, unused by ``kind="search"``)
    gives every body a distinct job key without changing its search
    or its LUT key, so identical searches still land as distinct jobs.
    """

    def __init__(self, profile: Profile, seed: int) -> None:
        self.profile = profile
        self.rng = random.Random(seed)
        self.lut_seed = self.rng.randrange(1, 1 << 20)
        self._distinct = 1000
        self.setup_bodies: list[dict] = []
        if profile is FLEET:
            self.setup_bodies = [
                self._body(n, m, self.lut_seed, SMALL_EPISODES)
                for n in SMALL_NETWORKS
                for m in FLEET_MODES
            ]
            self.setup_bodies.append(
                self._body(WARM_NETWORK, "gpgpu", self.lut_seed, 1000)
            )

    def _body(self, network, mode, seed, episodes, **extra) -> dict:
        self._distinct += 1
        return {
            "network": network, "mode": mode, "seed": seed, "episodes": episodes,
            "kind": "search", "kernel": "reference", "seeds": self._distinct, **extra,
        }

    def warmup_bodies(self) -> list[dict]:
        """The jobs set-up sends and waits for."""
        if self.profile is FLOOD:
            return [self._body("fig1_toy", "gpgpu", self.lut_seed, FLOOD_EPISODES)
                    for _ in range(4)]
        return [dict(b) for b in self.setup_bodies]

    def phase_bodies(self, phase: int, count: int, warm_share: float = WARM_SHARE) -> list[dict]:
        """``count`` job bodies for phase number ``phase``."""
        if self.profile is FLOOD:
            return [self._body("fig1_toy", "gpgpu", self.lut_seed, FLOOD_EPISODES)
                    for _ in range(count)]
        # Fresh LUT keys per phase: the first job per key misses the
        # worker's LUT cache and profiles.  The shares are exact and the
        # order is shuffled, so every seed sends the same mix.
        phase_seed = self.lut_seed + 1 + phase
        repeats = round(REPEAT_SHARE * count)
        warm = round(warm_share * count)
        small = [(n, m) for n in SMALL_NETWORKS for m in FLEET_MODES]
        bodies = [dict(self.setup_bodies[i % len(self.setup_bodies)]) for i in range(repeats)]
        bodies += [self._body(WARM_NETWORK, "gpgpu", self.lut_seed, WARM_EPISODES,
                              warm_start="stored") for _ in range(warm)]
        bodies += [self._body(*small[i % len(small)], phase_seed, SMALL_EPISODES)
                   for i in range(count - repeats - warm)]
        self.rng.shuffle(bodies)
        return bodies


def oracle_key(body: dict) -> tuple:
    """What a job's best_ms depends on (``seeds`` is not part of it)."""
    return (body["network"], body["mode"], body["seed"], body["episodes"],
            body.get("warm_start", "off"))


class Oracle:
    """In-process ``execute_job`` results for every job the run sends.

    Warm jobs get their prior from a local result store holding the
    same set-up rows the service stores, resolved the way the service
    resolves it at admission.
    """

    def __init__(self, workdir: Path, setup_bodies: list[dict]) -> None:
        self.cache_dir = workdir / "oracle-lutcache"
        self.store_path = workdir / "oracle-store.sqlite"
        self.best: dict[tuple, float] = {}
        self.setup_bodies = setup_bodies
        self._warm_text: str | None = None

    def _job(self, body: dict):
        from repro.runtime.service import jobs_from_body

        return jobs_from_body(dict(body))[0][0]

    def prepare(self, bodies) -> None:
        """Compute the in-process answer of every body not seen yet."""
        from repro.runtime.campaign import execute_job, load_or_profile_lut

        setup_results = []
        for body in self.setup_bodies:
            job = self._job(body)
            result = execute_job(job, self.cache_dir)
            self.best[oracle_key(body)] = result.payload.best_ms
            setup_results.append((job, result))
        warm_rows = [(j, r) for j, r in setup_results if j.network == WARM_NETWORK]
        if warm_rows:
            from repro.baselines import chain_dp, is_chain
            from repro.core.priors import resolve_prior_spec
            from repro.runtime.store import ResultStore

            warm_job, warm_result = warm_rows[0]
            lut, _ = load_or_profile_lut(warm_job, self.cache_dir)
            if not is_chain(lut) or warm_result.payload.best_ms != chain_dp(lut).best_ms:
                raise RuntimeError(
                    "warm-start scenario row is not at the chain-DP optimum; "
                    "later warm results could change the stored prior"
                )
            with ResultStore(self.store_path) as store:
                for job, result in setup_results:
                    store.put(job, result.payload, result.wall_clock_s)
                self._warm_text = resolve_prior_spec(
                    "stored", warm_job.network, warm_job.platform, warm_job.mode, store
                )
        for body in bodies:
            key = oracle_key(body)
            if key in self.best:
                continue
            job = self._job(body)
            warm = self._warm_text if job.warm_start != "off" else None
            self.best[key] = execute_job(job, self.cache_dir, warm_text=warm).payload.best_ms


# -- processes --------------------------------------------------------------


def _repro_cmd(*args) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


class Deployment:
    """One ``repro serve`` (plus ``repro work`` fleet) deployment."""

    def __init__(self, profile: Profile, workdir: Path, env: dict) -> None:
        self.profile = profile
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = env
        self.serve_args = [
            "serve", "--port", "0",
            "--store", str(workdir / "store.sqlite"),
            "--cache-dir", str(workdir / "lutcache"),
            *profile.serve_flags,
        ]
        self.work_args: list[list[str]] = []
        self.server: subprocess.Popen | None = None
        self.workers: list[subprocess.Popen] = []
        self._logs: list = []
        self.url = ""
        self.port = 0

    def _spawn(self, args, log_name):
        log = open(self.workdir / log_name, "wb")
        self._logs.append(log)
        return subprocess.Popen(
            _repro_cmd(*args), stdout=log, stderr=subprocess.STDOUT, env=self.env,
        )

    def start(self) -> None:
        """Spawn the processes and wait until they serve."""
        self.server = self._spawn(self.serve_args, "serve.log")
        deadline = time.monotonic() + 60
        log_path = self.workdir / "serve.log"
        while not self.port:
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not start: {log_path.read_text()}")
            for line in log_path.read_text().splitlines():
                if line.startswith("serving on http://"):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
            time.sleep(0.01)
        self.url = f"http://127.0.0.1:{self.port}"
        for index in range(self.profile.fleet_workers):
            args = ["work", "--server", self.url, "--name", f"bench-{index}",
                    "--cache-dir", str(self.workdir / f"worker-{index}-lutcache"),
                    *self.profile.work_flags]
            self.work_args.append(args)
            self.workers.append(self._spawn(args, f"work-{index}.log"))
        if self.workers:
            client = Client(self.port)
            try:
                while client.get_json("/healthz")["workers_registered"] < len(self.workers):
                    if time.monotonic() > deadline:
                        raise RuntimeError("fleet workers did not register")
                    time.sleep(0.01)
            finally:
                client.close()

    def pids(self) -> list[int]:
        """The server, its pool children and the fleet workers."""
        out = []
        if self.server is not None:
            out.append(self.server.pid)
            try:
                for task in os.listdir(f"/proc/{self.server.pid}/task"):
                    with open(f"/proc/{self.server.pid}/task/{task}/children") as f:
                        out.extend(int(p) for p in f.read().split())
            except OSError:
                pass
        out.extend(w.pid for w in self.workers)
        return out

    def peak_rss_mb(self) -> float:
        """Sum of every deployment process's VmHWM, in MB."""
        return sum(vm_hwm_mb(pid) for pid in self.pids())

    def stop(self) -> list[dict]:
        """Stop every process (workers first) and wait for each; returns
        the JSON stats each ``repro work`` printed on exit."""
        stats = []
        for worker in self.workers:
            if worker.poll() is None:
                worker.send_signal(signal.SIGINT)
        for index, worker in enumerate(self.workers):
            _wait_or_kill(worker)
            for line in (self.workdir / f"work-{index}.log").read_text().splitlines():
                if line.startswith("worker stats: "):
                    stats.append(json.loads(line[len("worker stats: "):]))
        if self.server is not None:
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGTERM)
            _wait_or_kill(self.server)
        for log in self._logs:
            log.close()
        self._logs.clear()
        return stats


def _wait_or_kill(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Client:
    """One keep-alive HTTP connection to the service."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)

    def request(self, method: str, path: str, body: dict | None = None):
        """One request; ``(status, body)``, or ``(None, None)`` on a timeout or broken connection."""
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return None, None
        return response.status, payload

    def get_json(self, path: str) -> dict:
        """GET a JSON document that must answer 200."""
        status, payload = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(payload)

    def close(self) -> None:
        """Close the connection."""
        self.conn.close()


# -- the open-loop generator ------------------------------------------------


@dataclass
class Sent:
    """One job the generator sent (or was due to send)."""

    body: dict
    due: float  # perf_counter time the job was due
    lag: float = 0.0
    admit_s: float = 0.0
    status: int | None = None
    job_id: str | None = None


def send_phase(port: int, bodies: list[dict], rate: float):
    """Send ``bodies`` at ``rate`` per second, evenly spaced, round-robin
    over :data:`CONNECTIONS` sender threads.  Returns the sent records
    and the phase's (perf, wall) origin."""
    start_perf = time.perf_counter() + 0.05
    start_wall = time.time() + (start_perf - time.perf_counter())
    sent = [Sent(body=b, due=start_perf + i / rate) for i, b in enumerate(bodies)]

    def sender(mine: list[Sent]) -> None:
        client = Client(port)
        try:
            for item in mine:
                delay = item.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                t0 = time.perf_counter()
                item.lag = t0 - item.due
                status, payload = client.request("POST", "/jobs", item.body)
                item.admit_s = time.perf_counter() - t0
                item.status = status
                if status == 202:
                    item.job_id = json.loads(payload)["jobs"][0]["id"]
        finally:
            client.close()

    threads = [
        threading.Thread(target=sender, args=(sent[k::CONNECTIONS],))
        for k in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sent, start_perf, start_wall


def collect(client: Client) -> dict:
    """Wait until the service holds no queued or running job and return
    its records by id.

    Phases run one at a time, so then every job of the phase is terminal
    (or evicted).  Waiting polls the job-state counts of ``/healthz``;
    ``GET /jobs`` serializes up to ``keep_records`` records, and polling
    it would load the service while it drains the phase.
    """
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while time.monotonic() < deadline:
        states = client.get_json("/healthz")["jobs"]
        if not states.get("queued") and not states.get("running"):
            break
        time.sleep(0.02)
    return {r["id"]: r for r in client.get_json("/jobs")["jobs"]}


def score_phase(rate, sent, records, oracle, start_perf, start_wall) -> dict:
    """Everything one phase measured (whether its rung was met is
    judged on the rung's pooled phases, by :func:`rung_verdict`)."""
    tally = benchstats.ErrorTally()
    latencies, admits, admits_warm, queue_waits, execs, dispatches = [], [], [], [], [], []
    best_values = []
    sent_at, finished_at = [], []
    for item in sent:
        record = records.get(item.job_id) if item.job_id else None
        reason = benchstats.classify_submission(item.status, record)
        sched_wall = start_wall + (item.due - start_perf)
        sent_at.append(sched_wall)
        admits.append(item.admit_s)
        if item.body.get("warm_start", "off") != "off":
            admits_warm.append(item.admit_s)
        if reason is None and record.get("best_ms") != oracle.best[oracle_key(item.body)]:
            reason = "best_ms_not_bitwise_oracle"
        if reason is not None:
            tally.fail(reason)
            finished_at.append(float("inf"))
            continue
        tally.ok()
        finished_at.append(record["finished_s"])
        latencies.append(record["finished_s"] - sched_wall)
        best_values.append(record["best_ms"])
        if record.get("started_s") is not None and not record["from_store"]:
            queue_waits.append(record["started_s"] - record["submitted_s"])
            execs.append(record["wall_clock_s"])
            dispatches.append(record["finished_s"] - record["started_s"] - record["wall_clock_s"])
    lags = [s.lag for s in sent]
    tail = benchstats.percentile(latencies, TAIL_Q)
    lag_tail = benchstats.percentile(lags, TAIL_Q)
    end = start_wall + (sent[-1].due - start_perf)
    grows = benchstats.backlog_grows(sent_at, finished_at, start_wall, end)
    finished = [f for f in finished_at if f != float("inf")]
    return {
        "rate": rate,
        "sent": len(sent),
        "tally": tally,
        "p50_s": benchstats.percentile(latencies, 0.5),
        "p95_s": tail,
        "samples": len(latencies),
        "backlog_grows": grows,
        "gen_lag_p95_s": lag_tail,
        "completed_per_s": (len(finished) / (max(finished) - start_wall)) if finished else 0.0,
        "steady_per_s": benchstats.steady_rate(finished),
        "latencies": latencies,
        "admits": admits,
        "admits_warm": admits_warm,
        "queue_waits": queue_waits,
        "execs": execs,
        "dispatches": dispatches,
        "lags": lags,
        "best": best_values,
    }



# -- orchestration ----------------------------------------------------------


def scrape(port: int) -> dict[str, float]:
    """``GET /metrics`` summed over labels, ``{name: value}``."""
    from repro.runtime.metrics import parse_samples

    client = Client(port)
    try:
        status, payload = client.request("GET", "/metrics")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    samples = parse_samples(payload.decode())
    return {name: sum(series.values()) for name, series in samples.items()}


def phase_jobs(rate: float, seconds: float, share: float) -> int:
    """Jobs in a phase at ``rate`` for ``share`` of ``--seconds``
    (at least 50, at most :data:`PHASE_JOBS`)."""
    return min(PHASE_JOBS, max(50, round(rate * seconds * share)))


def phase_plan(profile: Profile, seconds: float, baseline: bool = False) -> list[tuple]:
    """``(name, rate, jobs)`` of every phase, in sending order.

    The fill bursts come first.  The traced run then sends one extra
    untraced phase at the low rate: the reference its low phases are
    compared against.
    """
    low = ("low", profile.low, phase_jobs(profile.low, seconds, profile.low_share))
    burst = ("saturation", SATURATION_RATE, phase_jobs(profile.burst_jobs_per_s, seconds, 1.0))
    high = ("high", profile.high, phase_jobs(profile.high, seconds, HIGH_SHARE))
    fill = [("fill", SATURATION_RATE, FILL_JOBS)] * FILL_PHASES
    if baseline:
        fill.append(("baseline", *low[1:]))
    return fill + [low, burst, high, burst] + [low, burst] * (ROUNDS - 2) + [low]


def planned_bodies(factory: JobFactory, plan: list[tuple]) -> list[tuple]:
    """``(name, rate, bodies)`` of every phase of ``plan``; only the
    fixed-rate phases carry warm-start jobs."""
    return [
        (name, rate, factory.phase_bodies(i, count, WARM_SHARE if name in RATED else 0.0))
        for i, (name, rate, count) in enumerate(plan)
    ]


class ServiceWorkload:
    """Set-up, the phases, checks and the per-layer read-out."""

    def __init__(self, profile: Profile, seed: int, workdir: Path, env: dict,
                 seconds: float, baseline: bool = False) -> None:
        self.profile = profile
        self.workdir = workdir
        self.env = env
        self.factory = JobFactory(profile, seed)
        self.oracle = Oracle(workdir, self.factory.setup_bodies)
        self.setup_tally = benchstats.ErrorTally()
        self.deployment: Deployment | None = None
        # Every phase's bodies are drawn and their oracle answers
        # computed before set-up, so nothing but sending happens
        # between phases.
        self.plan = planned_bodies(self.factory, phase_plan(profile, seconds, baseline))
        self.warmup = self.factory.warmup_bodies()
        self.oracle.prepare(self.warmup + [b for _, _, bodies in self.plan for b in bodies])

    def set_up(self) -> list[tuple[float, float]]:
        """Deploy ``SETUP_REPEATS`` times; returns each set-up's
        ``(wall, host scale)``, like the in-process set-ups."""
        times = []
        for rep in range(SETUP_REPEATS):
            if self.deployment is not None:
                self.deployment.stop()
            cals = [benchstats.calibrate() for _ in range(SETUP_CAL_SAMPLES)]
            started = time.perf_counter()
            import_program()
            self.deployment = Deployment(self.profile, self.workdir / f"deploy-{rep}", self.env)
            self.deployment.start()
            # Warm-up jobs: the shared LUTs are profiled and the pool or
            # fleet has run once before the first timed request.
            client = Client(self.deployment.port)
            try:
                sent = []
                for body in self.warmup:
                    status, payload = client.request("POST", "/jobs", body)
                    if status != 202:
                        raise RuntimeError(f"warm-up POST /jobs answered {status}")
                    job_id = json.loads(payload)["jobs"][0]["id"]
                    sent.append(Sent(body=body, due=0.0, status=status, job_id=job_id))
                records = collect(client)
            finally:
                client.close()
            wall = time.perf_counter() - started
            cals += [benchstats.calibrate() for _ in range(SETUP_CAL_SAMPLES)]
            times.append((wall, benchstats.host_scale(cals)))
            for item in sent:
                record = records.get(item.job_id)
                reason = benchstats.classify_submission(item.status, record)
                if reason is None and record["best_ms"] != self.oracle.best[oracle_key(item.body)]:
                    reason = "best_ms_not_bitwise_oracle"
                if reason is None:
                    self.setup_tally.ok()
                else:
                    self.setup_tally.fail(reason)
        return times

    def run_phases(self, before_measured=None) -> dict:
        """Send every phase in order; ``before_measured`` runs before the
        first measured one.  Returns ``{name: [phase, ...]}`` in sending
        order."""
        phases: dict[str, list] = {}
        for name, rate, bodies in self.plan:
            first_measured = name in MEASURED and not any(k in MEASURED for k in phases)
            if first_measured and before_measured is not None:
                before_measured()
            phases.setdefault(name, []).append(self.run_phase(rate, bodies))
        return phases

    def run_phase(self, rate, bodies) -> dict:
        """Send one phase, wait for its jobs and score it.  The host is
        calibrated just before and just after, while the service idles."""
        port = self.deployment.port
        cals = [benchstats.calibrate_cores()]
        sent, start_perf, start_wall = send_phase(port, bodies, rate)
        client = Client(port)
        try:
            records = collect(client)
        finally:
            client.close()
        cals.append(benchstats.calibrate_cores())
        phase = score_phase(rate, sent, records, self.oracle, start_perf, start_wall)
        phase["scale"] = benchstats.host_scale(cals)
        return phase

    def stop(self) -> list[dict]:
        """Stop the deployment; returns the fleet workers' exit stats."""
        stats = self.deployment.stop() if self.deployment is not None else []
        self.deployment = None
        return stats


MEASURED = ("low", "high", "saturation")


def measured(phases: dict) -> list[dict]:
    """The phases the end-to-end metrics and ``failed`` count."""
    return [phase for name in MEASURED for phase in phases[name]]


def pooled(group: list[dict], key: str) -> list:
    """The ``key`` samples of every phase in ``group``."""
    return [v for phase in group for v in phase[key]]


def _pct(values, q) -> float:
    """A supported percentile, or 0 when too few samples lie beyond it."""
    value = benchstats.percentile(values, q)
    return value if value is not None else 0.0


def end_to_end(phases: dict) -> dict:
    """The end-to-end metrics of a service run; capacity in
    reference-host units, latency raw."""
    return {
        "jobs_per_s": statistics.fmean(
            p["steady_per_s"] / p["scale"] for p in phases["saturation"]
        ),
        "job_p50_s": benchstats.hd_median(pooled(phases["low"], "latencies")),
        "best_ms_geomean": benchstats.geomean(
            [v for phase in measured(phases) for v in phase["best"]]
        ),
    }


def phase_summary(phase: dict) -> dict:
    """A phase's figures for the ``details`` line (raw times)."""
    return {
        "rate_jobs_per_s": phase["rate"],
        "host_scale": phase["scale"],
        "sent": phase["sent"],
        "attempted": phase["tally"].attempted,
        "failed": phase["tally"].failed,
        "failures": phase["tally"].reasons,
        "error_rate": phase["tally"].rate,
        "p50_s": phase["p50_s"],
        "p95_s": phase["p95_s"],
        "latency_samples": phase["samples"],
        "backlog_grows": phase["backlog_grows"],
        "gen_lag_p95_s": phase["gen_lag_p95_s"],
        "completed_per_s": phase["completed_per_s"],
        "steady_per_s": phase["steady_per_s"],
    }


def rung_verdict(group: list[dict], tail_limit: float) -> dict:
    """Whether a fixed-rate rung was met, judged on its phases pooled:
    no failure, a supported p95 within ``tail_limit``, no phase growing
    its backlog, and the generator's p95 lateness within
    :data:`GEN_LAG_BOUND_S`."""
    latencies = [v for p in group for v in p["latencies"]]
    lags = [v for p in group for v in p["lags"]]
    tail = benchstats.percentile(latencies, TAIL_Q)
    lag_tail = benchstats.percentile(lags, TAIL_Q)
    met = (
        all(p["tally"].failed == 0 for p in group)
        and tail is not None
        and tail <= tail_limit
        and not any(p["backlog_grows"] for p in group)
        and lag_tail is not None
        and lag_tail <= GEN_LAG_BOUND_S
    )
    return {
        "rate_jobs_per_s": group[0]["rate"],
        "phases": len(group),
        "latency_samples": len(latencies),
        "p95_s": tail,
        "gen_lag_p95_s": lag_tail,
        "met": met,
    }


def layer_metrics(phases, before, after, worker_stats, window_s, workers,
                  tail_limit) -> dict:
    """Per-layer metrics of the service workloads, read from the
    generator's own timings, the jobs' records, ``/metrics`` deltas over
    the measured phases and the ``repro work`` exit stats.  Latency
    samples pool the fixed-rate phases."""
    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    fixed = phases["low"] + phases["high"]
    flushes = delta("repro_store_flush_seconds_count")
    batches = delta("repro_lease_batch_jobs_count")
    payloads = delta("repro_result_payload_bytes_count")
    completed = sum(s["completed"] for s in worker_stats)
    low_latencies = pooled(phases["low"], "latencies")
    high_latencies = pooled(phases["high"], "latencies")
    low_tally = benchstats.ErrorTally()
    for phase in phases["low"]:
        low_tally.merge(phase["tally"])
    met = [group[0]["rate"] for group in (phases["low"], phases["high"])
           if rung_verdict(group, tail_limit)["met"]]
    return {
        "e2e.p50_s.low": benchstats.hd_median(low_latencies) or 0.0,
        "e2e.p95_s.low": _pct(low_latencies, TAIL_Q),
        "e2e.p50_s.high": _pct(high_latencies, 0.5),
        "e2e.p95_s.high": _pct(high_latencies, TAIL_Q),
        "e2e.max_rate_jobs_per_s": max(met, default=0.0),
        "e2e.error_rate.low": low_tally.rate,
        "service.admit_p50_s": _pct(pooled(fixed, "admits"), 0.5),
        "service.admit_p95_s": _pct(pooled(fixed, "admits"), TAIL_Q),
        "service.admit_warm_p50_s": _pct(pooled(fixed, "admits_warm"), 0.5),
        "service.queue_wait_p50_s": _pct(pooled(fixed, "queue_waits"), 0.5),
        "service.queue_wait_p95_s": _pct(pooled(fixed, "queue_waits"), TAIL_Q),
        "service.exec_p50_s": _pct(pooled(fixed, "execs"), 0.5),
        "service.dispatch_p50_s": _pct(pooled(fixed, "dispatches"), 0.5),
        "service.rejected": delta("repro_jobs_rejected_total"),
        "service.payload_bytes_mean": (
            delta("repro_result_payload_bytes_sum") / payloads if payloads else 0.0
        ),
        "store.flushes": flushes,
        "store.flush_s": delta("repro_store_flush_seconds_sum"),
        "store.rows_per_flush": delta("repro_stored_results") / flushes if flushes else 0.0,
        "store.hits": delta("repro_store_hits_total"),
        "store.misses": delta("repro_store_misses_total"),
        "runtime.lut_hits": delta("repro_lut_cache_hits_total"),
        "runtime.lut_misses": delta("repro_lut_cache_misses_total"),
        "worker.leases": delta("repro_leases_granted_total"),
        "worker.lease_batch_mean": (
            delta("repro_lease_batch_jobs_sum") / batches if batches else 0.0
        ),
        "worker.polls_per_job": (
            sum(s["polls"] for s in worker_stats) / completed if completed else 0.0
        ),
        "worker.busy_share": delta("repro_worker_busy_seconds_total") / (workers * window_s),
        "worker.requeued": delta("repro_jobs_requeued_total"),
        "worker.expired": delta("repro_leases_expired_total"),
        "priors.warm_jobs": delta("repro_warm_starts_total"),
        "gen.lag_p95_s": _pct(pooled(fixed, "lags"), TAIL_Q),
    }
