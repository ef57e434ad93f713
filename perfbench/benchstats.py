"""The benchmark's own arithmetic: percentiles, means, backlog, errors,
and the host-speed scale every timing metric is reported at.

Kept free of any ``repro`` import so the unit tests beside it run on
their own and so the rules below read in one place.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it (p99 needs >= 1000 samples, p50 needs >= 20).
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank
    ``q``-percentile (rank ``ceil(q * n)``)."""
    return n - math.ceil(q * n)


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q``-percentile of ``values``, or None when fewer
    than :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        return None
    return ordered[max(0, math.ceil(q * n) - 1)]


def hd_median(values) -> float | None:
    """Harrell-Davis estimate of the median of ``values``, or None under
    the same rule as :func:`percentile` (>= 10 samples beyond it).

    It weights every order statistic by the Beta((n+1)/2, (n+1)/2) mass
    over its rank interval, so the estimate moves smoothly with the
    samples.  The nearest-rank median of a fixed job mix sits on one job
    and jumps to the next network's size when two jobs trade places.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0 or samples_beyond(n, 0.5) < MIN_BEYOND:
        return None
    a = (n + 1) / 2
    # Beta(a, a) CDF at the rank edges i/n: trapezoids on a fine grid of
    # the log-density (a reaches ~100 at a few hundred samples).
    x = np.linspace(0.0, 1.0, 200 * n + 1)[1:-1]
    density = np.exp((a - 1) * (np.log(x) + np.log1p(-x)) - 2 * (a - 1) * math.log(0.5))
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, x, cdf)
    return float(np.dot(np.diff(edges), ordered))


def geomean(values) -> float:
    """Geometric mean of strictly positive values."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def spread_share(values) -> float:
    """Distance between the first and third quartile, as a share of
    the median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def backlog_at(t: float, sent, finished) -> int:
    """Jobs sent by ``t`` and not finished by ``t``.

    ``finished`` holds one time per sent job; a job that never finished
    (refused, failed, lost) carries ``math.inf`` and stays in the
    backlog for good.
    """
    return sum(1 for s in sent if s <= t) - sum(1 for f in finished if f <= t)


def backlog_grows(sent, finished, start: float, end: float, probes: int = 40) -> bool:
    """Whether the backlog grew across a rate phase ``[start, end]``.

    The mean backlog over the second half of the phase is compared with
    the first half.  A steady service holds the backlog near
    ``rate x latency`` in both halves; an overloaded one grows it
    linearly, which roughly triples the second-half mean.  Two jobs of
    slack keep a near-empty queue from reading as growth.
    """
    if end <= start:
        raise ValueError("phase must have positive length")
    step = (end - start) / probes
    points = [backlog_at(start + (i + 0.5) * step, sent, finished) for i in range(probes)]
    half = probes // 2
    first = sum(points[:half]) / half
    second = sum(points[half:]) / (probes - half)
    return second > 1.5 * first + 2.0


def steady_rate(finished, low: float = 0.1, high: float = 0.9) -> float:
    """Completions per second between the ``low`` and ``high`` quantiles
    of a burst's finish times.

    The first and last completions of a burst include ramp-up and the
    stragglers; the middle of the burst is the service running flat
    out.  0 with fewer than two completions in the window.
    """
    times = sorted(finished)
    first, last = int(low * len(times)), math.ceil(high * len(times)) - 1
    if last <= first or times[last] <= times[first]:
        return 0.0
    return (last - first) / (times[last] - times[first])


@dataclass
class ErrorTally:
    """Failed / attempted operations, with the reason of each failure.

    Every attempted operation must be recorded exactly once, as a
    success or a failure; nothing is skipped.
    """

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        """Record one operation that succeeded."""
        self.attempted += 1

    def fail(self, reason: str) -> None:
        """Record one operation that failed, with its reason."""
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def merge(self, other: "ErrorTally") -> None:
        """Add another tally's operations to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def rate(self) -> float:
        """Failed over attempted (0 when nothing was attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0


def classify_submission(status: int | None, record: dict | None) -> str | None:
    """The failure reason of one service job, or None when it succeeded.

    ``status`` is the HTTP status of ``POST /jobs`` (None when the
    request timed out or the connection failed).  ``record`` is the
    job's record as the service last reported it, or None when the
    service no longer knows the acknowledged id: finished records are
    evicted past ``keep_records``, which is documented behaviour but
    leaves the job unverified, so it counts as a failure.
    """
    if status is None:
        return "timeout"
    if status == 429:
        return "http_429"
    if status >= 500:
        return "http_5xx"
    if status != 202:
        return f"http_{status}"
    if record is None:
        return "evicted_404"
    if record.get("state") != "done":
        return f"state_{record.get('state')}"
    return None


#: Median time of :func:`calibrate` on the host the baseline was
#: recorded on (a shared 2-core x86-64 VM).  Timing metrics are scaled
#: to that host's speed; see :func:`host_scale`.
CAL_REF_S = 0.006

_CAL_MATRIX = np.arange(64 * 64, dtype=float).reshape(64, 64) / 4096.0


def calibrate() -> float:
    """Time one run of a fixed reference loop, in seconds.

    The loop runs no program code: pure-Python integer arithmetic, dict
    stores and small elementwise numpy operations, roughly the mix the
    workloads run.  It stays on one thread (no BLAS call, which would
    use the second core when it is free).  Garbage collection is off
    while it runs, so garbage the program left behind is not charged to
    it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        table = {}
        for i in range(36000):
            acc += i * i % 7
            table[i & 511] = acc
        matrix = _CAL_MATRIX
        for _ in range(36):
            matrix = np.sqrt(matrix * 0.5 + _CAL_MATRIX)
            matrix.max(axis=1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate_cores(samples: int = 3) -> float:
    """Mean over this process's CPUs of the median :func:`calibrate`
    time with the process pinned to that CPU, in seconds.

    A service spreads its processes over every core, and on a shared
    host the cores do not always run at the same speed; one unpinned
    loop times whichever core it lands on.  The affinity is restored
    before returning.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(statistics.median(calibrate() for _ in range(samples)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def host_scale(samples) -> float:
    """Factor that turns a time measured while ``samples`` were taken
    into reference-host seconds: ``CAL_REF_S / median(samples)``.

    The shared host this benchmark runs on changes speed by up to ~1.5x
    for tens of seconds at a time.  A calibration loop timed beside the
    work slows down with it, so a time multiplied by this factor (and a
    rate divided by it) keeps the program's own cost and drops most of
    the host's drift.
    """
    return CAL_REF_S / statistics.median(samples)
