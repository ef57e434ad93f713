"""Unit tests of the benchmark's own arithmetic (no program needed).

    python3 -m pytest perfbench/test_perfbench_arith.py -q
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import servicebench  # noqa: E402
from spans import Tracer  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


class FakeClock:
    """A clock the test moves by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestPercentileRule:
    """A percentile is reported only with >= 10 samples beyond it."""

    def test_p99_needs_ten_samples_beyond(self):
        """p99 needs 1000 samples."""
        assert benchstats.percentile(range(999), 0.99) is None
        assert benchstats.percentile(range(1000), 0.99) == 989

    def test_p50_needs_twenty_samples(self):
        """p50 needs 20 samples."""
        assert benchstats.percentile(range(19), 0.5) is None
        assert benchstats.percentile(range(20), 0.5) == 9

    def test_p95_on_two_hundred(self):
        """p95 needs 200 samples."""
        assert benchstats.samples_beyond(200, 0.95) == 10
        assert benchstats.percentile(range(200), 0.95) == 189
        assert benchstats.percentile(range(199), 0.95) is None

    def test_unsorted_input(self):
        """Input order does not matter."""
        values = list(range(100))[::-1]
        assert benchstats.percentile(values, 0.9) == 89

    def test_empty(self):
        """No samples, no percentile."""
        assert benchstats.percentile([], 0.5) is None

    def test_hd_median(self):
        """The Harrell-Davis median: exact on symmetric samples, under the
        same sample rule, and smooth where the nearest rank jumps."""
        assert benchstats.hd_median(range(1, 21)) == pytest.approx(10.5)
        assert benchstats.hd_median(range(19)) is None
        # One job of twenty, the lower middle one, slows by 0.29 s: the
        # nearest-rank median moves by all of it, the Harrell-Davis one
        # by a small share.
        before = [0.2] * 9 + [0.60, 0.90] + [2.0] * 9
        after = [0.2] * 9 + [0.89, 0.90] + [2.0] * 9
        nearest = abs(benchstats.percentile(after, 0.5) - benchstats.percentile(before, 0.5))
        smooth = abs(benchstats.hd_median(after) - benchstats.hd_median(before))
        assert smooth < nearest / 5


class TestSelfTime:
    """Self time is duration minus the time child spans cover."""

    def test_nested_spans(self):
        """Three levels of nesting; self times add up to the root."""
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.begin("job")  # 0 .. 10
        clock.now = 1.0
        tracer.begin("search")  # 1 .. 8
        clock.now = 2.0
        tracer.begin("price")  # 2 .. 3
        clock.now = 3.0
        tracer.end()
        clock.now = 5.0
        tracer.begin("price")  # 5 .. 7
        clock.now = 7.0
        tracer.end()
        clock.now = 8.0
        tracer.end()
        clock.now = 10.0
        tracer.end()
        assert tracer.total_s == {"job": 10.0, "search": 7.0, "price": 3.0}
        assert tracer.self_s == {"job": 3.0, "search": 4.0, "price": 3.0}
        assert tracer.calls["price"] == 2
        assert tracer.stage_sum_s() == 10.0

    def test_same_name_nesting_is_not_double_counted(self):
        """A span nested in one of its own name."""
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.begin("engine")
        clock.now = 1.0
        tracer.begin("engine")
        clock.now = 3.0
        tracer.end()
        clock.now = 4.0
        tracer.end()
        assert tracer.self_s["engine"] == 4.0
        assert tracer.total_s["engine"] == 6.0


class TestBacklog:
    """Backlog growth detection on a rate phase."""

    def test_steady_phase(self):
        """A service keeping up does not grow its backlog."""
        sent = [i * 0.01 for i in range(1000)]
        finished = [s + 0.02 for s in sent]
        assert not benchstats.backlog_grows(sent, finished, 0.0, 9.99)

    def test_overloaded_phase(self):
        """A service serving slower than offered does."""
        # Offered 100/s, served 60/s: the queue grows all phase long.
        sent = [i * 0.01 for i in range(1000)]
        finished = [(i + 1) / 60.0 for i in range(1000)]
        assert benchstats.backlog_grows(sent, finished, 0.0, 9.99)

    def test_refused_jobs_stay_in_backlog(self):
        """Jobs that never finish count as backlog."""
        sent = [i * 0.01 for i in range(1000)]
        finished = [s + 0.02 if i < 500 else math.inf for i, s in enumerate(sent)]
        assert benchstats.backlog_grows(sent, finished, 0.0, 9.99)

    def test_backlog_at(self):
        """Backlog at one instant."""
        assert benchstats.backlog_at(1.5, [0, 1, 2], [0.5, math.inf, 3]) == 1

    def test_empty_phase_rejected(self):
        """A phase needs a positive length."""
        with pytest.raises(ValueError):
            benchstats.backlog_grows([], [], 1.0, 1.0)


class TestGeomean:
    """The geometric mean."""

    def test_values(self):
        """Known values."""
        assert benchstats.geomean([1.0, 100.0]) == pytest.approx(10.0)
        assert benchstats.geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_rejects_bad_input(self):
        """Empty or non-positive input raises."""
        with pytest.raises(ValueError):
            benchstats.geomean([])
        with pytest.raises(ValueError):
            benchstats.geomean([1.0, 0.0])


class TestErrorRate:
    """The error-rate accounting."""

    def test_accounting(self):
        """Counts, reasons and merging."""
        tally = benchstats.ErrorTally()
        tally.ok()
        tally.ok()
        tally.fail("http_429")
        tally.fail("http_429")
        assert (tally.attempted, tally.failed, tally.rate) == (4, 2, 0.5)
        assert tally.reasons == {"http_429": 2}
        other = benchstats.ErrorTally()
        other.fail("timeout")
        tally.merge(other)
        assert (tally.attempted, tally.failed) == (5, 3)
        assert tally.reasons == {"http_429": 2, "timeout": 1}

    def test_empty_rate(self):
        """Nothing attempted reads 0."""
        assert benchstats.ErrorTally().rate == 0.0

    @pytest.mark.parametrize(
        "status, record, reason",
        [
            (202, {"state": "done"}, None),
            (None, None, "timeout"),
            (429, None, "http_429"),
            (503, None, "http_5xx"),
            (400, None, "http_400"),
            (202, {"state": "failed"}, "state_failed"),
            (202, {"state": "cancelled"}, "state_cancelled"),
            # An acknowledged id the service evicted past keep_records
            # is unverified: a failure, never a success or a skip.
            (202, None, "evicted_404"),
        ],
    )
    def test_classify(self, status, record, reason):
        """Each failure class of a service job."""
        assert benchstats.classify_submission(status, record) == reason

    def test_eviction_counts_against_error_rate(self):
        """An evicted acknowledged id is a failure, not a skip."""
        tally = benchstats.ErrorTally()
        for status, record in [(202, {"state": "done"}), (202, None)]:
            reason = benchstats.classify_submission(status, record)
            tally.ok() if reason is None else tally.fail(reason)
        assert tally.rate == 0.5
        assert tally.reasons == {"evicted_404": 1}


def test_spread_share():
    """Quartile spread as a share of the median."""
    values = [10.0, 10.0, 10.0, 10.0, 11.0, 11.0, 11.0, 11.0, 12.0, 12.0]
    # quantiles (exclusive): q1 = 10, median = 11, q3 = 11.25
    assert benchstats.spread_share(values) == pytest.approx(1.25 / 11.0)


class TestRungs:
    """A fixed-rate rung is judged on its phases pooled."""

    @pytest.mark.parametrize("profile", [servicebench.FLOOD, servicebench.FLEET])
    def test_configured_rungs_support_their_tail(self, profile):
        """At the benchmark's run length every rung holds enough jobs
        for a supported tail percentile."""
        sizes = {}
        for name, _, jobs in servicebench.phase_plan(profile, RUN_SECONDS):
            sizes[name] = sizes.get(name, 0) + jobs
        for name in ("low", "high"):
            latencies = [0.01] * sizes[name]
            assert benchstats.percentile(latencies, servicebench.TAIL_Q) is not None

    def test_warm_jobs_only_at_fixed_rates(self):
        """Fill and saturation bursts send no warm-start jobs, so every
        burst starts from the same stored corpus; the fixed-rate phases
        carry the warm share."""
        factory = servicebench.JobFactory(servicebench.FLEET, seed=3)
        plan = servicebench.phase_plan(servicebench.FLEET, RUN_SECONDS, baseline=True)
        for name, _, bodies in servicebench.planned_bodies(factory, plan):
            warm = sum(1 for b in bodies if b.get("warm_start", "off") != "off")
            if name in servicebench.RATED:
                assert warm == round(servicebench.WARM_SHARE * len(bodies))
            else:
                assert warm == 0

    @staticmethod
    def _phase(latencies, failed=0, grows=False):
        tally = benchstats.ErrorTally()
        for _ in latencies:
            tally.ok()
        for _ in range(failed):
            tally.fail("http_429")
        return {"rate": 40.0, "latencies": latencies, "lags": [0.001] * len(latencies),
                "tally": tally, "backlog_grows": grows}

    def test_pooled_chunks_meet(self):
        """Three chunks too small for a p95 each are judged together."""
        chunks = [self._phase([0.01] * 120) for _ in range(3)]
        assert benchstats.percentile(chunks[0]["latencies"], servicebench.TAIL_Q) is None
        verdict = servicebench.rung_verdict(chunks, tail_limit=0.25)
        assert verdict["met"] and verdict["latency_samples"] == 360

    def test_one_failure_or_growth_fails_the_rung(self):
        """Any chunk failing a job or growing its backlog fails the rung."""
        ok = [self._phase([0.01] * 120) for _ in range(2)]
        assert not servicebench.rung_verdict(ok + [self._phase([0.01] * 119, failed=1)],
                                             tail_limit=0.25)["met"]
        assert not servicebench.rung_verdict(ok + [self._phase([0.01] * 120, grows=True)],
                                             tail_limit=0.25)["met"]

    def test_slow_tail_fails_the_rung(self):
        """A pooled p95 over the limit fails the rung."""
        slow = [self._phase([0.01] * 100 + [1.0] * 20) for _ in range(3)]
        assert not servicebench.rung_verdict(slow, tail_limit=0.25)["met"]


def test_host_scale():
    """Times scale by reference over the median calibration sample."""
    ref = benchstats.CAL_REF_S
    # A host twice as slow as the reference halves every time.
    assert benchstats.host_scale([2 * ref, 2 * ref, 50 * ref]) == pytest.approx(0.5)
    assert benchstats.host_scale([ref]) == pytest.approx(1.0)
    assert benchstats.calibrate() > 0


def test_calibrate_cores_restores_affinity():
    """The per-core calibration leaves the process on all its CPUs."""
    before = os.sched_getaffinity(0)
    assert benchstats.calibrate_cores(samples=1) > 0
    assert os.sched_getaffinity(0) == before


def test_steady_rate():
    """The middle of a burst, without its ramp-up and stragglers."""
    # 100 jobs done 10 ms apart, then one straggler a second later.
    finished = [i * 0.01 for i in range(100)] + [2.0]
    # ranks 10 .. 90: 80 completions over 0.8 s
    assert benchstats.steady_rate(finished) == pytest.approx(100.0)
    assert benchstats.steady_rate([1.0]) == 0.0
