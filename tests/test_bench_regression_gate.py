"""The CI bench-regression gate (scripts/check_bench_regression.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_bench_regression", gate)
_spec.loader.exec_module(gate)


def _artifact(path, clocks, multi_seed=None, mega_batch=None,
              warm_start=None, backend="reference", profile=None):
    payload = {
        "version": "1.0.0",
        "schema_version": 4,
        "platform": "jetson_tx2",
        "kernel": {
            "backend": backend,
            "numba_available": backend == "numba",
            "speedup": {},
        },
        "search_wall_clock_s": clocks,
        "multi_seed": multi_seed or {},
        "mega_batch": mega_batch or {},
        "warm_start": warm_start or {},
    }
    if profile is not None:
        payload.update(schema_version=6, profile_wall_clock_s=profile)
    path.write_text(json.dumps(payload))
    return path


def _ratio_entry(ratio, wall=1.0):
    return {"seeds": 8, "wall_clock_s": wall, "ratio": ratio}


class TestCheck:
    def test_passes_within_threshold(self):
        base = {"lenet5": 0.10, "resnet50": 0.30}
        now = {"lenet5": 0.12, "resnet50": 0.40}
        assert gate.check(base, now, threshold=1.5, min_seconds=0.05) == []

    def test_fails_on_regression(self):
        base = {"lenet5": 0.10, "resnet50": 0.30}
        now = {"lenet5": 0.10, "resnet50": 0.70}
        failures = gate.check(base, now, threshold=1.5, min_seconds=0.05)
        assert len(failures) == 1 and "resnet50" in failures[0]

    def test_noise_floor_skips_tiny_entries(self):
        base = {"lenet5": 0.001}
        now = {"lenet5": 0.004}  # 4x, but both under the floor
        assert gate.check(base, now, threshold=1.5, min_seconds=0.05) == []
        # Above the floor on one side, the ratio counts again.
        now = {"lenet5": 0.2}
        assert gate.check(base, now, threshold=1.5, min_seconds=0.05)

    def test_only_common_networks_compared(self):
        base = {"lenet5": 0.10}
        now = {"vgg19": 9.99}
        assert gate.check(base, now, threshold=1.5, min_seconds=0.05) == []


class TestCheckRatios:
    def test_passes_within_threshold(self):
        base = {"mobilenet_v1": _ratio_entry(3.3)}
        now = {"mobilenet_v1": _ratio_entry(3.9)}
        assert gate.check_ratios(base, now, threshold=1.5, min_seconds=0.05) == []

    def test_fails_on_ratio_regression(self):
        base = {"mobilenet_v1": _ratio_entry(3.3)}
        now = {"mobilenet_v1": _ratio_entry(6.0)}
        failures = gate.check_ratios(base, now, threshold=1.5, min_seconds=0.05)
        assert len(failures) == 1
        assert "multi_seed" in failures[0] and "mobilenet_v1" in failures[0]

    def test_noise_floor_uses_multi_seed_wall_clock(self):
        base = {"mobilenet_v1": _ratio_entry(3.0, wall=0.002)}
        now = {"mobilenet_v1": _ratio_entry(9.0, wall=0.003)}
        assert gate.check_ratios(base, now, threshold=1.5, min_seconds=0.05) == []
        # Above the floor on one side, the growth counts again.
        now = {"mobilenet_v1": _ratio_entry(9.0, wall=0.4)}
        assert gate.check_ratios(base, now, threshold=1.5, min_seconds=0.05)

    def test_schema_v2_artifacts_not_ratio_gated(self, tmp_path):
        legacy = {"search_wall_clock_s": {"lenet5": 0.1}}
        assert gate.multi_seed_of(legacy) == {}
        assert gate.ratio_section_of(legacy, "mega_batch") == {}

    def test_mega_batch_section_labeled(self):
        base = {"mobilenet_v1": _ratio_entry(20.0)}
        now = {"mobilenet_v1": _ratio_entry(38.0)}
        failures = gate.check_ratios(
            base, now, threshold=1.5, min_seconds=0.05, section="mega_batch"
        )
        assert len(failures) == 1 and "mega_batch" in failures[0]


class TestMain:
    def test_exit_zero_on_identical(self, tmp_path, capsys):
        artifact = _artifact(tmp_path / "a.json", {"lenet5": 0.1, "vgg19": 0.2})
        code = gate.main(
            ["--baseline", str(artifact), "--current", str(artifact)]
        )
        assert code == 0
        assert "passed" in capsys.readouterr().out

    def test_exit_one_on_injected_2x_slowdown(self, tmp_path, capsys):
        base = _artifact(tmp_path / "base.json", {"lenet5": 0.1, "vgg19": 0.2})
        slow = _artifact(tmp_path / "slow.json", {"lenet5": 0.2, "vgg19": 0.4})
        code = gate.main(["--baseline", str(base), "--current", str(slow)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_exit_one_on_ratio_regression_alone(self, tmp_path, capsys):
        base = _artifact(
            tmp_path / "base.json",
            {"lenet5": 0.1},
            multi_seed={"resnet50": _ratio_entry(3.2, wall=0.4)},
        )
        slow = _artifact(
            tmp_path / "slow.json",
            {"lenet5": 0.1},
            multi_seed={"resnet50": _ratio_entry(6.5, wall=0.8)},
        )
        code = gate.main(["--baseline", str(base), "--current", str(slow)])
        assert code == 1
        assert "multi_seed" in capsys.readouterr().out

    def test_exit_one_on_mega_batch_regression_alone(self, tmp_path, capsys):
        base = _artifact(
            tmp_path / "base.json",
            {"lenet5": 0.1},
            mega_batch={"mobilenet_v1": _ratio_entry(18.0, wall=2.0)},
        )
        slow = _artifact(
            tmp_path / "slow.json",
            {"lenet5": 0.1},
            mega_batch={"mobilenet_v1": _ratio_entry(39.0, wall=4.5)},
        )
        code = gate.main(["--baseline", str(base), "--current", str(slow)])
        assert code == 1
        assert "mega_batch" in capsys.readouterr().out

    def test_exit_one_on_warm_start_regression_alone(self, tmp_path, capsys):
        """Transfer-quality regressions gate without a noise floor —
        episodes-to-match ratios are deterministic episode counts, so
        even sub-floor wall clocks must not mute the comparison."""
        warm = {"kind": "stored", "wall_clock_s": 0.01}
        base = _artifact(
            tmp_path / "base.json",
            {"lenet5": 0.1},
            warm_start={"tiny_yolo_v2": dict(warm, ratio=0.3)},
        )
        slow = _artifact(
            tmp_path / "slow.json",
            {"lenet5": 0.1},
            warm_start={"tiny_yolo_v2": dict(warm, ratio=0.5)},
        )
        code = gate.main(["--baseline", str(base), "--current", str(slow)])
        assert code == 1
        assert "warm_start" in capsys.readouterr().out

    def test_warm_start_growth_within_threshold_passes(self, tmp_path):
        warm = {"kind": "stored", "wall_clock_s": 0.01}
        base = _artifact(
            tmp_path / "base.json",
            {"lenet5": 0.1},
            warm_start={"tiny_yolo_v2": dict(warm, ratio=0.40)},
        )
        now = _artifact(
            tmp_path / "now.json",
            {"lenet5": 0.1},
            warm_start={"tiny_yolo_v2": dict(warm, ratio=0.50)},
        )
        assert gate.main(
            ["--baseline", str(base), "--current", str(now)]
        ) == 0

    def test_exit_one_when_nothing_overlaps(self, tmp_path):
        base = _artifact(tmp_path / "base.json", {"lenet5": 0.1})
        now = _artifact(tmp_path / "now.json", {"vgg19": 0.1})
        assert gate.main(["--baseline", str(base), "--current", str(now)]) == 1

    def test_backend_mismatch_skips_gate(self, tmp_path, capsys):
        """numba clocks vs a reference baseline are not comparable —
        the gate must skip (not pass vacuously, not fail spuriously)."""
        base = _artifact(tmp_path / "base.json", {"lenet5": 0.15})
        fast = _artifact(
            tmp_path / "fast.json", {"lenet5": 0.9}, backend="numba"
        )
        code = gate.main(["--baseline", str(base), "--current", str(fast)])
        assert code == 0
        assert "not comparable" in capsys.readouterr().out

    def test_legacy_schema_counts_as_reference_backend(self, tmp_path):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"search_wall_clock_s": {"lenet5": 0.1}}))
        current = _artifact(tmp_path / "cur.json", {"lenet5": 0.1})
        assert gate.main(["--baseline", str(legacy), "--current", str(current)]) == 0

    def test_missing_baseline_fails_with_marching_orders(self, tmp_path, capsys):
        """A missing baseline must not pass silently — and the failure
        must tell the operator exactly how to regenerate the file."""
        artifact = _artifact(tmp_path / "a.json", {"lenet5": 0.1})
        code = gate.main(
            ["--baseline", str(tmp_path / "nope.json"), "--current", str(artifact)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "bench_search_runtime.py" in out  # the regeneration command
        assert "commit" in out

    def test_missing_current_fails_with_marching_orders(self, tmp_path, capsys):
        artifact = _artifact(tmp_path / "a.json", {"lenet5": 0.1})
        code = gate.main(
            ["--baseline", str(artifact), "--current", str(tmp_path / "nope.json")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "-k summary" in out

    def test_unreadable_artifact_is_fatal(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = _artifact(tmp_path / "good.json", {"lenet5": 0.1})
        with pytest.raises(SystemExit):
            gate.main(["--baseline", str(bad), "--current", str(good)])

    def test_empty_clocks_fatal(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"search_wall_clock_s": {}}))
        good = _artifact(tmp_path / "good.json", {"lenet5": 0.1})
        with pytest.raises(SystemExit):
            gate.main(["--baseline", str(bad), "--current", str(good)])


class TestProfileWallClocks:
    def test_exit_one_on_profile_regression_alone(self, tmp_path, capsys):
        base = _artifact(
            tmp_path / "base.json", {"lenet5": 0.1}, profile={"lenet5": 0.1}
        )
        slow = _artifact(
            tmp_path / "slow.json", {"lenet5": 0.1}, profile={"lenet5": 0.2}
        )
        assert gate.main(["--baseline", str(base), "--current", str(slow)]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "[profile]" in out

    def test_profile_growth_within_threshold_passes(self, tmp_path):
        base = _artifact(
            tmp_path / "base.json", {"lenet5": 0.1}, profile={"lenet5": 0.1}
        )
        now = _artifact(
            tmp_path / "now.json", {"lenet5": 0.1}, profile={"lenet5": 0.14}
        )
        assert gate.main(["--baseline", str(base), "--current", str(now)]) == 0

    def test_profile_noise_floor_applies(self, tmp_path):
        base = _artifact(
            tmp_path / "base.json", {"lenet5": 0.1}, profile={"lenet5": 0.004}
        )
        now = _artifact(
            tmp_path / "now.json", {"lenet5": 0.1}, profile={"lenet5": 0.016}
        )
        assert gate.main(["--baseline", str(base), "--current", str(now)]) == 0

    def test_baseline_without_the_section_is_not_gated(self, tmp_path, capsys):
        base = _artifact(tmp_path / "base.json", {"lenet5": 0.1})
        now = _artifact(
            tmp_path / "now.json", {"lenet5": 0.1}, profile={"lenet5": 99.0}
        )
        assert gate.main(["--baseline", str(base), "--current", str(now)]) == 0
        assert "not in the baseline" in capsys.readouterr().out
        assert gate.profile_clocks_of(json.loads(base.read_text())) == {}


def _service_artifact(path, jobs_per_s, fleet_speedup=5.0):
    """A minimal service-throughput artifact (mode -> jobs/s)."""
    path.write_text(
        json.dumps(
            {
                "version": "1.0.0",
                "schema_version": 1,
                "kind": "service_throughput",
                "jobs": 60,
                "modes": {
                    name: {"jobs_per_s": value}
                    for name, value in jobs_per_s.items()
                },
                "speedup": {"fleet": fleet_speedup},
            }
        )
    )
    return path


_SERVICE_RATES = {"local": 240.0, "fleet_legacy": 80.0, "fleet_batched": 450.0}


class TestCheckService:
    def test_passes_within_threshold(self):
        failures = gate.check_service(
            {"local": 100.0}, {"local": 60.0}, threshold=2.0
        )
        assert failures == []

    def test_fails_on_throughput_drop(self):
        failures = gate.check_service(
            {"fleet_batched": 450.0}, {"fleet_batched": 100.0}, threshold=2.0
        )
        assert len(failures) == 1
        assert "fleet_batched" in failures[0]

    def test_speedups_never_fail(self):
        # jobs/s going UP is not a regression, whatever the factor.
        assert (
            gate.check_service({"local": 10.0}, {"local": 99.0}, threshold=1.1)
            == []
        )

    def test_only_common_modes_compared(self):
        failures = gate.check_service(
            {"gone_mode": 100.0}, {"new_mode": 1.0}, threshold=2.0
        )
        assert failures == []


class TestServiceMain:
    def test_exit_zero_on_identical(self, tmp_path, capsys):
        base = _service_artifact(tmp_path / "b.json", _SERVICE_RATES)
        cur = _service_artifact(tmp_path / "c.json", _SERVICE_RATES)
        code = gate.main(
            ["--baseline", str(base), "--current", str(cur)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet speedup" in out
        assert "passed" in out

    def test_exit_one_on_mode_slowdown(self, tmp_path, capsys):
        base = _service_artifact(tmp_path / "b.json", _SERVICE_RATES)
        slowed = dict(_SERVICE_RATES, fleet_batched=100.0)
        cur = _service_artifact(tmp_path / "c.json", slowed)
        code = gate.main(
            ["--baseline", str(base), "--current", str(cur), "--threshold", "2.0"]
        )
        assert code == 1
        assert "fleet_batched" in capsys.readouterr().out

    def test_exit_one_when_speedup_floor_broken(self, tmp_path, capsys):
        base = _service_artifact(tmp_path / "b.json", _SERVICE_RATES)
        cur = _service_artifact(
            tmp_path / "c.json", _SERVICE_RATES, fleet_speedup=1.4
        )
        code = gate.main(
            [
                "--baseline", str(base),
                "--current", str(cur),
                "--min-speedup", "2.5",
            ]
        )
        assert code == 1
        assert "below the 2.5x floor" in capsys.readouterr().out

    def test_exit_one_on_kind_mismatch(self, tmp_path, capsys):
        base = _artifact(tmp_path / "b.json", {"fig1_toy": 1.0})
        cur = _service_artifact(tmp_path / "c.json", _SERVICE_RATES)
        code = gate.main(["--baseline", str(base), "--current", str(cur)])
        assert code == 1
        assert "different" in capsys.readouterr().out

    def test_search_artifacts_keep_the_old_path(self, tmp_path, capsys):
        base = _artifact(tmp_path / "b.json", {"fig1_toy": 1.0})
        cur = _artifact(tmp_path / "c.json", {"fig1_toy": 1.0})
        code = gate.main(["--baseline", str(base), "--current", str(cur)])
        assert code == 0
        assert "service" not in capsys.readouterr().out.lower()
