"""The bench-artifact schema gate (scripts/check_bench_artifact.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_artifact.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_artifact", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_bench_artifact", gate)
_spec.loader.exec_module(gate)


def _valid_artifact(**overrides) -> dict:
    """The shape ``scripts/bench_search.py`` writes (reference leg)."""
    payload = {
        "schema_version": gate.MIN_SCHEMA_VERSION,
        "platform": "jetson_tx2",
        "search_wall_clock_s": {"fig1_toy": 0.12},
        "episodes_per_s": {"fig1_toy": 7500.0},
        "multi_seed": {"fig1_toy": {"mean_ms": 1.0}},
        "mega_batch": {"fig1_toy": {"episodes_per_s": 9000.0}},
        "kernel": {
            "backend": "reference",
            "numba_available": False,
            "speedup": {},
        },
    }
    payload.update(overrides)
    return payload


class TestCheckArtifact:
    def test_valid_reference_artifact_passes(self):
        assert gate.check_artifact(_valid_artifact()) == []

    def test_valid_numba_artifact_passes(self):
        payload = _valid_artifact(
            kernel={
                "backend": "numba",
                "numba_available": True,
                "speedup": {"fig1_toy": 11.0},
            }
        )
        assert gate.check_artifact(payload) == []

    def test_each_missing_section_is_reported(self):
        cases = {
            "search_wall_clock_s": "wall clocks",
            "platform": "platform",
            "multi_seed": "multi_seed",
            "mega_batch": "mega_batch",
            "episodes_per_s": "throughput",
        }
        for field, needle in cases.items():
            payload = _valid_artifact()
            del payload[field]
            problems = gate.check_artifact(payload)
            assert len(problems) == 1, (field, problems)
            assert needle in problems[0]

    def test_old_schema_rejected(self):
        payload = _valid_artifact(schema_version=gate.MIN_SCHEMA_VERSION - 1)
        (problem,) = gate.check_artifact(payload)
        assert "schema too old" in problem

    def test_missing_kernel_section_short_circuits(self):
        payload = _valid_artifact()
        del payload["kernel"]
        (problem,) = gate.check_artifact(payload)
        assert "kernel section" in problem

    def test_unknown_backend_reported(self):
        payload = _valid_artifact()
        payload["kernel"]["backend"] = "cuda"
        problems = gate.check_artifact(payload)
        assert any("unknown kernel backend" in p for p in problems)

    def test_numba_available_must_be_bool(self):
        payload = _valid_artifact()
        payload["kernel"]["numba_available"] = "yes"
        problems = gate.check_artifact(payload)
        assert any("must be a bool" in p for p in problems)

    def test_numba_leg_proof_obligations(self):
        """A numba leg with no recorded speedups or no mega-batch run
        silently proved nothing — the gate must say so."""
        payload = _valid_artifact(
            mega_batch={},
            kernel={
                "backend": "numba",
                "numba_available": True,
                "speedup": {},
            },
        )
        problems = gate.check_artifact(payload)
        assert any("no kernel speedups" in p for p in problems)
        assert any("no mega_batch run" in p for p in problems)

    def test_reference_leg_may_skip_speedups(self):
        payload = _valid_artifact(mega_batch={})
        assert gate.check_artifact(payload) == []


def _warm_entry(**overrides):
    entry = {
        "kind": "stored",
        "cold_best_ms": 15.9,
        "warm_best_ms": 15.9,
        "cold_episodes": 1000,
        "warm_episodes": 500,
        "episodes_to_match": 450,
        "ratio": 0.45,
        "wall_clock_s": 0.08,
    }
    entry.update(overrides)
    return entry


def _warm_artifact(**overrides):
    payload = _valid_artifact(
        schema_version=gate.WARM_SCHEMA_VERSION,
        warm_start={
            "squeezenet_v1.1": _warm_entry(),
            "tiny_yolo_v2": _warm_entry(episodes_to_match=None, ratio=0.5),
        },
    )
    payload.update(overrides)
    return payload


class TestWarmStartSection:
    def test_valid_warm_artifact_passes(self):
        assert gate.check_artifact(_warm_artifact()) == []

    def test_schema_4_artifacts_need_no_warm_section(self):
        assert gate.check_artifact(_valid_artifact()) == []

    def test_schema_5_requires_the_section(self):
        payload = _warm_artifact()
        del payload["warm_start"]
        problems = gate.check_artifact(payload)
        assert any("missing warm_start" in p for p in problems)

    def test_requires_two_held_out_networks(self):
        payload = _warm_artifact(
            warm_start={"tiny_yolo_v2": _warm_entry()}
        )
        problems = gate.check_artifact(payload)
        assert any(">= 2 held-out" in p for p in problems)

    def test_ratio_over_the_bar_fails(self):
        payload = _warm_artifact()
        payload["warm_start"]["tiny_yolo_v2"]["ratio"] = 0.51
        problems = gate.check_artifact(payload)
        assert any("ratio" in p for p in problems)
        # A never-matching run records inf, which JSON can't carry as
        # a number — a null ratio must fail too, not pass vacuously.
        payload["warm_start"]["tiny_yolo_v2"]["ratio"] = None
        assert any("ratio" in p for p in gate.check_artifact(payload))

    def test_warm_worse_than_cold_fails(self):
        payload = _warm_artifact()
        payload["warm_start"]["tiny_yolo_v2"]["warm_best_ms"] = 16.0
        problems = gate.check_artifact(payload)
        assert any("worse than" in p for p in problems)

    def test_unknown_prior_kind_fails(self):
        payload = _warm_artifact()
        payload["warm_start"]["tiny_yolo_v2"]["kind"] = "psychic"
        problems = gate.check_artifact(payload)
        assert any("kind" in p for p in problems)


def _profile_artifact(**overrides):
    payload = _warm_artifact(
        schema_version=gate.PROFILE_SCHEMA_VERSION,
        profile_wall_clock_s={"lenet5": 0.005, "resnet50": 0.054},
    )
    payload.update(overrides)
    return payload


class TestProfileSection:
    def test_valid_profile_artifact_passes(self):
        assert gate.check_artifact(_profile_artifact()) == []

    def test_schema_5_artifacts_need_no_profile_section(self):
        assert gate.check_artifact(_warm_artifact()) == []

    def test_schema_6_requires_the_section(self):
        payload = _profile_artifact()
        del payload["profile_wall_clock_s"]
        problems = gate.check_artifact(payload)
        assert any("profile_wall_clock_s" in p for p in problems)

    def test_empty_section_fails(self):
        problems = gate.check_artifact(_profile_artifact(profile_wall_clock_s={}))
        assert any("no profile wall clocks" in p for p in problems)

    def test_nonpositive_or_missing_clock_fails(self):
        payload = _profile_artifact(
            profile_wall_clock_s={"lenet5": 0.0, "resnet50": None}
        )
        problems = gate.check_artifact(payload)
        assert len(problems) == 2
        assert all("must be a positive number" in p for p in problems)


class TestMain:
    def test_valid_artifact_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "BENCH_search.json"
        path.write_text(json.dumps(_valid_artifact()))
        assert gate.main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_violations_exit_nonzero_one_line_each(self, tmp_path, capsys):
        payload = _valid_artifact()
        del payload["platform"]
        del payload["multi_seed"]
        path = tmp_path / "BENCH_search.json"
        path.write_text(json.dumps(payload))
        assert gate.main([str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("bench artifact:") == 2

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert gate.main([str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_unparsable_json_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "BENCH_search.json"
        path.write_text("{not json")
        assert gate.main([str(path)]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_print_flag_dumps_the_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_search.json"
        path.write_text(json.dumps(_valid_artifact()))
        assert gate.main(["--print", str(path)]) == 0
        assert '"schema_version"' in capsys.readouterr().out


def _service_mode(lease_batch=1, keep_alive=False, wal=False) -> dict:
    return {
        "jobs": 60,
        "jobs_per_s": 80.0,
        "wall_clock_s": 0.75,
        "p50_latency_s": 0.02,
        "p99_latency_s": 0.4,
        "lease_batch": lease_batch,
        "keep_alive": keep_alive,
        "workers": 2,
        "store": {
            "wal": wal,
            "group_commit": 32 if wal else 0,
            "flushes": 7 if wal else 61,
            "rows": 61,
            "flush_total_s": 0.01,
        },
    }


def _valid_service_artifact(**overrides) -> dict:
    """The shape ``benchmarks/bench_service_throughput.py`` writes."""
    payload = {
        "schema_version": gate.SERVICE_MIN_SCHEMA_VERSION,
        "kind": "service_throughput",
        "version": "0.0.0",
        "jobs": 60,
        "network": "fig1_toy",
        "mode": "gpgpu",
        "episodes": 4,
        "modes": {
            "local": _service_mode(lease_batch=0, keep_alive=True),
            "fleet_legacy": _service_mode(),
            "fleet_batched": _service_mode(
                lease_batch=30, keep_alive=True, wal=True
            ),
        },
        "speedup": {"fleet": 5.6},
    }
    payload.update(overrides)
    return payload


class TestCheckServiceArtifact:
    def test_valid_service_artifact_passes(self):
        assert gate.check_service_artifact(_valid_service_artifact()) == []

    def test_wrong_kind_reported(self):
        problems = gate.check_service_artifact(
            _valid_service_artifact(kind="search")
        )
        assert any("kind" in p for p in problems)

    def test_old_schema_rejected(self):
        problems = gate.check_service_artifact(
            _valid_service_artifact(schema_version=0)
        )
        assert any("schema too old" in p for p in problems)

    def test_each_missing_mode_is_reported(self):
        for name in gate.SERVICE_MODES:
            payload = _valid_service_artifact()
            del payload["modes"][name]
            problems = gate.check_service_artifact(payload)
            assert any(name in p for p in problems), name

    def test_nonpositive_throughput_reported(self):
        payload = _valid_service_artifact()
        payload["modes"]["local"]["jobs_per_s"] = 0
        problems = gate.check_service_artifact(payload)
        assert any("local.jobs_per_s" in p for p in problems)

    def test_missing_store_stats_reported(self):
        payload = _valid_service_artifact()
        del payload["modes"]["fleet_batched"]["store"]
        problems = gate.check_service_artifact(payload)
        assert any("store" in p for p in problems)

    def test_legacy_mode_must_actually_be_legacy(self):
        """A refactor that silently benchmarked batched-vs-batched
        must not produce a valid-looking artifact."""
        payload = _valid_service_artifact()
        payload["modes"]["fleet_legacy"]["lease_batch"] = 30
        payload["modes"]["fleet_legacy"]["keep_alive"] = True
        problems = gate.check_service_artifact(payload)
        assert any("one job at a time" in p for p in problems)
        assert any("connection per request" in p for p in problems)

    def test_batched_mode_must_actually_batch(self):
        payload = _valid_service_artifact()
        payload["modes"]["fleet_batched"]["lease_batch"] = 1
        payload["modes"]["fleet_batched"]["keep_alive"] = False
        problems = gate.check_service_artifact(payload)
        assert any("multi-job batches" in p for p in problems)
        assert any("reuse connections" in p for p in problems)

    def test_missing_speedup_reported(self):
        payload = _valid_service_artifact()
        del payload["speedup"]
        problems = gate.check_service_artifact(payload)
        assert any("speedup.fleet" in p for p in problems)

    def test_main_dispatches_on_kind(self, tmp_path, capsys):
        path = tmp_path / "BENCH_service.json"
        path.write_text(json.dumps(_valid_service_artifact()))
        assert gate.main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_main_rejects_broken_service_artifact(self, tmp_path, capsys):
        broken = _valid_service_artifact()
        del broken["modes"]["fleet_batched"]
        path = tmp_path / "BENCH_service.json"
        path.write_text(json.dumps(broken))
        assert gate.main([str(path)]) == 1
        assert "fleet_batched" in capsys.readouterr().out
