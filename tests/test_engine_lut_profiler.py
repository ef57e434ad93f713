"""Tests for the latency table, profiler and compatibility profiling."""

from __future__ import annotations

import pytest

from repro.backends import Mode, design_space, gpgpu_space
from repro.backends.layout import conversion_ms
from repro.engine import InferenceEngineOptimizer, Profiler
from repro.engine.compat import profile_compatibility
from repro.engine.executor import Executor
from repro.engine.lut import LatencyTable, PrimitiveMeta
from repro.engine.schedule import primitive_type_schedule, vanilla_schedule
from repro.errors import LookupError_, ProfilingError, ScheduleError
from repro.hw import jetson_tx2
from repro.hw.processor import ProcessorKind
from repro.utils.rng import RngStream
from repro.zoo import build_network

from tests.helpers import synthetic_chain_lut


class TestLatencyTableLookups:
    def test_layer_time_present(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        assert lut.layer_time("conv1", "vanilla.direct.conv") > 0

    def test_missing_pair_raises(self, lenet_lut_gpgpu):
        with pytest.raises(LookupError_):
            lenet_lut_gpgpu.layer_time("conv1", "cublas.gemv.sgemv")

    def test_missing_layer_raises(self, lenet_lut_gpgpu):
        with pytest.raises(LookupError_):
            lenet_lut_gpgpu.layer_time("ghost", "vanilla.direct.conv")

    def test_best_uid_is_fastest(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        best = lut.best_uid("conv2")
        assert all(
            lut.layer_time("conv2", best) <= lut.layer_time("conv2", u)
            for u in lut.candidates["conv2"]
        )

    def test_best_uid_within_subset(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        vans = {u for u in lut.candidates["conv1"] if u.startswith("vanilla")}
        assert lut.best_uid("conv1", within=vans) in vans

    def test_best_uid_empty_subset_raises(self, lenet_lut_gpgpu):
        with pytest.raises(LookupError_):
            lenet_lut_gpgpu.best_uid("conv1", within={"nope"})

    def test_penalty_same_proc_same_layout_zero(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        edge = ("conv1", "pool1")
        p = lut.penalty(edge, "vanilla.direct.conv", "vanilla.direct.pool")
        assert p == 0.0

    def test_penalty_processor_switch_positive(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        edge = ("conv1", "pool1")
        p = lut.penalty(edge, "vanilla.direct.conv", "cudnn.direct.pool")
        assert p > 0.0

    def test_penalty_layout_switch_positive(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        edge = ("conv1", "pool1")
        p = lut.penalty(edge, "armcl.gemm.neon", "vanilla.direct.pool")
        assert p > 0.0

    def test_penalty_layout_free_for_degenerate_tensor(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        # ip1 output is 500x1x1: layouts coincide, conversion is free.
        edge = ("ip1", "relu1")
        p = lut.penalty(edge, "armcl.gemv.neon", "vanilla.direct.eltwise")
        assert p == 0.0

    def test_schedule_time_matches_manual_sum(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        assignments = {l: lut.candidates[l][0] for l in lut.layers}
        manual = sum(lut.layer_time(l, assignments[l]) for l in lut.layers)
        manual += sum(
            lut.penalty(e, assignments[e[0]], assignments[e[1]])
            for e in lut.edges
        )
        assert lut.schedule_time(assignments) == pytest.approx(manual)

    def test_schedule_time_missing_layer_raises(self, lenet_lut_gpgpu):
        with pytest.raises(ScheduleError):
            lenet_lut_gpgpu.schedule_time({})


class TestIndexedLUT:
    def test_roundtrip_assignments(self, lenet_lut_gpgpu):
        idx = lenet_lut_gpgpu.indexed()
        import numpy as np

        choices = np.zeros(len(idx), dtype=np.int64)
        assignments = idx.assignments(choices)
        assert set(assignments) == set(lenet_lut_gpgpu.layers)

    def test_total_matches_schedule_time(self, lenet_lut_gpgpu):
        import numpy as np

        lut = lenet_lut_gpgpu
        idx = lut.indexed()
        rng = np.random.default_rng(3)
        for _ in range(10):
            choices = np.array(
                [rng.integers(n) for n in idx.num_actions], dtype=np.int64
            )
            assert idx.total_ms(choices) == pytest.approx(
                lut.schedule_time(idx.assignments(choices))
            )

    def test_edge_matrices_nonnegative(self, squeezenet_lut_gpgpu):
        idx = squeezenet_lut_gpgpu.indexed()
        for matrix in idx.edge_matrices:
            assert (matrix >= 0).all()

    def test_incoming_covers_all_edges(self, squeezenet_lut_gpgpu):
        idx = squeezenet_lut_gpgpu.indexed()
        assert sum(len(inc) for inc in idx.incoming) == len(idx.edges)


class TestPenaltyErrorConsistency:
    """Both penalty branches raise LookupError_, never a raw KeyError."""

    def test_missing_transfer_entry(self):
        lut = synthetic_chain_lut(3, 4, seed=2)
        edge = lut.edges[0]
        del lut.transfer_ms[edge]
        # prim0 (CPU) -> prim1 (GPU): processor switch needs a transfer.
        with pytest.raises(LookupError_):
            lut.penalty(edge, "prim0", "prim1")

    def test_missing_conversion_entry(self):
        lut = synthetic_chain_lut(3, 4, seed=2)
        edge = lut.edges[0]
        del lut.conversion_ms[edge]
        # prim0 (CPU/NCHW) -> prim2 (CPU/NHWC): layout switch only.
        with pytest.raises(LookupError_):
            lut.penalty(edge, "prim0", "prim2")

    def test_missing_conversion_processor(self):
        lut = synthetic_chain_lut(3, 4, seed=2)
        edge = lut.edges[0]
        del lut.conversion_ms[edge][ProcessorKind.CPU]
        with pytest.raises(LookupError_):
            lut.penalty(edge, "prim0", "prim2")


class TestSerialization:
    def test_json_roundtrip(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        clone = LatencyTable.from_json(lut.to_json())
        assert clone.layers == lut.layers
        assert clone.graph_name == lut.graph_name
        assert clone.times_ms == lut.times_ms
        assert clone.edges == lut.edges
        assert clone.transfer_ms == lut.transfer_ms

    def test_roundtrip_preserves_schedule_time(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        clone = LatencyTable.from_json(lut.to_json())
        assignments = {l: lut.best_uid(l) for l in lut.layers}
        assert clone.schedule_time(assignments) == pytest.approx(
            lut.schedule_time(assignments)
        )

    def test_synthetic_roundtrip(self):
        lut = synthetic_chain_lut(4, 3, seed=9)
        clone = LatencyTable.from_json(lut.to_json())
        assignments = {l: lut.candidates[l][1] for l in lut.layers}
        assert clone.schedule_time(assignments) == pytest.approx(
            lut.schedule_time(assignments)
        )

    def test_roundtrip_preserves_floats_bitwise(self):
        lut = synthetic_chain_lut(5, 4, seed=11)
        clone = LatencyTable.from_json(lut.to_json())
        assert clone.times_ms == lut.times_ms
        assert clone.conversion_ms == lut.conversion_ms
        assert clone.transfer_ms == lut.transfer_ms

    def test_roundtrip_preserves_layer_depth(self):
        """Regression: non-positional depths (branchy graphs) used to be
        dropped by to_json and silently revert to index order."""
        lut = synthetic_chain_lut(4, 3, seed=9)
        lut.layer_depth = {
            "layer0": 0, "layer1": 5, "layer2": 6, "layer3": 9
        }
        clone = LatencyTable.from_json(lut.to_json())
        assert clone.layer_depth == lut.layer_depth
        # And a second hop stays stable too (cache round-trips chain).
        again = LatencyTable.from_json(clone.to_json())
        assert again.layer_depth == lut.layer_depth

    def test_legacy_format1_payload_still_loads(self):
        """Old caches hold format-1 payloads ('u->v' string edge keys,
        no layer_depth); they must keep loading, with the positional
        depth fallback."""
        import json

        lut = synthetic_chain_lut(3, 2, seed=4)
        payload = json.loads(lut.to_json())
        del payload["format"]
        del payload["layer_depth"]
        payload["conversion_ms"] = {
            f"{u}->{v}": per_proc
            for (u, v), per_proc in payload["conversion_ms"]
        }
        payload["transfer_ms"] = {
            f"{u}->{v}": ms for (u, v), ms in payload["transfer_ms"]
        }
        clone = LatencyTable.from_json(json.dumps(payload))
        assert clone.conversion_ms.keys() == lut.conversion_ms.keys()
        assert clone.transfer_ms == lut.transfer_ms
        assert clone.layer_depth == {l: i for i, l in enumerate(lut.layers)}

    def test_legacy_ambiguous_edge_key_rejected(self):
        """A format-1 key that splits into more than two parts must fail
        loudly instead of silently corrupting the penalty tables."""
        import json

        lut = synthetic_chain_lut(3, 2, seed=4)
        payload = json.loads(lut.to_json())
        payload["transfer_ms"] = {"a->b->c": 1.0}
        with pytest.raises(ProfilingError):
            LatencyTable.from_json(json.dumps(payload))

    def test_arrow_layer_names_rejected_on_serialize(self):
        """Names containing '->' would be ambiguous to format-1 readers
        of the payload; serialization refuses them."""
        lut = synthetic_chain_lut(3, 2, seed=4)
        lut.layers[1] = "conv->relu"
        with pytest.raises(ProfilingError):
            lut.to_json()

    def test_format2_edge_tables_survive_arrowless_roundtrip(self):
        """Format 2 stores edges as JSON arrays: the keys come back as
        exact (producer, consumer) tuples, not re-split strings."""
        import json

        lut = synthetic_chain_lut(3, 2, seed=4)
        payload = json.loads(lut.to_json())
        assert payload["format"] == 2
        assert all(
            isinstance(pair, list) and len(pair) == 2
            for pair, _ in payload["conversion_ms"]
        )
        clone = LatencyTable.from_json(json.dumps(payload))
        assert clone.conversion_ms.keys() == lut.conversion_ms.keys()


class TestProfiler:
    def test_lut_complete_for_all_candidates(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        for layer, uids in lut.candidates.items():
            for uid in uids:
                assert lut.layer_time(layer, uid) > 0

    def test_inference_count_is_primitive_types_present(self, tx2=None):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        space = gpgpu_space(platform)
        profiler = Profiler(graph, space, platform, seed=0, repeats=5)
        lut, report = profiler.profile()
        # 1 vanilla pass + one per non-vanilla primitive present in LeNet.
        present = {
            p.uid
            for p in space.primitives
            if p.library != "vanilla"
            and any(p.supports(l, graph) for l in graph.layers())
        }
        assert report.network_inferences == 1 + len(present)
        assert report.compatibility_passes == 1
        assert report.total_passes == report.network_inferences + 1
        assert lut.profiling_inferences == report.network_inferences

    def test_profiling_much_cheaper_than_exhaustive(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        space = gpgpu_space(platform)
        profiler = Profiler(graph, space, platform, seed=0, repeats=5)
        _, report = profiler.profile()
        assert report.network_inferences < 50  # vs 12^8 exhaustive configs

    def test_measurements_near_true_model(self):
        quiet = jetson_tx2(noise_sigma=0.0)
        noisy = jetson_tx2(noise_sigma=0.03)
        graph = build_network("lenet5")
        lut_q = InferenceEngineOptimizer(
            graph, quiet, mode=Mode.GPGPU, seed=0
        ).profile()
        lut_n = InferenceEngineOptimizer(
            graph, noisy, mode=Mode.GPGPU, seed=0
        ).profile()
        for layer in lut_q.layers:
            for uid in lut_q.candidates[layer]:
                true = lut_q.layer_time(layer, uid)
                measured = lut_n.layer_time(layer, uid)
                assert measured == pytest.approx(true, rel=0.05)

    def test_bad_repeats_rejected(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        with pytest.raises(ProfilingError):
            Profiler(graph, gpgpu_space(platform), platform, repeats=0)


def _reference_profile(graph, space, platform, seed, repeats=50):
    """The inference phase written straight out, one value at a time.

    Every layer's candidates come from ``space.candidates`` wherever
    they are needed, every pass's schedule from ``vanilla_schedule`` /
    ``primitive_type_schedule``, and every measurement is its own
    ``sample_mean`` draw, in the board's order: layers, then the edges
    with a non-zero penalty.  ``Profiler.profile`` must produce the
    same LUT bytes and the same simulated board time.
    """
    streams = RngStream(seed, "profiler", graph.name, str(space.mode))
    executor = Executor(graph, space, platform)
    noise = platform.noise

    def run(schedule, rng):
        layer_ms = {
            l.name: noise.sample_mean(
                executor.true_layer_ms(l.name, schedule.primitive_uid(l.name)),
                rng, repeats,
            )
            for l in graph.layers()
        }
        penalty_ms = {}
        for producer, consumer in graph.edges():
            true_ms = executor.true_penalty_ms(
                producer, consumer,
                schedule.primitive_uid(producer), schedule.primitive_uid(consumer),
            )
            if true_ms != 0.0:
                penalty_ms[producer, consumer] = noise.sample_mean(
                    true_ms, rng, repeats
                )
        nonlocal board_ms
        board_ms += (
            sum(layer_ms.values()) + sum(penalty_ms.values())
        ) * repeats
        return layer_ms

    board_ms = 0.0
    times = {l.name: {} for l in graph.layers()}
    base = vanilla_schedule(graph, space)
    layer_ms = run(base, streams.child("vanilla"))
    for layer in graph.layers():
        times[layer.name][base.primitive_uid(layer.name)] = layer_ms[layer.name]
    inferences = 1
    for prim in space.primitives:
        if prim.library == "vanilla":
            continue
        if not any(prim.supports(l, graph) for l in graph.layers()):
            continue
        schedule = primitive_type_schedule(graph, space, prim)
        layer_ms = run(schedule, streams.child("primitive", prim.uid))
        inferences += 1
        for layer in graph.layers():
            if schedule.primitive_uid(layer.name) == prim.uid:
                times[layer.name][prim.uid] = layer_ms[layer.name]

    rng = streams.child("compat")
    conversions, transfers = {}, {}
    for edge in graph.edges():
        tensor = graph.output_shape(edge[0])

        def measure(true_ms):
            return true_ms if true_ms == 0.0 else noise.sample_mean(true_ms, rng, repeats)

        conversions[edge] = {
            proc.kind: measure(conversion_ms(tensor, proc))
            for proc in platform.processors
        }
        if platform.has(ProcessorKind.GPU):
            transfers[edge] = measure(platform.transfer_ms(tensor.nbytes))
    board_ms += (
        sum(ms for per_proc in conversions.values() for ms in per_proc.values())
        + sum(transfers.values())
    ) * repeats

    lut = LatencyTable(
        graph_name=graph.name,
        mode=str(space.mode),
        platform_name=platform.name,
        layers=[l.name for l in graph.layers()],
        candidates={
            l.name: [p.uid for p in space.candidates(l, graph)]
            for l in graph.layers()
        },
        times_ms=times,
        edges=graph.edges(),
        conversion_ms=conversions,
        transfer_ms=transfers,
        meta={p.uid: PrimitiveMeta.from_primitive(p) for p in space.primitives},
        profiling_inferences=inferences,
    )
    return lut, board_ms


class TestProfilerMatchesReference:
    """A fresh profile's LUT bytes do not depend on how candidates are
    enumerated or how the noise of a board pass is drawn."""

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("mode", [Mode.CPU, Mode.GPGPU], ids=str)
    @pytest.mark.parametrize(
        "network",
        ["lenet5", "alexnet", "mtcnn_onet", "squeezenet_v1.1", "googlenet",
         "resnet50"],
    )
    def test_lut_json_byte_identical(self, network, mode, seed):
        platform = jetson_tx2()
        graph = build_network(network)
        space = design_space(mode, platform)
        lut, report = Profiler(graph, space, platform, seed=seed).profile()
        reference, board_ms = _reference_profile(graph, space, platform, seed)
        assert lut.to_json() == reference.to_json()
        assert report.network_inferences == reference.profiling_inferences
        assert report.simulated_board_ms == board_ms


class TestCompatProfiling:
    def test_every_edge_profiled(self):
        platform = jetson_tx2()
        graph = build_network("squeezenet_v1.1")
        conversions, transfers = profile_compatibility(graph, platform)
        assert set(conversions) == set(graph.edges())
        assert set(transfers) == set(graph.edges())

    def test_cpu_only_platform_has_no_transfers(self):
        from repro.hw.presets import cpu_only

        platform = cpu_only(jetson_tx2())
        graph = build_network("lenet5")
        conversions, transfers = profile_compatibility(graph, platform)
        assert transfers == {}
        for per_proc in conversions.values():
            assert set(per_proc) == {ProcessorKind.CPU}

    def test_conversion_free_for_degenerate_edges(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        conversions, _ = profile_compatibility(graph, platform)
        # ip1 -> relu1 carries a 500x1x1 tensor: layouts equivalent.
        assert conversions[("ip1", "relu1")][ProcessorKind.CPU] == 0.0


class TestOptimizerFacade:
    def test_profile_is_cached(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        opt = InferenceEngineOptimizer(graph, platform, mode=Mode.GPGPU)
        assert opt.profile() is opt.profile()

    def test_deploy_report(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        opt = InferenceEngineOptimizer(graph, platform, mode=Mode.GPGPU)
        lut = opt.profile()
        from repro.engine.schedule import vanilla_schedule

        report = opt.deploy(vanilla_schedule(graph, opt.space))
        assert report.total_ms > 0
        assert report.libraries == ["vanilla"]
        assert "Deployment" in report.render()

    def test_deploy_matches_lut_within_noise(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        opt = InferenceEngineOptimizer(graph, platform, mode=Mode.GPGPU)
        lut = opt.profile()
        assignments = {l: lut.best_uid(l) for l in lut.layers}
        from repro.engine.schedule import NetworkSchedule

        report = opt.deploy(NetworkSchedule(graph.name, assignments))
        assert report.total_ms == pytest.approx(
            lut.schedule_time(assignments), rel=0.1
        )
