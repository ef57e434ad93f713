"""Tests for design-space construction (CPU vs GPGPU modes)."""

from __future__ import annotations

import pytest

from repro.backends import Mode, cpu_space, design_space, gpgpu_space
from repro.backends.registry import DesignSpace
from repro.backends import vanilla
from repro.errors import ConfigError, NoPrimitiveError
from repro.hw import jetson_tx2
from repro.hw.presets import cpu_only
from repro.hw.processor import ProcessorKind
from repro.zoo import build_network


@pytest.fixture(scope="module")
def tx2():
    return jetson_tx2()


@pytest.fixture(scope="module")
def vgg(tx2):
    return build_network("vgg19")


class TestModes:
    def test_cpu_space_has_no_gpu_primitives(self, tx2):
        space = cpu_space(tx2)
        assert all(p.processor is ProcessorKind.CPU for p in space.primitives)

    def test_gpgpu_space_has_both(self, tx2):
        space = gpgpu_space(tx2)
        procs = {p.processor for p in space.primitives}
        assert procs == {ProcessorKind.CPU, ProcessorKind.GPU}

    def test_gpgpu_mode_needs_gpu(self, tx2):
        with pytest.raises(ConfigError):
            gpgpu_space(cpu_only(tx2))

    def test_design_space_dispatch(self, tx2):
        assert design_space(Mode.CPU, tx2).mode is Mode.CPU
        assert design_space(Mode.GPGPU, tx2).mode is Mode.GPGPU

    def test_library_lists(self, tx2):
        cpu_libs = set(cpu_space(tx2).library_names())
        gpu_libs = set(gpgpu_space(tx2).library_names())
        assert cpu_libs == {"vanilla", "blas", "nnpack", "armcl", "sparse"}
        assert gpu_libs == cpu_libs | {"cudnn", "cublas"}


class TestCandidates:
    def test_every_layer_has_candidates(self, tx2, vgg):
        space = gpgpu_space(tx2)
        for layer in vgg.layers():
            assert len(space.candidates(layer, vgg)) >= 1

    def test_vanilla_always_present(self, tx2, vgg):
        space = gpgpu_space(tx2)
        for layer in vgg.layers():
            libs = {p.library for p in space.candidates(layer, vgg)}
            assert "vanilla" in libs

    def test_max_candidates_close_to_paper_13(self, tx2, vgg):
        """Paper §VI-A: 'the maximum number of different primitives for
        a layer, taking all the variants, is 13'."""
        assert gpgpu_space(tx2).max_candidates(vgg) in range(11, 14)

    def test_candidates_sorted_stable(self, tx2, vgg):
        space = gpgpu_space(tx2)
        layer = vgg.layer("conv1_1")
        uids = [p.uid for p in space.candidates(layer, vgg)]
        assert uids == sorted(uids)

    def test_candidates_without_vanilla_raises(self, tx2, vgg):
        space = DesignSpace(Mode.CPU, tx2, primitives=[])
        with pytest.raises(NoPrimitiveError):
            space.candidates(vgg.layer("conv1_1"), vgg)

    def test_space_size_grows_with_network(self, tx2):
        space = gpgpu_space(tx2)
        small = build_network("lenet5")
        big = build_network("vgg19")
        assert space.space_size_log10(big) > space.space_size_log10(small)

    def test_primitive_lookup(self, tx2):
        space = gpgpu_space(tx2)
        assert space.primitive("vanilla.direct.conv").library == "vanilla"
        with pytest.raises(NoPrimitiveError):
            space.primitive("nope.nope")

    def test_primitives_of_library(self, tx2):
        space = gpgpu_space(tx2)
        assert all(
            p.library == "cudnn" for p in space.primitives_of_library("cudnn")
        )
        with pytest.raises(NoPrimitiveError):
            cpu_space(tx2).primitives_of_library("cudnn")

    def test_duplicate_uid_rejected(self, tx2):
        prims = vanilla.primitives() + [vanilla.VanillaDirectConv()]
        with pytest.raises(ConfigError):
            DesignSpace(Mode.CPU, tx2, primitives=prims)

    def test_repr(self, tx2):
        assert "gpgpu" in repr(gpgpu_space(tx2))


def _registered_primitives():
    from repro.backends.registry import _CPU_LIBRARIES, _GPU_LIBRARIES

    return [p for m in _CPU_LIBRARIES + _GPU_LIBRARIES for p in m.primitives()]


def _derived_uid(prim) -> str:
    """The uid as it was once rebuilt on every access."""
    parts = [prim.library, prim.algorithm]
    if prim.impl:
        parts.append(prim.impl)
    uid = ".".join(parts)
    if prim.blas:
        uid += f"@{prim.blas}"
    return uid


class TestPrimitiveUid:
    def test_every_registered_uid_is_the_derived_string(self):
        prims = _registered_primitives()
        assert prims
        for prim in prims:
            assert prim.uid == _derived_uid(prim)
            assert prim.uid is prim.uid  # built once per instance

    def test_equality_and_hash_follow_the_uid(self):
        for a, b in zip(_registered_primitives(), _registered_primitives()):
            assert a is not b
            assert a == b and hash(a) == hash(b) == hash(_derived_uid(a))
        uids = [p.uid for p in _registered_primitives()]
        assert len(set(uids)) == len(uids)
