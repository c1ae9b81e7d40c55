"""The cross-engine parity matrix: every structure x mode x engine.

One parameterized table drives both engines (scalar and wavefront, the
latter also through its ``packet`` alias) over the full structural
matrix — both monolithic proxies, both homogeneous two-level
structures, and the heterogeneous multi-BLAS TLAS — in both trace
modes.  The standing contract checked here:

* the batched engine matches the scalar golden within 1e-9 per channel;
* the parity-matched functional counters (``n_rays``, ``n_primary``,
  ``n_secondary``, ``blended_total``, ``rays_terminated_early``) agree
  exactly;
* ``packet`` is an alias: it resolves to ``wavefront`` before any cache
  key exists and traces bit-identically;
* the ray-chunk and frontier memory bounds are invisible in the output;
* ``resolve_engine`` rejects unknown engines loudly;
* a pooled tiled frame is bit-identical to the serial untiled render.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh import build_monolithic, build_two_level
from repro.bvh.two_level import build_two_level_hetero
from repro.render import GaussianRayTracer, default_camera_for
from repro.rt import SceneShading, TraceConfig, WavefrontTracer
from repro.rt import wavefront as wavefront_mod
from repro.rt.packet import resolve_engine
from repro.serve import RenderRequest, TileScheduler

from tests.conftest import tiny_cloud

#: The image parity bound from the acceptance criteria.
TOL = 1e-9

#: Counters that must agree exactly across the engines.
PARITY_COUNTERS = ("n_rays", "n_primary", "n_secondary",
                   "blended_total", "rays_terminated_early")

#: Every structure the batch engines support, heterogeneous TLAS
#: included — the wavefront engine consumes the per-instance
#: multi-BLAS tables from day one.
ALL_STRUCTURES = ["20-tri", "custom", "tlas+sphere", "tlas+ico", "hetero"]

MODES = ["multiround", "singleround"]

ENGINES = ["scalar", "wavefront"]


@pytest.fixture(scope="module")
def cloud():
    return tiny_cloud(n=110, seed=33)


@pytest.fixture(scope="module")
def structures(cloud):
    return {
        "20-tri": build_monolithic(cloud, "20-tri"),
        "custom": build_monolithic(cloud, "custom"),
        "tlas+sphere": build_two_level(cloud, "sphere"),
        "tlas+ico": build_two_level(cloud, "icosphere", 0),
        "hetero": build_two_level_hetero(
            cloud,
            blas_specs=[("sphere", 0), ("icosphere", 0)],
            gaussian_blas=np.arange(len(cloud)) % 2,
        ),
    }


@pytest.fixture(scope="module")
def goldens(cloud, structures):
    """Scalar renders, computed once per (structure, mode) cell."""
    camera = default_camera_for(cloud, 10, 10)
    out = {}
    for name, structure in structures.items():
        for mode in MODES:
            config = TraceConfig(k=4, mode=mode)
            out[name, mode] = GaussianRayTracer(
                cloud, structure, config).render(camera, keep_traces=False)
    return out


class TestEngineMatrix:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("structure_name", ALL_STRUCTURES)
    @pytest.mark.parametrize("engine", ["packet", "wavefront"])
    def test_engine_matches_scalar_golden(self, cloud, structures, goldens,
                                          structure_name, mode, engine):
        """The batched engine, requested by name or by its alias."""
        config = TraceConfig(k=4, mode=mode)
        camera = default_camera_for(cloud, 10, 10)
        renderer = GaussianRayTracer(cloud, structures[structure_name],
                                     config, engine=engine)
        assert renderer.engine_active == "wavefront"
        result = renderer.render(camera, keep_traces=False)
        golden = goldens[structure_name, mode]
        assert np.abs(golden.image - result.image).max() <= TOL
        for name in PARITY_COUNTERS:
            assert getattr(golden.stats, name) == getattr(
                result.stats, name), (name, engine)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("structure_name", ALL_STRUCTURES)
    def test_wavefront_bit_identical_to_packet(self, cloud, structures,
                                               structure_name, mode):
        """``packet`` is an alias of ``wavefront``: a renderer asked for
        either traces with the same engine and renders the same bits."""
        config = TraceConfig(k=4, mode=mode)
        camera = default_camera_for(cloud, 10, 10)
        structure = structures[structure_name]
        packet = GaussianRayTracer(cloud, structure, config, engine="packet")
        wavefront = GaussianRayTracer(cloud, structure, config,
                                      engine="wavefront")
        assert packet.engine_active == wavefront.engine_active == "wavefront"
        a = packet.render(camera, keep_traces=False)
        b = wavefront.render(camera, keep_traces=False)
        assert np.array_equal(a.image, b.image)
        assert a.stats == b.stats

    def test_wavefront_chunking_is_invisible(self, cloud, structures,
                                             monkeypatch):
        """Odd ray-chunk and frontier-slice sizes (the engine's two
        memory bounds) must not change a single bit."""
        config = TraceConfig(k=4)
        camera = default_camera_for(cloud, 10, 10)
        bundle = camera.generate_rays()
        shading = SceneShading(cloud)
        structure = structures["tlas+sphere"]
        whole = WavefrontTracer(structure, shading, config).trace_packet(
            bundle.origins, bundle.directions)
        monkeypatch.setattr(wavefront_mod, "_RAY_CHUNK", 17)
        monkeypatch.setattr(wavefront_mod, "_MAX_FRONTIER", 13)
        chunked = WavefrontTracer(structure, shading, config).trace_packet(
            bundle.origins, bundle.directions)
        assert np.array_equal(whole.colors, chunked.colors)
        assert np.array_equal(whole.transmittance, chunked.transmittance)
        assert np.array_equal(whole.blended, chunked.blended)
        assert np.array_equal(whole.terminated, chunked.terminated)


class TestResolveEngineHardening:
    def test_unknown_engine_is_rejected_loudly(self, structures):
        config = TraceConfig(k=4)
        with pytest.raises(ValueError, match="unknown engine 'wavefont'"):
            resolve_engine("wavefont", structures["tlas+sphere"], config)

    def test_rejection_names_the_valid_engines(self, structures):
        config = TraceConfig(k=4)
        with pytest.raises(ValueError, match="scalar, packet, wavefront"):
            resolve_engine("gpu", structures["tlas+sphere"], config)

    def test_packet_and_auto_alias_wavefront(self, structures):
        """``packet``, ``wavefront`` and ``auto`` resolve identically at
        every batch size, and requests naming them share a frame key."""
        config = TraceConfig(k=4)
        structure = structures["tlas+sphere"]
        for engine in ("packet", "wavefront", "auto"):
            assert resolve_engine(engine, structure, config) == "wavefront"
        for size in (1, 6, 64, 100):
            keys = set()
            for engine in ("packet", "wavefront", "auto"):
                request = RenderRequest(scene="train", proxy="tlas+sphere",
                                        mode="baseline", width=size,
                                        height=size, engine=engine)
                assert request.engine_active == "wavefront"
                keys.add(request.frame_key("h"))
            assert len(keys) == 1, size

    def test_auto_degrades_to_scalar_when_unsupported(self, structures):
        config = TraceConfig(k=4, checkpointing=True)
        assert resolve_engine("auto", structures["tlas+sphere"],
                              config) == "scalar"

    def test_explicit_wavefront_respects_small_batches(self, cloud,
                                                       structures):
        """engine="wavefront" traces any batch size, down to one ray."""
        renderer = GaussianRayTracer(cloud, structures["tlas+sphere"],
                                     TraceConfig(k=4), engine="wavefront")
        assert renderer.engine_active == "wavefront"
        camera = default_camera_for(cloud, 2, 2)
        golden = GaussianRayTracer(cloud, structures["tlas+sphere"],
                                   TraceConfig(k=4)).render(
                                       camera, keep_traces=False)
        result = renderer.render(camera, keep_traces=False)
        assert np.abs(golden.image - result.image).max() <= TOL


class TestWavefrontDeployment:
    def test_pooled_frame_equals_serial_untiled(self, cloud, structures):
        """A 64x64 frame fanned out over two pool workers, tile by tile,
        is bit-identical to the serial untiled render, with exact
        counters."""
        camera = default_camera_for(cloud, 64, 64)
        config = TraceConfig(k=4)
        structure = structures["tlas+sphere"]
        whole = GaussianRayTracer(cloud, structure, config,
                                  engine="wavefront").render(
                                      camera, keep_traces=False)
        with TileScheduler(tile_size=(16, 16), workers=2,
                           start_method="fork") as scheduler:
            pooled = scheduler.render(cloud, structure, config, camera,
                                      engine="auto")
            assert scheduler.pool is not None
            assert scheduler.pool.stats()["tasks_completed"] >= 16
        assert np.array_equal(whole.image, pooled.image)
        for name in PARITY_COUNTERS:
            assert getattr(whole.stats, name) == getattr(
                pooled.stats, name), name
