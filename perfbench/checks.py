"""Output checks, made after the timed rounds.

Every check compares the program's output with a computation made apart
from the run (a scalar tracer over a scene generated and built again,
outside every cache the run used) or with a property the method must
have. Each returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np

from repro.bvh import BuildParams
from repro.eval.harness import FIG13_CONFIGS
from repro.gaussians import make_workload
from repro.hwsim import GpuConfig, replay, replay_reference
from repro.render import GaussianRayTracer, default_camera_for
from repro.rt import TraceConfig

TOLERANCE = 1e-9


class Reference:
    """Scalar reference tracers over independently built scenes."""

    def __init__(self, build) -> None:
        self._build = build
        self._scenes: dict = {}
        self._tracers: dict = {}

    def scene(self, name: str, scale: float, seed: int):
        key = (name, scale, seed)
        if key not in self._scenes:
            self._scenes[key] = (make_workload(name, scale=scale, seed=seed), {})
        return self._scenes[key]

    def tracer(self, name, scale, seed, proxy, config: TraceConfig):
        cloud, structures = self.scene(name, scale, seed)
        if proxy not in structures:
            structures[proxy] = self._build(cloud, proxy, BuildParams())
        key = (name, scale, seed, proxy, config)
        if key not in self._tracers:
            self._tracers[key] = GaussianRayTracer(
                cloud, structures[proxy], config, engine="scalar")
        return cloud, self._tracers[key]


def sampled_pixels(reference: Reference, label: str, image, *, name, scale,
                   seed, proxy, config, camera, n_samples, rng) -> list[str]:
    """Re-trace ``n_samples`` pixels with the scalar reference."""
    _, tracer = reference.tracer(name, scale, seed, proxy, config)
    bundle = camera.generate_rays()
    n_pixels = camera.width * camera.height
    ids = np.array(sorted(rng.sample(range(n_pixels), min(n_samples, n_pixels))))
    expected = tracer.trace_rays(bundle.origins[ids], bundle.directions[ids],
                                 bundle.pixel_ids[ids], keep_traces=False)
    got = np.asarray(image).reshape(-1, 3)[expected.pixel_ids]
    error = float(np.max(np.abs(got - expected.colors)))
    if not error <= TOLERANCE:
        return [f"{label}: sampled pixels differ from the scalar reference "
                f"by {error:.3e}"]
    return []


def _differing_fields(a, b) -> list[str]:
    return [f.name for f in dataclasses.fields(a)
            if getattr(a, f.name) != getattr(b, f.name)]


def check_campaign(workload, reference: Reference, seed: int) -> list[str]:
    from workloads import CAMPAIGN_RES, CAMPAIGN_SCALE, CAMPAIGN_SCENES

    failures: list[str] = []
    rng = random.Random(seed)
    n_rays = CAMPAIGN_RES * CAMPAIGN_RES
    for scene in CAMPAIGN_SCENES:
        runs = {label: workload.runs[(scene, label)] for label in FIG13_CONFIGS}
        cycles = {label: run.timing.cycles for label, run in runs.items()}
        if not cycles["GRTX"] < cycles["GRTX-SW"] < cycles["Baseline"]:
            failures.append(f"{scene}: simulated cycles are not "
                            f"GRTX < GRTX-SW < Baseline: {cycles}")
        if not cycles["GRTX-HW"] < cycles["Baseline"]:
            failures.append(f"{scene}: GRTX-HW is not faster than Baseline: {cycles}")
        if not runs["GRTX"].timing.node_fetches < runs["Baseline"].timing.node_fetches:
            failures.append(f"{scene}: GRTX does not fetch fewer nodes than Baseline")
        base = runs["Baseline"].image
        for label, run in runs.items():
            if run.stats.n_rays != n_rays:
                failures.append(f"{scene}/{label}: n_rays {run.stats.n_rays} != {n_rays}")
            error = float(np.max(np.abs(run.image - base)))
            if not error <= TOLERANCE:
                failures.append(f"{scene}/{label}: image differs from Baseline by {error:.3e}")
            if not np.array_equal(run.image, workload.first_images[(scene, label)]):
                failures.append(f"{scene}/{label}: image changed between rounds")
            cloud, _ = reference.scene(scene, CAMPAIGN_SCALE, None)
            camera = default_camera_for(cloud, 64, 64).with_resolution(
                CAMPAIGN_RES, CAMPAIGN_RES)
            config = TraceConfig(k=8, checkpointing=FIG13_CONFIGS[label]["checkpointing"])
            failures += sampled_pixels(
                reference, f"{scene}/{label}", run.image, name=scene,
                scale=CAMPAIGN_SCALE, seed=None,
                proxy=FIG13_CONFIGS[label]["proxy"], config=config,
                camera=camera, n_samples=6, rng=rng)
    failures += check_replay(reference, CAMPAIGN_SCENES[0], CAMPAIGN_SCALE,
                             None, rng)
    return failures


def check_replay(reference: Reference, scene, scale, seed, rng) -> list[str]:
    """The batched replay against its golden per-event loop on a recorded
    sample of rays, for one Baseline and one GRTX config."""
    failures = []
    for label in ("Baseline", "GRTX"):
        kwargs = FIG13_CONFIGS[label]
        config = TraceConfig(k=8, checkpointing=kwargs["checkpointing"])
        cloud, tracer = reference.tracer(scene, scale, seed, kwargs["proxy"], config)
        bundle = default_camera_for(cloud, 16, 16).generate_rays()
        ids = np.array(sorted(rng.sample(range(len(bundle.pixel_ids)), 12)))
        traces = tracer.trace_rays(bundle.origins[ids], bundle.directions[ids],
                                   bundle.pixel_ids[ids], keep_traces=True).traces
        gpu = GpuConfig.rtx_like()
        differing = _differing_fields(replay(traces, gpu), replay_reference(traces, gpu))
        if differing:
            failures.append(f"replay != replay_reference on {scene}/{label}: {differing}")
    return failures


def check_serving(workload, reference: Reference, seed: int) -> list[str]:
    """Every served frame: ``n_rays`` equals width x height, sampled
    pixels match the scalar reference, and a frame-cache hit (or a
    repeat under the other mode of the same trace config) is
    bit-identical to the first render of its frame."""
    failures: list[str] = []
    rng = random.Random(seed)
    first: dict = {}
    for round_index, served in enumerate(workload.served):
        for item in served:
            request = item.request
            label = f"round {round_index} {item.kind} {request.mode} k={request.k} " \
                    f"{request.width}x{request.height} seed={request.scene.seed}"
            if item.n_rays != request.width * request.height:
                failures.append(f"{label}: n_rays {item.n_rays}")
            config = request.trace_config()
            key = (request.scene.key, request.proxy, config,
                   request.width, request.height)
            if key in first:
                # A repeat, a mode twin, or a later round's replay of a
                # checked frame: it must equal that frame bit for bit.
                if not np.array_equal(item.image, first[key]):
                    failures.append(f"{label}: differs from the first render of its frame")
                continue
            if item.hit:
                failures.append(f"{label}: a frame-cache hit with no render before it")
            first[key] = item.image
            ref = request.scene
            cloud, _ = reference.scene(ref.name, ref.scale, ref.seed)
            failures += sampled_pixels(
                reference, label, item.image, name=ref.name, scale=ref.scale,
                seed=ref.seed, proxy=request.proxy, config=config,
                camera=default_camera_for(cloud, request.width, request.height),
                n_samples=3, rng=rng)
    return failures
