"""Batched-vs-scalar engine benchmark (standalone script).

Renders the same frame with the scalar per-ray tracer and the batched
wavefront engine, reports rays/s for both, and checks the batched
engine's contract on every run:

* images match the scalar images within ``--tolerance`` (default 1e-9)
  per channel, and the parity-matched functional counters (``n_rays``,
  ``blended_total``, ``rays_terminated_early``) agree exactly;
* the batched renders populate all four per-phase histograms
  (``rt.phase.{bin,traversal,intersect,blend}``) — the phase breakdown
  is part of the engine's observability surface, so a refactor that
  silently drops one fails the benchmark.

Unlike the figure benchmarks in this directory (which run under
``pytest --benchmark-only``), this is a plain script::

    python benchmarks/bench_packet_vs_scalar.py [--size 64] [--check]

Contract failures always exit non-zero, report run or not; ``--check``
additionally gates on speed, failing when the batched speedup is below
``--min-speedup`` (default 3x, the acceptance bar on the default 64x64
scene; CI runs tiny scenes with ``--min-speedup 2``, among them a deep
20-tri tree at ``--scale 0.02``).  ``--structure`` selects the
acceleration structure: the monolithic proxies *or* the two-level
``tlas+*`` structures.  Results go to
``benchmarks/results/packet_vs_scalar_{tlas,mono}.txt`` plus a
machine-readable ``BENCH_packet_tlas.json`` (two-level runs) /
``BENCH_packet_mono.json`` (monolithic runs), each with the phase
seconds of its batched renders.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# Allow running straight from a checkout without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from bench_schema import write_bench_json

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Functional counters the batched engine must reproduce exactly.
PARITY_COUNTERS = ("n_rays", "blended_total", "rays_terminated_early")

#: Per-phase histograms the batched engine must populate while tracing.
PHASE_METRICS = ("rt.phase.bin", "rt.phase.traversal",
                 "rt.phase.intersect", "rt.phase.blend")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="rays/s and image parity: batched vs scalar engine")
    parser.add_argument("--scene", default="train")
    parser.add_argument("--size", type=int, default=64,
                        help="image width=height (default 64)")
    parser.add_argument("--scale", type=float, default=1 / 2000.0)
    parser.add_argument("--structure", "--proxy", dest="structure",
                        default="20-tri",
                        choices=["20-tri", "80-tri", "custom",
                                 "tlas+sphere", "tlas+20-tri", "tlas+80-tri"],
                        help="acceleration structure: monolithic proxies or "
                             "the two-level tlas+* structures (--proxy is a "
                             "backward-compatible alias)")
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--modes", default="multiround,singleround",
                        help="comma-separated trace modes to compare")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="max per-channel image difference allowed")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="batched speedup required by --check")
    parser.add_argument("--check", action="store_true",
                        help="also gate on speed: exit non-zero when the "
                             "speedup is below --min-speedup (contract "
                             "failures exit non-zero regardless)")
    return parser.parse_args(argv)


def _phase_totals() -> dict[str, tuple[int, float]]:
    """(sample count, seconds) of each phase histogram so far."""
    from repro.obs import get_registry

    registry = get_registry()
    totals = {}
    for name in PHASE_METRICS:
        histogram = registry.histogram(name)
        totals[name] = ((histogram.count, histogram.sum)
                        if histogram is not None else (0, 0.0))
    return totals


def run_mode(cloud, structure, camera, mode: str, k: int) -> dict:
    """Render one (mode, engine) pair of frames and measure both."""
    from repro.render import GaussianRayTracer
    from repro.rt import TraceConfig

    config = TraceConfig(k=k, mode=mode)
    n_rays = camera.width * camera.height
    timings = {}
    results = {}
    # The batched engine renders last, so the phase deltas around its
    # render are its own.
    for engine in ("scalar", "wavefront"):
        renderer = GaussianRayTracer(cloud, structure, config, engine=engine)
        assert renderer.engine_active == engine
        before = _phase_totals()
        t0 = time.perf_counter()
        results[engine] = renderer.render(camera, keep_traces=False)
        timings[engine] = time.perf_counter() - t0
    after = _phase_totals()
    scalar, batched = results["scalar"], results["wavefront"]
    counters_ok = all(
        getattr(scalar.stats, name) == getattr(batched.stats, name)
        for name in PARITY_COUNTERS
    )
    return {
        "mode": mode,
        "scalar_s": timings["scalar"],
        "wavefront_s": timings["wavefront"],
        "scalar_rps": n_rays / timings["scalar"],
        "wavefront_rps": n_rays / timings["wavefront"],
        "speedup": timings["scalar"] / timings["wavefront"],
        "max_diff": float(np.abs(scalar.image - batched.image).max()),
        "counters_ok": counters_ok,
        # Seconds per phase of the batched render; a phase with no
        # sample is reported as None.
        "phase_s": {
            name: (after[name][1] - before[name][1]
                   if after[name][0] > before[name][0] else None)
            for name in PHASE_METRICS
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    from repro.eval.harness import build_structure_for
    from repro.eval.report import format_table
    from repro.gaussians import make_workload
    from repro.render import default_camera_for

    cloud = make_workload(args.scene, scale=args.scale)
    structure = build_structure_for(cloud, args.structure)
    camera = default_camera_for(cloud, args.size, args.size)

    rows = []
    measurements = []
    for mode in args.modes.split(","):
        m = run_mode(cloud, structure, camera, mode.strip(), args.k)
        measurements.append(m)
        rows.append([
            m["mode"],
            f"{m['scalar_rps']:.0f}",
            f"{m['wavefront_rps']:.0f}",
            f"{m['speedup']:.2f}x",
            f"{m['max_diff']:.2e}",
            "exact" if m["counters_ok"] else "MISMATCH",
        ])

    report = format_table(
        f"wavefront vs scalar: {args.scene} {args.size}x{args.size} "
        f"{args.structure} k={args.k} ({len(cloud)} gaussians)",
        ["mode", "scalar rays/s", "wavefront rays/s", "speedup",
         "max |diff|", "counters"],
        rows,
    )
    print(report)
    RESULTS_DIR.mkdir(exist_ok=True)
    family = "tlas" if args.structure.startswith("tlas+") else "mono"
    # Per-family filenames so CI's back-to-back monolithic and tlas runs
    # don't clobber each other's reports.
    (RESULTS_DIR / f"packet_vs_scalar_{family}.txt").write_text(report + "\n")
    write_bench_json(
        RESULTS_DIR / f"BENCH_packet_{family}.json", f"packet_{family}",
        config={"scene": args.scene, "size": args.size,
                "scale": args.scale, "structure": args.structure,
                "k": args.k, "n_gaussians": len(cloud)},
        sections={
            "measurements": measurements,
            # Mode-keyed mirror of the headline numbers: positional
            # paths like measurements.0.speedup silently point at the
            # wrong mode when --modes reorders the list, so headline
            # resolution goes through this section instead.
            "summary": {
                m["mode"]: {
                    "speedup": m["speedup"],
                    "max_diff": m["max_diff"],
                    "counters_ok": m["counters_ok"],
                }
                for m in measurements
            },
        })

    failures = []
    for m in measurements:
        if m["max_diff"] > args.tolerance:
            failures.append(
                f"{m['mode']}: image diff {m['max_diff']:.3e} exceeds "
                f"{args.tolerance:.0e}")
        if not m["counters_ok"]:
            failures.append(f"{m['mode']}: functional counters diverge")
        for name, seconds in m["phase_s"].items():
            if seconds is None:
                failures.append(
                    f"{m['mode']}: phase histogram {name} received no "
                    "samples")
        if args.check and m["speedup"] < args.min_speedup:
            failures.append(
                f"{m['mode']}: speedup {m['speedup']:.2f}x below "
                f"{args.min_speedup:.1f}x")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
