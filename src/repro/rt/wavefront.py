"""Wavefront (breadth-first) ray traversal over the flattened layout.

The batched engine: the scalar :class:`~repro.rt.tracer.Tracer` walks
the acceleration structure one ray at a time in pure Python; this module
traces a whole ray batch (a tile's or a frame's) *together* over the one
flattened layout every structure lowers to
(:func:`repro.bvh.flatten.flatten`), with traversal restructured as a
**wavefront**:

* the unit of work is a frontier of live ``(ray, node)`` pairs, all at
  the same tree depth, across the whole batch;
* each Python-level step gathers every pair's child boxes and runs
  **one** vectorized slab test over the entire frontier, so the number
  of interpreter iterations is O(tree height), not O(nodes visited);
* surviving internal pairs are compacted with ``np.nonzero`` and binned
  by node id with a stable ``np.argsort`` (gather coherence — pairs at
  the same node read the same child rows); leaf pairs are expanded to
  ``(ray, primitive)`` candidates with ``np.repeat`` offsets from the
  leaf-count prefix sums;
* two-level structures gather TLAS instance records, transform the live
  ``(ray, instance)`` bundle into BLAS object space in one batch, and
  intersect each shared BLAS *once* with its instance group (the
  unit-sphere BLAS is a batched root-box test, a template mesh BLAS
  reuses the same frontier traversal with the pair bundle as its rays);
* leaf batches then flow through the shared kernels
  (:mod:`repro.rt.kernels`): one masked Möller–Trumbore per candidate
  batch, the batched sphere-BLAS root test, and the canonical any-hit +
  vectorized front-to-back blend.

**Parity argument.**  The accept test per ``(ray, node)`` pair is the
scalar slab's elementwise arithmetic with ``t_min = 0`` and no
shrinking ``t_max``, so the frontier visits a superset of what any
scalar tracing round visits and produces the candidate multiset of all
hits.  Every kernel after traversal is elementwise per candidate, and
the blend stage sorts by the fully determining ``(ray, t, gid)`` key
before any order-sensitive accumulation.  Two properties of the
(tie-fixed) multi-round algorithm close the argument: each round's
k-buffer holds exactly the k closest remaining hits, so the blend
sequence across rounds is the globally ``(t, gid)``-sorted hit list
capped at ``max_rounds * k`` entries; and early termination is a
monotone threshold on the running transmittance, so it commutes with
computing all hits first.  Hence images within 1e-9 per channel of the
scalar tracer and exactly equal ``n_rays`` / ``blended_total`` /
``rays_terminated_early``.

The traversal can also log every visited pair's child slab rows
(``log=``): :mod:`repro.rt.tracerecord` folds that log into per-ray
scalar-identical fetch traces.  GRTX-HW checkpointing stays on the
scalar engine (:func:`repro.rt.packet.resolve_engine` routes it there).

Per-phase ``repro.obs`` histograms: ``rt.phase.bin`` (frontier
compaction: nonzero/argsort/expand) alongside ``rt.phase.traversal`` /
``rt.phase.intersect`` / ``rt.phase.blend``, the split the scalar
tracer reports, so the phase breakdown compares directly.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import get_registry, span

from repro.bvh.flatten import (
    BLAS_SPHERE,
    PRIMS_GAUSSIANS,
    PRIMS_TRIANGLES,
    flatten,
)
from repro.bvh.node import KIND_INTERNAL
from repro.rt.kernels import (
    Level,
    PacketResult,
    empty_result,
    entering_hits,
    shade_and_blend,
    sphere_blas_hits,
    to_object_space,
)
from repro.rt.packet import fallback_reason, packet_supported
from repro.rt.shading import SceneShading
from repro.rt.tracer import TraceConfig

__all__ = ["WavefrontTracer"]

#: Rays per traced chunk; bounds the candidate arrays and the dense
#: per-ray blend matrix, which scale with the ray count.  A frame-sized
#: batch is one chunk in the common case.
_RAY_CHUNK = 1 << 16

#: Maximum live pairs slab-tested in one vectorized step; bounds the
#: (pairs, width) per-axis temporaries to tens of MB.  Splitting a
#: frontier changes nothing numerically (every op is elementwise).
_MAX_FRONTIER = 1 << 17

_INF = float("inf")


class WavefrontTracer:
    """Traces ray batches breadth-first through one flattened scene
    structure.

    Built once per (structure, shading, config) like the scalar
    :class:`~repro.rt.tracer.Tracer`.  Accepts raw structures (flattened
    on construction, memoized) or an already-flattened
    :class:`~repro.bvh.flatten.FlatStructure`.  Like the scalar tracer,
    one instance serves one caller at a time (it carries small
    per-trace phase-timing scratch).
    """

    def __init__(
        self,
        structure,
        shading: SceneShading,
        config: TraceConfig | None = None,
    ) -> None:
        config = config or TraceConfig()
        if not packet_supported(structure, config):
            raise ValueError(
                "wavefront engine supports flattenable structures without "
                "checkpointing; use the scalar Tracer "
                f"({fallback_reason(structure, config)})")
        flat = flatten(structure)
        self.structure = structure
        self.flat = flat
        self.shading = shading
        self.config = config
        self._recorder = None
        self._root = Level(flat.root)
        self._prims = flat.root_prims
        if flat.root_prims == PRIMS_TRIANGLES:
            mesh = flat.mesh
            self._v0, self._e1, self._e2 = mesh.v0, mesh.e1, mesh.e2
            self._owner = mesh.owner
        else:
            # Custom primitives or instances: leaf-ordered Gaussian ids.
            self._gids = flat.prim_gid
        if flat.two_level:
            # The instance table (leaf-ordered, aligned with prim_gid) —
            # bit-equal to the shading tables by construction, which the
            # test suite guards, so consuming it preserves scalar parity.
            self._inst_lin = flat.inst_w2o_linear
            self._inst_off = flat.inst_w2o_offset
            self._inst_blas = flat.inst_blas
            self._blas = flat.blas
            self._blas_levels = [
                Level(b.bvh) if b.bvh is not None else None
                for b in flat.blas
            ]
            self._blas_roots = [
                b.bvh.root_box() if b.bvh is not None else None
                for b in flat.blas
            ]
        #: Seconds spent in frontier compaction during the current
        #: chunk (reset per chunk; reported as ``rt.phase.bin``).
        self._bin_s = 0.0
        #: Per-level axis-major box tables (built on first traversal of
        #: each level, keyed by the level's stable slot name).
        self._axis_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def trace_packet(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        t_clip: np.ndarray | None = None,
    ) -> PacketResult:
        """Trace a bundle of rays to completion.

        ``t_clip`` optionally bounds each ray's traced segment (analytic
        scene objects truncating primaries), per ray; ``None`` means
        unbounded.
        """
        o = np.ascontiguousarray(origins, dtype=np.float64)
        d = np.ascontiguousarray(directions, dtype=np.float64)
        n = o.shape[0]
        if t_clip is None:
            t_clip = np.full(n, _INF)
        else:
            t_clip = np.asarray(t_clip, dtype=np.float64)
        if n == 0:
            return self._empty_result(0)
        with span("rt.wavefront.trace", rays=n):
            if n <= _RAY_CHUNK:
                return self._trace_chunk(o, d, t_clip)
            parts = [
                self._trace_chunk(o[i:i + _RAY_CHUNK], d[i:i + _RAY_CHUNK],
                                  t_clip[i:i + _RAY_CHUNK])
                for i in range(0, n, _RAY_CHUNK)
            ]
            return PacketResult.concatenate(parts, self.config.record_blended)

    def trace_packet_recorded(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        t_clip: np.ndarray | None = None,
        label: str = "primary",
    ):
        """Trace a bundle *and* record per-ray fetch traces.

        Returns ``(PacketResult, traces)`` where ``traces`` is one
        :class:`~repro.rt.recorder.RayTrace` per input ray, stream- and
        counter-equal to what the scalar tracer would have recorded (the
        timing model replays either interchangeably).  The result's
        ``rounds`` array carries the reconstructed exact round counts.
        See :mod:`repro.rt.tracerecord` for the recording pipeline.
        """
        from repro.rt.tracerecord import PacketTraceRecorder

        if self._recorder is None:
            self._recorder = PacketTraceRecorder(self)
        return self._recorder.record(origins, directions, t_clip, label)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def _empty_result(self, n: int) -> PacketResult:
        return empty_result(n, self.config.record_blended)

    def _trace_chunk(self, o, d, t_clip) -> PacketResult:
        # Same degenerate-direction guard as the scalar tracer, so slab
        # tests agree bit-for-bit.
        safe = np.where(np.abs(d) < 1e-12, 1e-12, d)
        inv_d = 1.0 / safe

        registry = get_registry()
        self._bin_s = 0.0
        t_start = time.perf_counter()
        l_rays, l_refs = self._traverse_wave(self._root, o, inv_d, t_clip,
                                             "root")
        bin_traversal = self._bin_s
        t_traversal = time.perf_counter()
        o2 = d2 = None
        if self._prims == PRIMS_TRIANGLES:
            ray_c, gid_c, t_proxy = self._wave_triangles(o, d, l_rays, l_refs)
        elif self._prims == PRIMS_GAUSSIANS:
            ray_c, gid_c = self._wave_customs(l_rays, l_refs)
            t_proxy = None
        else:
            ray_c, gid_c, t_proxy, o2, d2 = self._wave_instances(
                o, d, t_clip, l_rays, l_refs)
        bin_intersect = self._bin_s - bin_traversal
        t_intersect = time.perf_counter()
        result = self._shade_and_blend(o, d, t_clip, ray_c, gid_c, t_proxy,
                                       o2=o2, d2=d2)
        t_blend = time.perf_counter()
        registry.observe("rt.phase.bin", self._bin_s)
        registry.observe("rt.phase.traversal",
                         (t_traversal - t_start) - bin_traversal)
        registry.observe("rt.phase.intersect",
                         (t_intersect - t_traversal) - bin_intersect)
        registry.observe("rt.phase.blend", t_blend - t_intersect)
        return result

    def _axis_boxes(self, level: Level, key: str) -> np.ndarray:
        """Axis-major ``(6, n_nodes, width)`` copy of a level's boxes.

        ``Level`` stores slot-major ``(n_nodes, width, 3)`` tables; the
        slab test gathers one axis plane at a time, so plane ``2a`` /
        ``2a+1`` holds axis ``a``'s lo/hi as its own contiguous
        ``(n_nodes, width)`` table (gathers from a contiguous plane
        produce contiguous outputs the in-place ufuncs run fastest on).
        Cached under the level's slot name ("root" or "blas<i>") — the
        tracer owns its levels and they are immutable after flattening.
        """
        cached = self._axis_cache.get(key)
        if cached is None:
            n, width, _ = level.child_lo.shape
            cached = np.empty((6, n, width))
            for a in range(3):
                cached[2 * a] = level.child_lo[:, :, a]
                cached[2 * a + 1] = level.child_hi[:, :, a]
            self._axis_cache[key] = cached
        return cached

    def _traverse_wave(
        self,
        level: Level,
        o: np.ndarray,
        inv_d: np.ndarray,
        t_clip: np.ndarray,
        cache_key: str,
        log: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Breadth-first traversal of one flattened level.

        The "rays" are whatever bundle the level is traversed with —
        camera rays for the root level, object-space (ray, instance)
        pairs for a shared mesh BLAS.  One frontier of ``(ray, node)``
        pairs per depth; each iteration runs one gathered slab test over
        the whole frontier (sliced at :data:`_MAX_FRONTIER` pairs to
        bound temporaries) and compacts survivors.  Returns the accepted
        ``(ray, leaf record)`` pairs as flat parallel arrays.

        With ``log`` given, every slab-tested slice appends ``(rays,
        nodes, tn, tf, hit)``: per visited pair, its child slab results
        for *all* slots and the accept mask — the geometry the trace
        recorder reconstructs per-ray control flow from.  Each ``(ray,
        node)`` pair is visited at most once (a tree node has one
        parent).
        """
        kinds = level.child_kind
        refs = level.child_ref
        packed = self._axis_boxes(level, cache_key)
        # Axis-major ray tables: contiguous per-axis rows, gathered once
        # per frontier slice.
        oT = np.ascontiguousarray(o.T)
        iT = np.ascontiguousarray(inv_d.T)
        n = o.shape[0]
        empty = np.empty(0, dtype=np.int64)
        f_rays = np.arange(n, dtype=np.int64)
        f_nodes = np.zeros(n, dtype=np.int64)
        leaf_ray_parts: list[np.ndarray] = []
        leaf_ref_parts: list[np.ndarray] = []
        while f_rays.size:
            next_ray_parts: list[np.ndarray] = []
            next_node_parts: list[np.ndarray] = []
            for s0 in range(0, f_rays.size, _MAX_FRONTIER):
                fr = f_rays[s0:s0 + _MAX_FRONTIER]
                fn = f_nodes[s0:s0 + _MAX_FRONTIER]
                # Axis-split slab test: per-axis contiguous
                # (pairs, width) gathers updated in place — 3x smaller
                # temporaries than a (pairs, width, 3) broadcast.
                # Elementwise the arithmetic is the scalar slab's
                # ((lo-o)*inv per axis, min/max per axis, then an
                # associative max/min across axes), so tn/tf and the
                # accept decisions are bit-equal.
                tn = tf = None
                for a in range(3):
                    roa = oT[a][fr][:, None]
                    ria = iT[a][fr][:, None]
                    t0 = packed[2 * a][fn]
                    t0 -= roa
                    t0 *= ria
                    t1 = packed[2 * a + 1][fn]
                    t1 -= roa
                    t1 *= ria
                    near = np.minimum(t0, t1)
                    far = np.maximum(t0, t1, out=t1)
                    if tn is None:
                        tn, tf = near, far
                    else:
                        np.maximum(tn, near, out=tn)
                        np.minimum(tf, far, out=tf)
                k = kinds[fn]
                # Same accept test as the scalar slab (t_min = 0, no
                # shrinking t_max); empty slots masked by kind.
                hit = tn <= tf
                hit &= tf >= 0.0
                hit &= tn <= t_clip[fr, None]
                hit &= k != 0
                if log is not None:
                    log.append((fr, fn, tn, tf, hit))
                b0 = time.perf_counter()
                pair, slot = np.nonzero(hit)
                child_kind = k[pair, slot]
                child_ref = refs[fn[pair], slot]
                internal = child_kind == KIND_INTERNAL
                next_ray_parts.append(fr[pair[internal]])
                next_node_parts.append(child_ref[internal])
                leaf = ~internal
                leaf_ray_parts.append(fr[pair[leaf]])
                leaf_ref_parts.append(child_ref[leaf])
                self._bin_s += time.perf_counter() - b0
            b0 = time.perf_counter()
            f_rays = (np.concatenate(next_ray_parts)
                      if next_ray_parts else empty)
            f_nodes = (np.concatenate(next_node_parts)
                       if next_node_parts else empty)
            if f_nodes.size:
                # Bin the next frontier by node id (stable, so rays stay
                # ordered within a bin): pairs at the same node gather
                # the same child rows — cache-coherent gathers, and a
                # deterministic order.
                order = np.argsort(f_nodes, kind="stable")
                f_rays = f_rays[order]
                f_nodes = f_nodes[order]
            self._bin_s += time.perf_counter() - b0
        if not leaf_ray_parts:
            return empty, empty
        b0 = time.perf_counter()
        l_rays = np.concatenate(leaf_ray_parts)
        l_refs = np.concatenate(leaf_ref_parts)
        self._bin_s += time.perf_counter() - b0
        return l_rays, l_refs

    def _expand_pairs(
        self, level: Level, l_rays: np.ndarray, l_refs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand accepted ``(ray, leaf)`` pairs into ``(ray,
        ordered-primitive)`` candidate pairs in one shot: ``np.repeat``
        by per-leaf counts plus an offset ramp derived from the counts'
        prefix sum."""
        b0 = time.perf_counter()
        rp = pp = np.empty(0, dtype=np.int64)
        if l_rays.size:
            counts = level.leaf_count[l_refs].astype(np.int64)
            starts = level.leaf_start[l_refs].astype(np.int64)
            total = int(counts.sum())
            if total:
                rp = np.repeat(l_rays, counts)
                ends = np.cumsum(counts)
                offsets = (np.arange(total, dtype=np.int64)
                           - np.repeat(ends - counts, counts))
                pp = np.repeat(starts, counts) + offsets
        self._bin_s += time.perf_counter() - b0
        return rp, pp

    # -- leaf stages ---------------------------------------------------

    def _wave_triangles(
        self,
        o: np.ndarray,
        d: np.ndarray,
        l_rays: np.ndarray,
        l_refs: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Monolithic triangle leaves: one masked Möller–Trumbore over
        every candidate pair.

        Returns per-(ray, gaussian) candidates with the proxy entry
        depth: backface-culled entering hits, reduced to the nearest
        entering triangle per Gaussian (the proxy meshes are convex, so
        a ray has at most one entering hit per Gaussian and the
        reduction is exact; the full-key sort makes the selected values
        independent of candidate order).
        """
        rp, tp = self._expand_pairs(self._root, l_rays, l_refs)
        if rp.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)

        sel, t = entering_hits(o[rp], d[rp], tp, self._v0, self._e1, self._e2)
        rp = rp[sel]
        gid = self._owner[tp[sel]]
        if rp.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        # Nearest entering triangle per (ray, gaussian).
        order = np.lexsort((t, gid, rp))
        rp, gid, t = rp[order], gid[order], t[order]
        first = np.ones(rp.size, dtype=bool)
        first[1:] = (rp[1:] != rp[:-1]) | (gid[1:] != gid[:-1])
        return rp[first], gid[first], t[first]

    def _wave_customs(
        self, l_rays: np.ndarray, l_refs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Custom-primitive leaves: candidates are the (ray, gaussian)
        pairs directly (each Gaussian lives in exactly one leaf)."""
        rp, pp = self._expand_pairs(self._root, l_rays, l_refs)
        if rp.size == 0:
            return rp, pp
        return rp, self._gids[pp]

    def _wave_instances(
        self,
        o: np.ndarray,
        d: np.ndarray,
        t_clip: np.ndarray,
        l_rays: np.ndarray,
        l_refs: np.ndarray,
    ) -> tuple:
        """TLAS leaves: transform the candidate bundle through its
        instances and intersect each shared BLAS once with its slot
        group — including the heterogeneous multi-BLAS case, where
        ``inst_blas`` partitions the bundle per template.

        Returns ``(ray_c, gid_c, t_proxy, o2, d2)``.  Sphere-BLAS
        candidates carry no proxy depth (the exact ellipsoid entry
        distance is the sort key); mesh-BLAS candidates carry the
        nearest entering template-triangle depth (NaN marks exact-depth
        entries when BLAS kinds mix).  ``o2``/``d2`` are the surviving
        candidates' object-space rays, handed to the shade stage so it
        does not re-transform.
        """
        empty = np.empty(0, dtype=np.int64)
        rp, pp = self._expand_pairs(self._root, l_rays, l_refs)
        if rp.size == 0:
            return empty, empty, None, None, None
        gid = self._gids[pp]
        o2, d2 = to_object_space(
            self._inst_lin[pp], self._inst_off[pp], o[rp], d[rp])

        sub_parts: list[np.ndarray] = []
        t_parts: list[np.ndarray] = []
        mesh_hit = False
        for slot, blas in enumerate(self._blas):
            if len(self._blas) > 1:
                b0 = time.perf_counter()
                group = np.nonzero(self._inst_blas[pp] == slot)[0]
                self._bin_s += time.perf_counter() - b0
                if group.size == 0:
                    continue
                o_s, d_s = o2[group], d2[group]
                clip_s = t_clip[rp[group]]
            else:
                group = None
                o_s, d_s = o2, d2
                clip_s = t_clip[rp]
            if blas.kind == BLAS_SPHERE:
                keep = sphere_blas_hits(o_s, d_s, clip_s)
                sub = np.nonzero(keep)[0] if group is None else group[keep]
                sub_parts.append(sub)
                t_parts.append(np.full(sub.size, np.nan))
            else:
                sel, t = self._wave_mesh_blas(slot, blas, o_s, d_s, clip_s)
                sub_parts.append(sel if group is None else group[sel])
                t_parts.append(t)
                mesh_hit = True
        if not sub_parts:
            return empty, empty, None, None, None
        sub = np.concatenate(sub_parts)
        t_proxy = np.concatenate(t_parts) if mesh_hit else None
        return rp[sub], gid[sub], t_proxy, o2[sub], d2[sub]

    def _wave_mesh_blas(
        self, slot: int, blas, o2, d2, clip
    ) -> tuple[np.ndarray, np.ndarray]:
        """Traverse one shared mesh BLAS breadth-first with a whole
        instance group, then reduce to the nearest entering template
        triangle per pair — the scalar ``_traverse_blas``'s ``best``.

        Returns ``(sel, t)``: indices into the input group with a hit,
        and the proxy depths (object-space t equals world t; the
        transform is affine in the ray parameter).
        """
        safe = np.where(np.abs(d2) < 1e-12, 1e-12, d2)
        inv_d2 = 1.0 / safe
        root_lo, root_hi = self._blas_roots[slot]
        t0 = (root_lo[None, :] - o2) * inv_d2
        t1 = (root_hi[None, :] - o2) * inv_d2
        tn = np.minimum(t0, t1).max(axis=1)
        tf = np.maximum(t0, t1).min(axis=1)
        live = np.nonzero((tn <= tf) & (tf >= 0.0) & (tn <= clip))[0]
        if live.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)

        level = self._blas_levels[slot]
        o_l, d_l = o2[live], d2[live]
        l_rays, l_refs = self._traverse_wave(level, o_l, inv_d2[live],
                                             clip[live], f"blas{slot}")
        pr, tp = self._expand_pairs(level, l_rays, l_refs)
        if pr.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        mesh = blas.mesh
        sel, t = entering_hits(o_l[pr], d_l[pr], tp, mesh.v0, mesh.e1, mesh.e2)
        pr = pr[sel]
        if pr.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        # Nearest entering template triangle per instance pair.
        order = np.lexsort((t, pr))
        pr, t = pr[order], t[order]
        first = np.ones(pr.size, dtype=bool)
        first[1:] = pr[1:] != pr[:-1]
        return live[pr[first]], t[first]

    # -- shade & blend -------------------------------------------------

    def _shade_and_blend(
        self,
        o: np.ndarray,
        d: np.ndarray,
        t_clip: np.ndarray,
        ray_c: np.ndarray,
        gid_c: np.ndarray,
        t_proxy: np.ndarray | None,
        o2: np.ndarray | None = None,
        d2: np.ndarray | None = None,
    ) -> PacketResult:
        """Canonical any-hit evaluation + front-to-back blend, batched
        (see :func:`repro.rt.kernels.shade_and_blend`)."""
        return shade_and_blend(self.shading, self.config, o, d, t_clip,
                               ray_c, gid_c, t_proxy, o2=o2, d2=d2)
