"""Batched fetch-trace recording.

The scalar :class:`~repro.rt.tracer.Tracer` records per-ray fetch traces
as a side effect of walking the BVH one ray at a time — which pinned
every timing-model figure to the slowest engine.  This module teaches
the batched engine to produce the *same* traces from its wavefront
traversal, in two phases:

**Phase A — batched geometry.**  One logged frontier traversal per
bundle (:meth:`~repro.rt.wavefront.WavefrontTracer._traverse_wave` with
``log=``) visits every ``(ray, node)`` pair reachable with ``t_min = 0``
and no ``t_max`` — a superset of what any tracing round visits — and
logs each visited pair's child slab results.  The log is order-free: it
is folded into per-ray ``node -> row`` dicts, so the breadth-first
visit order never reaches a trace.  Leaf visits feed one masked
Möller–Trumbore over all candidate pairs (kept per-leaf), batched
instance transforms, one shared-BLAS traversal per instance group, and
one vectorized canonical any-hit evaluation per candidate ``(ray,
gaussian)`` pair.  The shade/blend stage then runs on exactly the
candidate sets a plain ``trace_packet`` would build, so the recorded
render's :class:`~repro.rt.kernels.PacketResult` matches the plain
path.

**Phase B — per-ray control-flow reconstruction.**  Per ray, the
Phase-A logs are folded into a *round template*: the ray's DFS visit
sequence (node ordering depends only on per-ray entry distances, which
are round-invariant) with all static accept tests and the fixed-width
fetch records pre-baked.  Each tracing round is then one linear walk of
the template — two comparisons per entry (``tf < t_min`` /
``tn > t_max``) with subtree skipping — that replays the scalar
tracer's exact algorithm: interval bounds, k-buffer semantics,
shrinking ``t_max``, frontier carry-over and blend termination.  The
emitted :class:`~repro.rt.recorder.RayTrace` streams are
event-for-event what the scalar recorder produces — same addresses,
sizes, kinds, test counts, prefetch lists, per-round counters and round
structure — so :func:`repro.hwsim.replay` accepts either engine's
traces interchangeably.

Equivalence argument: a round's DFS visits a node iff every ancestor
accepted it under the round's ``(t_min, t_max, t_clip)`` interval, and
each such accept implies the template's weaker ``(0, inf, t_clip)``
accept — so the template contains every node any round can visit, in
the round's visit order (pruning removes contiguous subtree blocks
without reordering survivors, and ``t_max`` at an entry's walk position
is exactly the scalar's value at that node's pop).  The static per-node
tables come from the same :class:`~repro.rt.tracer.FlatTables` the
scalar tracer binds, so the two recorders cannot drift on what a
structure looks like.

Checkpointing (GRTX-HW) restructures the traversal itself and stays on
the scalar engine (``resolve_engine`` routes it there).
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro.bvh.flatten import BLAS_SPHERE, PRIMS_GAUSSIANS, PRIMS_TRIANGLES
from repro.bvh.layout import INSTANCE_BYTES, LEAF_HEADER_BYTES, SPHERE_PRIM_BYTES
from repro.bvh.node import KIND_INTERNAL, KIND_LEAF
from repro.rt.kbuffer import KBuffer, KBufferEntry
from repro.rt.kernels import PacketResult, entering_hits, to_object_space
from repro.rt.recorder import (
    FETCH_INTERNAL,
    FETCH_LEAF,
    PRIM_CUSTOM,
    PRIM_SPHERE,
    PRIM_TRANSFORM,
    PRIM_TRI,
    RayTrace,
)
from repro.rt.shading import ALPHA_MAX, ALPHA_MIN
from repro.rt.tracer import flat_tables

_INF = float("inf")

_get0 = itemgetter(0)


def _visit_tables(n, log):
    """Per-ray ``node -> (tn row, tf row, child order, child count)``
    lookup tables from a logged traversal's per-pair rows.

    The child order is the scalar DFS push order — accepted slots by
    descending entry distance, slot order on ties (``argsort`` is
    stable, matching the scalar sort) — precomputed vectorized so the
    per-ray template build does no slot arithmetic at all.
    """
    out: list[dict] = [dict() for _ in range(n)]
    for rays, nodes, tn, tf, hit in log:
        key = np.where(hit, -tn, np.inf)
        order_l = np.argsort(key, axis=1, kind="stable").tolist()
        cnt_l = hit.sum(axis=1).tolist()
        for r, node, tn_row, tf_row, order, cnt in zip(
                rays.tolist(), nodes.tolist(), tn.tolist(), tf.tolist(),
                order_l, cnt_l):
            out[r][node] = (tn_row, tf_row, order, cnt)
    return out


#: Rays per recording chunk.  Recording keeps per-(ray, node) slab rows
#: alive until the chunk's traces are built, so it chunks finer than the
#: plain path to bound peak memory.
_MAX_RECORD_PACKET = 1024

# Template entry kinds.  Every entry is the tuple ``(kind, tn, tf,
# ref)`` — ``tn``/``tf`` are the ray's slab result at the entry's parent
# (the per-round residual tests), ``ref`` indexes the structure's static
# tables (pre-baked fetch records, leaf slots, primitive slices).
_T_NODE = 0         # internal node without leaf children
_T_NODE_PF = 1      # internal node with (prefetchable) leaf children
_T_TRI_LEAF = 2     # monolithic triangle-proxy leaf
_T_CUSTOM_LEAF = 3  # monolithic custom-primitive leaf
_T_TLAS_LEAF = 4    # TLAS instance leaf
_T_BLAS_LEAF = 5    # shared mesh-BLAS leaf


class PacketTraceRecorder:
    """Produces scalar-identical fetch traces from wavefront traversal.

    Built once per :class:`~repro.rt.wavefront.WavefrontTracer` (the
    tracer memoizes it); carries only static tables, so one instance
    records any number of bundles.
    """

    def __init__(self, tracer) -> None:
        config = tracer.config
        if config.checkpointing:
            raise ValueError("checkpointing traces are scalar-engine-only")
        if tracer.flat.two_level and len(tracer.flat.blas) != 1:
            raise NotImplementedError(
                "trace recording supports a single shared BLAS")
        self.tracer = tracer
        self.config = config
        self.flat = tracer.flat
        self.shading = tracer.shading
        self.tables = flat_tables(tracer.flat)
        self.two_level = tracer.flat.two_level
        self.prims = tracer.flat.root_prims
        if self.two_level:
            self._blas = tracer.flat.blas[0]
            self._sphere_blas = self._blas.kind == BLAS_SPHERE
            if self._sphere_blas:
                sphere_bytes = LEAF_HEADER_BYTES + 24 + SPHERE_PRIM_BYTES
                self._sphere_rec = (self._blas.root_address, sphere_bytes,
                                    FETCH_LEAF, 1, 1, PRIM_SPHERE, 0)
        else:
            self._blas = None
            self._sphere_blas = False
        self._static = None

    def static_recs(self) -> "_StaticRecs":
        """The (lazily built) per-structure walk constants."""
        if self._static is None:
            self._static = _StaticRecs(self)
        return self._static

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def record(self, origins, directions, t_clip=None, label="primary"):
        """Trace a bundle with recording; ``(PacketResult, traces)``.

        The :class:`~repro.rt.kernels.PacketResult` matches a plain
        ``trace_packet`` of the same bundle (the shade/blend stage runs
        on the same candidate sets), with ``rounds`` replaced by the
        reconstruction's exact per-ray round counts.  ``traces`` is one
        :class:`~repro.rt.recorder.RayTrace` per ray, in ray order.
        """
        o = np.ascontiguousarray(origins, dtype=np.float64)
        d = np.ascontiguousarray(directions, dtype=np.float64)
        n = o.shape[0]
        if t_clip is None:
            t_clip = np.full(n, _INF)
        else:
            t_clip = np.asarray(t_clip, dtype=np.float64)
        if n == 0:
            return self.tracer._empty_result(0), []
        if n <= _MAX_RECORD_PACKET:
            return self._record_chunk(o, d, t_clip, label)
        parts = []
        traces: list[RayTrace] = []
        for i in range(0, n, _MAX_RECORD_PACKET):
            part, part_traces = self._record_chunk(
                o[i:i + _MAX_RECORD_PACKET], d[i:i + _MAX_RECORD_PACKET],
                t_clip[i:i + _MAX_RECORD_PACKET], label)
            parts.append(part)
            traces.extend(part_traces)
        return (PacketResult.concatenate(parts, self.config.record_blended),
                traces)

    # ------------------------------------------------------------------
    # Phase A — batched geometry
    # ------------------------------------------------------------------

    def _record_chunk(self, o, d, t_clip, label):
        tracer = self.tracer
        n = o.shape[0]
        safe = np.where(np.abs(d) < 1e-12, 1e-12, d)
        inv_d = 1.0 / safe

        log: list = []
        leaf_rays, leaf_refs = tracer._traverse_wave(
            tracer._root, o, inv_d, t_clip, "root", log=log)

        node_rows = _visit_tables(n, log)
        del log

        tri_hits = sph_box = mesh_root = mesh_nodes = mesh_leaf_best = None
        o2c = d2c = None
        if self.prims == PRIMS_TRIANGLES:
            tri_hits, ray_c, gid_c, t_proxy = self._tri_leaf_hits(
                n, o, d, leaf_rays, leaf_refs)
        elif self.prims == PRIMS_GAUSSIANS:
            ray_c, gid_c = tracer._wave_customs(leaf_rays, leaf_refs)
            t_proxy = None
        elif self._sphere_blas:
            sph_box, ray_c, gid_c, o2c, d2c = self._sphere_box_tables(
                n, o, d, t_clip, leaf_rays, leaf_refs)
            t_proxy = None
        else:
            (mesh_root, mesh_nodes, mesh_leaf_best,
             ray_c, gid_c, t_proxy, o2c, d2c) = self._mesh_tables(
                n, o, d, t_clip, leaf_rays, leaf_refs)

        result = tracer._shade_and_blend(o, d, t_clip, ray_c, gid_c, t_proxy,
                                         o2=o2c, d2=d2c)

        eval_map = self._eval_tables(n, o, d, ray_c, gid_c, o2c, d2c)

        # Phase B — one template + round walks per ray.
        traces: list[RayTrace] = []
        rounds_out = np.empty(n, dtype=np.int64)
        empty: dict = {}
        t_clip_l = t_clip.tolist()
        for r in range(n):
            trace = RayTrace(label=label)
            sim = _RaySim(
                self, trace, t_clip_l[r],
                node_rows[r],
                tri_hits[r] if tri_hits is not None else empty,
                eval_map[r],
                sph_box[r] if sph_box is not None else empty,
                mesh_root[r] if mesh_root is not None else empty,
                mesh_nodes[r] if mesh_nodes is not None else empty,
                mesh_leaf_best[r] if mesh_leaf_best is not None else empty,
            )
            rounds_out[r] = sim.run()
            traces.append(trace)
        result.rounds = rounds_out
        return result, traces

    def _leaf_pair_tables(self, level, leaf_rays, leaf_refs):
        """(ray, primitive, leaf) pair arrays over accepted (ray, leaf)
        pairs."""
        rp, pp = self.tracer._expand_pairs(level, leaf_rays, leaf_refs)
        lf = np.repeat(leaf_refs, level.leaf_count[leaf_refs])
        return rp, pp, lf

    def _tri_leaf_hits(self, n, o, d, leaf_rays, leaf_refs):
        """Per (ray, leaf) entering proxy hits as the scalar leaf loop
        sees them — sorted by ``(t, gid)``, deduplicated per Gaussian
        keeping the nearest — plus the global per-(ray, gid) candidates
        (nearest entering triangle over all leaves, the values the plain
        path's reduction produces)."""
        rp, tp, lf = self._leaf_pair_tables(
            self.tracer._root, leaf_rays, leaf_refs)
        out: list[dict] = [dict() for _ in range(n)]
        empty = np.empty(0, dtype=np.int64)
        if rp.size == 0:
            return out, empty, empty, np.empty(0)
        mesh = self.flat.mesh
        sel, t = entering_hits(o[rp], d[rp], tp, mesh.v0, mesh.e1, mesh.e2)
        if sel.size == 0:
            return out, empty, empty, np.empty(0)
        hr, hl = rp[sel], lf[sel]
        hg = mesh.owner[tp[sel]]
        # Nearest entering triangle per (ray, leaf, gid)...
        order = np.lexsort((t, hg, hl, hr))
        hr, hl, hg, t = hr[order], hl[order], hg[order], t[order]
        first = np.ones(hr.size, dtype=bool)
        first[1:] = ((hr[1:] != hr[:-1]) | (hl[1:] != hl[:-1])
                     | (hg[1:] != hg[:-1]))
        hr, hl, hg, t = hr[first], hl[first], hg[first], t[first]
        # ...then the scalar's (t, gid) iteration order within the leaf.
        order = np.lexsort((hg, t, hl, hr))
        hr, hl, hg, t = hr[order], hl[order], hg[order], t[order]
        for r, leaf, gid, tt in zip(hr.tolist(), hl.tolist(), hg.tolist(),
                                    t.tolist()):
            per_leaf = out[r]
            lst = per_leaf.get(leaf)
            if lst is None:
                per_leaf[leaf] = lst = []
            lst.append((tt, gid))
        # Global candidates: nearest entering triangle per (ray, gid) —
        # the min over per-leaf minima equals the plain path's min over
        # all entering hits, bit for bit.
        order = np.lexsort((t, hg, hr))
        cr, cg, ct = hr[order], hg[order], t[order]
        first = np.ones(cr.size, dtype=bool)
        first[1:] = (cr[1:] != cr[:-1]) | (cg[1:] != cg[:-1])
        return out, cr[first], cg[first], ct[first]

    def _instance_pairs(self, o, d, leaf_rays, leaf_refs):
        """The TLAS (ray, instance) pair bundle with object-space rays —
        the recording twin of the head of ``_wave_instances``."""
        tracer = self.tracer
        rp, pp = tracer._expand_pairs(tracer._root, leaf_rays, leaf_refs)
        if rp.size == 0:
            return rp, pp, None, None, None
        gid = self.flat.prim_gid[pp]
        o2, d2 = to_object_space(
            self.flat.inst_w2o_linear[pp], self.flat.inst_w2o_offset[pp],
            o[rp], d[rp])
        return rp, pp, gid, o2, d2

    def _sphere_box_tables(self, n, o, d, t_clip, leaf_rays, leaf_refs):
        """Per (ray, instance): the sphere-BLAS unit-box slab result the
        scalar instance path computes (same exact-zero guard), plus the
        surviving candidate pairs (the plain path's keep mask)."""
        rp, pp, gid, o2, d2 = self._instance_pairs(o, d, leaf_rays,
                                                   leaf_refs)
        out: list[dict] = [dict() for _ in range(n)]
        empty = np.empty(0, dtype=np.int64)
        if rp.size == 0:
            return out, empty, empty, None, None
        safe = np.where(d2 == 0.0, 1e-12, d2)  # repro: lint-ok[float-eq] exact-zero guard mirrors the scalar engine's slab divide bit-for-bit
        t0 = (-1.0 - o2) / safe
        t1 = (1.0 - o2) / safe
        tn = np.minimum(t0, t1).max(axis=1)
        tf = np.maximum(t0, t1).min(axis=1)
        for r, g, a, b in zip(rp.tolist(), gid.tolist(), tn.tolist(),
                              tf.tolist()):
            out[r][g] = (a, b)
        keep = (tn <= tf) & (tf >= 0.0) & (tn <= t_clip[rp])
        return out, rp[keep], gid[keep], o2[keep], d2[keep]

    def _mesh_tables(self, n, o, d, t_clip, leaf_rays, leaf_refs):
        """Per (ray, instance): root-box slab result, per-BLAS-node slab
        rows and per-BLAS-leaf nearest entering template-triangle depth,
        plus the surviving candidate pairs with their proxy depths (the
        plain path's nearest-entering-template-triangle reduction)."""
        tracer = self.tracer
        rp, pp, gid, o2, d2 = self._instance_pairs(o, d, leaf_rays,
                                                   leaf_refs)
        mesh_root: list[dict] = [dict() for _ in range(n)]
        mesh_nodes: list[dict] = [dict() for _ in range(n)]
        mesh_best: list[dict] = [dict() for _ in range(n)]
        empty = np.empty(0, dtype=np.int64)
        none = (mesh_root, mesh_nodes, mesh_best, empty, empty,
                np.empty(0), None, None)
        if rp.size == 0:
            return none
        safe = np.where(np.abs(d2) < 1e-12, 1e-12, d2)
        inv_d2 = 1.0 / safe
        root_lo, root_hi = tracer._blas_roots[0]
        t0 = (root_lo[None, :] - o2) * inv_d2
        t1 = (root_hi[None, :] - o2) * inv_d2
        rtn = np.minimum(t0, t1).max(axis=1)
        rtf = np.maximum(t0, t1).min(axis=1)
        rp_l, gid_l = rp.tolist(), gid.tolist()
        for i, (a, b) in enumerate(zip(rtn.tolist(), rtf.tolist())):
            mesh_root[rp_l[i]][gid_l[i]] = (a, b)

        clip = t_clip[rp]
        live = np.nonzero((rtn <= rtf) & (rtf >= 0.0) & (rtn <= clip))[0]
        if live.size == 0:
            return none
        level = tracer._blas_levels[0]
        o_l, d_l = o2[live], d2[live]
        blog: list = []
        bleaf_rays, bleaf_refs = tracer._traverse_wave(
            level, o_l, inv_d2[live], clip[live], "blas0", log=blog)
        # Each live pair is one (ray, instance): decode its BLAS visit
        # rows through the same helper as the root level (one home for
        # the DFS child-order rule), then key them by (ray, gid).
        live_l = live.tolist()
        pair_tables = _visit_tables(live.size, blog)
        for p, rows in enumerate(pair_tables):
            if rows:
                i = live_l[p]
                mesh_nodes[rp_l[i]][gid_l[i]] = rows

        # Per (pair, BLAS leaf): nearest entering template triangle.
        blas = self._blas
        pr, tp, lf = self._leaf_pair_tables(level, bleaf_rays, bleaf_refs)
        if pr.size == 0:
            return none
        sel, t = entering_hits(o_l[pr], d_l[pr], tp, blas.mesh.v0,
                               blas.mesh.e1, blas.mesh.e2)
        if sel.size == 0:
            return none
        pr, lf = pr[sel], lf[sel]
        order = np.lexsort((t, lf, pr))
        pr, lf, t = pr[order], lf[order], t[order]
        first = np.ones(pr.size, dtype=bool)
        first[1:] = (pr[1:] != pr[:-1]) | (lf[1:] != lf[:-1])
        pr, lf, t = pr[first], lf[first], t[first]
        for p, leaf, tt in zip(pr.tolist(), lf.tolist(), t.tolist()):
            i = live_l[p]
            per_pair = mesh_best[rp_l[i]]
            per_leaf = per_pair.get(gid_l[i])
            if per_leaf is None:
                per_pair[gid_l[i]] = per_leaf = {}
            per_leaf[leaf] = tt

        # Candidates: nearest entering template triangle per pair (min
        # over per-leaf minima == the plain path's global min).
        order = np.lexsort((t, pr))
        pr2, t2 = pr[order], t[order]
        first = np.ones(pr2.size, dtype=bool)
        first[1:] = pr2[1:] != pr2[:-1]
        sub = live[pr2[first]]
        return (mesh_root, mesh_nodes, mesh_best,
                rp[sub], gid[sub], t2[first], o2[sub], d2[sub])

    def _eval_tables(self, n, o, d, ray_c, gid_c, o2, d2):
        """Per (ray, gaussian) canonical any-hit results for every
        candidate pair: ``(t_entry, alpha)`` or ``False`` (rejected) —
        the vectorized mirror of ``SceneShading.evaluate_hit``, sharing
        the shade stage's expressions."""
        shading = self.shading
        out: list[dict] = [dict() for _ in range(n)]
        if ray_c.size == 0:
            return out
        if o2 is None:
            o2, d2 = to_object_space(
                shading.w2o_linear[gid_c], shading.w2o_offset[gid_c],
                o[ray_c], d[ray_c])
        dd = d2[:, 0] * d2[:, 0] + d2[:, 1] * d2[:, 1] + d2[:, 2] * d2[:, 2]
        od = o2[:, 0] * d2[:, 0] + o2[:, 1] * d2[:, 1] + o2[:, 2] * d2[:, 2]
        oo = o2[:, 0] * o2[:, 0] + o2[:, 1] * o2[:, 1] + o2[:, 2] * o2[:, 2]
        valid = dd >= 1e-30
        dd_safe = np.where(valid, dd, 1.0)
        min_sq = oo - od * od / dd_safe
        valid &= min_sq <= 1.0
        t_entry = (-od / dd_safe) - np.sqrt(
            np.maximum((1.0 - min_sq) / dd_safe, 0.0))
        valid &= t_entry > 0.0
        alpha = shading.opacities[gid_c] * np.exp(
            (-0.5 * shading.kappa_sq) * min_sq)
        valid &= alpha >= ALPHA_MIN
        alpha = np.minimum(alpha, ALPHA_MAX)
        for r, g, ok, t, a in zip(ray_c.tolist(), gid_c.tolist(),
                                  valid.tolist(), t_entry.tolist(),
                                  alpha.tolist()):
            out[r][g] = (t, a) if ok else False
        return out


class _StaticRecs:
    """Per-structure constants for template walks: pre-baked fixed-width
    fetch records and child-slot metadata, shared by every ray."""

    __slots__ = (
        "node_rec6", "node_rec7", "node_kind", "node_leaf_slots",
        "leaf_rec7", "node_addr", "leaf_addr", "leaf_start", "leaf_count",
        "bnode_rec7", "bnode_addr", "bleaf_rec7", "bleaf_addr",
    )

    def __init__(self, rec: PacketTraceRecorder) -> None:
        tables = rec.tables
        node_bytes = tables.node_bytes
        self.node_addr = tables.node_addr
        self.leaf_addr = tables.leaf_addr
        self.leaf_start = tables.leaf_start
        self.leaf_count = tables.leaf_count
        rec6, rec7, kind_codes, leaf_slots = [], [], [], []
        for n, kinds in enumerate(tables.child_kind):
            occupied = 0
            slots = []
            for slot, ckind in enumerate(kinds):
                if ckind == 0:
                    break
                occupied += 1
                if tables.child_is_leaf[n][slot]:
                    slots.append((slot, (tables.child_addr[n][slot],
                                         tables.child_bytes[n][slot])))
            addr = tables.node_addr[n]
            head = (addr, node_bytes, FETCH_INTERNAL, occupied, 0, 0)
            rec6.append(head)
            rec7.append(head + (0,))
            kind_codes.append(_T_NODE_PF if slots else _T_NODE)
            leaf_slots.append(tuple(slots))
        self.node_rec6 = rec6
        self.node_rec7 = rec7
        self.node_kind = kind_codes
        self.node_leaf_slots = leaf_slots

        if rec.two_level:
            prim_kind = PRIM_TRANSFORM
        elif rec.prims == PRIMS_TRIANGLES:
            prim_kind = PRIM_TRI
        else:
            prim_kind = PRIM_CUSTOM
        self.leaf_rec7 = [
            (tables.leaf_addr[i], tables.leaf_bytes[i], FETCH_LEAF, 0,
             tables.leaf_count[i], prim_kind, 0)
            for i in range(len(tables.leaf_addr))
        ]

        # Recording is guarded to single-BLAS structures, so slot 0 is
        # the only entry of the per-slot table tuple.
        bt = tables.blas_tables[0] if tables.blas_tables else None
        if rec.two_level and not rec._sphere_blas and bt is not None:
            self.bnode_addr = bt.node_addr
            self.bleaf_addr = bt.leaf_addr
            self.bnode_rec7 = [
                (bt.node_addr[i], bt.node_bytes, FETCH_INTERNAL,
                 _occupied(bt.child_kind[i]), 0, 0, 0)
                for i in range(len(bt.node_addr))
            ]
            self.bleaf_rec7 = [
                (bt.leaf_addr[i], bt.leaf_bytes[i], FETCH_LEAF, 0,
                 bt.leaf_count[i], PRIM_TRI, 0)
                for i in range(len(bt.leaf_addr))
            ]
        else:
            self.bnode_addr = self.bleaf_addr = None
            self.bnode_rec7 = self.bleaf_rec7 = None


def _occupied(kinds) -> int:
    occupied = 0
    for ckind in kinds:
        if ckind == 0:
            break
        occupied += 1
    return occupied


def _skip_table(depths: list[int]) -> list[int]:
    """``skips[i]`` = first index past entry ``i``'s subtree (pre-order:
    the next entry at depth <= depths[i], or the template end)."""
    n = len(depths)
    skips = [n] * n
    stack: list[int] = []
    for i, d in enumerate(depths):
        while stack and depths[stack[-1]] >= d:
            skips[stack.pop()] = i
        stack.append(i)
    return skips


class _RaySim:
    """Replays the scalar tracer's control flow for one ray over a
    pre-baked round template, emitting the ray's fetch trace.

    The template bakes everything round-invariant — the DFS visit order
    (child ordering depends only on per-ray entry distances), the static
    accept tests (``tn <= tf``, ``tf >= 0``, ``tn <= t_clip``) and
    subtree-skip jumps; a round walk applies only the interval residuals
    (``tf >= t_min``, ``tn <= t_max``), mirroring
    :class:`repro.rt.tracer.Tracer` decision for decision (minus color
    math and the GRTX-HW branches, which are no-ops without
    checkpointing).  The trace-equivalence test matrix pins the two
    implementations together.
    """

    __slots__ = (
        "rec", "recs", "config", "trace", "t_clip",
        "entries", "skips", "node_rows", "tri_hits", "eval_map",
        "sph_box", "mesh_root", "mesh_nodes", "mesh_leaf_best",
        "blas_cache",
        # per-round state (the scalar _RoundState)
        "t_min", "t_max", "kbuffer", "round_trace",
        "collect_all", "hits", "hits_seen", "frontier",
    )

    def __init__(self, rec: PacketTraceRecorder, trace: RayTrace,
                 t_clip: float, node_rows, tri_hits, eval_map, sph_box,
                 mesh_root, mesh_nodes, mesh_leaf_best) -> None:
        self.rec = rec
        self.recs = rec.static_recs()
        self.config = rec.config
        self.trace = trace
        self.t_clip = t_clip
        self.node_rows = node_rows
        self.tri_hits = tri_hits
        self.eval_map = eval_map
        self.sph_box = sph_box
        self.mesh_root = mesh_root
        self.mesh_nodes = mesh_nodes
        self.mesh_leaf_best = mesh_leaf_best
        self.blas_cache = {}
        self.entries, self.skips = self._build_template()

    # -- template construction -----------------------------------------

    def _build_template(self):
        """One stack walk in the scalar DFS order (children sorted
        nearest first with the same tie behavior), applying only the
        static accept tests; per-round residuals stay in ``(tn, tf)``."""
        tables = self.rec.tables
        kind_rows = tables.child_kind
        ref_rows = tables.child_ref
        node_rows = self.node_rows
        node_kind = self.recs.node_kind
        two_level = self.rec.two_level
        triangles = self.rec.prims == PRIMS_TRIANGLES
        if two_level:
            leaf_code = _T_TLAS_LEAF
        elif triangles:
            leaf_code = _T_TRI_LEAF
        else:
            leaf_code = _T_CUSTOM_LEAF

        entries: list = []
        depths: list[int] = []
        append = entries.append
        dappend = depths.append
        # The root bypasses the slab accept: tn = 0, tf = inf make its
        # residual checks vacuous, exactly like the scalar's seed entry.
        stack = [(KIND_INTERNAL, 0, 0, 0.0, _INF)]
        while stack:
            kind, ref, depth, tn, tf = stack.pop()
            if kind == KIND_LEAF:
                append((leaf_code, tn, tf, ref))
                dappend(depth)
                continue
            append((node_kind[ref], tn, tf, ref))
            dappend(depth)
            row = node_rows[ref]
            cnt = row[3]
            if cnt:
                # Phase A pre-sorted the accepted slots by descending
                # entry distance (slot order on ties): push order ==
                # the scalar's, so pops come nearest first.
                tn_row = row[0]
                tf_row = row[1]
                order = row[2]
                kinds = kind_rows[ref]
                refs = ref_rows[ref]
                child_depth = depth + 1
                for pos in range(cnt):
                    slot = order[pos]
                    stack.append((kinds[slot], refs[slot], child_depth,
                                  tn_row[slot], tf_row[slot]))
        return entries, _skip_table(depths)

    def _build_blas_template(self, gid: int, root_tn: float):
        """One instance pair's shared-BLAS round template (same DFS
        rules over the BLAS tables), cached per Gaussian."""
        bt = self.rec.tables.blas_tables[0]
        kind_rows = bt.child_kind
        ref_rows = bt.child_ref
        node_rows = self.mesh_nodes[gid]
        entries: list = []
        depths: list[int] = []
        append = entries.append
        dappend = depths.append
        stack = [(KIND_INTERNAL, 0, 0, root_tn, _INF)]
        while stack:
            kind, ref, depth, tn, tf = stack.pop()
            if kind == KIND_LEAF:
                append((_T_BLAS_LEAF, tn, tf, ref))
                dappend(depth)
                continue
            append((_T_NODE, tn, tf, ref))
            dappend(depth)
            row = node_rows[ref]
            cnt = row[3]
            if cnt:
                tn_row = row[0]
                tf_row = row[1]
                order = row[2]
                kinds = kind_rows[ref]
                refs = ref_rows[ref]
                child_depth = depth + 1
                for pos in range(cnt):
                    slot = order[pos]
                    stack.append((kinds[slot], refs[slot], child_depth,
                                  tn_row[slot], tf_row[slot]))
        return entries, _skip_table(depths)

    # -- round drivers (Tracer.trace_ray / _trace_*_round) -------------

    def run(self) -> int:
        """Trace the ray to completion; returns the exact round count."""
        if self.config.mode == "singleround":
            return self._run_single_round()
        return self._run_multi_round()

    def _run_single_round(self) -> int:
        round_trace = self.trace.begin_round()
        self._begin_state(0.0, None, round_trace, collect_all=True)
        self._walk()
        hits = sorted(self.hits, key=lambda e: (e.t, e.gaussian_id))
        round_trace.kbuffer_ops += len(hits)
        _, blended, _ = self._blend(hits, 1.0)
        round_trace.blended = blended
        return 1

    def _run_multi_round(self) -> int:
        config = self.config
        t_min = 0.0
        frontier: frozenset[int] = frozenset()
        transmittance = 1.0
        rounds = 0
        for _round_index in range(config.max_rounds):
            round_trace = self.trace.begin_round()
            rounds += 1
            kbuffer = KBuffer(config.k)
            self._begin_state(t_min, kbuffer, round_trace,
                              collect_all=False, frontier=frontier)
            self._walk()
            entries = sorted(kbuffer.drain(),
                             key=lambda e: (e.t, e.gaussian_id))
            round_trace.kbuffer_ops += kbuffer.insertions
            if not entries:
                break
            transmittance, blended, terminated = self._blend(
                entries, transmittance)
            round_trace.blended = blended
            if terminated:
                break
            last_t = entries[-1].t
            tied = frozenset(
                e.gaussian_id for e in entries if e.t == last_t)
            frontier = (frontier | tied) if last_t == t_min else tied
            t_min = last_t
            if len(entries) < config.k:
                break
        return rounds

    def _begin_state(self, t_min, kbuffer, round_trace, collect_all,
                     frontier: frozenset = frozenset()) -> None:
        self.t_min = t_min
        self.t_max = _INF
        self.kbuffer = kbuffer
        self.round_trace = round_trace
        self.collect_all = collect_all
        self.hits = []
        self.hits_seen = set()
        self.frontier = frontier

    def _blend(self, entries, transmittance):
        """The scalar blend loop minus color math: same transmittance
        sequence, so the same blended count and termination decision."""
        blended = 0
        terminated = False
        threshold = self.config.transmittance_min
        for entry in entries:
            transmittance *= 1.0 - entry.alpha
            blended += 1
            if transmittance < threshold:
                terminated = True
                break
        return transmittance, blended, terminated

    # -- the round walk -------------------------------------------------

    def _walk(self) -> None:
        """One tracing round: walk the template with subtree jumps."""
        recs = self.recs
        trace = self.trace
        rt = self.round_trace
        stream = rt.stream
        emit = stream.extend
        pf_emit = rt.pf.extend
        s_append = stream.append
        add_int = trace.unique_internal.add
        add_leaf = trace.unique_leaf.add
        t_min = self.t_min
        t_clip = self.t_clip
        em = self.eval_map
        node_rec7 = recs.node_rec7
        node_rec6 = recs.node_rec6
        node_addr = recs.node_addr
        node_leaf_slots = recs.node_leaf_slots
        node_rows = self.node_rows
        leaf_rec7 = recs.leaf_rec7
        leaf_addr = recs.leaf_addr
        leaf_start = recs.leaf_start
        leaf_count = recs.leaf_count
        sphere = self.rec._sphere_blas
        gids = self.rec.tables.ordered_gids
        if sphere:
            sphere_rec = self.rec._sphere_rec
            sphere_addr = sphere_rec[0]
            sph = self.sph_box
        elif self.rec.two_level:
            mesh_root = self.mesh_root
            bcache = self.blas_cache
        anyhit = self._anyhit
        entries = self.entries
        skips = self.skips
        n = len(entries)
        n_int = n_leaf = 0

        i = 0
        while i < n:
            entry = entries[i]
            if entry[2] < t_min or entry[1] > self.t_max:
                i = skips[i]
                continue
            kind = entry[0]
            ref = entry[3]
            if kind == _T_NODE:
                emit(node_rec7[ref])
                add_int(node_addr[ref])
                n_int += 1
            elif kind == _T_NODE_PF:
                row = node_rows[ref]
                tn_row = row[0]
                tf_row = row[1]
                t_max = self.t_max
                npf = 0
                for slot, pair in node_leaf_slots[ref]:
                    ctn = tn_row[slot]
                    ctf = tf_row[slot]
                    if (ctn > ctf or ctf < t_min or ctf < 0.0
                            or ctn > t_clip or ctn > t_max):
                        continue
                    pf_emit(pair)
                    npf += 1
                emit(node_rec6[ref])
                s_append(npf)
                add_int(node_addr[ref])
                n_int += 1
            elif kind == _T_TRI_LEAF:
                emit(leaf_rec7[ref])
                add_leaf(leaf_addr[ref])
                n_leaf += 1
                hits = self.tri_hits.get(ref)
                if hits:
                    for t_proxy, gid in hits:
                        anyhit(gid, em[gid], t_proxy)
            elif kind == _T_TLAS_LEAF:
                emit(leaf_rec7[ref])
                add_leaf(leaf_addr[ref])
                n_leaf += 1
                start = leaf_start[ref]
                if sphere:
                    for slot in range(start, start + leaf_count[ref]):
                        gid = gids[slot]
                        emit(sphere_rec)
                        add_leaf(sphere_addr)
                        n_leaf += 1
                        box = sph[gid]
                        itn = box[0]
                        itf = box[1]
                        if (itn > itf or itf < t_min or itf < 0.0
                                or itn > t_clip):
                            continue
                        if itn > self.t_max:
                            continue
                        anyhit(gid, em[gid], None)
                else:
                    for slot in range(start, start + leaf_count[ref]):
                        gid = gids[slot]
                        root = mesh_root[gid]
                        rtn = root[0]
                        rtf = root[1]
                        if (rtn > rtf or rtf < t_min or rtf < 0.0
                                or rtn > t_clip):
                            continue
                        if rtn > self.t_max:
                            continue
                        bt = bcache.get(gid)
                        if bt is None:
                            bt = self._build_blas_template(gid, rtn)
                            bcache[gid] = bt
                        bi, bl, best = self._walk_blas(
                            bt, self.mesh_leaf_best.get(gid),
                            emit, add_int, add_leaf)
                        n_int += bi
                        n_leaf += bl
                        if best is not None:
                            anyhit(gid, em[gid], best)
            else:  # _T_CUSTOM_LEAF
                emit(leaf_rec7[ref])
                add_leaf(leaf_addr[ref])
                n_leaf += 1
                start = leaf_start[ref]
                for slot in range(start, start + leaf_count[ref]):
                    gid = gids[slot]
                    anyhit(gid, em[gid], None)
            i += 1

        trace.total_internal += n_int
        trace.total_leaf += n_leaf

    def _walk_blas(self, template, leaf_best, emit, add_int, add_leaf):
        """One shared-BLAS sub-traversal (``t_max`` is frozen inside:
        the any-hit runs after the walk).  Returns ``(internal fetches,
        leaf fetches, nearest entering template-triangle t or None)``."""
        recs = self.recs
        bnode_rec7 = recs.bnode_rec7
        bnode_addr = recs.bnode_addr
        bleaf_rec7 = recs.bleaf_rec7
        bleaf_addr = recs.bleaf_addr
        t_min = self.t_min
        t_max = self.t_max
        entries, skips = template
        n = len(entries)
        n_int = n_leaf = 0
        best = None
        i = 0
        while i < n:
            entry = entries[i]
            if entry[2] < t_min or entry[1] > t_max:
                i = skips[i]
                continue
            ref = entry[3]
            if entry[0] == _T_NODE:
                emit(bnode_rec7[ref])
                add_int(bnode_addr[ref])
                n_int += 1
            else:  # _T_BLAS_LEAF
                emit(bleaf_rec7[ref])
                add_leaf(bleaf_addr[ref])
                n_leaf += 1
                if leaf_best is not None:
                    t = leaf_best.get(ref)
                    if t is not None and (best is None or t < best):
                        best = t
            i += 1
        return n_int, n_leaf, best

    # -- canonical any-hit (Tracer._anyhit) ----------------------------

    def _anyhit(self, gid: int, result, t_depth: float | None) -> None:
        if result is False:
            self.round_trace.false_positives += 1
            return
        t_exact, alpha = result
        t_hit = t_exact if t_depth is None else t_depth

        if t_hit > self.t_clip:
            return

        if self.collect_all:
            if t_hit > self.t_min and gid not in self.hits_seen:
                self.hits_seen.add(gid)
                self.round_trace.anyhit_calls += 1
                self.hits.append(KBufferEntry(t_hit, gid, alpha))
            return

        if t_hit < self.t_min or (t_hit == self.t_min
                                  and gid in self.frontier):
            return
        if t_hit > self.t_max:
            return
        kbuffer = self.kbuffer
        if gid in kbuffer:
            return
        self.round_trace.anyhit_calls += 1
        rejected = kbuffer.insert(KBufferEntry(t_hit, gid, alpha))
        if rejected is not None and rejected.gaussian_id == gid:
            # The new hit itself was beyond the k closest: the shader
            # reports it, shrinking t_max (Listing 1, lines 18-20).
            self.t_max = t_hit


