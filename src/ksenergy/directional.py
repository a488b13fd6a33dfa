"""The directional route to the p-energy.

For a unit direction nu, the directional modulus at x is the supremum over a
countable dense subset D of the target of |nu . grad d(u(x), xi)|; the energy
is the domain integral of its sphere average to the p-th power, equivalently
c_{n,p} times the ball integral via |d_v u| = |v| |d_{v/|v|} u|.

The sup over D is realized in two layers, both deterministic:

* a prefix scan over the first K enumerated dense points (anchors within
  `ANCHOR_EXCLUSION * fd_step` of u(x) in the target metric are skipped:
  central differences degrade as the composed field's curvature ~ 1/distance
  blows up, and in all built-in targets remote anchors realize the sup).
  The scan keeps one running max over the enumeration, in anchor batches
  that end at every multiple of 128 and at every requested prefix length,
  and copies it between batches at each such length: the 2K truncation
  probe and the K ladder of a convergence sweep come from the same pass,
  and each copy equals a separate scan of that prefix. A repeated gradient
  cannot raise M or move arg (the first anchor realizing it), so each node
  scans only its distinct gradients of each batch; dedup is per batch and
  conservative (it may keep a repeat, never drops a first occurrence), and
  the result is exactly that of a scan anchor by anchor;
* a per-(node, direction) refinement that walks the direction of the anchor
  ray in the target representation space, snapping every trial anchor to a
  dyadic lattice point so the search never leaves the dense set. Refinement
  anchors sit at `REFINE_RADIUS`, with a final polish at `POLISH_RADIUS`
  where the stencil error is negligible. Every trial of a sweep perturbs the
  sweep-start ray, so the rows of a node that share a ray share every trial
  anchor: target distances are evaluated once per such group, and groups
  split only at the end of a sweep, by the trial each row took last. The
  result is exactly that of a climb row by row.

Both layers only ever evaluate members of the dense set, and values are
monotone in K by construction. They are lower bounds of the true supremum
only as far as no stencil straddles a kink of x -> d(u(x), xi): observed,
not proved, when the map, grid and fd step are all dyadic (README
"Numerical notes" gives a non-dyadic overshoot; ROADMAP item 1).

The field holds one column per class of directions equal up to sign (g is
even in nu), and every energy reads it the same way, by direction: the
sphere average over a rule's nodes, the ball integral over its nodes'
directions, the frame sum over e_1..e_n, and each K or sphere-order row of
a convergence sweep. Each energy's density is reduced per node chunk in the
worker threads (`DirectionalField.density`), never from a full (nodes,
directions) table, but with that table's operations, order and layout, so
bit for bit the same. A column's value can still differ by 1 ulp with its
position in the direction table, since the scan's projection matmul rounds
by that layout.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ANCHOR_EXCLUSION, POLISH_RADIUS, REFINE_RADIUS, TRUNCATION_RTOL
from .errors import ConfigError, InvalidDirectionError, NonFiniteResultError
from .maps import eval_stencil
from .parallel import pairwise_sum, run_chunked
from .quadrature import energy_normalization

INCREMENT_TOLERANCE = 1e-3  # IncrementCheck.holds allows the lhs this relative excess


# ---------------------------------------------------------------------------
# direction bookkeeping
# ---------------------------------------------------------------------------


def _reduce_directions(dirs):
    """Collapse duplicate and antipodal directions; values are even in nu.

    Directions equal to 12 decimals up to sign share a representative, the
    first such vector; representatives are in order of first occurrence.
    """
    key = np.round(dirs, 12)
    lead = key[np.arange(key.shape[0]), np.argmax(key != 0, axis=1)]
    # the sign whose first nonzero entry is negative; + 0.0 turns -0.0 into 0.0
    key = np.where(lead[:, None] > 0, -key, key) + 0.0
    # a stable sort of the rows by key (several times faster than np.unique
    # over rows) puts each class's first occurrence at the head of its run
    order = np.lexsort(key.T)
    ranked = key[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = order[head]
    inv = np.empty(len(order), dtype=np.intp)
    inv[order] = np.argsort(np.argsort(first))[np.cumsum(head) - 1]
    return dirs[np.sort(first)], inv


def _snap_depth(delta):
    # lattice quantum ~ fd step: keeps dyadic anchors commensurate with
    # dyadic grids so |field| kinks never straddle half a stencil
    return int(np.clip(round(-math.log2(delta)), 4, 13))


@dataclass
class DirectionalField:
    """Directional moduli g_nu(x) on a point set, plus the minimal gradient."""

    dirs: np.ndarray  # (D, n) unit directions
    reduced: dict  # prefix length -> (N, R) g over the reduced directions (+ refinement)
    gmin: np.ndarray  # (N,)
    dense_count: int
    workers: int = 1  # threads that reduce its densities (cfg.workers of the run)

    def columns(self, directions, k=None):
        """(N, len(directions)) g_nu at prefix k (default K), looked up by direction.

        Column fancy indexing returns a Fortran-ordered table, and matmuls
        over it round by that layout: an `np.take` copy (C order) changes
        reports in the last digit.
        """
        return self.reduced[self.dense_count if k is None else k][:, self._column_index(directions)]

    def _column_index(self, directions):
        """The field column of each direction.

        Reduced together with `dirs`, each direction maps onto the
        representative of its class, so any directions the field holds (up
        to sign) read their own columns; one it lacks is an IndexError.
        """
        _, inv = _reduce_directions(np.concatenate([self.dirs, directions]))
        cols = inv[len(self.dirs):]
        if np.any(cols >= self.reduced[self.dense_count].shape[1]):
            raise IndexError("the field holds no column for some of the directions")
        return cols

    @property
    def values(self):
        """(N, D) g_nu at the K = dense_count prefix, expanded on each call."""
        return self.columns(self.dirs)

    @property
    def values_doubled(self):
        """g_nu at the 2K prefix (the under-truncation probe), or None."""
        k = 2 * self.dense_count
        return self.columns(self.dirs, k) if k in self.reduced else None

    def density(self, directions, p, weights=None, radii=None, scale=None, k=None):
        """(N,) scale * sum_j weights_j (radii_j g_j)^p over `directions`, at prefix k (default K).

        Without weights it is the plain sum over the directions (the frame
        sum); radii and scale default to 1. The density is reduced per node
        chunk in `workers` threads, so no (N, len(directions)) table is
        built. Each chunk gathers its rows, then its columns (the
        Fortran-ordered block of `columns`), and applies * radii, ** p,
        * scale and @ weights in place, in that order: the operations and
        layout of a full-size table, so the values are the same bit for bit.
        """
        table = self.reduced[self.dense_count if k is None else k]
        cols = self._column_index(directions)

        def work(start, stop):
            # chunks start at multiples of CHUNK (a multiple of 4), so a
            # single-threaded BLAS rounds a row in the matmul's tail path only
            # where it would in the full table; errstate is per thread, and
            # an overflow shows up as a non-finite report number
            with np.errstate(all="ignore"):
                block = table[start:stop][:, cols]
                if radii is not None:
                    block *= radii
                block **= p
                if scale is not None:
                    block *= scale
                return block @ weights if weights is not None else np.sum(block, axis=1)

        parts = run_chunked(work, table.shape[0], self.workers)
        return np.concatenate(parts) if parts else np.zeros(0)

    def sphere_energy(self, rule, p, node_weight, k=None):
        """(density, energy) of the sphere average of g_nu^p under `rule`, at prefix k (default K)."""
        density = self.density(rule.nodes, p, rule.weights, k=k)
        return density, node_weight * pairwise_sum(density)

    def max_direction_gap(self):
        """max g_nu - gmin over everything (must be <= 0 by construction)."""
        return float(np.max(self.values - self.gmin[:, None]))


def directional_field(metric_map, points, dirs, cfg, grid, prefixes=None):
    """Compute g_nu for every point/direction pair, plus the minimal gradient.

    dirs must be unit vectors (1e-12); `grid` bounds the stencil and sets
    the default fd step (`EnergyConfig.resolved_fd_step`). `prefixes` are
    the anchor-prefix lengths to report; it must contain K = cfg.dense_count
    and defaults to (K, 2K) when cfg.check_truncation is set (the
    under-truncation probe) and to (K,) otherwise. Every reported length
    gets the same refinement.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n = points.shape[1]
    if dirs.shape[1] != n:
        raise InvalidDirectionError(f"directions of dim {dirs.shape[1]} on a {n}-d domain")
    norms = np.linalg.norm(dirs, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-12):
        raise InvalidDirectionError("directions must be unit vectors (tolerance 1e-12)")
    K = cfg.dense_count
    if prefixes is None:
        prefixes = (K, 2 * K) if cfg.check_truncation else (K,)
    prefixes = tuple(sorted(set(int(k) for k in prefixes)))
    if K not in prefixes or prefixes[0] < 1:
        raise ConfigError(f"prefix lengths {prefixes} must be positive and include dense_count={K}")

    delta = cfg.resolved_fd_step(grid)

    space = metric_map.target
    anchors = space.dense_points(prefixes[-1])
    reps, _ = _reduce_directions(dirs)

    def work(start, stop):
        # errstate is per thread; overflow shows up as the NonFiniteResultError below
        with np.errstate(all="ignore"):
            return _field_chunk(metric_map, points[start:stop], reps, anchors, prefixes, delta, cfg, grid)

    parts = run_chunked(work, points.shape[0], cfg.workers)
    if parts:
        # pop: each chunk's copy of a prefix is freed as soon as it is joined
        snaps = [p[0] for p in parts]
        reduced = {k: np.concatenate([s.pop(0) for s in snaps], axis=0) for k in prefixes}
        gmin = np.concatenate([p[1] for p in parts], axis=0)
    else:
        reduced = {k: np.zeros((0, reps.shape[0])) for k in prefixes}
        gmin = np.zeros(0)
    # gmin is the running max over every reported value (NaN propagates), so
    # one check on it catches a non-finite refinement value anywhere
    if not np.all(np.isfinite(gmin)):
        raise _non_finite(metric_map)

    return DirectionalField(dirs=dirs, reduced=reduced, gmin=gmin, dense_count=K, workers=cfg.workers)


def _non_finite(metric_map):
    return NonFiniteResultError(
        f"map {metric_map.label!r} into {metric_map.target.spec} gives non-finite directional "
        "moduli (overflow in the target distance?)"
    )


def _field_chunk(metric_map, pts, reps, anchors, prefixes, delta, cfg, grid):
    """Prefix scan + refinement for one block of points.

    One running max over the anchor enumeration. Anchor batches end at every
    multiple of 128 and at every length in `prefixes`, so each prefix is a
    copy of M between batches and no batch straddles K = cfg.dense_count.
    Below K the update is strict, so `arg` keeps the first anchor that
    realizes the max (the refinement's seed). `grid` bounds the stencil, as
    in `maps.eval_stencil`.

    Distinct-gradient rule: a repeated gradient cannot raise M or move arg.
    Each batch is scanned over its slots (`_distinct_slots`): per node, the
    batch's distinct gradients in order of first occurrence, each carrying
    that anchor index as its `arg`. A first occurrence overall is also first
    in its own batch, so per-batch dedup keeps it.
    Returns ([g at each prefix length], gmin).
    """
    space = metric_map.target
    N = pts.shape[0]
    R = reps.shape[0]
    K = cfg.dense_count
    stencil = eval_stencil(metric_map, pts, delta, grid)
    r_excl = ANCHOR_EXCLUSION * delta

    M = np.zeros((N, R))
    arg = np.zeros((N, R), dtype=np.int64)
    gmin = np.zeros(N)
    gmin_arg = np.zeros(N, dtype=np.int64)
    proj = np.empty((N, R))
    upd = np.empty((N, R), dtype=bool)
    nupd = np.empty(N, dtype=bool)
    reps_t = reps.T
    snaps = []

    batch = 128
    ends = sorted(set(range(batch, prefixes[-1], batch)).union(prefixes))
    for b0, b1 in zip([0] + ends, ends):
        xi = anchors[b0:b1]
        center = space.distance(stencil.u0[:, None, :], xi[None, :, :])
        grads = stencil.gradient(space, xi)
        grads[center < r_excl] = 0.0
        norms = _gradient_norms(grads)
        # a finite norm bounds every projection, and the strict update below
        # would silently drop a NaN
        if not np.all(np.isfinite(norms)):
            raise _non_finite(metric_map)
        vecs, vnorms, occ = _distinct_slots(grads, norms, b0)
        for s in range(vecs.shape[0]):
            np.matmul(vecs[s], reps_t, out=proj)
            np.abs(proj, out=proj)
            if b0 >= K:
                np.maximum(M, proj, out=M)
            else:
                np.greater(proj, M, out=upd)
                np.copyto(M, proj, where=upd)
                np.copyto(arg, occ[s][:, None], where=upd)
                np.greater(vnorms[s], gmin, out=nupd)
                np.copyto(gmin, vnorms[s], where=nupd)
                np.copyto(gmin_arg, occ[s], where=nupd)
        if b1 in prefixes[:-1]:
            snaps.append(M.copy())
    snaps.append(M)  # the scan ends at the longest prefix

    accel, accel_norm = _refine_chunk(metric_map, stencil, pts, reps, anchors, arg, gmin_arg, delta, cfg)
    gmin = np.maximum(gmin, accel_norm)
    for s in snaps:
        np.maximum(s, accel, out=s)
        gmin = np.maximum(gmin, s.max(axis=1))
    return snaps, gmin


def _gradient_norms(grads):
    """np.linalg.norm(grads, axis=-1), bit for bit, without a reduction per element.

    Below 8 coordinates numpy sums the squares sequentially, so the square
    root of the per-coordinate squares summed in coordinate order is the
    same number; from 8 on it sums pairwise, and the norm stays numpy's.
    """
    n = grads.shape[-1]
    if n >= 8:
        return np.linalg.norm(grads, axis=-1)
    sq = grads[..., 0] * grads[..., 0]
    for i in range(1, n):
        sq += grads[..., i] * grads[..., i]
    return np.sqrt(sq, out=sq)


def _bucket_keys(bits):
    """(N, B) sort keys of (N, B, n) gradient bit patterns: equal vectors, equal keys."""
    key = np.zeros(bits.shape[:2], dtype=np.uint64)
    for i in range(bits.shape[2]):
        key ^= bits[..., i]
        key *= np.uint64(0x9E3779B97F4A7C15)
    return key


def _first_occurrences(grads, least):
    """(N, B) mask of the anchors to scan, or None when it would skip fewer than `least` in some row.

    Each row's anchors are sorted by bucket (the high bits of
    `_bucket_keys`), then by anchor index (the low bits), so equal vectors
    sit next to each other in anchor order; an anchor is skipped only when
    its sort neighbour before it has the same bits. No first occurrence is
    ever skipped, and a bucket collision only keeps a repeat.
    """
    N, B, n = grads.shape
    bits = grads.view(np.uint64)
    low = np.uint64((1 << (B - 1).bit_length()) - 1)
    key = _bucket_keys(bits) & ~low
    key |= np.arange(B, dtype=np.uint64)
    key.sort(axis=1)
    # a repeat shares its sort neighbour's bucket, so equal buckets bound the skips from above
    dup = (key[:, 1:] ^ key[:, :-1]) <= low
    if np.count_nonzero(dup, axis=1).min() < least:
        return None
    at = (key & low).astype(np.intp) + np.arange(0, N * B, B)[:, None]
    ranked = np.take(bits.reshape(N * B, n), at.ravel(), axis=0).reshape(N, B, n)
    for i in range(n):
        dup &= ranked[:, 1:, i] == ranked[:, :-1, i]
    if np.count_nonzero(dup, axis=1).min() < least:
        return None
    keep = np.ones(N * B, dtype=bool)
    keep[at[:, 1:][dup]] = False
    return keep.reshape(N, B)


def _distinct_slots(grads, norms, b0):
    """The scan slots of one anchor batch: (vecs (S, N, n), norms (S, N), occ (S, N)).

    Slot s of node i holds the node's s-th distinct gradient in order of
    first occurrence (`_first_occurrences`), with that anchor's norm and
    index `occ`. Nodes with fewer slots are padded with zero vectors, which
    never raise M or gmin, at an occurrence past the batch. When compressing
    saves fewer than B / 8 slots (every vector is distinct, say), the slots
    are the anchors themselves.
    """
    N, B, n = grads.shape
    # the loop pays per slot and the compression per batch
    keep = _first_occurrences(grads, max(B // 8, 1))
    if keep is None:
        return grads.swapaxes(0, 1), norms.T, np.broadcast_to(np.arange(b0, b0 + B)[:, None], (B, N))
    counts = np.count_nonzero(keep, axis=1)
    S = int(counts.max())
    src = np.flatnonzero(keep)
    slot = np.arange(src.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # index N * B is the zero vector that pads a node's slots
    idx = np.full(S * N, N * B)
    idx[slot * N + src // B] = src
    idx = idx.reshape(S, N)
    vecs = np.take(np.concatenate([grads.reshape(N * B, n), np.zeros((1, n))]), idx, axis=0)
    vnorms = np.take(np.append(norms, 0.0), idx)
    return vecs, vnorms, b0 + idx - np.arange(0, N * B, B)


def _refine_chunk(metric_map, stencil, pts, reps, anchors, arg, gmin_arg, delta, cfg):
    """Deterministic anchor-ray refinement for one block of points.

    Walks the unit direction w of the ray u(x) - radius * w in representation
    space, snapping candidates to the dyadic lattice; the projection
    objective is maximized per (point, direction) row, the norm objective per
    point (for the minimal gradient).

    Sharing rule: every trial of a sweep perturbs the sweep-start w (the
    m = 1 trials do not depend on w at all), so rows of one node that start a
    sweep on the same ray share every trial anchor of that sweep. Target
    distances are evaluated once per such group (`_RayGroups`); only the
    scalar objective and the `val > best` update run per row. Groups start
    as (node, seed anchor) and split only at the end of a sweep, by the trial
    each row took last; the far-radius polish windows are sweeps too.
    """
    if cfg.refine_stages <= 0:
        return np.zeros((pts.shape[0], reps.shape[0])), np.zeros(pts.shape[0])
    space = metric_map.target
    N, n = pts.shape
    R = reps.shape[0]
    m = space.rep_dim
    depth = _snap_depth(delta)

    def project_objective(diffs):
        j = np.zeros((N, R))
        for i in range(n):
            j += diffs[i].reshape(N, R) * reps[:, i]
        return np.abs(j).ravel() / (2.0 * delta)

    def norm_objective(diffs):
        sq = np.zeros(N)
        for i in range(n):
            sq += diffs[i] ** 2
        return np.sqrt(sq) / (2.0 * delta)

    def sweep(groups, trials, radius, best, objective):
        """Each row keeps the best of the trials; returns whether any row moved."""
        pick = np.zeros(best.shape, dtype=np.intp)
        cands = []
        for t, cand in enumerate(trials, 1):
            val = groups.evaluate(cand, radius, objective)
            take = val > best
            np.copyto(best, val, where=take)
            pick[take] = t
            cands.append(cand)
        moved = bool(pick.any())
        if moved:
            groups.split(cands, pick)
        return moved

    def climb(seeds, per_node, objective):
        groups = _RayGroups(space, depth, stencil, anchors, seeds, per_node)
        best = groups.evaluate(groups.w, REFINE_RADIUS, objective)
        if m == 1:
            trials = (np.full((groups.size, 1), sign) for sign in (1.0, -1.0))
            sweep(groups, trials, REFINE_RADIUS, best, objective)
        else:
            window = 0.8
            for _ in range(cfg.refine_stages):
                # several sweeps per scale: one sweep cannot cover multi-step
                # tangent walks when the start is far off (m >= 3 especially)
                for _ in range(3):
                    if not sweep(groups, _perturb(groups.w, window, m), REFINE_RADIUS, best, objective):
                        break
                window /= 3.0
        # far-radius polish: stencil error dies off like 1/radius^2, and two
        # fine rotations absorb the near-radius snap quantization
        far = groups.evaluate(groups.w, POLISH_RADIUS, objective)
        if m >= 2:
            for window in (4e-4, 1.3e-4):
                sweep(groups, _perturb(groups.w, window, m), POLISH_RADIUS, far, objective)
        return np.maximum(best, far)

    g_accel = climb(arg.ravel(), R, project_objective).reshape(N, R)
    gmin_accel = climb(gmin_arg, 1, norm_objective)
    return g_accel, gmin_accel


class _RayGroups:
    """Climb rows grouped by (node, ray direction w); row r belongs to node r // per_node.

    Keeps each group's stencil values and w; `evaluate` computes the target
    distances once per group and hands the objective per-row differences.
    Once every group is a single row, groups are renumbered as the rows
    (row_g None) and nothing is gathered or regrouped any more.
    """

    def __init__(self, space, depth, stencil, anchors, seeds, per_node):
        self.space = space
        self.depth = depth
        key = np.arange(seeds.size) // per_node * anchors.shape[0] + seeds
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        if first.size == seeds.size:
            first, inv = np.arange(seeds.size), None
        self.rep, self.row_g = first, inv
        # np.take: row gathers of 2-d arrays by fancy indexing are several times slower
        node = first // per_node
        self.u0 = np.take(stencil.u0, node, axis=0)
        self.plus = [np.take(p, node, axis=0) for p in stencil.plus]
        self.minus = [np.take(p, node, axis=0) for p in stencil.minus]
        self.w = _initial_directions(space, self.u0, np.take(anchors, seeds[first], axis=0))

    @property
    def size(self):
        return self.w.shape[0]

    def evaluate(self, cand, radius, objective):
        """Per-row objective at the snapped anchors u0 - radius * cand (one cand row per group)."""
        anchor = self.space.snap(self.u0 - radius * cand, self.depth)
        diffs = []
        for plus, minus in zip(self.plus, self.minus):
            d = self.space.distance(plus, anchor) - self.space.distance(minus, anchor)
            diffs.append(d if self.row_g is None else np.take(d, self.row_g))
        return objective(diffs)

    def split(self, cands, pick):
        """End of a sweep: each row's w becomes the trial it took last.

        pick[row] = t takes cands[t - 1]; 0 keeps the sweep-start w. A group
        follows its first row; rows that picked otherwise move to new groups
        keyed by (group, pick).
        """
        if self.row_g is not None:
            ref = pick[self.rep]
            stray = np.flatnonzero(pick != ref[self.row_g])
            if stray.size:
                self._add_groups(stray, cands, pick)
            pick = ref
        for t, cand in enumerate(cands, 1):
            took = np.flatnonzero(pick == t)
            self.w[took] = np.take(cand, took, axis=0)
        if self.row_g is not None and self.size == self.row_g.size:
            # every group is one row: renumber the groups as the rows
            order = self.row_g
            self.u0, self.w = np.take(self.u0, order, axis=0), np.take(self.w, order, axis=0)
            self.plus = [np.take(p, order, axis=0) for p in self.plus]
            self.minus = [np.take(p, order, axis=0) for p in self.minus]
            self.rep, self.row_g = np.arange(order.size), None

    def _add_groups(self, stray, cands, pick):
        G = self.size
        key = self.row_g[stray] * (len(cands) + 1) + pick[stray]
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        lead = stray[first]
        old = self.row_g[lead]
        w = np.take(self.w, old, axis=0)
        for t, cand in enumerate(cands, 1):
            took = np.flatnonzero(pick[lead] == t)
            w[took] = np.take(cand, old[took], axis=0)
        self.row_g[stray] = G + inv
        self.rep = np.concatenate([self.rep, lead])
        self.w = np.concatenate([self.w, w])
        self.u0 = np.concatenate([self.u0, np.take(self.u0, old, axis=0)])
        self.plus = [np.concatenate([p, np.take(p, old, axis=0)]) for p in self.plus]
        self.minus = [np.concatenate([p, np.take(p, old, axis=0)]) for p in self.minus]


def _initial_directions(space, u_rows, anchor_rows):
    w = u_rows - anchor_rows
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    fallback = np.zeros_like(w)
    fallback[:, 0] = 1.0
    return np.where(norms > 1e-12, w / np.where(norms == 0, 1.0, norms), fallback)


def _perturb(w, window, m):
    """Trial directions around w: rotations for m=2, axis nudges otherwise."""
    if m == 2:
        c, s = math.cos(window), math.sin(window)
        yield np.column_stack([c * w[:, 0] - s * w[:, 1], s * w[:, 0] + c * w[:, 1]])
        yield np.column_stack([c * w[:, 0] + s * w[:, 1], -s * w[:, 0] + c * w[:, 1]])
        return
    for a in range(m):
        for sign in (1.0, -1.0):
            cand = w.copy()
            cand[:, a] += sign * window
            yield cand / np.linalg.norm(cand, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# point ops
# ---------------------------------------------------------------------------


def directional_derivative(metric_map, x, nu, cfg, grid):
    """g_nu(x): sup over dense anchors of |nu . grad d(u(x), anchor)|."""
    nu = np.asarray(nu, dtype=np.float64)
    if not abs(np.linalg.norm(nu) - 1.0) <= 1e-12:
        raise InvalidDirectionError(f"|nu| must be 1 within 1e-12, got {np.linalg.norm(nu)!r}")
    f = directional_field(metric_map, np.asarray(x, dtype=np.float64)[None, :], nu[None, :], cfg, grid)
    return float(f.values[0, 0])


def directional_vector(metric_map, x, v, cfg, grid):
    """|d_v u|(x) = |v| * g_{v/|v|}(x); exact positive homogeneity."""
    v = np.asarray(v, dtype=np.float64)
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        raise InvalidDirectionError("direction vector must be nonzero")
    return vnorm * directional_derivative(metric_map, x, v / vnorm, cfg, grid)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


@dataclass
class RepEnergies:
    """Representation energies over the h0-erosion, from one anchor pass."""

    energy_sphere: Optional[float] = None
    energy_ball: Optional[float] = None
    frame_sum: Optional[float] = None
    density_sphere: Optional[np.ndarray] = None
    density_frame: Optional[np.ndarray] = None
    mask_indices: Optional[np.ndarray] = None
    mask_measure: float = 0.0
    energy_sphere_doubled: Optional[float] = None
    under_truncation: bool = False
    field: Optional[DirectionalField] = None


def rep_energies(metric_map, grid, cfg, forms=("sphere", "ball", "frame"), prefixes=None, mask=None):
    """Compute the requested representation energies in one shared pass.

    All forms reuse a single anchor table per node, so the minimal gradient
    dominates every directional value structurally and the sphere/ball
    comparison differs only by quadrature. Each form's density is reduced
    per node chunk (`DirectionalField.density`). `prefixes` is passed to
    `directional_field`; the energies are at K, and the sphere energy also
    at 2K when the field holds it. `mask` is the h0-erosion mask, built
    here when not given.
    """
    if mask is None:
        mask = grid.inner_mask(cfg.h0)
    idx = np.flatnonzero(mask)
    pts = grid.nodes[idx]
    n = grid.dim

    groups = {}  # form -> its directions, in field order
    if "sphere" in forms:
        sphere_rule = cfg.sphere_rule(n)
        groups["sphere"] = sphere_rule.nodes
    if "ball" in forms:
        ball_rule = cfg.ball_rule(n)
        ball_radii = np.linalg.norm(ball_rule.nodes, axis=1)
        safe = np.where(ball_radii > 0, ball_radii, 1.0)[:, None]
        # a node at the origin has no direction: e_1 stands in, its modulus times radius 0
        groups["ball"] = np.where(ball_radii[:, None] > 0, ball_rule.nodes / safe, np.eye(n)[0])
    if "frame" in forms:
        groups["frame"] = np.eye(n)

    f = directional_field(metric_map, pts, np.concatenate(list(groups.values())), cfg, grid, prefixes)

    out = RepEnergies(mask_indices=idx, mask_measure=float(grid.node_weight * len(idx)), field=f)
    if "sphere" in forms:
        out.density_sphere, out.energy_sphere = f.sphere_energy(sphere_rule, cfg.p, grid.node_weight)
        doubled = 2 * cfg.dense_count
        if doubled in f.reduced:
            _, out.energy_sphere_doubled = f.sphere_energy(sphere_rule, cfg.p, grid.node_weight, doubled)
            ref = max(abs(out.energy_sphere_doubled), 1e-300)
            out.under_truncation = abs(out.energy_sphere_doubled - out.energy_sphere) > TRUNCATION_RTOL * ref
    if "ball" in forms:
        density_ball = f.density(groups["ball"], cfg.p, ball_rule.weights, radii=ball_radii,
                                 scale=energy_normalization(n, cfg.p))
        out.energy_ball = grid.node_weight * pairwise_sum(density_ball)
    if "frame" in forms:
        out.density_frame = f.density(groups["frame"], cfg.p)
        out.frame_sum = grid.node_weight * pairwise_sum(out.density_frame)
    return out


# ---------------------------------------------------------------------------
# incremental bound
# ---------------------------------------------------------------------------


@dataclass
class IncrementCheck:
    v: tuple
    h: float
    lhs: float
    rhs: float

    @property
    def holds(self):
        return self.lhs <= self.rhs * (1.0 + INCREMENT_TOLERANCE) + 1e-300

    @property
    def ratio(self):
        return self.lhs / self.rhs if self.rhs > 0 else (0.0 if self.lhs == 0 else math.inf)


def check_increment_bound(metric_map, grid, v, h, cfg, _field_cache=None):
    """Compare shifted-increment mass against the directional bound.

    lhs = integral over the h-erosion of d^p(u(x + h v), u(x));
    rhs = h^p * integral over the box of |d_v u|^p. The lhs never exceeds the
    rhs (up to INCREMENT_TOLERANCE).
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.linalg.norm(v) <= 1.0 + 1e-12:
        raise InvalidDirectionError(f"increment direction must satisfy |v| <= 1, got {v!r}")
    if not (math.isfinite(h) and h > 0):
        raise ConfigError(f"h must be positive and finite, got {h!r}")
    mask = grid.inner_mask(h)
    pts = grid.nodes[mask]
    base = metric_map.eval(pts)
    shifted = metric_map.eval(pts + h * v)
    d = metric_map.target.distance(shifted, base)
    lhs = grid.node_weight * pairwise_sum(d**cfg.p)

    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        rhs = 0.0
    else:
        nu = v / vnorm
        key = tuple(np.round(nu, 15))
        if _field_cache is not None and key in _field_cache:
            gfield = _field_cache[key]
        else:
            gfield = directional_field(metric_map, grid.nodes, nu[None, :], cfg, grid).values[:, 0]
            if _field_cache is not None:
                _field_cache[key] = gfield
        rhs = (h * vnorm) ** cfg.p * grid.node_weight * pairwise_sum(gfield**cfg.p)
    return IncrementCheck(v=tuple(v.tolist()), h=float(h), lhs=float(lhs), rhs=float(rhs))
