"""The directional route to the p-energy.

For a unit direction nu, the directional modulus at x is the supremum over a
countable dense subset D of the target of |nu . grad d(u(x), xi)|; the energy
is the domain integral of its sphere average to the p-th power, equivalently
c_{n,p} times the ball integral via |d_v u| = |v| |d_{v/|v|} u|.

The sup over D is realized in two layers, both deterministic:

* seeds from the metric differential. For a map into a normed space the
  directional modulus is the norm of the metric differential, |J nu|
  (Kirchheim 1994; Ambrosio-Kirchheim 2000), reached at a few members of D
  that J determines; J comes from the stencil. The target chooses them
  (`spaces.MetricSpace.seeds`), snapped to the dyadic lattice:
  - Euclidean: the ray u(x) - R J nu / |J nu| at `REFINE_RADIUS` and
    `POLISH_RADIUS`; every row is trusted;
  - max-norm plane: u(x) -+ R e_i at both radii, shared by every direction
    of a node; every row is trusted;
  - circle: u(x) -+ pi/2, trusted while the stencil stays less than pi/2
    (less the snap's offset) from u(x);
  - `q:Q:m`: the ray on the Q*m-vector at R = min(`POLISH_RADIUS`, sep/4),
    trusted where the sheets' separation sep exceeds 32 delta max_k |J_k|
    and 32 lattice quanta.
  A trusted row's value is its seed's, the same at every reported prefix
  length, so the 2K truncation probe measures only scanned rows;
* a prefix scan over the first K enumerated dense points, for the rows
  without a trusted seed, for `EnergyConfig(refine=False)` runs and for
  the K sweep, whose rows are prefix-only by definition. Anchors within
  `ANCHOR_EXCLUSION * fd_step` of u(x) in the target metric are skipped:
  central differences degrade as the composed field's curvature ~
  1/distance blows up, and in all built-in targets remote anchors realize
  the sup. The scan keeps one running max over the enumeration, in anchor
  batches that end at every multiple of 128 and at every requested prefix
  length, and copies it between batches at each such length: the 2K probe
  and the K ladder of a convergence sweep come from the same pass, and each
  copy equals a separate scan of that prefix. A repeated gradient cannot
  raise M, so each node scans only its distinct gradients of each batch;
  dedup is per batch and conservative (it may keep a repeat, never drops a
  first occurrence), and since a max does not depend on order the result is
  exactly that of a scan anchor by anchor. A scanned row's values equal
  those of a refine-off field bit for bit.

Both layers only ever evaluate members of the dense set, and scan values
are monotone in K by construction. They are lower bounds of the true
supremum only as far as no stencil straddles a kink of x -> d(u(x), xi):
the seeds' trust rules keep their own anchors' kinks off the stencil, while
the scan overshoots on the max-norm plane and the circle (README
"Numerical notes").

The field holds one column per class of directions equal up to sign (g is
even in nu), and every energy is one formula over it, sum_j w_j g_j^p over
(directions, weights): the sphere rule's nodes, the ball rule's angular
rule (|d_v u| = |v| g_{v/|v|}, and the ball rule's radial weights W_k have
c_{n,p} n omega_n sum_k W_k = 1), e_1..e_n with weight 1 for the frame sum,
and each K or sphere-order row of a convergence sweep. Each density is
reduced per node chunk in the worker threads (`DirectionalField.density`),
never from a full (nodes, directions) table, but with that table's
operations, order and layout, so bit for bit the same. A direction's value can still differ
by 1 ulp with the other directions in the field: `_reduce_directions`
keeps a class's first occurrence as its representative, and two members
of a class can differ by 1 ulp.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ANCHOR_EXCLUSION, TRUNCATION_RTOL
from .errors import ConfigError, InvalidDirectionError, NonFiniteResultError
from .maps import eval_stencil
from .parallel import pairwise_sum, run_chunked
from .quadrature import QuadratureRule
from .spaces import _power

INCREMENT_TOLERANCE = 1e-3  # IncrementCheck.holds allows the lhs this relative excess
FORMS = ("sphere", "ball", "frame")  # the energies `rep_energies` computes
# rows per density block: a wide rule (a large --sphere-order, n > 3) never fills a whole chunk's block
DENSITY_ROWS = 64
# rows per seeded-ray block: a (rows, 192 direction classes, 2) temporary takes
# 384 KiB (1.5 MiB for a whole 512-row chunk)
REFINE_ROWS = 128


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
    reduced: dict  # prefix length -> (N, R) g over the reduced directions; one shared array if all rows are seeded
    gmin: np.ndarray  # (N,)
    dense_count: int
    workers: int = 1  # threads that reduce its densities (cfg.workers of the run)
    seeded_rows: int = 0  # rows whose values are their seeds; the rest come from the prefix scan

    def columns(self, directions, k=None):
        """(N, len(directions)) g_nu at prefix k (default K), looked up by direction."""
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

    def density(self, directions, p, weights, k=None):
        """(N,) sum_j weights_j g_j^p over `directions`, at prefix k (default K).

        Reduced per node chunk in `workers` threads, DENSITY_ROWS rows at a
        time: their columns gathered into a C-ordered block, ** p (with
        `spaces._power`, as the KS route) and * weights in place, then row
        sums. These are a full (N, len(directions)) table's operations, so
        the values are the same bit for bit; the row sum is numpy's pairwise
        sum, not a BLAS product, so no BLAS thread count changes a digit.
        """
        table = self.reduced[self.dense_count if k is None else k]
        cols = self._column_index(directions)

        def work(start, stop):
            out = np.empty(stop - start)
            # errstate is per thread; an overflow shows up as a non-finite report number
            with np.errstate(all="ignore"):
                for r0 in range(start, stop, DENSITY_ROWS):
                    r1 = min(r0 + DENSITY_ROWS, stop)
                    block = _power(np.take(table[r0:r1], cols, axis=1), p)
                    block *= weights
                    np.sum(block, axis=1, out=out[r0 - start : r1 - start])
            return out

        parts = run_chunked(work, table.shape[0], self.workers)
        return np.concatenate(parts) if parts else np.zeros(0)

    def energy(self, rule, p, node_weight, k=None):
        """(density, energy) of sum_j w_j g_j^p over the (directions, weights) of `rule`, at prefix k (default K)."""
        density = self.density(rule.nodes, p, rule.weights, k=k)
        return density, node_weight * pairwise_sum(density)


def directional_field(metric_map, points, dirs, cfg, grid, prefixes=None):
    """Compute g_nu for every point/direction pair, plus the minimal gradient.

    dirs must be unit vectors (1e-12); `grid` bounds the stencil and sets
    the default fd step (`EnergyConfig.resolved_fd_step`). `prefixes` are
    the anchor-prefix lengths to report; it must contain K = cfg.dense_count
    and defaults to (K, 2K) when cfg.check_truncation is set (the
    under-truncation probe) and to (K,) otherwise. A row with a trusted
    seed holds its seed's values at every reported length.
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
        snaps = [p[0] for p in parts]
        # a prefix whose every chunk holds the previous prefix's array (all rows seeded) shares its table
        same = [j > 0 and all(s[j] is s[j - 1] for s in snaps) for j in range(len(prefixes))]
        reduced = {}
        for j, k in enumerate(prefixes):
            # pop: each chunk's copy of a prefix is freed as soon as it is joined
            blocks = [s.pop(0) for s in snaps]
            reduced[k] = reduced[prefixes[j - 1]] if same[j] else np.concatenate(blocks, axis=0)
        gmin = np.concatenate([p[1] for p in parts], axis=0)
        seeded = sum(p[2] for p in parts)
    else:
        reduced = {k: np.zeros((0, reps.shape[0])) for k in prefixes}
        gmin = np.zeros(0)
        seeded = 0
    # gmin is the running max over every reported value (NaN propagates), so
    # one check on it catches a non-finite seeded value anywhere
    if not np.all(np.isfinite(gmin)):
        raise _non_finite(metric_map)

    return DirectionalField(dirs=dirs, reduced=reduced, gmin=gmin, dense_count=K, workers=cfg.workers,
                            seeded_rows=seeded)


def _non_finite(metric_map):
    return NonFiniteResultError(
        f"map {metric_map.label!r} into {metric_map.target.spec} gives non-finite directional "
        "moduli (overflow in the target distance?)"
    )


def _field_chunk(metric_map, pts, reps, anchors, prefixes, delta, cfg, grid):
    """Seeds, then the prefix scan on the rows without a trusted seed, for one block of points.

    `grid` bounds the stencil, as in `maps.eval_stencil`. With cfg.refine,
    `_refine_chunk` seeds every row first; a trusted row keeps its seed at
    every prefix length, and a chunk whose rows are all trusted returns one
    array for every prefix. The other rows are scanned (`_scan`) exactly as
    with refine off, so they equal a refine-off field bit for bit.
    Returns ([g at each prefix length], gmin, number of seeded rows).
    """
    space = metric_map.target
    stencil = eval_stencil(metric_map, pts, delta, grid)
    seeded = _refine_chunk(space, stencil, reps, cfg)
    if seeded is None:
        snaps, gmin = _scan(metric_map, stencil, reps, anchors, prefixes, delta, cfg)
        count = 0
    else:
        g, gmin, trusted = seeded
        rest = np.flatnonzero(~trusted)
        snaps = [g] * len(prefixes)
        if rest.size:
            # one row alone would be projected by a BLAS gemv, which rounds
            # unlike the gemm of a scan over many rows: scan a companion too
            scan = rest if rest.size > 1 or len(trusted) == 1 else np.union1d(rest, np.flatnonzero(trusted)[:1])
            at = np.searchsorted(scan, rest)
            scanned, gmin_scan = _scan(metric_map, stencil.take(scan), reps, anchors, prefixes, delta, cfg)
            snaps = [g.copy() for _ in prefixes]
            for s, t in zip(snaps, scanned):
                s[rest] = t[at]
            gmin[rest] = gmin_scan[at]
        count = int(np.count_nonzero(trusted))
    for j, s in enumerate(snaps):
        if j == 0 or s is not snaps[j - 1]:
            np.maximum(gmin, s.max(axis=1), out=gmin)
    return snaps, gmin, count


def _scan(metric_map, stencil, reps, anchors, prefixes, delta, cfg):
    """The prefix scan of one block of stencil rows: ([M at each prefix length], gmin over the K prefix).

    One running max over the anchor enumeration. Anchor batches end at every
    multiple of 128 and at every length in `prefixes`, so each prefix is a
    copy of M between batches; gmin's scan covers the K = cfg.dense_count
    prefix.

    Distinct-gradient rule: a repeated gradient cannot raise M or gmin, so
    each batch is scanned over its slots (`_distinct_slots`): per node, the
    batch's distinct gradients.
    """
    space = metric_map.target
    N = stencil.u0.shape[0]
    R = reps.shape[0]
    K = cfg.dense_count
    r_excl = ANCHOR_EXCLUSION * delta

    M = np.zeros((N, R))
    gmin = np.zeros(N)
    proj = np.empty((N, R))
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
        # overflow is caught here, where it arises, and a finite norm bounds every projection
        if not np.all(np.isfinite(norms)):
            raise _non_finite(metric_map)
        vecs, vnorms = _distinct_slots(grads, norms)
        for s in range(vecs.shape[0]):
            np.matmul(vecs[s], reps_t, out=proj)
            np.abs(proj, out=proj)
            np.maximum(M, proj, out=M)
            if b0 < K:
                np.maximum(gmin, vnorms[s], out=gmin)
        if b1 in prefixes[:-1]:
            snaps.append(M.copy())
    snaps.append(M)  # the scan ends at the longest prefix
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


def _distinct_slots(grads, norms):
    """The scan slots of one anchor batch: (vecs (S, N, n), norms (S, N)).

    Slot s of node i holds the node's s-th distinct gradient in order of
    first occurrence (`_first_occurrences`), with its norm. Nodes with fewer
    slots are padded with zero vectors, which never raise M or gmin. When
    compressing saves fewer than B / 8 slots (every vector is distinct,
    say), the slots are the anchors themselves.
    """
    N, B, n = grads.shape
    # the loop pays per slot and the compression per batch
    keep = _first_occurrences(grads, max(B // 8, 1))
    if keep is None:
        return grads.swapaxes(0, 1), norms.T
    counts = np.count_nonzero(keep, axis=1)
    S = int(counts.max())
    src = np.flatnonzero(keep)
    slot = np.arange(src.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # index N * B is the zero vector that pads a node's slots
    idx = np.full(S * N, N * B)
    idx[slot * N + src // B] = src
    idx = idx.reshape(S, N)
    vecs = np.take(np.concatenate([grads.reshape(N * B, n), np.zeros((1, n))]), idx, axis=0)
    return vecs, np.take(np.append(norms, 0.0), idx)


def _refine_chunk(space, stencil, reps, cfg):
    """The seeds of one block of points: (g (N, R), gmin (N,), trusted (N,)), or None.

    The target chooses the seeds of the module docstring (`MetricSpace.seeds`)
    from J, the stencil's central differences, so a seed costs no map
    evaluation. Each row evaluates its objective (`Stencil.differences`, as
    the scan) at its anchors: a ray serves its own direction class, a shared
    anchor every class, and g is the max over them, 0 where a ray has
    J nu = 0. gmin is the max of |grad d| over the shared anchors and the
    top singular vector's rays. None, with no distance or snap evaluated,
    when cfg.refine is off.

    The work goes in blocks of REFINE_ROWS rows, each handed to the target
    as its own stencil (views, `Stencil.take`), so no (N, R, rep_dim)
    temporary is built. Every step is per row and BLAS-free (elementwise
    work, per-coordinate products, last-axis sums, one LAPACK SVD per
    matrix), so no value depends on the block height, the worker count or
    the BLAS thread count.
    """
    if not cfg.refine:
        return None
    n = len(stencil.plus)
    depth = _snap_depth(stencil.delta)
    R = reps.shape[0]

    def projection(diffs):
        j = diffs[0] * reps[:, 0]
        for i in range(1, n):
            j += diffs[i] * reps[:, i]
        return np.abs(j) / (2.0 * stencil.delta)

    def gradient_norm(diffs):
        return _gradient_norms(np.stack(diffs, axis=-1)) / (2.0 * stencil.delta)

    N = stencil.u0.shape[0]
    g = np.empty((N, R))
    gmin = np.empty(N)
    trusted = np.empty(N, dtype=bool)
    for r0 in range(0, N, REFINE_ROWS):
        rows = slice(r0, r0 + REFINE_ROWS)
        block = stencil.take(rows)
        seeds = space.seeds(block, reps, depth)
        g_rows = np.zeros((seeds.trusted.shape[0], R))
        top = np.zeros(seeds.trusted.shape[0])
        for anchor in seeds.rays:
            diffs = list(block.differences(space, anchor))
            np.maximum(g_rows, projection([d[:, :R] for d in diffs]), out=g_rows)
            np.maximum(top, gradient_norm([d[:, R:] for d in diffs])[:, 0], out=top)
        if seeds.rays:
            g_rows = np.where(seeds.live[:, :R], g_rows, 0.0)
            top = np.where(seeds.live[:, R], top, 0.0)
        for anchor in seeds.shared:
            diffs = list(block.differences(space, anchor))
            for a in range(anchor.shape[1]):
                np.maximum(g_rows, projection([d[:, a, None] for d in diffs]), out=g_rows)
            np.maximum(top, gradient_norm(diffs).max(axis=1), out=top)
        g[rows] = g_rows
        gmin[rows] = top
        trusted[rows] = seeds.trusted
    return g, gmin, trusted


# ---------------------------------------------------------------------------
# point ops
# ---------------------------------------------------------------------------


def directional_derivative(metric_map, x, nu, cfg, grid):
    """g_nu(x): sup over dense anchors of |nu . grad d(u(x), anchor)|."""
    nu = np.asarray(nu, dtype=np.float64)
    if not abs(np.linalg.norm(nu) - 1.0) <= 1e-12:
        raise InvalidDirectionError(f"|nu| must be 1 within 1e-12, got {np.linalg.norm(nu)!r}")
    f = directional_field(metric_map, np.asarray(x, dtype=np.float64)[None, :], nu[None, :], cfg, grid,
                          prefixes=(cfg.dense_count,))
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
    under_truncation: Optional[bool] = False  # None when every row is seeded: the probe measures nothing
    field: Optional[DirectionalField] = None


def rep_energies(metric_map, grid, cfg, forms=FORMS, prefixes=None, mask=None):
    """Compute the requested representation energies in one shared pass.

    All forms reuse a single anchor table per node, so the minimal gradient
    dominates every directional value structurally and the sphere/ball
    comparison differs only by quadrature. `forms` is a nonempty subset of
    FORMS, each one (directions, weights) rule for `DirectionalField.energy`,
    for the ball its angular rule. `prefixes` is passed to
    `directional_field`; the energies are at K, and the sphere energy also
    at 2K when the field holds a 2K table of its own (None with every row
    seeded, as the flag). `mask` is the h0-erosion mask, built here when
    not given.
    """
    if not forms or not set(forms) <= set(FORMS):
        raise ConfigError(f"forms must be a nonempty subset of {FORMS}, got {forms!r}")
    if mask is None:
        mask = grid.inner_mask(cfg.h0)
    idx = np.flatnonzero(mask)
    pts = grid.nodes[idx]
    n = grid.dim

    rules = {}  # form -> its (directions, weights) rule, in field order
    if "sphere" in forms:
        rules["sphere"] = cfg.sphere_rule(n)
    if "ball" in forms:
        rules["ball"] = cfg.ball_angular_rule(n)
    if "frame" in forms:
        rules["frame"] = QuadratureRule(nodes=np.eye(n), weights=np.ones(n))

    f = directional_field(metric_map, pts, np.concatenate([r.nodes for r in rules.values()]), cfg, grid, prefixes)

    out = RepEnergies(mask_indices=idx, mask_measure=float(grid.node_weight * len(idx)), field=f)
    if "sphere" in forms:
        out.density_sphere, out.energy_sphere = f.energy(rules["sphere"], cfg.p, grid.node_weight)
        doubled = 2 * cfg.dense_count
        if f.reduced.get(doubled) is f.reduced[cfg.dense_count]:
            out.under_truncation = None
        elif doubled in f.reduced:
            _, out.energy_sphere_doubled = f.energy(rules["sphere"], cfg.p, grid.node_weight, doubled)
            ref = max(abs(out.energy_sphere_doubled), 1e-300)
            out.under_truncation = abs(out.energy_sphere_doubled - out.energy_sphere) > TRUNCATION_RTOL * ref
    if "ball" in forms:
        _, out.energy_ball = f.energy(rules["ball"], cfg.p, grid.node_weight)
    if "frame" in forms:
        out.density_frame, out.frame_sum = f.energy(rules["frame"], cfg.p, grid.node_weight)
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


def check_increment_bound(metric_map, grid, v, h, cfg):
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
    lhs = grid.node_weight * pairwise_sum(metric_map.target.distance(shifted, base, cfg.p))

    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        rhs = 0.0
    else:
        nu = v / vnorm
        field = directional_field(metric_map, grid.nodes, nu[None, :], cfg, grid, prefixes=(cfg.dense_count,))
        rhs = (h * vnorm) ** cfg.p * grid.node_weight * pairwise_sum(field.density(nu[None], cfg.p, np.ones(1)))
    return IncrementCheck(v=tuple(v.tolist()), h=float(h), lhs=float(lhs), rhs=float(rhs))
