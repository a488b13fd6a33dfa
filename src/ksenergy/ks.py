"""The ball-average route to the p-energy.

The approximate density at scale h is

    e_h(x) = c_{n,p} * mean-free ball integral of d^p(u(x), u(x + h v)) / h^p,

with c_{n,p} = (n + p) / (n * omega_n), defined for x in the h-erosion of the
domain. Integrals of e_h over the localization region are extrapolated in h
to produce the energy; per-node extrapolation gives the limiting density
field. The ball rule's radii are Gauss-Jacobi for the weight r^(n-1+p)
(`quadrature.ball_nodes`), exact in r on affine maps with any number of radii.

The ball average runs per 512-row chunk of `run_chunked`, in tiles of
`row_block` rows x `node_chunk` ball nodes (128 x 128), so a tile's ball
points, map values and powered distances stay in a 2 MB L2. Each tile's
ball points sit in one coordinate-major buffer, one contiguous plane per
coordinate. Plane c is x_c + h v_c, filled by one batched rank-2 product
[x_c, 1] @ [1; h v_c] (`spaces._outer_sum`): the products are by 1, so the
add is the only rounding and the planes are those of the broadcast sum bit
for bit at any BLAS thread count (but for (-0) + (-0), and no grid node is
-0). u(x) is expanded once per row block into a second coordinate-major
buffer, of the shape of the map's values at the tile's ball points.
The target's `distance(a, b, p)` returns d**p directly (see spaces.py), and
each tile ends in `part += d**p @ w`. Every row sums the same batch dot
products in the same order as without tiles. Each is a BLAS dgemv, and
tiling changes no digit only while a row's dot product rounds the same
wherever the row sits in its matrix: OpenBLAS's Haswell kernels sum rows
in groups of 4 and the last (rows mod 4) with another kernel, so tiles
that start at multiples of 128 rows keep every sum. That is observed with
OpenBLAS, not guaranteed by a BLAS; tests/test_ks.py checks it.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ExtrapolationWarning, NonFiniteResultError
from .parallel import pairwise_sum, run_chunked
from .quadrature import energy_normalization, extrapolate_fields
from .spaces import _sum_left, _sum_right


# one tile: its ball points, u(x) planes, map values and distances (under 1 MB on a 2-d target) stay in L2
row_block = 128  # rows
node_chunk = 128  # ball nodes


def approx_density_field(metric_map, points, h, cfg):
    """Vectorized e_h over rows of `points` (assumed inside the h-erosion), in cfg.workers threads."""
    n = points.shape[1]
    rule = cfg.ball_rule(n)
    c_np = energy_normalization(n, cfg.p)
    base = metric_map.eval(points)
    hv = h * rule.nodes
    # [1; h v_c] per coordinate: with [x_c, 1] its product is the plane x_c + h v_c (spaces._outer_sum)
    right = _sum_right(hv.T)
    batches = range(0, hv.shape[0], node_chunk)

    def work(start, stop):
        acc = np.zeros(stop - start)
        # coordinate-major ball points and u(x): every [..., c] slice is one contiguous plane
        rows, cols = min(row_block, stop - start), min(node_chunk, hv.shape[0])
        buf = np.empty((n, rows, cols))
        centres = np.empty((base.shape[1], rows, cols))
        ball, base_planes = np.moveaxis(buf, 0, -1), np.moveaxis(centres, 0, -1)
        # errstate is per thread; overflow shows up as the NonFiniteResultError below
        with np.errstate(all="ignore"):
            for r0 in range(start, stop, row_block):
                r1 = min(r0 + row_block, stop)
                left = _sum_left(points[r0:r1].T)
                np.copyto(centres[:, : r1 - r0], base[r0:r1].T[:, :, None])
                part = acc[r0 - start : r1 - start]
                for b0 in batches:
                    b1 = min(b0 + node_chunk, hv.shape[0])
                    np.matmul(left, right[:, :, b0:b1], out=buf[:, : r1 - r0, : b1 - b0])
                    shifted = metric_map.eval(ball[: r1 - r0, : b1 - b0])
                    d = metric_map.target.distance(shifted, base_planes[: r1 - r0, : b1 - b0], cfg.p)
                    part += d @ rule.weights[b0:b1]
        return acc

    parts = run_chunked(work, points.shape[0], cfg.workers)
    out = np.concatenate(parts) if parts else np.zeros(0)
    with np.errstate(all="ignore"):
        density = c_np * out / h**cfg.p
    if not np.all(np.isfinite(density)):
        raise NonFiniteResultError(
            f"map {metric_map.label!r} into {metric_map.target.spec} gives non-finite "
            "ball-average densities (overflow in the target distance?)"
        )
    return density


@dataclass
class KSResult:
    """What `ks_energy` computes over the h0 mask (`mask_indices` into grid.nodes)."""

    h_values: list
    h_integrals: list
    ks_energy: float
    ks_order: float
    ks_error_estimate: float
    mask_indices: np.ndarray
    mask_measure: float
    domain_measure: float
    inner_measure_exact: float
    localization_deficit: Optional[float]
    ks_density: np.ndarray  # per-node limit density
    warnings: list  # coded entries, in the order they arose


def ks_energy(metric_map, grid, cfg, mask=None):
    """Integrated densities over the h-ladder, extrapolated to h -> 0.

    Integration is localized to the h0-erosion (the computable stand-in for
    the sup over interior cutoffs); the possibly missed boundary mass is
    reported as `localization_deficit`, estimated as (complement measure) x
    (max density observed inside the mask). It is not a bound: the density
    outside the mask may exceed every value seen inside, and with an empty
    mask nothing is observed, so the deficit is None. `mask` is the
    h0-erosion mask, built here when not given. A ladder whose smallest h
    has h**p == 0 or a non-finite 1/h**p is a ConfigError, raised first.
    """
    h_values = cfg.h_ladder()
    with np.errstate(all="ignore"):
        scale = np.float64(h_values[-1]) ** cfg.p
        usable = scale > 0 and np.isfinite(1.0 / scale)
    if not usable:
        raise ConfigError(f"h**p underflows at the smallest h={h_values[-1]!r} (p={cfg.p}, h_count={cfg.h_count})")
    if mask is None:
        mask = grid.inner_mask(cfg.h0)
    idx = np.flatnonzero(mask)
    points = grid.nodes[idx]

    fields = np.zeros((len(h_values), len(idx)))
    for row, h in enumerate(h_values):
        if len(idx) == 0:
            break
        fields[row] = approx_density_field(metric_map, points, h, cfg)
    integrals = [grid.node_weight * pairwise_sum(fields[row]) for row in range(len(h_values))]

    seq = np.array(integrals)
    coded = []
    if len(idx) == 0:
        coded.append("empty_mask")
    if _oscillates(seq):
        coded.append("extrapolation_unreliable")
        warnings.warn(
            "integrated densities are not monotone in h; extrapolated limit is unreliable",
            ExtrapolationWarning,
            stacklevel=2,
        )
    limit, order, err, fb = extrapolate_fields(np.array(h_values), seq[:, None])
    if fb[0]:
        coded.append("extrapolation_order_fallback")

    dlimit, _, _, _ = extrapolate_fields(np.array(h_values), fields)
    ks_density = np.maximum(dlimit, 0.0)
    density_max = float(ks_density.max(initial=0.0))
    mask_measure = float(grid.node_weight * len(idx))
    deficit = max(grid.measure - mask_measure, 0.0) * density_max if len(idx) else None
    return KSResult(
        h_values=list(h_values),
        h_integrals=[float(v) for v in integrals],
        ks_energy=max(float(limit[0]), 0.0),
        ks_order=float(order[0]),
        ks_error_estimate=float(err[0]),
        mask_indices=idx,
        mask_measure=mask_measure,
        domain_measure=grid.measure,
        inner_measure_exact=grid.inner_measure(cfg.h0),
        localization_deficit=deficit,
        ks_density=ks_density,
        warnings=coded,
    )


def _oscillates(seq):
    if len(seq) < 3:
        return False
    scale = max(abs(float(seq.max())), abs(float(seq.min())), 1e-300)
    diffs = np.diff(seq) / scale
    # relative steps below 1e-9 count as flat
    sign_changes = np.sum(np.abs(np.diff(np.sign(np.where(np.abs(diffs) < 1e-9, 0.0, diffs)))) > 1)
    return bool(sign_changes >= 1 and np.any(np.abs(diffs) > 1e-6))
