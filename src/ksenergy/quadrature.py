"""Deterministic sphere and ball quadrature, and limit extrapolation.

Sphere rules are normalized so the weights sum to 1 (they compute surface
*averages*); ball rules sum to the unit-ball volume omega_n at p = 0. Low
dimensions use product rules exact on low-degree polynomials; n > 3 falls
back to a seeded scrambled-Sobol construction so reports stay reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ExtrapolationDataError, UnsupportedDimensionError

#: defaults per dimension; n=2 is an angle count, n=3 (azimuth, polar)
DEFAULT_SPHERE_ORDER = {2: 256, 3: (16, 32)}
DEFAULT_QMC_COUNT = 4096


def unit_ball_volume(n):
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def energy_normalization(n, p):
    """The constant (n + p) / (n * omega_n) scaling ball averages."""
    return (n + p) / (n * unit_ball_volume(n))


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable node/weight set on the unit sphere or ball."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=np.float64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def sphere_nodes(n, order=None, seed=0):
    """Quadrature rule for surface averages over S^(n-1).

    n=1: S^0 = {+1, -1}, weight 1/2 each (a count is ignored).
    n=2: uniform angles (order = count, default 256), built in antipodal
    pairs so node j + M/2 is exactly -node j for even counts.
    n=3: uniform azimuth x Gauss-Legendre in cos(polar), order = (azimuth,
    polar), default (16, 32).
    n>3: seeded scrambled Sobol mapped through the Gaussian construction.
    """
    if n < 1:
        raise UnsupportedDimensionError(f"sphere rules need n >= 1, got n={n}")
    if order is None:
        order = DEFAULT_SPHERE_ORDER.get(n, DEFAULT_QMC_COUNT)
    if n != 3 and not np.isscalar(order):
        raise UnsupportedDimensionError(f"an (azimuth, polar) sphere order needs n = 3, got {order!r} for n={n}")
    if n == 1:
        nodes, weights = np.array([[1.0], [-1.0]]), np.full(2, 0.5)
    elif n == 2:
        count = int(order)
        if count < 1:
            raise UnsupportedDimensionError("need at least one sphere node")
        theta = 2.0 * math.pi * np.arange(count) / count
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        if count % 2 == 0:
            nodes[count // 2 :] = -nodes[: count // 2]
        weights = np.full(count, 1.0 / count)
    elif n == 3:
        n_az, n_pol = (int(order), 2 * int(order)) if np.isscalar(order) else (int(order[0]), int(order[1]))
        t, v = leggauss(n_pol)  # cos(polar) in [-1, 1], sum(v) = 2
        phi = 2.0 * math.pi * np.arange(n_az) / n_az
        s = np.sqrt(np.maximum(0.0, 1.0 - t**2))
        nodes = np.stack(
            [
                np.outer(s, np.cos(phi)).ravel(),
                np.outer(s, np.sin(phi)).ravel(),
                np.repeat(t, n_az),
            ],
            axis=1,
        )
        weights = np.repeat(v / 2.0, n_az) / n_az
    else:
        # imported here: scipy.stats is most of the package's import time
        from scipy.stats import qmc

        count = int(order)
        sampler = qmc.Sobol(d=n, scramble=True, seed=seed)
        u = sampler.random(count)
        g = _gaussian_from_uniform(u)
        nodes = g / np.linalg.norm(g, axis=1, keepdims=True)
        weights = np.full(count, 1.0 / count)
    return QuadratureRule(nodes=nodes, weights=weights)


def ball_order(n, order=None):
    """A ball rule's (radial, angular) orders: `order`, or 4 radii and the angular default for n."""
    if order is None:
        return 4, {2: 192, 3: (16, 32)}.get(n, DEFAULT_QMC_COUNT)
    return int(order[0]), order[1]


def radial_nodes(m, beta):
    """m-point Gauss-Jacobi rule on (0, 1) for the weight r^beta, exact on r^beta times degree 2m - 1.

    Golub-Welsch: the Jacobi matrix of the Jacobi polynomials for alpha = 0
    and beta on [-1, 1] has eigenvalues x, the nodes (x + 1) / 2, and
    eigenvectors v, the weights v_0^2 * integral_0^1 r^beta dr.
    """
    k = np.arange(1.0, m)
    s = 2.0 * k + beta
    diag = np.concatenate([[beta / (beta + 2.0)], beta**2 / (s * (s + 2.0))])
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return (x + 1.0) / 2.0, v[0] ** 2 / (beta + 1.0)


def ball_nodes(n, order=None, seed=0, p=0.0):
    """Quadrature rule for integrals over the unit ball B_1(0) in R^n of |v|^p times a smooth function.

    Gauss-Jacobi radii for the weight r^(n-1+p) (`radial_nodes`) tensored
    with a sphere rule (S^0 in 1-d), order = (radial, angular) (`ball_order`).
    A node's weight is W_k r_k^-p (n omega_n) s_w: on an affine map u the
    rule sums d^p(u(x), u(x + h v)) exactly with any number of radii, and at
    p = 0 it is the plain volume rule.
    """
    if n < 1:
        raise UnsupportedDimensionError(f"ball rules need n >= 1, got n={n}")
    radial, angular = ball_order(n, order)
    r, w = radial_nodes(radial, n - 1 + p)
    sphere = sphere_nodes(n, angular, seed=seed)
    nodes = (r[:, None, None] * sphere.nodes[None, :, :]).reshape(-1, n)
    weights = (w / r**p)[:, None] * (n * unit_ball_volume(n) * sphere.weights)[None, :]
    return QuadratureRule(nodes=nodes, weights=weights.ravel())


def _gaussian_from_uniform(u):
    # inverse-CDF transform; clip away exact 0/1 from the Sobol stream
    from scipy.special import ndtri

    return ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))


def extrapolate_fields(h, values):
    """Fit value = L + c * h^q on the last three h, per column of values (len(h), N).

    h must be a halving ladder, h_j = h_0 / 2^j (the ladder `EnergyConfig`
    builds, subnormal steps included). Returns four (N,) arrays: the fitted
    limit L, the observed order q, |c| * h_last^q as the error estimate (the
    size of the final correction), and the fallback flag. On that ladder the
    fit is closed form (Aitken's delta-squared): with d1 = v1 - v2 and
    d2 = v2 - v3, d1 / d2 = 2^q and c * h_last^q = d2 / (2^q - 1). The order
    is fitted where d1 / d2 lies in [2^0.001, 2^16]; anywhere else the
    first-order fit (q = 1, correction d2) is used and flagged. Near-constant
    tails short-circuit to (last value, 0, 0).
    """
    h = np.asarray(h, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if h.size < 3:
        raise ExtrapolationDataError(f"need at least 3 h values, got {h.size}")
    # ldexp rounds a subnormal step as the config's ladder does, where 2 * h[j + 1] == h[j] fails
    if not (0 < h[0] < np.inf and np.array_equal(h, np.ldexp(h[0], -np.arange(h.size)))):
        raise ExtrapolationDataError("h values must halve at each step")
    v1, v2, v3 = values[-3:]
    d1 = v1 - v2
    d2 = v2 - v3
    scale = np.maximum(np.max(np.abs(values[-3:]), axis=0), 1.0)
    const = (np.abs(d1) <= 1e-13 * scale) & (np.abs(d2) <= 1e-13 * scale)
    usable = ~const & (d1 * d2 > 0)
    divisor = np.where(usable, d2, 1.0)
    ratio = d1 / divisor
    ok = usable & (ratio >= 2.0**0.001) & (ratio <= 2.0**16)
    # 2^q - 1 as (d1 - d2) / d2, not ratio - 1, which cancels as q -> 0; the first-order fit has 2^1 - 1
    step = d2 / np.where(ok, (d1 - d2) / divisor, 1.0)
    limit = np.where(const, v3, v3 - step)
    order = np.where(const, 0.0, np.log2(np.where(ok, ratio, 2.0)))
    err = np.where(const, 0.0, np.abs(step))
    return limit, order, err, ~const & ~ok
