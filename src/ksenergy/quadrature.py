"""Deterministic sphere and ball quadrature, and limit extrapolation.

Sphere rules are normalized so the weights sum to 1 (they compute surface
*averages*); ball rules sum to the unit-ball volume omega_n. Low dimensions
use product rules that are exact on low-degree polynomials; n > 3 falls back
to a seeded scrambled-Sobol construction so reports stay reproducible.
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


def sphere_surface_area(n):
    """Surface measure of S^(n-1), equal to n * omega_n."""
    return n * unit_ball_volume(n)


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

    n=2: uniform angles (order = count, default 256), built in antipodal
    pairs so node j + M/2 is exactly -node j for even counts.
    n=3: uniform azimuth x Gauss-Legendre in cos(polar), order = (azimuth,
    polar), default (16, 32).
    n>3: seeded scrambled Sobol mapped through the Gaussian construction.
    """
    if n < 2:
        raise UnsupportedDimensionError(f"sphere rules need n >= 2, got n={n}")
    if order is None:
        order = DEFAULT_SPHERE_ORDER.get(n, DEFAULT_QMC_COUNT)
    if n != 3 and not np.isscalar(order):
        raise UnsupportedDimensionError(f"an (azimuth, polar) sphere order needs n = 3, got {order!r} for n={n}")
    if n == 2:
        count = int(order)
        if count < 1:
            raise UnsupportedDimensionError("need at least one sphere node")
        if count % 2 == 0:
            theta = 2.0 * math.pi * np.arange(count // 2) / count
            half = np.column_stack([np.cos(theta), np.sin(theta)])
            nodes = np.vstack([half, -half])
        else:
            theta = 2.0 * math.pi * np.arange(count) / count
            nodes = np.column_stack([np.cos(theta), np.sin(theta)])
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


def ball_nodes(n, order=None, seed=0):
    """Quadrature rule integrating over the unit ball B_1(0) in R^n.

    For n >= 2 this is Gauss-Legendre in radius (with the r^(n-1) Jacobian
    folded into the weights) tensored with a sphere rule; order = (radial,
    sphere order). n=1 reduces to Gauss-Legendre on [-1, 1] with order (or
    its radial entry) nodes.
    """
    if n < 1:
        raise UnsupportedDimensionError(f"ball rules need n >= 1, got n={n}")
    if n == 1:
        count = int(np.atleast_1d(order)[0]) if order is not None else 32
        x, w = leggauss(count)
        return QuadratureRule(nodes=x[:, None], weights=w)
    if order is None:
        radial, sphere_order = 16, {2: 192, 3: (16, 32)}.get(n, DEFAULT_QMC_COUNT)
    else:
        radial, sphere_order = int(order[0]), order[1]
    r, w = leggauss(int(radial))
    r = 0.5 * (r + 1.0)  # map to (0, 1)
    w = 0.5 * w
    sphere = sphere_nodes(n, sphere_order, seed=seed)
    surface = sphere_surface_area(n)
    nodes = (r[:, None, None] * sphere.nodes[None, :, :]).reshape(-1, n)
    weights = (w * r ** (n - 1))[:, None] * (surface * sphere.weights)[None, :]
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
