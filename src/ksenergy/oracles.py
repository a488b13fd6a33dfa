"""Independent reference values for tests and acceptance runs.

These numbers cross-check the quadrature module, so they share no code with
it. A 2-d integrand here is smooth except where some nu . w vanishes, so
`_circle_mean` cuts the circle there and applies one tanh-sinh rule per arc,
whose end clustering also absorbs a rank-1 |cos|^p zero: the values match
their closed forms to rounding. The 3-d oracle is a dense midpoint sum.
"""

import math

import numpy as np

# tanh-sinh on [-1, 1]: step 1/16 and |t| <= 3.2 (103 nodes); weights past that are below 1e-16
_TS_T = np.arange(-51, 52) / 16.0
_TS_X = np.tanh(0.5 * math.pi * np.sinh(_TS_T))
_TS_W = (0.5 * math.pi / 16.0) * np.cosh(_TS_T) / np.cosh(0.5 * math.pi * np.sinh(_TS_T)) ** 2

# polar rows of the 3-d sum, which has 2 * 707**2 (about 10**6) nodes
_SPHERE_SIDE = 707


def _circle_mean(integrand, kinks):
    """Mean of integrand(cos theta, sin theta) over the circle, cut at the zeros of nu . w for w in `kinks`."""
    cuts = [0.0, 2.0 * math.pi]
    for w in kinks:
        if w[0] or w[1]:
            zero = (math.atan2(w[1], w[0]) + 0.5 * math.pi) % math.pi
            cuts += [zero, zero + math.pi]
    ends = np.unique(cuts)
    half = 0.5 * (ends[1:] - ends[:-1])
    theta = 0.5 * (ends[1:] + ends[:-1])[:, None] + half[:, None] * _TS_X
    values = integrand(np.cos(theta), np.sin(theta))
    return float(np.sum(half * (values @ _TS_W))) / (2.0 * math.pi)


def linear_euclidean_density(matrix, p):
    """Average of |A nu|^p over unit directions nu.

    Supports domain dimension 2 (cut at the zeros of nu . a_i for the rows
    a_i) and 3 (latitude/longitude midpoint grid with the sin(theta) area
    factor). For p = 2 this equals |A|_F^2 divided by the domain dimension.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-d")
    n = a.shape[1]
    if n == 2:
        def modulus(c, s):
            return np.linalg.norm(c[..., None] * a[:, 0] + s[..., None] * a[:, 1], axis=-1) ** p

        return _circle_mean(modulus, a)
    if n == 3:
        side = _SPHERE_SIDE
        theta = (np.arange(side) + 0.5) * (math.pi / side)  # polar
        phi = (np.arange(2 * side) + 0.5) * (math.pi / side)  # azimuth
        st, ct = np.sin(theta), np.cos(theta)
        total = 0.0
        weight = 0.0
        for i in range(side):
            nu = np.stack(
                [st[i] * np.cos(phi), st[i] * np.sin(phi), np.full(2 * side, ct[i])], axis=1
            )
            total += st[i] * float(np.sum(np.linalg.norm(nu @ a.T, axis=1) ** p))
            weight += st[i] * 2 * side
        return total / weight
    raise ValueError(f"unsupported domain dimension {n}")


def maxnorm_counterexample_constants(p, grad_rows=((1.0, 0.0), (0.0, 1.0))):
    """Frame sum and sphere average for a two-component map into the max-norm plane.

    For component gradients g1, g2 (rows), the directional modulus is
    max(|nu.g1|, |nu.g2|), with kinks at the zeros of nu . g1, nu . g2 and
    nu . (g1 +- g2); the frame sum is sum_i max(|g1_i|, |g2_i|)^p. The
    defaults are the identity map, whose p = 2 constants are 2 and
    (2 + pi) / (2 pi).
    """
    g1 = np.asarray(grad_rows[0], dtype=np.float64)
    g2 = np.asarray(grad_rows[1], dtype=np.float64)
    frame_sum = float(sum(max(abs(g1[i]), abs(g2[i])) ** p for i in range(2)))

    def modulus(c, s):
        return np.maximum(np.abs(c * g1[0] + s * g1[1]), np.abs(c * g2[0] + s * g2[1])) ** p

    return frame_sum, _circle_mean(modulus, (g1, g2, g1 + g2, g1 - g2))
