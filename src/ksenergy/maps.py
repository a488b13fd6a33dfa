"""Maps from the domain into a target space, and their finite-difference stencils.

A map is an analytic evaluation contract: the grid is only ever used for the
outer integration, while map values (including at off-grid quadrature and
stencil points) always come from the evaluator itself. That keeps
interpolation error out of both energy pipelines.

Evaluators are vectorized: they accept arrays shaped (..., n) and return
(..., rep_dim).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InvalidPointError, MapEvaluationError, StencilRangeError
from .spaces import TAU, CircleSpace, EuclideanSpace, MaxNormPlane, MetricSpace, QPointsSpace


@dataclass(frozen=True)
class MetricMap:
    """u: Omega -> X as a pure, deterministic, vectorized evaluator.

    margin is how far beyond the domain box the evaluator stays defined;
    built-in maps are global formulas (margin = inf).
    """

    target: MetricSpace
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str
    margin: float = math.inf

    def eval(self, x):
        x = np.asarray(x, dtype=np.float64)
        try:
            out = np.asarray(self.evaluator(x), dtype=np.float64)
        except Exception as exc:  # noqa: BLE001 - contract: wrap and attach x
            raise MapEvaluationError(f"map {self.label!r} failed at {x!r}", point=x) from exc
        if out.shape != x.shape[:-1] + (self.target.rep_dim,):
            raise MapEvaluationError(
                f"map {self.label!r} returned shape {out.shape} for input {x.shape}", point=x
            )
        return out


@dataclass(frozen=True)
class Stencil:
    """u at a block of points x (N, n) and at x +- delta * e_i, one (N, rep_dim) array per i."""

    u0: np.ndarray
    plus: list
    minus: list
    delta: float

    def differences(self, space, anchors):
        """Yield d(u(x + delta e_i), xi) - d(u(x - delta e_i), xi), (N, A), for each coordinate i.

        `anchors` is (A, rep_dim), shared by every row, or (N, A, rep_dim),
        one set per row.
        """
        for plus, minus in zip(self.plus, self.minus):
            yield space.distance(plus[:, None, :], anchors) - space.distance(minus[:, None, :], anchors)

    def take(self, rows):
        """The stencil of the rows at index array `rows`, or views of it for a slice."""
        return Stencil(self.u0[rows], [v[rows] for v in self.plus], [v[rows] for v in self.minus], self.delta)

    def gradient(self, space, anchors):
        """(N, A, n) central-difference gradients of x -> d(u(x), xi) for the (A, rep_dim) anchors xi."""
        grads = np.empty((self.u0.shape[0], anchors.shape[0], len(self.plus)))
        for i, diff in enumerate(self.differences(space, anchors)):
            grads[:, :, i] = diff / (2.0 * self.delta)
        return grads


def eval_stencil(metric_map, points, delta, grid):
    """Evaluate the map at `points` and at the central-difference stencil around them.

    Raises StencilRangeError for a non-positive step, or when the stencil
    leaves the evaluable region: the grid's box grown by the map's margin.
    """
    if not delta > 0:
        raise StencilRangeError(f"fd step must be positive, got {delta}")
    lo = grid.lower - metric_map.margin
    hi = grid.upper + metric_map.margin
    if not (np.all(points - delta >= lo) and np.all(points + delta <= hi)):
        raise StencilRangeError(f"fd stencil of width {delta} leaves the evaluable region for some points")
    n = points.shape[1]
    u0 = metric_map.eval(points)
    plus, minus = [], []
    for i in range(n):
        step = np.zeros(n)
        step[i] = delta
        plus.append(metric_map.eval(points + step))
        minus.append(metric_map.eval(points - step))
    return Stencil(u0, plus, minus, delta)


# ---------------------------------------------------------------------------
# built-in map catalog
# ---------------------------------------------------------------------------


def _parse_matrix(text):
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
        mat = np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"malformed matrix spec {text!r}") from exc
    if mat.ndim != 2:
        raise ConfigError(f"malformed matrix spec {text!r}")
    if not np.all(np.isfinite(mat)):
        raise ConfigError(f"matrix spec {text!r} has non-finite entries")
    return mat


def _spec_floats(spec, text, count=None):
    """Comma-separated finite floats of a map spec's argument (`count` of them, when given)."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"malformed map spec {spec!r}") from exc
    if count is not None and len(values) != count:
        raise ConfigError(f"map spec {spec!r} takes {count} number(s)")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"map spec {spec!r} has non-finite numbers")
    return values


def make_map(spec, space, domain_dim):
    """Build a catalog map onto the given target space.

    Specs: identity | constant | constant:v1,v2,... | linear:r11,r12;r21,r22
    | winding:k (theta = k x_1) | winding:k1,k2 (theta = k1 x_1 + k2 x_2) | qsplit | swirl:a
    """
    parts = str(spec).strip().split(":", 1)
    name = parts[0]
    arg = parts[1] if len(parts) > 1 else None
    if name in ("identity", "qsplit") and arg is not None:
        raise ConfigError(f"map {name!r} takes no argument, got {spec!r}")

    if name == "identity":
        if isinstance(space, CircleSpace) or space.rep_dim != domain_dim:
            raise ConfigError(
                f"identity needs a vector target of dimension {domain_dim}, got {space.spec}"
            )
        return MetricMap(space, lambda x: np.array(x, dtype=np.float64, copy=True), "identity")

    if name == "constant":
        point = space.dense_points(1)[0] if arg is None else np.array(_spec_floats(spec, arg))
        try:
            point = space.validate_point(point)
        except InvalidPointError as exc:
            raise ConfigError(f"map spec {spec!r}: {exc}") from exc

        def const_eval(x, point=point):
            return np.broadcast_to(point, x.shape[:-1] + (point.size,)).copy()

        return MetricMap(space, const_eval, f"constant:{','.join(repr(float(v)) for v in point)}")

    if name == "linear":
        if arg is None:
            raise ConfigError("linear map needs a matrix, e.g. linear:1,0;0,2")
        mat = _parse_matrix(arg)
        if mat.shape != (space.rep_dim, domain_dim):
            raise ConfigError(
                f"matrix shape {mat.shape} incompatible with target {space.spec} "
                f"and domain dimension {domain_dim}"
            )
        if isinstance(space, (CircleSpace, QPointsSpace)):
            raise ConfigError(f"linear maps need a vector target, got {space.spec}")
        return MetricMap(space, lambda x, A=mat: x @ A.T, f"linear:{arg}")

    if name == "winding":
        if not isinstance(space, CircleSpace):
            raise ConfigError("winding maps into the circle target only")
        slopes = _spec_floats(spec, arg) if arg is not None else [2.0]
        if len(slopes) > min(2, domain_dim):
            raise ConfigError(f"map spec {spec!r} takes 1 or, on a domain of dimension >= 2, 2 slopes")

        def winding_eval(x, slopes=slopes):
            angle = slopes[0] * x[..., :1]
            if len(slopes) == 2:
                angle += slopes[1] * x[..., 1:2]
            # (k . x) mod 2pi; only negatives, -0.0, NaN and values >= 2pi need
            # the remainder, which returns every other value unchanged
            np.remainder(angle, TAU, out=angle, where=~(angle < TAU) | np.signbit(angle))
            return angle

        return MetricMap(space, winding_eval, f"winding:{arg if arg is not None else '2'}")

    if name == "qsplit":
        if not (isinstance(space, QPointsSpace) and space.Q == 2 and space.m == 1):
            raise ConfigError("qsplit maps into q:2:1 only")
        if domain_dim != 2:
            raise ConfigError("qsplit is defined on 2-d domains")

        def qsplit_eval(x):
            sheet = 1.0 + 0.25 * x[..., 0] + 0.5 * x[..., 1]
            return np.stack([sheet, -sheet], axis=-1)

        # sheets +-sigma with sigma = 1 + x1/4 + x2/2; grad sigma = (1/4, 1/2)
        return MetricMap(space, qsplit_eval, "qsplit")

    if name == "swirl":
        if not isinstance(space, EuclideanSpace) or isinstance(space, MaxNormPlane) or space.m != 2:
            raise ConfigError("swirl maps into euclidean:2 only")
        if domain_dim != 2:
            raise ConfigError("swirl is defined on 2-d domains")
        a = _spec_floats(spec, arg, 1)[0] if arg is not None else 0.3

        def swirl_eval(x, a=a):
            return np.stack([x[..., 0] + a * np.sin(x[..., 1]), x[..., 1] + a * np.cos(x[..., 0])], axis=-1)

        return MetricMap(space, swirl_eval, f"swirl:{a!r}")

    raise ConfigError(f"unknown map spec {spec!r}")
