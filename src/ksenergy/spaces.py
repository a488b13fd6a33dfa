"""Target metric spaces: distances plus an enumerated countable dense subset.

Every space works on fixed-length real vectors and exposes

* ``distance(a, b, p=1)`` -- d(a, b)**p, broadcasting over leading axes,
* ``dense_points(count)`` -- the first `count` points of a deterministic
  enumeration of a dense subset built from dyadic lattices,
* ``snap(points, depth)`` -- nearest member of the dense set on the depth-d
  dyadic sublattice (used to generate extra dense-set anchors on demand),
* ``seeds(stencil, reps, depth)`` -- the snapped anchors at which the rows
  of a stencil reach their directional sup, chosen from the metric
  differential, and which rows to trust them on (`Seeds`).

The dyadic enumeration orders points by cost = (binary depth of the
coordinates) + (dyadic shell of the max-norm radius), finest-near-origin
first within each cost. That keeps the covering radius on any fixed window
shrinking quickly with the prefix length while still reaching every dyadic
point of the plane eventually.

The ``distance`` kernels are the hot path of both energy routes. They work
on explicit coordinate slices ``a[..., c]`` and accumulate in representation
order instead of reducing over the short trailing axis, where numpy pays a
whole inner-loop call per output element. Their results must stay
bit-identical to the plain reductions they replace (tests/test_spaces.py
pins this): ``np.linalg.norm`` below 8 coordinates, where numpy sums
sequentially; the max of absolute differences; and, per pairing, the
sequential sum of the Q*m squared gaps. Every coordinate difference goes
through ``_difference``. The prefix scan's pattern, rows (N, 1, m) against
anchors shared by every row, is an outer difference, which it takes as the
rank-2 BLAS product ``_outer_sum(a_c, -b_c)`` = [a_c, 1] @ [1; -b_c]: both
products are by 1 and negation is exact, so the add is the only rounding
and the result is a - b bit for bit at any BLAS thread count, except that
(-0) - (+0) comes out +0, a sign no distance sees. Every other pair of
shapes subtracts as is. The KS route (``ks.approx_density_field``) hands
the kernels its ball points and u(x) as coordinate-major planes of one
shape, so each difference is a whole-plane subtraction.

``distance(a, b, p)`` returns d**p, the KS integrand, through one helper,
``_power``: d*sqrt(d), d*d and d*d*d at p = 1.5, 2 and 3, within 1.29 ulp
of the exact d**p (numpy's ``pow`` is within 0.71), and np.power at any
other p (at p = 2.5, six products of d and its roots were 1.9-2.1 ulp
off). p = 1 is the plain distance, bit for bit. The Euclidean and Q-point
kernels build the squared distance sq: they return it as it is at p = 2
and raise sqrt(sq) with ``_power`` otherwise, within 2.8 ulp of the exact
sq**(p/2) (the former sqrt(sq)**p: 2.94 at p = 3, but 1.82 against 2.24
now at p = 1.5). Bounds measured on 2e6 values over 1e-30..1e30 against
np.longdouble. Each form stays finite wherever d**p and sq do.

Angles are reduced mod 2pi only where they lie outside [0, 2pi): the circle
kernel takes the remainder of |a - b| only where it is >= 2pi. The remainder
of a value inside that range is the value itself, so the result is the same,
without a remainder (about 17 ns an element) on every angle. The kernels
write into their own temporaries, never into their operands.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import POLISH_RADIUS, REFINE_RADIUS
from .errors import ConfigError, InvalidPointError

TAU = 2.0 * math.pi


def _dyadic_block(m, depth, shell):
    """All x = j / 2^depth with exact depth/shell, sorted by (|x|^2, lex)."""
    half_extent = 2 ** (shell + depth)
    axis = np.arange(-half_extent, half_extent + 1)
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    j = np.stack([g.ravel() for g in grids], axis=1)
    if shell >= 1:
        j = j[np.max(np.abs(j), axis=1) > half_extent // 2]
    if depth >= 1:
        j = j[np.any(j % 2 != 0, axis=1)]
    x = j / float(2**depth)
    order = np.lexsort([x[:, c] for c in range(m - 1, -1, -1)] + [np.einsum("ij,ij->i", x, x)])
    return x[order]


def _dyadic_lattice_prefix(m, count):
    """First `count` points of the cost-ordered dyadic enumeration of R^m."""
    blocks = []
    total = 0
    cost = 0
    while total < count:
        for shell in range(cost + 1):
            block = _dyadic_block(m, cost - shell, shell)
            blocks.append(block)
            total += len(block)
            if total >= count:
                break
        cost += 1
    return np.concatenate(blocks, axis=0)[:count]


def _single_points_as_rows(kernel):
    """Float64 operands for a distance kernel that writes into its temporaries.

    Numpy returns scalars, which take no out=, for 0-d results: two single
    points run as one-row operands, and their distance comes back as a scalar.
    """

    @functools.wraps(kernel)
    def distance(self, a, b, p=1):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim == b.ndim == 1:
            return kernel(self, a[None], b[None], p)[0]
        return kernel(self, a, b, p)

    return distance


def _outer_sum(a, b, out=None):
    """The (N, A) outer sum a_i + b_j of (N,) and (A,) values, as the rank-2 product [a, 1] @ [1; b].

    Both products are by 1, so they are exact and the add is the only
    rounding: the result is np.add.outer(a, b) bit for bit at any BLAS
    kernel or thread count, with one exception, (-0) + (-0) comes out +0.
    No grid node is -0.0, and no distance sees the sign of a zero. An outer
    broadcast runs numpy's inner loop once per row and takes about three
    times as long per 128 x 128 plane.
    """
    return np.matmul(_sum_left(a), _sum_right(b), out=out)


def _sum_left(a):
    """[a, 1]: the (..., N, 2) left factor of `_outer_sum`."""
    f = np.ones(a.shape + (2,))
    f[..., 0] = a
    return f


def _sum_right(b):
    """[1; b]: the (..., 2, A) right factor of `_outer_sum`."""
    f = np.ones(b.shape[:-1] + (2,) + b.shape[-1:])
    f[..., 1, :] = b
    return f


def _difference(a, b):
    """a - b of one coordinate's values, bit for bit up to the sign of a zero.

    Rows (N, 1) against anchors shared by every row, (A,) or (1, A), the
    prefix scan's pattern, give the (N, A) outer difference as
    `_outer_sum(a, -b)` (negation is exact). Every other pair of shapes
    (KS planes, per-row anchors, row pairs, single points) subtracts as is.
    """
    if a.ndim == 2 and a.shape[1] == 1 and b.ndim in (1, 2) and b.shape[:-1] in ((), (1,)):
        return _outer_sum(a[:, 0], -b.reshape(-1))
    return a - b


def _power(d, p):
    """d**p for d >= 0, written into d where it can; 0, inf and NaN propagate.

    At p = 1.5, 2 and 3 the power is d*sqrt(d), d*d (the bits of numpy's
    d**2.0) and d*d*d, each within 1.5 ulp of d**p; p = 1 returns d itself.
    Any other p goes to np.power. Every distance kernel and the directional
    density (and through it the increment check) raise with it.
    """
    if p == 1:
        return d
    if p == 2:
        return np.multiply(d, d, out=d)
    if p == 3:
        return np.multiply(d, d * d, out=d)
    if p == 1.5:
        return np.multiply(d, np.sqrt(d), out=d)
    return np.power(d, p, out=d)


@dataclass(frozen=True)
class Seeds:
    """The seed anchors of B stencil rows for R direction classes (`MetricSpace.seeds`).

    `rays` are (B, R + 1, rep_dim) anchor arrays: column r < R serves
    direction class r alone, and column R, on the top left singular vector
    of J, serves the minimal gradient alone; `live` (B, R + 1) is False
    where J nu = 0, and such a column's value is 0. `shared` are
    (B, A, rep_dim) anchor arrays whose every anchor serves every direction
    class and the minimal gradient. `trusted` (B,) marks the rows whose
    seeds realise the sup; the others go to the prefix scan.
    """

    trusted: np.ndarray
    rays: tuple = ()
    live: np.ndarray = None
    shared: tuple = ()


def _jacobian_columns(stencil):
    """u(x + delta e_i) - u(x - delta e_i) = 2 delta J e_i of the stencil's rows, one (B, rep_dim) array per i."""
    return [plus - minus for plus, minus in zip(stencil.plus, stencil.minus)]


def _jacobian_rays(cols, reps):
    """(w, live): the unit vectors J nu / |J nu| of the direction classes `reps`, then the top left singular vector of J.

    w is (B, R + 1, rep_dim), and 0 where live (B, R + 1) is False (J nu = 0,
    or J = 0 in the last column). The common factor 2 delta of `cols` drops
    out. Each step is per row (elementwise work, last-axis sums, one LAPACK
    SVD per matrix), so no value depends on how many rows come at once.
    """
    u, sigma, _ = np.linalg.svd(np.stack(cols, axis=2), full_matrices=False)
    w = np.empty((cols[0].shape[0], reps.shape[0] + 1, cols[0].shape[1]))
    jnu = w[:, :-1]
    np.multiply(cols[0][:, None, :], reps[:, 0, None], out=jnu)
    for i in range(1, len(cols)):
        jnu += cols[i][:, None, :] * reps[:, i, None]
    w[:, -1] = np.where(sigma[:, :1] > 0, u[:, :, 0], 0.0)
    length = np.sqrt(np.sum(w * w, axis=-1, keepdims=True))
    live = length > 0
    w /= np.where(live, length, 1.0)
    return w, live[..., 0]


class MetricSpace:
    """Base class; concrete spaces fill in spec, rep_dim and the operations."""

    rep_dim = 0

    def distance(self, a, b, p=1):
        raise NotImplementedError

    def seeds(self, stencil, reps, depth):
        """The `Seeds` of the stencil's rows for the direction classes `reps`.

        Seeds are members of the dense set (snapped at `depth`) where the
        directional sup over it is reached, chosen from the metric
        differential J of the stencil. Rows they are not trusted on go to
        the prefix scan.
        """
        raise NotImplementedError

    def dense_points(self, count):
        raise NotImplementedError

    def snap(self, points, depth):
        raise NotImplementedError

    def sample_points(self, count, rng):
        """Bounded sampler used by the axiom checker."""
        raise NotImplementedError

    def canonical(self, points):
        """Canonical representative (identity except for multiset spaces)."""
        return np.asarray(points, dtype=np.float64)

    def validate_point(self, a):
        a = np.asarray(a, dtype=np.float64)
        if a.shape[-1:] != (self.rep_dim,):
            raise InvalidPointError(
                f"{self.spec} expects points of dimension {self.rep_dim}, got shape {a.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise InvalidPointError(f"non-finite point for space {self.spec}")
        return a

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec}>"


class EuclideanSpace(MetricSpace):
    """R^m with the Euclidean distance; dense set = dyadic lattice."""

    def __init__(self, m):
        if m < 1:
            raise ConfigError("euclidean target needs dimension >= 1")
        self.m = int(m)
        self.rep_dim = self.m
        self.spec = f"euclidean:{self.m}"
        self._prefix = np.empty((0, self.m))

    @_single_points_as_rows
    def distance(self, a, b, p):
        d = _difference(a[..., 0], b[..., 0])
        sq = d * d
        for c in range(1, self.m):
            d = _difference(a[..., c], b[..., c])
            sq += d * d
        return sq if p == 2 else _power(np.sqrt(sq, out=sq), p)

    def seeds(self, stencil, reps, depth):
        """The rays u(x) - R J nu / |J nu| at R = REFINE_RADIUS and POLISH_RADIUS; every row is trusted.

        A smooth norm's directional sup over far anchors is |J nu|, reached
        on that ray (Kirchheim 1994), and the sup of |grad d| is reached on
        the top left singular vector's ray.
        """
        w, live = _jacobian_rays(_jacobian_columns(stencil), reps)
        u0 = stencil.u0[:, None, :]
        rays = tuple(self.snap(u0 - radius * w, depth) for radius in (REFINE_RADIUS, POLISH_RADIUS))
        return Seeds(trusted=np.ones(w.shape[0], dtype=bool), rays=rays, live=live)

    def dense_points(self, count):
        if len(self._prefix) < count:
            self._prefix = _dyadic_lattice_prefix(self.m, count)
        return self._prefix[:count]

    def snap(self, points, depth):
        scale = float(2**depth)
        return np.round(np.asarray(points, dtype=np.float64) * scale) / scale

    def sample_points(self, count, rng):
        return rng.uniform(-2.0, 2.0, size=(count, self.m))


class MaxNormPlane(EuclideanSpace):
    """R^2 with the distance induced by the maximum norm."""

    # u -+ R e_i: the extreme points of the dual ball, one anchor each
    _AXES = np.concatenate([-np.eye(2), np.eye(2)])

    def __init__(self):
        super().__init__(2)
        self.spec = "max_norm_plane"

    @_single_points_as_rows
    def distance(self, a, b, p):
        d0 = np.abs(_difference(a[..., 0], b[..., 0]))
        return _power(np.maximum(d0, np.abs(_difference(a[..., 1], b[..., 1])), out=d0), p)

    def seeds(self, stencil, reps, depth):
        """The anchors u(x) -+ R e_i at R = REFINE_RADIUS and POLISH_RADIUS, shared by every direction; every row is trusted.

        The directional sup is ||J nu||_inf = max_i |(J nu)_i|, and near u(x)
        the distance to u(x) - R e_i is u_i - xi_i, so its gradient is that
        of u_i; the sup of |grad d| is max_i |grad u_i|.
        """
        u0 = stencil.u0[:, None, :]
        shared = tuple(self.snap(u0 + radius * self._AXES, depth) for radius in (REFINE_RADIUS, POLISH_RADIUS))
        return Seeds(trusted=np.ones(u0.shape[0], dtype=bool), shared=shared)


class CircleSpace(MetricSpace):
    """Unit circle parametrized by angle, with the geodesic (arc) distance."""

    rep_dim = 1
    spec = "circle"

    def __init__(self):
        self._prefix = np.empty((0, 1))

    @_single_points_as_rows
    def distance(self, a, b, p):
        d = np.abs(_difference(a[..., 0], b[..., 0]))
        np.remainder(d, TAU, out=d, where=d >= TAU)
        r = TAU - d
        return _power(np.minimum(d, r, out=r), p)

    def seeds(self, stencil, reps, depth):
        """The anchors u(x) -+ pi/2, shared by every direction; trusted where the stencil stays on their smooth piece.

        The distance to an anchor xi is linear in the angle except at xi and
        at xi + pi. A row is trusted when every stencil point lies nearer to
        u(x) than both kinks of both anchors: less than pi/2, less the
        snap's offset. Then the seed's value is |nu . grad theta|.
        """
        u0 = stencil.u0[:, None, :]
        anchors = self.snap(u0 + np.array([[-0.5 * math.pi], [0.5 * math.pi]]), depth)
        to_anchor = self.distance(u0, anchors)
        reach = np.min(np.minimum(to_anchor, math.pi - to_anchor), axis=1)
        span = np.max([self.distance(v, u0[:, 0, :]) for v in stencil.plus + stencil.minus], axis=0)
        return Seeds(trusted=span < reach, shared=(anchors,))

    def dense_points(self, count):
        if len(self._prefix) < count:
            angles = [0.0]
            level = 1
            while len(angles) < count:
                angles.extend(TAU * j / 2**level for j in range(1, 2**level, 2))
                level += 1
            self._prefix = np.array(angles)[:count, None]
        return self._prefix[:count]

    def snap(self, points, depth):
        scale = float(2**depth)
        frac = np.round(np.asarray(points, dtype=np.float64) / TAU * scale) % scale
        return frac / scale * TAU

    def sample_points(self, count, rng):
        return rng.uniform(0.0, TAU, size=(count, 1))


class QPointsSpace(MetricSpace):
    """Unordered Q-tuples of points in R^m with the l2-matching distance.

    distance^2 = min over pairings sigma of sum_i |a_i - b_sigma(i)|^2; points
    are represented as Q concatenated m-vectors, order irrelevant.
    """

    def __init__(self, Q, m):
        if Q < 1 or m < 1:
            raise ConfigError("q-points target needs Q >= 1 and m >= 1")
        if Q > 6:
            raise ConfigError("matching distance enumerates Q! pairings; Q > 6 unsupported")
        self.Q = int(Q)
        self.m = int(m)
        self.rep_dim = self.Q * self.m
        self.spec = f"q:{self.Q}:{self.m}"
        self._base = EuclideanSpace(m)
        self._prefix = np.empty((0, self.rep_dim))
        self._perms = list(itertools.permutations(range(self.Q)))

    @_single_points_as_rows
    def distance(self, a, b, p):
        Q, m = self.Q, self.m
        # squared coordinate gaps between block i of a and block j of b,
        # each computed once for every pairing that reads it
        sq = {}
        for i, j, c in itertools.product(range(Q), range(Q), range(m)):
            d = _difference(a[..., i * m + c], b[..., j * m + c])
            d *= d
            sq[i, j, c] = d
        # each block pair (i, j) sits in (Q - 1)! pairings: up to Q = 2 a
        # pairing owns its squares and sums into them in place, from Q = 3
        # the first add makes a fresh array, so the shared squares stay intact
        shared = Q > 2
        best = None
        for perm in self._perms:
            # accumulate in (block, coordinate) order, the order of a
            # sequential sum over the flattened Q*m terms
            terms = [sq[i, j, c] for i, j in enumerate(perm) for c in range(m)]
            cost = terms[0] + terms[1] if shared else terms[0]
            for term in terms[2 if shared else 1 :]:
                cost += term
            best = cost if best is None else np.minimum(best, cost, out=best)
        return best if p == 2 else _power(np.sqrt(best, out=best), p)

    def seeds(self, stencil, reps, depth):
        """The Euclidean ray on the Q*m-vector at R = min(POLISH_RADIUS, sep/4); trusted where the sheets stay apart.

        sep is the smallest distance between two of the Q points of u(x),
        and a sheet's slope |J_k| the Frobenius norm of its block of J. A row
        is trusted when sep > 32 delta max_k |J_k| and sep > 32 2^-depth:
        then on the stencil every sheet moves less than sep/32, the snapped
        anchor's blocks lie within about sep/4 of their own sheets, and the
        identity pairing is strictly the best one. The matching distance is
        then the Euclidean distance of the Q*m-vectors, whose sup is |J nu|.
        A map whose evaluator swaps the sheets between stencil points gets a
        slope of about sep / delta there, so those rows are not trusted.
        """
        Q, m = self.Q, self.m
        cols = _jacobian_columns(stencil)
        u0 = stencil.u0
        sep = np.full(u0.shape[0], np.inf)
        for i, j in itertools.combinations(range(Q), 2):
            np.minimum(sep, self._base.distance(u0[:, i * m : (i + 1) * m], u0[:, j * m : (j + 1) * m]), out=sep)
        slope = np.max([np.sqrt(sum(np.sum(c[:, k * m : (k + 1) * m] ** 2, axis=1) for c in cols))
                        for k in range(Q)], axis=0) / (2.0 * stencil.delta)
        trusted = (sep > 32.0 * stencil.delta * slope) & (sep > math.ldexp(32.0, -depth))
        radius = np.minimum(POLISH_RADIUS, np.where(trusted, sep, 0.0) / 4.0)
        w, live = _jacobian_rays(cols, reps)
        return Seeds(trusted=trusted, rays=(self.snap(u0[:, None, :] - radius[:, None, None] * w, depth),), live=live)

    def _index_tuples(self):
        total = 0
        while True:
            yield from self._tuples_with_sum(self.Q, total, 0)
            total += 1

    @staticmethod
    def _tuples_with_sum(q, total, k_min):
        if q == 1:
            if total >= k_min:
                yield (total,)
            return
        for k in range(k_min, total // q + 1):
            for rest in QPointsSpace._tuples_with_sum(q - 1, total - k, k):
                yield (k, *rest)

    def dense_points(self, count):
        if len(self._prefix) < count:
            tuples = list(itertools.islice(self._index_tuples(), count))
            base = self._base.dense_points(max(max(t) for t in tuples) + 1)
            self._prefix = np.array([np.concatenate([base[k] for k in t]) for t in tuples])
        return self._prefix[:count]

    def canonical(self, points):
        """Sort the Q blocks lexicographically (batched stable sorts)."""
        pts = np.asarray(points, dtype=np.float64)
        blocks = pts.reshape(pts.shape[:-1] + (self.Q, self.m))
        for c in range(self.m - 1, -1, -1):
            order = np.argsort(blocks[..., c], axis=-1, kind="stable")
            blocks = np.take_along_axis(blocks, order[..., None], axis=-2)
        return blocks.reshape(pts.shape)

    def snap(self, points, depth):
        # block order is irrelevant to the matching distance, so no
        # canonicalization is needed here
        return self._base.snap(points, depth)

    def sample_points(self, count, rng):
        return self.canonical(rng.uniform(-2.0, 2.0, size=(count, self.rep_dim)))


def make_space(spec):
    """Parse a space spec string: euclidean:m | max_norm_plane | circle | q:Q:m."""
    parts = str(spec).strip().split(":")
    head = parts[0]
    try:
        if head == "euclidean":
            return EuclideanSpace(int(parts[1]))
        if head == "max_norm_plane" and len(parts) == 1:
            return MaxNormPlane()
        if head == "circle" and len(parts) == 1:
            return CircleSpace()
        if head == "q":
            return QPointsSpace(int(parts[1]), int(parts[2]))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed space spec {spec!r}") from exc
    raise ConfigError(f"unknown space spec {spec!r}")


AXIOM_TOLERANCE = 1e-12  # absolute slack of each axiom check


@dataclass
class AxiomReport:
    space: str
    samples: int
    seed: int
    violations: dict = field(default_factory=dict)

    @property
    def total_violations(self):
        return sum(self.violations.values())


def verify_metric_axioms(space, samples, seed):
    """Check the metric axioms on random triples from the bounded sampler.

    Counts violations beyond AXIOM_TOLERANCE of: nonnegativity, d(a,a)=0,
    positivity for visibly distinct points, symmetry, and the triangle
    inequality. Exact metrics should report zero everywhere.
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    a = space.sample_points(samples, rng)
    b = space.sample_points(samples, rng)
    c = space.sample_points(samples, rng)
    d_ab = space.distance(a, b)
    d_ba = space.distance(b, a)
    d_bc = space.distance(b, c)
    d_ac = space.distance(a, c)
    d_aa = space.distance(a, a)

    distinct = np.max(np.abs(space.canonical(a) - space.canonical(b)), axis=-1) > 1e-6
    report = AxiomReport(space=space.spec, samples=samples, seed=seed)
    report.violations = {
        "nonnegativity": int(np.sum(d_ab < -AXIOM_TOLERANCE)),
        "identity": int(np.sum(d_aa > AXIOM_TOLERANCE)),
        "positivity": int(np.sum(distinct & (d_ab <= AXIOM_TOLERANCE))),
        "symmetry": int(np.sum(np.abs(d_ab - d_ba) > AXIOM_TOLERANCE)),
        "triangle": int(np.sum(d_ac - d_ab - d_bc > AXIOM_TOLERANCE)),
    }
    return report
