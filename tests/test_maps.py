import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksenergy import build_grid, make_map, make_space
from ksenergy.errors import ConfigError, MapEvaluationError, StencilRangeError
from ksenergy.maps import MetricMap, eval_stencil
from ksenergy.spaces import TAU


@pytest.fixture(scope="module")
def grid2():
    return build_grid([0, 0], [1, 1], [16, 16])


class TestEval:
    def test_identity(self):
        m = make_map("identity", make_space("euclidean:2"), 2)
        assert m.eval(np.array([0.3, 0.7])) == pytest.approx([0.3, 0.7])

    def test_constant(self):
        space = make_space("euclidean:2")
        m = make_map("constant:0.5,-1.0", space, 2)
        out = m.eval(np.array([[0.1, 0.2], [0.9, 0.9]]))
        assert np.allclose(out, [[0.5, -1.0], [0.5, -1.0]], atol=1e-15)

    def test_constant_labels_are_plain_floats(self):
        """A constant map's label (and so its messages) spells each coordinate as a float, not a numpy scalar."""
        assert make_map("constant:1,2", make_space("euclidean:2"), 2).label == "constant:1.0,2.0"
        assert make_map("constant", make_space("euclidean:2"), 2).label == "constant:0.0,0.0"
        assert make_map("constant", make_space("q:2:1"), 2).label == "constant:0.0,0.0"
        assert make_map("constant", make_space("circle"), 2).label == "constant:0.0"

    def test_winding_substitution(self):
        m = make_map("winding:2", make_space("circle"), 2)
        assert m.eval(np.array([math.pi / 2, 0.0]))[0] == pytest.approx(math.pi, abs=1e-15)

    @pytest.mark.parametrize("k", [2.0, -2.0, 0.5])
    def test_winding_equals_plain_remainder(self, k):
        """Bit for bit (sign of zero included) the plain `(k * x) % 2pi` on every branch of the fast path.

        k x is negative, -0.0, +0.0, inside (0, 2pi), next to 2pi, exactly 2pi,
        above 2pi up to 10^6, infinite or NaN.
        """
        m = make_map(f"winding:{k!r}", make_space("circle"), 2)
        angles = [-1e6, -TAU, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, np.nextafter(TAU, 0.0), TAU,
                  np.nextafter(TAU, 7.0), 2.0 * TAU, 1e6, math.inf, -math.inf, math.nan]
        rng = np.random.default_rng(0)
        first = np.concatenate([np.array(angles) / k, rng.uniform(-1e3, 1e3, 200)])
        # k is a power of two, so k * (angle / k) is the angle itself
        assert np.array_equal(k * first[: len(angles)], angles, equal_nan=True)
        assert np.array_equal(np.signbit(k * first[4:6]), [True, False])
        x = np.stack([first, rng.normal(size=first.size)], axis=-1)
        with np.errstate(invalid="ignore"):
            got = m.eval(x)
            want = (k * x[..., :1]) % TAU
        assert np.array_equal(got, want, equal_nan=True)
        finite = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))

    def test_two_slope_winding(self):
        """winding:k1,k2 is (k1 x1 + k2 x2) mod 2pi; winding:k is winding:k,0."""
        x = np.random.default_rng(0).uniform(-3.0, 3.0, size=(50, 2))
        got = make_map("winding:2,1.3", make_space("circle"), 2).eval(x)
        assert np.array_equal(got, (2.0 * x[:, :1] + 1.3 * x[:, 1:]) % TAU)
        one = make_map("winding:0.75", make_space("circle"), 2).eval(x)
        assert np.array_equal(one, make_map("winding:0.75,0", make_space("circle"), 2).eval(x))

    def test_vectorized_shapes(self):
        m = make_map("qsplit", make_space("q:2:1"), 2)
        out = m.eval(np.zeros((5, 3, 2)))
        assert out.shape == (5, 3, 2)

    @pytest.mark.parametrize("map_spec, space_spec", [("swirl:0.3", "euclidean:2"), ("qsplit", "q:2:1")])
    def test_coordinate_planes_equal_stacked_formulas(self, map_spec, space_spec):
        """swirl and qsplit equal their np.stack formulas bit for bit.

        Inputs: a single point, (N, 2) rows, and (R, B, 2) ball points
        C-ordered and coordinate-major (the KS tile layout).
        """
        m = make_map(map_spec, make_space(space_spec), 2)

        def stacked(x):
            if map_spec == "qsplit":
                sheet = 1.0 + 0.25 * x[..., 0] + 0.5 * x[..., 1]
                return np.stack([sheet, -sheet], axis=-1)
            return np.stack([x[..., 0] + 0.3 * np.sin(x[..., 1]), x[..., 1] + 0.3 * np.cos(x[..., 0])], axis=-1)

        planes = np.random.default_rng(3).uniform(-4.0, 4.0, size=(2, 37, 128))
        ball = np.moveaxis(planes, 0, -1)
        for x in (planes[:, 0, 0], np.ascontiguousarray(ball[0]), ball[0], np.ascontiguousarray(ball), ball):
            got = m.eval(x)
            assert got.shape == x.shape[:-1] + (2,)
            assert np.array_equal(got, stacked(x))

    def test_evaluator_failure_carries_point(self):
        def boom(x):
            raise RuntimeError("nope")

        m = MetricMap(make_space("euclidean:2"), boom, "boom")
        with pytest.raises(MapEvaluationError) as err:
            m.eval(np.array([0.25, 0.75]))
        assert err.value.point is not None


def _field(metric_map, anchor, grid):
    """x -> d(u(x), anchor) at the grid nodes."""
    return metric_map.target.distance(metric_map.eval(grid.nodes), np.asarray(anchor, dtype=np.float64))


def _gradient(metric_map, anchor, points, delta, grid):
    """(N, n) central-difference gradients of x -> d(u(x), anchor) at the rows of `points`."""
    stencil = eval_stencil(metric_map, np.atleast_2d(points), delta, grid)
    return stencil.gradient(metric_map.target, np.asarray(anchor, dtype=np.float64)[None])[:, 0]


class TestAnchorDistanceFields:
    """The anchor-distance fields x -> d(u(x), xi) that every directional gradient differences."""

    def test_identity_distance_to_origin_1d(self):
        g = build_grid([-1.0], [1.0], [8])
        m = make_map("identity", make_space("euclidean:1"), 1)
        assert _field(m, [0.0], g) == pytest.approx(np.abs(g.nodes[:, 0]), abs=1e-15)

    def test_constant_map_zero_field(self, grid2):
        space = make_space("euclidean:2")
        m = make_map("constant", space, 2)
        assert np.all(_field(m, space.dense_points(1)[0], grid2) == 0.0)

    def test_max_norm_field_formula(self, grid2):
        m = make_map("identity", make_space("max_norm_plane"), 2)
        values = _field(m, [0.0, 0.0], grid2)
        assert values == pytest.approx(np.max(np.abs(grid2.nodes), axis=1), abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(
        xi=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        eta=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    )
    def test_anchor_lipschitz_property(self, xi, eta):
        """|d(u(x), xi) - d(u(x), eta)| <= d(xi, eta) at every node."""
        g = build_grid([0, 0], [1, 1], [8, 8])
        space = make_space("max_norm_plane")
        m = make_map("identity", space, 2)
        bound = space.distance(np.array(xi), np.array(eta))
        assert np.max(np.abs(_field(m, xi, g) - _field(m, eta, g))) <= bound + 1e-12

    def test_reverse_triangle_sup_monotone_in_prefix(self, grid2):
        """sup_k |field_k(x) - field_k(y)| grows with K, below d(u(x), u(y))."""
        space = make_space("euclidean:2")
        m = make_map("swirl:0.4", space, 2)
        x, y = np.array([0.21875, 0.34375]), np.array([0.78125, 0.59375])
        ux, uy = m.eval(x), m.eval(y)
        target = float(space.distance(ux, uy))
        anchors = space.dense_points(512)
        sups = np.maximum.accumulate(
            np.abs(space.distance(ux, anchors) - space.distance(uy, anchors))
        )
        assert np.all(np.diff(sups) >= 0)
        assert sups[-1] <= target + 1e-12
        assert sups[-1] >= 0.8 * target  # prefix already close by K=512


class TestFdGradient:
    def test_linear_region_of_absolute_value(self):
        g = build_grid([-1.0], [1.0], [8])
        m = make_map("identity", make_space("euclidean:1"), 1)
        assert _gradient(m, [0.0], [0.5], 1e-4, g)[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_constant_field_zero_gradient(self, grid2):
        space = make_space("euclidean:2")
        m = make_map("constant", space, 2)
        grad = _gradient(m, space.dense_points(1)[0], [0.4, 0.6], 1e-4, grid2)[0]
        assert grad == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_max_norm_gradient_off_diagonal(self, grid2):
        m = make_map("identity", make_space("max_norm_plane"), 2)
        grad = _gradient(m, [0.0, 0.0], [0.7, 0.2], 1e-4, grid2)[0]
        assert grad == pytest.approx([1.0, 0.0], abs=1e-8)

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_exact_on_linear_scalar_field(self, delta):
        """Central differences recover a linear field's slope for any step."""
        g = build_grid([0, 0], [1, 1], [8, 8])
        m = make_map("linear:0.75,-0.5", make_space("euclidean:1"), 2)
        grad = _gradient(m, [50.0], [0.4, 0.6], delta, g)[0]  # remote anchor: field is affine
        assert grad == pytest.approx([-0.75, 0.5], abs=1e-9)

    def test_batch_matches_single(self, grid2):
        m = make_map("identity", make_space("euclidean:2"), 2)
        pts = grid2.nodes[[3, 17, 200]]
        batch = _gradient(m, [2.0, 2.0], pts, 1e-4, grid2)
        for row, x in zip(batch, pts):
            assert row == pytest.approx(_gradient(m, [2.0, 2.0], x, 1e-4, grid2)[0], abs=1e-14)

    @pytest.mark.parametrize("map_spec, space_spec", [("swirl:0.3", "euclidean:2"), ("qsplit", "q:2:1")])
    @pytest.mark.parametrize("delta", [2.0**-7, 1e-3])
    def test_per_row_anchors_match_shared_anchors(self, grid2, map_spec, space_spec, delta):
        """Per-row anchors (B, A, m) give each row's shared-anchor differences; the gradient divides them by 2 delta.

        Both bit for bit, at a dyadic and a non-dyadic step.
        """
        space = make_space(space_spec)
        m = make_map(map_spec, space, 2)
        pts = grid2.nodes[[3, 17, 100, 200]]
        stencil = eval_stencil(m, pts, delta, grid2)
        anchors = np.stack([space.dense_points(40)[r::4][:9] for r in range(len(pts))])
        per_row = list(stencil.differences(space, anchors))
        for r in range(len(pts)):
            alone = list(stencil.take(slice(r, r + 1)).differences(space, anchors[r]))
            for got, want in zip(per_row, alone):
                assert np.array_equal(got[r], want[0])
        shared = anchors[0]
        grads = stencil.gradient(space, shared)
        for i, diff in enumerate(stencil.differences(space, shared)):
            assert np.array_equal(grads[:, :, i], diff / (2.0 * delta))

    def test_stencil_leaving_margin_raises(self):
        g = build_grid([0, 0], [1, 1], [8, 8])
        space = make_space("euclidean:2")
        bounded = MetricMap(space, lambda x: np.array(x, copy=True), "bounded-identity", margin=0.0)
        with pytest.raises(StencilRangeError):
            _gradient(bounded, [0.0, 0.0], [0.0625, 0.5], 0.1, g)
        with pytest.raises(StencilRangeError):
            _gradient(bounded, [0.0, 0.0], [0.5, 0.5], -1e-3, g)


def test_make_map_validation():
    with pytest.raises(ConfigError):
        make_map("identity", make_space("circle"), 2)
    with pytest.raises(ConfigError):
        make_map("identity", make_space("euclidean:3"), 2)
    with pytest.raises(ConfigError):
        make_map("qsplit", make_space("q:2:2"), 2)
    with pytest.raises(ConfigError):
        make_map("linear:1,2;3", make_space("euclidean:2"), 2)
    with pytest.raises(ConfigError):
        make_map("linear:1,0;0,1", make_space("circle"), 2)
    with pytest.raises(ConfigError):
        make_map("winding:2", make_space("euclidean:2"), 2)
    with pytest.raises(ConfigError):
        make_map("winding:1,2,3", make_space("circle"), 3)
    with pytest.raises(ConfigError):
        make_map("winding:1,2", make_space("circle"), 1)
    with pytest.raises(ConfigError):
        make_map("mystery", make_space("euclidean:2"), 2)
