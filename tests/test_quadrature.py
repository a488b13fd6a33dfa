import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksenergy import EnergyConfig, ball_nodes, energy_normalization, sphere_nodes, unit_ball_volume
from ksenergy.errors import ExtrapolationDataError, UnsupportedDimensionError
from ksenergy.quadrature import extrapolate_fields, radial_nodes


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)


def test_energy_normalization_formula():
    # (n + p) / (n * omega_n)
    assert energy_normalization(2, 2.0) == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert energy_normalization(3, 1.0) == pytest.approx(4.0 / (3.0 * 4.0 * math.pi / 3.0), rel=1e-15)


class TestSphereRules:
    def test_four_uniform_angles(self):
        rule = sphere_nodes(2, 4)
        angles = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0]) % (2 * math.pi)
        assert sorted(np.round(angles, 12)) == pytest.approx(
            [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], abs=1e-12
        )
        assert rule.weights == pytest.approx([0.25] * 4)

    def test_normalization_and_unit_norm(self):
        for n, order in [(2, 256), (2, 7), (3, (16, 32)), (4, 512)]:
            rule = sphere_nodes(n, order, seed=3)
            assert abs(rule.weights.sum() - 1.0) < 1e-12
            assert np.all(rule.weights > 0)
            assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=1) - 1.0)) < 1e-12

    def test_trig_polynomial_exactness_n2(self):
        rule = sphere_nodes(2, 256)
        nu1, nu2 = rule.nodes[:, 0], rule.nodes[:, 1]
        assert rule.weights @ nu1**2 == pytest.approx(0.5, abs=1e-14)
        assert rule.weights @ (nu1 * nu2) == pytest.approx(0.0, abs=1e-14)
        assert rule.weights @ nu1**4 == pytest.approx(3.0 / 8.0, abs=1e-14)

    def test_antipodal_pairing_even_count(self):
        rule = sphere_nodes(2, 64)
        half = rule.nodes[:32]
        assert np.array_equal(rule.nodes[32:], -half)

    def test_circle_rule_equals_the_half_and_whole_formulas(self):
        """The circle rule keeps the bits of its two old constructions: antipodal halves for even counts, all angles for odd."""

        def reference(count):
            if count % 2 == 0:
                theta = 2.0 * math.pi * np.arange(count // 2) / count
                half = np.column_stack([np.cos(theta), np.sin(theta)])
                return np.vstack([half, -half])
            theta = 2.0 * math.pi * np.arange(count) / count
            return np.column_stack([np.cos(theta), np.sin(theta)])

        for count in range(1, 4097):
            assert np.array_equal(sphere_nodes(2, count).nodes, reference(count)), count

    def test_layered_rule_n3(self):
        rule = sphere_nodes(3, (16, 32))
        assert rule.weights @ rule.nodes[:, 2] ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rule.weights @ rule.nodes[:, 0] ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_qmc_fallback_seeded(self):
        a = sphere_nodes(5, 2048, seed=11)
        b = sphere_nodes(5, 2048, seed=11)
        assert np.array_equal(a.nodes, b.nodes)
        assert a.weights @ a.nodes[:, 0] ** 2 == pytest.approx(1.0 / 5.0, abs=5e-3)

    def test_rejects_low_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            sphere_nodes(0)

    def test_s0(self):
        rule = sphere_nodes(1)
        assert np.array_equal(rule.nodes, [[1.0], [-1.0]])
        assert np.array_equal(rule.weights, [0.5, 0.5])


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0])
def test_radial_rule_is_gauss_jacobi(m, beta):
    """Golub-Welsch in numpy gives scipy's Gauss-Jacobi rule (alpha = 0) mapped to (0, 1) for the weight r^beta."""
    from scipy.special import roots_jacobi  # the package never imports scipy.special

    x, w = roots_jacobi(m, 0.0, beta)
    r, weights = radial_nodes(m, beta)
    assert np.max(np.abs(r - (x + 1.0) / 2.0)) <= 1e-15
    assert np.max(np.abs(weights / (w / 2.0 ** (beta + 1.0)) - 1.0)) <= 1e-13


class TestBallRules:
    def test_total_weight_is_ball_volume(self):
        # at p = 0 the rule is the plain volume rule
        assert ball_nodes(2).weights.sum() == pytest.approx(math.pi, abs=1e-12)
        assert ball_nodes(3).weights.sum() == pytest.approx(4 * math.pi / 3, abs=1e-12)
        assert ball_nodes(1).weights.sum() == pytest.approx(2.0, abs=1e-12)

    def test_one_d_takes_the_radial_entry_of_a_pair(self):
        # EnergyConfig.ball_order is a (radial, angular) pair in every dimension; S^0 ignores the angular entry
        rule = ball_nodes(1, (8, 64))
        assert rule.nodes.shape == (16, 1)
        assert np.array_equal(rule.nodes, ball_nodes(1, (8, 2)).nodes)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_exact_on_the_p_th_power_of_the_radius(self, n, p):
        """One radius integrates |v|^p over the ball, (n omega_n) / (n + p), and so does the default rule."""
        want = n * unit_ball_volume(n) / (n + p)
        for order in ((1, {1: 2, 2: 16, 3: (4, 8)}[n]), None):
            rule = ball_nodes(n, order, p=p)
            got = rule.weights @ np.linalg.norm(rule.nodes, axis=1) ** p
            assert got == pytest.approx(want, rel=1e-14, abs=0), order

    def test_radial_moment(self):
        rule = ball_nodes(2)
        assert rule.weights @ np.sum(rule.nodes**2, axis=1) == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_nodes_inside_ball_weights_positive(self):
        for n in (1, 2, 3):
            rule = ball_nodes(n)
            assert np.all(np.linalg.norm(rule.nodes, axis=1) <= 1.0 + 1e-12)
            assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_node_has_a_direction(self, n):
        """The Gauss-Jacobi radii lie in (0, 1), so no node sits at the origin."""
        for radial in range(1, 65):
            for p in (0.0, 1.5):
                assert np.all(np.linalg.norm(ball_nodes(n, (radial, 16), p=p).nodes, axis=1) > 0), (radial, p)

    def test_linear_map_second_moment(self):
        # integral over the ball of |A v|^2 = |A|_F^2 * pi / 4 in 2-d
        rule = ball_nodes(2)
        a = np.array([[1.0, 0.5], [0.0, 2.0]])
        vals = np.linalg.norm(rule.nodes @ a.T, axis=1) ** 2
        assert rule.weights @ vals == pytest.approx(np.sum(a * a) * math.pi / 4, rel=1e-13)


def _fit_sequence(pairs):
    """(limit, order, error, fallback) of one (h, value) sequence."""
    h, v = np.array(pairs, dtype=np.float64).T
    return tuple(a[0] for a in extrapolate_fields(h, v[:, None]))


class TestExtrapolation:
    def test_first_order_sequence(self):
        limit, order, _, fallback = _fit_sequence([(0.4, 1.4), (0.2, 1.2), (0.1, 1.1)])
        assert limit == pytest.approx(1.0, abs=1e-12)
        assert order == pytest.approx(1.0, abs=1e-9)
        assert not fallback

    def test_second_order_sequence(self):
        limit, order, _, _ = _fit_sequence([(0.4, 2 + 3 * 0.16), (0.2, 2 + 3 * 0.04), (0.1, 2 + 3 * 0.01)])
        assert limit == pytest.approx(2.0, abs=1e-11)
        assert order == pytest.approx(2.0, abs=1e-9)

    def test_constant_sequence(self):
        limit, order, error, _ = _fit_sequence([(0.4, 5.0), (0.2, 5.0), (0.1, 5.0)])
        assert limit == 5.0
        assert order == 0.0
        assert error == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        limit=st.floats(-5, 5),
        coeff=st.floats(0.1, 3),
        order=st.floats(0.5, 3),
    )
    def test_exact_on_synthetic_geometric(self, limit, coeff, order):
        hs = [0.4, 0.2, 0.1, 0.05]
        pairs = [(h, limit + coeff * h**order) for h in hs]
        fit_limit, fit_order, _, _ = _fit_sequence(pairs)
        assert fit_limit == pytest.approx(limit, abs=1e-8)
        assert fit_order == pytest.approx(order, abs=1e-6)

    def test_requires_three_pairs(self):
        with pytest.raises(ExtrapolationDataError):
            _fit_sequence([(0.2, 1.0), (0.1, 1.0)])

    def test_requires_decreasing_h(self):
        with pytest.raises(ExtrapolationDataError):
            _fit_sequence([(0.1, 1.0), (0.2, 1.1), (0.05, 0.9)])

    def test_requires_a_halving_ladder(self):
        with pytest.raises(ExtrapolationDataError):
            _fit_sequence([(0.4, 1.4), (0.3, 1.3), (0.05, 1.05)])

    def test_closed_form_is_exact_on_an_exact_ratio(self):
        """1 + h^2 at h = 1/2, 1/4, 1/8: d1 / d2 = 4 exactly, so the fit is exact to the bit."""
        limit, order, error, fallback = _fit_sequence([(h, 1.0 + h * h) for h in (0.5, 0.25, 0.125)])
        assert (limit, order, error, fallback) == (1.0, 2.0, 2.0**-6, False)

    def test_accepts_a_ladder_with_subnormal_steps(self):
        """h0 = 0.05 at h_count = 1019 ends below the normal range, where 2 * h[j + 1] == h[j] fails."""
        h = np.array(EnergyConfig(h0=0.05, h_count=1019, p=1.0).h_ladder())
        assert not np.all(2.0 * h[1:] == h[:-1])
        limit, order, _, fallback = extrapolate_fields(h, (1.0 + h)[:, None])
        assert limit == [1.0] and order == [0.0] and not fallback.any()

    @pytest.mark.parametrize("values", [(1.0, 1.5, 1.0), (2.0, 1.5, 1.0), (1.0 + 2.0**-4, 1.0 + 2.0**-21, 1.0)])
    def test_unfittable_ratio_falls_back_to_first_order(self, values):
        """d1 / d2 = -1, 1 and 2^17 lie outside [2^0.001, 2^16]: the correction is d2, flagged."""
        limit, order, error, fallback = _fit_sequence(list(zip((0.4, 0.2, 0.1), values)))
        d2 = values[1] - values[2]
        assert (limit, order, error, fallback) == (values[2] - d2, 1.0, d2, True)

    def test_vectorized_matches_scalar(self):
        h = np.array([0.4, 0.2, 0.1])
        v = np.stack([1 + h, 2 + 3 * h**2, np.full(3, 7.0)], axis=1)
        limit, order, err, fb = extrapolate_fields(h, v)
        assert limit == pytest.approx([1.0, 2.0, 7.0], abs=1e-11)
        assert order == pytest.approx([1.0, 2.0, 0.0], abs=1e-8)
        assert err[2] == 0.0
        assert not fb.any()

