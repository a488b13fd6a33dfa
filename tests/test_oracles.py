import math

import numpy as np
import pytest

from ksenergy.oracles import (
    linear_euclidean_density,
    maxnorm_counterexample_constants,
)


TOL = 1e-14


def close(value, ref):
    return abs(value - ref) <= TOL * max(1.0, abs(ref))


def mean_abs_cos(p):
    """Mean of |cos theta|^p over the circle."""
    return math.gamma((p + 1) / 2) / (math.sqrt(math.pi) * math.gamma(p / 2 + 1))


def circle_midpoint(f, nodes, lo=0.0, hi=2.0 * math.pi):
    """Midpoint sum of f(cos theta, sin theta) over [lo, hi], divided by 2 pi."""
    theta = lo + (np.arange(nodes) + 0.5) * ((hi - lo) / nodes)
    return float(np.sum(f(np.cos(theta), np.sin(theta)))) * ((hi - lo) / nodes) / (2.0 * math.pi)


ROWS = ((1.0, 0.3), (0.2, 1.1))


def test_maxnorm_p2_matches_closed_form():
    frame, sphere = maxnorm_counterexample_constants(2.0)
    assert frame == 2.0
    assert close(sphere, (2.0 + math.pi) / (2.0 * math.pi))
    assert close(sphere, 0.8183098861837907)


def test_maxnorm_p1_closed_form():
    # mean of max(|cos|, |sin|) over the circle is 2 sqrt(2) / pi
    _, sphere = maxnorm_counterexample_constants(1.0)
    assert close(sphere, 2.0 * math.sqrt(2.0) / math.pi)


@pytest.mark.parametrize("p", [1.5, 2.5])
def test_rank_one_rows_closed_form(p):
    """|nu.g|^p vanishes at an arc end here, where a per-arc Gauss-Legendre rule loses digits."""
    _, sphere = maxnorm_counterexample_constants(p, grad_rows=((1, 1), (1, 1)))
    assert close(sphere, 2 ** (p / 2) * mean_abs_cos(p))
    # |A nu| = 5 |cos(theta - theta0)| for A = ((1, 2), (2, 4))
    assert close(linear_euclidean_density(np.array([[1.0, 2.0], [2.0, 4.0]]), p), 25 ** (p / 2) * mean_abs_cos(p))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_maxnorm_general_rows_match_midpoint_sum(p):
    """A midpoint sum on each arc between the kinks, with one Richardson step."""
    g1, g2 = np.array(ROWS)

    def f(c, s):
        return np.maximum(np.abs(c * g1[0] + s * g1[1]), np.abs(c * g2[0] + s * g2[1])) ** p

    kinks = sorted((math.atan2(w[1], w[0]) + 0.5 * math.pi) % math.pi + k * math.pi
                   for w in (g1, g2, g1 + g2, g1 - g2) for k in (0, 1))
    ends = kinks + [kinks[0] + 2.0 * math.pi]

    def arcs(m):
        return sum(circle_midpoint(f, m, lo, hi) for lo, hi in zip(ends[:-1], ends[1:]))

    _, sphere = maxnorm_counterexample_constants(p, grad_rows=ROWS)
    assert close(sphere, (4.0 * arcs(20_000) - arcs(10_000)) / 3.0)


def test_degenerate_constant_map():
    frame, sphere = maxnorm_counterexample_constants(2.0, grad_rows=((0, 0), (0, 0)))
    assert frame == 0.0 and sphere == 0.0


def test_frame_sum_general_rows():
    frame, _ = maxnorm_counterexample_constants(2.0, grad_rows=((1, 0.5), (0.25, 2)))
    assert frame == pytest.approx(max(1, 0.25) ** 2 + max(0.5, 2) ** 2, abs=1e-12)


class TestLinearDensity:
    def test_identity_p2(self):
        assert close(linear_euclidean_density(np.eye(2), 2.0), 1.0)

    def test_diagonal_trace_formula(self):
        a = np.diag([1.0, 2.0])
        assert close(linear_euclidean_density(a, 2.0), np.sum(a * a) / 2.0)

    def test_general_matrix_trace_formula(self):
        a = np.array([[1.0, 0.5], [0.25, 2.0]])
        assert close(linear_euclidean_density(a, 2.0), np.sum(a * a) / 2.0)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_general_rows_match_midpoint_sum(self, p):
        """|A nu|^p of a full-rank A is periodic and analytic, so a plain midpoint sum converges fast."""
        a = np.array(ROWS)
        ref = circle_midpoint(lambda c, s: np.hypot(c * a[0, 0] + s * a[0, 1], c * a[1, 0] + s * a[1, 1]) ** p, 16_384)
        assert close(linear_euclidean_density(a, p), ref)

    def test_zero_matrix(self):
        assert linear_euclidean_density(np.zeros((2, 2)), 2.0) == 0.0

    def test_rotation_invariance_p_general(self):
        # |Q A nu| = |A nu| for orthogonal Q, any p
        a = np.array([[1.0, 0.5], [0.25, 2.0]])
        th = 0.7
        q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        va = linear_euclidean_density(a, 1.5)
        vqa = linear_euclidean_density(q @ a, 1.5)
        assert va == pytest.approx(vqa, rel=1e-10)

    def test_three_dimensional_domain(self):
        val = linear_euclidean_density(np.eye(3), 2.0)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            linear_euclidean_density(np.zeros((2, 5)), 2.0)
        with pytest.raises(ValueError):
            linear_euclidean_density(np.zeros(3), 2.0)


def test_oracles_do_not_use_quadrature_module():
    """The reference path must stay independent of the rule machinery."""
    import ksenergy.oracles as mod

    imported = {getattr(v, "__name__", "") for v in vars(mod).values()}
    assert "ksenergy.quadrature" not in imported
    assert not any(getattr(v, "__module__", "").endswith("quadrature") for v in vars(mod).values())
